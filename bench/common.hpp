#pragma once

// Shared plumbing for the figure/table reproduction binaries: the
// paper's test protocol (34 walks, 12 legs each, users cycled) and
// uniform printing of error CDFs and summary rows.  Each binary also
// dumps its series to CSV under bench_results/ so the figures can be
// re-plotted offline.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "eval/convergence.hpp"
#include "eval/experiment_world.hpp"
#include "util/csv.hpp"

namespace moloc::bench {

/// The paper's test workload (Sec. VI.A): 34 held-out walks.
inline constexpr int kTestTraces = 34;
inline constexpr int kLegsPerTrace = 12;

/// Where CSV series land; created on demand.
inline std::string resultsDir() {
  const std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// The host CPU's model name (first "model name" line of
/// /proc/cpuinfo), or "unknown"; recorded in a BENCH_*.json config so
/// its numbers are read with their hardware.
inline std::string cpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

/// Paired per-walk records for one AP configuration.
struct PairedRun {
  int apCount = 0;
  eval::ErrorStats moloc;
  eval::ErrorStats wifi;
  std::vector<std::vector<eval::LocalizationRecord>> molocWalks;
  std::vector<std::vector<eval::LocalizationRecord>> wifiWalks;
};

/// Runs the paper's test protocol against a freshly built world.
inline PairedRun runPaired(const eval::WorldConfig& config,
                           int traces = kTestTraces,
                           int legs = kLegsPerTrace) {
  eval::ExperimentWorld world(config);
  PairedRun run;
  run.apCount = config.apCount;
  for (const auto& outcome : eval::runComparison(world, traces, legs)) {
    run.moloc.addAll(outcome.moloc);
    run.wifi.addAll(outcome.wifi);
    run.molocWalks.push_back(outcome.moloc);
    run.wifiWalks.push_back(outcome.wifi);
  }
  return run;
}

/// Prints one CDF as "value cumulative" rows, downsampled.
inline void printCdf(const char* label,
                     const std::vector<util::CdfPoint>& cdf) {
  std::printf("  %s CDF (error_m -> cumulative):\n", label);
  for (const auto& point : cdf)
    std::printf("    %6.2f  %.3f\n", point.value, point.cumulative);
}

/// Writes paired CDFs to CSV: columns method,error_m,cumulative.
inline void writeCdfCsv(const std::string& path,
                        const eval::ErrorStats& moloc,
                        const eval::ErrorStats& wifi) {
  util::CsvWriter csv(path, {"method", "error_m", "cumulative"});
  for (const auto& point : moloc.cdf())
    csv.cell("moloc").cell(point.value).cell(point.cumulative).endRow();
  for (const auto& point : wifi.cdf())
    csv.cell("wifi").cell(point.value).cell(point.cumulative).endRow();
}

// ---- Perf-trajectory plumbing (BENCH_*.json) ------------------------
//
// The micro benches emit machine-readable JSON snapshots under
// bench_results/ (schema in docs/performance.md) so perf can be
// tracked as a trajectory across commits.  The emitter is deliberately
// dependency-free: a JSON library would be a new third-party
// requirement for every bench binary.

/// The shared measurement-length override: MOLOC_BENCH_ROUNDS=N
/// replaces `fallback` when set to a positive integer.
inline std::size_t envRounds(std::size_t fallback) {
  if (const char* env = std::getenv("MOLOC_BENCH_ROUNDS"))
    if (const long parsed = std::atol(env); parsed > 0)
      return static_cast<std::size_t>(parsed);
  return fallback;
}

/// Percentile summary of per-operation latency samples.  bestNs (the
/// fastest sample) is the statistic speedups are computed from: on a
/// shared/virtualized host, scheduler steal inflates every percentile
/// of a CPU-bound microbenchmark, while the best sample approaches the
/// true cost of the code under test.
struct LatencySummary {
  double bestNs = 0.0;
  double p50Ns = 0.0;
  double p90Ns = 0.0;
  double p95Ns = 0.0;
  double p99Ns = 0.0;
  double meanNs = 0.0;
  double opsPerSec = 0.0;
  std::size_t samples = 0;
};

/// Summarizes per-op nanosecond samples (nearest-rank percentiles).
inline LatencySummary summarizeNs(std::vector<double> ns) {
  LatencySummary s;
  if (ns.empty()) return s;
  std::sort(ns.begin(), ns.end());
  s.bestNs = ns.front();
  const auto rank = [&](double q) {
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(ns.size() - 1) + 0.5);
    return ns[std::min(i, ns.size() - 1)];
  };
  s.p50Ns = rank(0.50);
  s.p90Ns = rank(0.90);
  s.p95Ns = rank(0.95);
  s.p99Ns = rank(0.99);
  double sum = 0.0;
  for (const double v : ns) sum += v;
  s.meanNs = sum / static_cast<double>(ns.size());
  s.opsPerSec = s.meanNs > 0.0 ? 1e9 / s.meanNs : 0.0;
  s.samples = ns.size();
  return s;
}

/// Minimal streaming JSON emitter: objects, arrays, and scalar fields
/// with correct comma/escape handling.  Numbers that hold integral
/// values print as integers; everything else uses shortest-ish %.9g.
class JsonWriter {
 public:
  JsonWriter& beginObject(const char* key = nullptr) {
    open(key, '{');
    return *this;
  }
  JsonWriter& endObject() { return close('}'); }
  JsonWriter& beginArray(const char* key = nullptr) {
    open(key, '[');
    return *this;
  }
  JsonWriter& endArray() { return close(']'); }

  JsonWriter& field(const char* key, double value) {
    prefix(key);
    out_ += number(value);
    return *this;
  }
  JsonWriter& field(const char* key, bool value) {
    prefix(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonWriter& field(const char* key, const char* value) {
    prefix(key);
    quoted(value);
    return *this;
  }
  JsonWriter& field(const char* key, const std::string& value) {
    return field(key, value.c_str());
  }

  const std::string& str() const { return out_; }

  /// Writes the document to `path`; returns whether the write worked.
  bool writeTo(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file) return false;
    std::fputs(out_.c_str(), file);
    std::fputc('\n', file);
    std::fclose(file);
    return true;
  }

 private:
  static std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    if (value == std::floor(value) && std::abs(value) < 1e15)
      std::snprintf(buf, sizeof(buf), "%.0f", value);
    else
      std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
  }
  void quoted(const char* text) {
    out_ += '"';
    for (const char* p = text; *p != '\0'; ++p) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += static_cast<char>(c);
      } else if (c < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += static_cast<char>(c);
      }
    }
    out_ += '"';
  }
  void prefix(const char* key) {
    if (!needComma_.empty() && needComma_.back()) out_ += ',';
    if (!needComma_.empty()) needComma_.back() = true;
    if (key) {
      quoted(key);
      out_ += ':';
    }
  }
  void open(const char* key, char bracket) {
    prefix(key);
    out_ += bracket;
    needComma_.push_back(false);
  }
  JsonWriter& close(char bracket) {
    needComma_.pop_back();
    out_ += bracket;
    return *this;
  }

  std::string out_;
  std::vector<bool> needComma_;
};

/// Appends one latency summary as an object named `name` to an open
/// array: {"name": ..., "best_ns": ..., "p50_ns": ..., "p95_ns": ...,
/// "p99_ns": ..., "mean_ns": ..., "ops_per_sec": ..., "samples": ...}.
inline void writeVariant(JsonWriter& json, const char* name,
                         const LatencySummary& s) {
  json.beginObject()
      .field("name", name)
      .field("best_ns", s.bestNs)
      .field("p50_ns", s.p50Ns)
      .field("p90_ns", s.p90Ns)
      .field("p95_ns", s.p95Ns)
      .field("p99_ns", s.p99Ns)
      .field("mean_ns", s.meanNs)
      .field("ops_per_sec", s.opsPerSec)
      .field("samples", static_cast<double>(s.samples))
      .endObject();
}

}  // namespace moloc::bench

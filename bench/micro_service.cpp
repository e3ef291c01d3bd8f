// Throughput benchmark of the concurrent serving layer: aggregate
// queries/sec of LocalizationService::localizeBatch over the paper's
// office-hall world, swept across 1/2/4/8 caller threads.  The service
// runs a batch on its caller's thread, so each caller owns a slice of
// the sessions and batches its slice round after round.  Each query is
// the full phone-side round (motion processing over a 3 s IMU trace +
// one engine round), so the numbers reflect the deployed hot path.
//
// Also cross-checks the service's determinism contract: every caller
// count must reproduce the single-caller results bitwise.
//
// Each run carries its own private MetricsRegistry, so the per-scan
// latency percentiles come from the same instrumentation production
// scrapes (see docs/observability.md) — which doubles as an
// end-to-end check that the observability layer measures what the
// benchmark measures.
//
// A second section, session_create, times openSession (registry on)
// over 2000 fresh ids on the office hall and on the generated
// campus-1k/4k/16k venues.  Creating a session must cost O(k) whatever
// the venue size: the run fails when campus-16k's p50 exceeds
// campus-1k's by more than kMaxSessionCreateRatio.
//
// Output: paper-style rows plus a p50/p95/p99 latency table on
// stdout, bench_results/micro_service.csv (threads,queries,seconds,
// qps,speedup,p50_ms,p95_ms,p99_ms), the machine-readable sweep as
// bench_results/BENCH_micro_service.json (schema in
// docs/performance.md), and the final run's registry rendered to
// bench_results/micro_service_metrics.prom.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "sensors/accelerometer_model.hpp"
#include "sensors/compass_model.hpp"
#include "service/localization_service.hpp"
#include "worldgen/generated_venue.hpp"
#include "worldgen/venue_spec.hpp"

namespace {

using namespace moloc;

constexpr std::size_t kSessions = 64;
constexpr std::size_t kImuSamples = 150;  // 3 s at 50 Hz.

/// session_create: sessions opened per venue, and the largest allowed
/// campus-16k / campus-1k p50 ratio.  O(k) creation measures about 1;
/// a creation cost linear in venue size measures 20 or more.
constexpr std::size_t kCreateSessions = 2000;
constexpr double kMaxSessionCreateRatio = 4.0;

/// Rounds per session; MOLOC_BENCH_ROUNDS overrides the default for
/// longer (less scheduler-noise-prone) measurements, e.g. when
/// comparing two builds.
std::size_t roundsPerSession() {
  static const std::size_t rounds = moloc::bench::envRounds(20);
  return rounds;
}

/// One session's pre-generated scan sequence (first round has an empty
/// IMU trace — the first fix of a walk).
struct SessionWorkload {
  std::vector<radio::Fingerprint> scans;
  std::vector<sensors::ImuTrace> imu;
};

std::vector<SessionWorkload> makeWorkload(const eval::ExperimentWorld& world) {
  std::vector<SessionWorkload> sessions(kSessions);
  sensors::AccelerometerModel accel;
  sensors::CompassModel compass;
  for (std::size_t s = 0; s < kSessions; ++s) {
    util::Rng rng(1000 + s);
    auto& session = sessions[s];
    for (std::size_t r = 0; r < roundsPerSession(); ++r) {
      const double x = rng.uniform(2.0, 38.0);
      const double y = rng.uniform(2.0, 14.0);
      const double heading = rng.uniform(0.0, 360.0);
      session.scans.push_back(world.radio().scan({x, y}, heading, rng));
      sensors::ImuTrace trace(50.0);
      if (r > 0) {
        const auto accelSeries =
            accel.walkingSamples(kImuSamples, 1.8, rng);
        const auto compassSeries =
            compass.readings(heading, 0.0, kImuSamples, rng);
        for (std::size_t i = 0; i < kImuSamples; ++i)
          trace.append({i / 50.0, accelSeries[i], compassSeries[i]});
      }
      session.imu.push_back(std::move(trace));
    }
  }
  return sessions;
}

struct RunResult {
  double seconds = 0.0;
  std::vector<core::LocationEstimate> estimates;  // Round-major.
  // Per-scan latency percentiles from the service's own histogram
  // (milliseconds).
  double p50Ms = 0.0;
  double p95Ms = 0.0;
  double p99Ms = 0.0;
  std::string promText;  ///< Rendered registry snapshot.
};

RunResult runWithCallers(const eval::ExperimentWorld& world,
                         const std::vector<SessionWorkload>& workload,
                         std::size_t threads) {
  // A registry per run isolates each sweep point's series.
  obs::MetricsRegistry registry;
  service::ServiceConfig config;
  config.shardCount = 32;
  config.engine = world.config().moloc;
  config.motion = world.config().motionProc;
  config.metrics = &registry;
  service::LocalizationService svc(world.fingerprintDb(),
                                   world.motionDb(), config);

  // Caller t batches sessions [t * kSessions / threads,
  // (t + 1) * kSessions / threads) each round and writes its estimates
  // into their round-major slots.
  RunResult result;
  result.estimates.resize(kSessions * roundsPerSession());
  const auto caller = [&](std::size_t t) {
    const std::size_t begin = t * kSessions / threads;
    const std::size_t end = (t + 1) * kSessions / threads;
    for (std::size_t r = 0; r < roundsPerSession(); ++r) {
      std::vector<service::ScanRequest> batch;
      batch.reserve(end - begin);
      for (std::size_t s = begin; s < end; ++s)
        batch.push_back({static_cast<service::SessionId>(s),
                         workload[s].scans[r], workload[s].imu[r]});
      auto estimates = svc.localizeBatch(batch);
      for (std::size_t s = begin; s < end; ++s)
        result.estimates[r * kSessions + s] =
            std::move(estimates[s - begin]);
    }
  };
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> callers;
  for (std::size_t t = 1; t < threads; ++t) callers.emplace_back(caller, t);
  caller(0);
  for (auto& thread : callers) thread.join();
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  const obs::Histogram& latency =
      *registry.findHistogram("moloc_service_scan_latency_seconds");
  result.p50Ms = latency.quantile(0.50) * 1e3;
  result.p95Ms = latency.quantile(0.95) * 1e3;
  result.p99Ms = latency.quantile(0.99) * 1e3;
  result.promText = obs::renderPrometheus(registry);
  return result;
}

/// openSession wall time over one venue's service.
struct CreateRow {
  std::string venue;
  std::size_t locations = 0;
  double p50Us = 0.0;
  double p90Us = 0.0;
};

/// Times kCreateSessions openSession calls on fresh ids, on a service
/// built the way molocd builds it (registry on, venue shard starts).
CreateRow measureSessionCreate(std::string venue,
                               radio::FingerprintDatabase fingerprints,
                               const core::MotionDatabase& motion,
                               std::vector<std::size_t> shardStarts) {
  obs::MetricsRegistry registry;
  service::ServiceConfig config;
  config.metrics = &registry;
  config.indexShardStarts = std::move(shardStarts);
  const std::size_t locations = fingerprints.size();
  service::LocalizationService svc(std::move(fingerprints), motion, config);

  std::vector<double> us;
  us.reserve(kCreateSessions);
  for (std::size_t id = 0; id < kCreateSessions; ++id) {
    const auto start = std::chrono::steady_clock::now();
    svc.openSession(id, config.defaultStepLengthMeters);
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(us.begin(), us.end());
  const auto rank = [&us](double q) {
    return us[static_cast<std::size_t>(
        q * static_cast<double>(us.size() - 1) + 0.5)];
  };
  return {std::move(venue), locations, rank(0.50), rank(0.90)};
}

bool bitwiseEqual(const std::vector<core::LocationEstimate>& a,
                  const std::vector<core::LocationEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].location != b[i].location ||
        a[i].probability != b[i].probability ||
        a[i].candidates.size() != b[i].candidates.size())
      return false;
    for (std::size_t c = 0; c < a[i].candidates.size(); ++c)
      if (a[i].candidates[c].location != b[i].candidates[c].location ||
          a[i].candidates[c].probability != b[i].candidates[c].probability)
        return false;
  }
  return true;
}

}  // namespace

int main() {
  eval::ExperimentWorld world{eval::WorldConfig{}};
  const auto workload = makeWorkload(world);
  const std::size_t queries = kSessions * roundsPerSession();

  std::printf("LocalizationService throughput (%zu sessions x %zu rounds"
              " = %zu queries; hardware_concurrency=%u)\n",
              kSessions, roundsPerSession(), queries,
              std::thread::hardware_concurrency());

  util::CsvWriter csv(moloc::bench::resultsDir() + "/micro_service.csv",
                      {"threads", "queries", "seconds", "qps",
                       "speedup_vs_1", "p50_ms", "p95_ms", "p99_ms"});

  struct Row {
    std::size_t threads;
    RunResult run;
  };
  std::vector<Row> rows;
  RunResult baseline;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto run = runWithCallers(world, workload, threads);
    if (threads == 1) {
      baseline = run;
    } else if (!bitwiseEqual(run.estimates, baseline.estimates)) {
      std::fprintf(stderr,
                   "FAIL: %zu-caller results differ from serial\n",
                   threads);
      return EXIT_FAILURE;
    }
    // Guarded: a sub-resolution run must emit 0, not inf, so the
    // BENCH_*.json stays schema-clean (finite numbers or null only).
    const double qps = run.seconds > 0.0
                           ? static_cast<double>(queries) / run.seconds
                           : 0.0;
    const double speedup = baseline.seconds > 0.0 && run.seconds > 0.0
                               ? baseline.seconds / run.seconds
                               : 0.0;
    std::printf("  threads=%2zu  %8.0f queries/sec  (%.3f s, %.2fx)\n",
                threads, qps, run.seconds, speedup);
    csv.cell(threads).cell(queries).cell(run.seconds).cell(qps)
        .cell(speedup).cell(run.p50Ms).cell(run.p95Ms).cell(run.p99Ms)
        .endRow();
    rows.push_back({threads, std::move(run)});
  }
  std::printf("  determinism: all caller counts bitwise-identical to"
              " serial\n");

  // Session creation across venue sizes.
  std::printf("\nopenSession cost (%zu sessions per venue, registry on):\n",
              kCreateSessions);
  std::vector<CreateRow> creates;
  creates.push_back(measureSessionCreate("hall", world.fingerprintDb(),
                                         world.motionDb(), {}));
  for (const char* preset : {"campus-1k", "campus-4k", "campus-16k"}) {
    const worldgen::GeneratedVenue venue(worldgen::parseVenueSpec(preset));
    creates.push_back(measureSessionCreate(preset, venue.fingerprints(),
                                           venue.motion(),
                                           venue.shardStarts()));
  }
  for (const auto& row : creates)
    std::printf("  %-10s  %6zu locations  p50 %8.2f us  p90 %8.2f us\n",
                row.venue.c_str(), row.locations, row.p50Us, row.p90Us);
  // creates = {hall, campus-1k, campus-4k, campus-16k}.
  const double createRatio = creates[1].p50Us > 0.0
                                 ? creates[3].p50Us / creates[1].p50Us
                                 : 0.0;
  std::printf("  session_create_ratio (campus-16k / campus-1k p50): "
              "%.2f (limit %.1f)\n",
              createRatio, kMaxSessionCreateRatio);

  // Machine-readable sweep snapshot for the perf trajectory.
  {
    bench::JsonWriter json;
    json.beginObject()
        .field("bench", "micro_service")
        .field("schema_version", 1.0);
    json.beginObject("config")
        .field("sessions", static_cast<double>(kSessions))
        .field("rounds", static_cast<double>(roundsPerSession()))
        .field("queries", static_cast<double>(queries))
        .field("shards", 32.0)
        .field("simd_compiled", static_cast<bool>(MOLOC_SIMD_ENABLED))
        .field("simd_active",
               kernel::simdLevelName(kernel::activeSimdLevel()))
        .field("hardware_concurrency",
               static_cast<double>(std::thread::hardware_concurrency()))
        .field("cpu_model", bench::cpuModel())
        .field("build_type", MOLOC_BUILD_TYPE)
        .endObject();
    const auto qpsOf = [queries](const RunResult& run) {
      return run.seconds > 0.0
                 ? static_cast<double>(queries) / run.seconds
                 : 0.0;
    };
    const auto speedupOf = [&baseline](const RunResult& run) {
      return baseline.seconds > 0.0 && run.seconds > 0.0
                 ? baseline.seconds / run.seconds
                 : 0.0;
    };
    json.beginArray("sweep");
    for (const auto& row : rows) {
      json.beginObject()
          .field("threads", static_cast<double>(row.threads))
          .field("seconds", row.run.seconds)
          .field("qps", qpsOf(row.run))
          .field("speedup_vs_1", speedupOf(row.run))
          .field("p50_ms", row.run.p50Ms)
          .field("p95_ms", row.run.p95Ms)
          .field("p99_ms", row.run.p99Ms)
          .endObject();
    }
    json.endArray();
    // Flat scaling summary so CI (and the perf trajectory) can assert
    // multi-thread speedups without walking the sweep array.
    {
      json.beginObject("scaling").field("baseline_threads", 1.0);
      double maxSpeedup = 0.0;
      std::size_t maxThreads = 1;
      for (const auto& row : rows) {
        const std::string prefix =
            "threads_" + std::to_string(row.threads);
        json.field((prefix + "_qps").c_str(), qpsOf(row.run));
        json.field((prefix + "_speedup_vs_1").c_str(),
                   speedupOf(row.run));
        if (speedupOf(row.run) > maxSpeedup) {
          maxSpeedup = speedupOf(row.run);
          maxThreads = row.threads;
        }
      }
      json.field("max_speedup", maxSpeedup)
          .field("max_speedup_threads", static_cast<double>(maxThreads))
          .endObject();
    }
    json.beginObject("session_create")
        .field("sessions", static_cast<double>(kCreateSessions));
    json.beginArray("venues");
    for (const auto& row : creates)
      json.beginObject()
          .field("venue", row.venue)
          .field("locations", static_cast<double>(row.locations))
          .field("p50_us", row.p50Us)
          .field("p90_us", row.p90Us)
          .endObject();
    json.endArray()
        .field("session_create_ratio", createRatio)
        .field("max_session_create_ratio", kMaxSessionCreateRatio)
        .endObject();
    json.field("determinism_bitwise", true).endObject();
    const std::string jsonPath =
        moloc::bench::resultsDir() + "/BENCH_micro_service.json";
    if (json.writeTo(jsonPath))
      std::printf("  perf trajectory: %s\n", jsonPath.c_str());
  }

  if (!rows.empty()) {
    std::printf("\nPer-scan latency from moloc_service_scan_latency_"
                "seconds (ms):\n");
    std::printf("  %7s  %8s  %8s  %8s\n", "threads", "p50", "p95",
                "p99");
    for (const auto& row : rows)
      std::printf("  %7zu  %8.3f  %8.3f  %8.3f\n", row.threads,
                  row.run.p50Ms, row.run.p95Ms, row.run.p99Ms);
  }

  const std::string promPath =
      moloc::bench::resultsDir() + "/micro_service_metrics.prom";
  // The last sweep point's full registry (service + engine series), as
  // a production scrape would see it.
  if (!rows.empty() && !rows.back().run.promText.empty()) {
    std::FILE* file = std::fopen(promPath.c_str(), "w");
    if (file) {
      std::fputs(rows.back().run.promText.c_str(), file);
      std::fclose(file);
      std::printf("\nregistry snapshot (threads=%zu run): %s\n",
                  rows.back().threads, promPath.c_str());
    }
  }
  if (createRatio > kMaxSessionCreateRatio) {
    std::fprintf(stderr,
                 "FAIL: session_create_ratio %.2f above %.1f — session "
                 "creation scales with venue size\n",
                 createRatio, kMaxSessionCreateRatio);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

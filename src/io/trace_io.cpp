#include "io/trace_io.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/error.hpp"

namespace moloc::io {

namespace {

constexpr char kTraceHeader[] = "moloc-trace v1";

/// Upper bound on the trace count a collection header may claim.
/// The header is untrusted input: without a cap, `1e18 traces` sizes
/// the vector reservation from the raw count before a single trace
/// line is read (an allocation bomb).  Generous: the largest
/// committed sweeps use tens of thousands of traces.
constexpr std::size_t kMaxTraceCount = 10'000'000;

[[noreturn]] void fail(int line, const std::string& what) {
  throw util::ParseError("moloc::io: line " + std::to_string(line) +
                         ": " + what);
}

void writeFingerprint(std::ostream& out, const char* keyword,
                      const radio::Fingerprint& fp) {
  out << keyword;
  for (std::size_t i = 0; i < fp.size(); ++i) out << ' ' << fp[i];
  out << '\n';
}

radio::Fingerprint parseFingerprint(std::istringstream& row) {
  std::vector<double> rss;
  double value = 0.0;
  while (row >> value) rss.push_back(value);
  return radio::Fingerprint(std::move(rss));
}

class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Next non-empty line, or throws mentioning `expectation`.
  std::string expectLine(const std::string& expectation) {
    if (auto line = nextLine()) return *line;
    fail(lineNo_, "unexpected end of file, expected " + expectation);
  }

  /// Next non-empty line, or nullopt at EOF.
  std::optional<std::string> nextLine() {
    if (pushedBack_) {
      auto line = std::move(*pushedBack_);
      pushedBack_.reset();
      return line;
    }
    std::string line;
    while (std::getline(in_, line)) {
      ++lineNo_;
      if (!line.empty()) return line;
    }
    return std::nullopt;
  }

  /// Returns the last line to the reader (single-slot).
  void pushBack(std::string line) { pushedBack_ = std::move(line); }

  int lineNo() const { return lineNo_; }

 private:
  std::istream& in_;
  int lineNo_ = 0;
  std::optional<std::string> pushedBack_;
};

}  // namespace

void saveTrace(const traj::Trace& trace, std::ostream& out) {
  out.precision(17);
  out << kTraceHeader << '\n';
  out << "user " << trace.user.name << ' ' << trace.user.heightMeters
      << ' ' << trace.user.weightKg << ' '
      << trace.user.trueStepLengthMeters << ' ' << trace.user.cadenceHz
      << '\n';
  out << "compass_bias " << trace.compassBiasDeg << '\n';
  out << "start " << trace.startTruth << '\n';
  writeFingerprint(out, "initial_scan", trace.initialScan);
  for (const auto& interval : trace.intervals) {
    out << "interval " << interval.fromTruth << ' ' << interval.toTruth
        << ' ' << interval.trueDirectionDeg << ' '
        << interval.trueOffsetMeters << '\n';
    writeFingerprint(out, "scan", interval.scanAtArrival);
    out << "imu " << interval.imu.sampleRateHz() << ' '
        << interval.imu.size() << '\n';
    for (const auto& sample : interval.imu.samples())
      out << sample.t << ' ' << sample.accelMagnitude << ' '
          << sample.compassDeg << ' ' << sample.gyroRateDegPerSec
          << '\n';
  }
}

namespace {

traj::Trace loadTraceFromReader(LineReader& reader) {
  if (reader.expectLine("header") != kTraceHeader)
    fail(reader.lineNo(), "bad trace header");

  traj::Trace trace;
  std::string keyword;
  {
    std::istringstream row(reader.expectLine("'user'"));
    if (!(row >> keyword >> trace.user.name >>
          trace.user.heightMeters >> trace.user.weightKg >>
          trace.user.trueStepLengthMeters >> trace.user.cadenceHz) ||
        keyword != "user")
      fail(reader.lineNo(), "expected 'user ...'");
  }
  {
    std::istringstream row(reader.expectLine("'compass_bias'"));
    if (!(row >> keyword >> trace.compassBiasDeg) ||
        keyword != "compass_bias")
      fail(reader.lineNo(), "expected 'compass_bias <deg>'");
  }
  {
    std::istringstream row(reader.expectLine("'start'"));
    if (!(row >> keyword >> trace.startTruth) || keyword != "start")
      fail(reader.lineNo(), "expected 'start <id>'");
  }
  {
    std::istringstream row(reader.expectLine("'initial_scan'"));
    if (!(row >> keyword) || keyword != "initial_scan")
      fail(reader.lineNo(), "expected 'initial_scan <rss...>'");
    trace.initialScan = parseFingerprint(row);
    if (trace.initialScan.empty())
      fail(reader.lineNo(), "initial scan has no RSS values");
  }

  while (auto line = reader.nextLine()) {
    if (line->rfind("interval", 0) != 0) {
      // Start of the next trace (multi-trace stream): hand it back.
      reader.pushBack(std::move(*line));
      break;
    }
    traj::LocalizationInterval interval;
    {
      std::istringstream row(*line);
      if (!(row >> keyword >> interval.fromTruth >> interval.toTruth >>
            interval.trueDirectionDeg >> interval.trueOffsetMeters) ||
          keyword != "interval")
        fail(reader.lineNo(), "expected 'interval ...'");
    }
    {
      std::istringstream row(reader.expectLine("'scan'"));
      if (!(row >> keyword) || keyword != "scan")
        fail(reader.lineNo(), "expected 'scan <rss...>'");
      interval.scanAtArrival = parseFingerprint(row);
      if (interval.scanAtArrival.size() != trace.initialScan.size())
        fail(reader.lineNo(), "scan dimensionality mismatch");
    }
    double rate = 0.0;
    std::size_t count = 0;
    {
      std::istringstream row(reader.expectLine("'imu'"));
      if (!(row >> keyword >> rate >> count) || keyword != "imu" ||
          rate <= 0.0)
        fail(reader.lineNo(), "expected 'imu <rate> <n>'");
    }
    sensors::ImuTrace imu(rate);
    for (std::size_t s = 0; s < count; ++s) {
      std::istringstream row(reader.expectLine("IMU sample"));
      sensors::ImuSample sample;
      if (!(row >> sample.t >> sample.accelMagnitude >>
            sample.compassDeg >> sample.gyroRateDegPerSec))
        fail(reader.lineNo(), "bad IMU sample");
      imu.append(sample);
    }
    interval.imu = std::move(imu);
    trace.intervals.push_back(std::move(interval));
  }
  return trace;
}

}  // namespace

traj::Trace loadTrace(std::istream& in) {
  LineReader reader(in);
  return loadTraceFromReader(reader);
}

void saveTraces(const std::vector<traj::Trace>& traces,
                const std::string& path) {
  std::ofstream out(path);
  if (!out)
    throw util::IoError("moloc::io: cannot open for writing: " + path);
  out << traces.size() << " traces\n";
  for (const auto& trace : traces) saveTrace(trace, out);
}

std::vector<traj::Trace> loadTraces(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw util::IoError("moloc::io: cannot open for reading: " + path);
  std::size_t count = 0;
  std::string keyword;
  if (!(in >> count >> keyword) || keyword != "traces")
    throw util::ParseError("moloc::io: bad trace-collection header");
  if (count > kMaxTraceCount)
    throw util::ParseError("moloc::io: trace count " +
                           std::to_string(count) + " exceeds the " +
                           std::to_string(kMaxTraceCount) + " limit");
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');

  std::vector<traj::Trace> traces;
  traces.reserve(count);
  LineReader reader(in);
  for (std::size_t t = 0; t < count; ++t)
    traces.push_back(loadTraceFromReader(reader));
  return traces;
}

}  // namespace moloc::io

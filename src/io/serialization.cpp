#include "io/serialization.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "store/posix_file.hpp"
#include "util/error.hpp"

namespace moloc::io {

namespace {

constexpr char kFingerprintHeader[] = "moloc-fingerprint-db v1";
constexpr char kMotionHeader[] = "moloc-motion-db v1";

/// Upper bound on a motion database's 'locations' header field.  The
/// loader must refuse counts no real venue can reach before trusting
/// them; storage is sparse (O(entries)), so the cap only bounds the id
/// space, and it must admit the worldgen campus venues (up to 64k
/// locations) that the cold-start benches round-trip through this
/// format.
constexpr std::size_t kMaxMotionLocations = 1u << 20;

[[noreturn]] void fail(int line, const std::string& what) {
  throw util::ParseError("moloc::io: line " + std::to_string(line) +
                           ": " + what);
}

/// Saves the caller's formatting state and restores it on scope exit,
/// so the precision-17 we need for bit-exact double round-trips never
/// leaks into a caller-owned stream.
class ScopedStreamFormat {
 public:
  explicit ScopedStreamFormat(std::ostream& out)
      : out_(out), precision_(out.precision()), flags_(out.flags()) {}
  ~ScopedStreamFormat() {
    out_.precision(precision_);
    out_.flags(flags_);
  }
  ScopedStreamFormat(const ScopedStreamFormat&) = delete;
  ScopedStreamFormat& operator=(const ScopedStreamFormat&) = delete;

 private:
  std::ostream& out_;
  std::streamsize precision_;
  std::ios_base::fmtflags flags_;
};

/// Reads one non-empty line; returns false at a clean EOF.  A final
/// line missing its trailing '\n' fails with the line number: every
/// saver ends the file with a newline, so a missing one means the file
/// was truncated mid-write and the last record cannot be trusted.
bool nextLine(std::istream& in, std::string& line, int& lineNo) {
  while (std::getline(in, line)) {
    ++lineNo;
    if (in.eof())
      fail(lineNo, "missing trailing newline (file truncated?)");
    if (!line.empty()) return true;
  }
  return false;
}

/// Header check distinguishing "not this format at all" from "this
/// format, another version" — the latter names the found version so an
/// operator knows an upgrade (not a corrupt file) is the problem.
void checkHeader(const std::string& line, int lineNo,
                 const std::string& name, const std::string& version) {
  if (line == name + " " + version) return;
  if (line.size() > name.size() + 1 &&
      line.compare(0, name.size() + 1, name + " ") == 0)
    fail(lineNo, "unsupported " + name + " version '" +
                     line.substr(name.size() + 1) + "' (expected '" +
                     version + "')");
  fail(lineNo, "expected header '" + name + " " + version + "'");
}

std::ifstream openForRead(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw util::IoError("moloc::io: cannot open for reading: " +
                             path);
  return in;
}

}  // namespace

void saveFingerprintDatabase(const radio::FingerprintDatabase& db,
                             std::ostream& out) {
  const ScopedStreamFormat guard(out);
  out << kFingerprintHeader << '\n';
  out << "aps " << db.apCount() << '\n';
  out.precision(17);
  // With the database's id index this loop is O(n * aps); before the
  // index each entry(id) re-scanned the whole database.
  for (const env::LocationId id : db.locationIds()) {
    const auto& fp = db.entry(id);
    out << "location " << id;
    for (std::size_t i = 0; i < fp.size(); ++i) out << ' ' << fp[i];
    out << '\n';
  }
}

radio::FingerprintDatabase loadFingerprintDatabase(std::istream& in) {
  int lineNo = 0;
  std::string line;
  if (!nextLine(in, line, lineNo))
    fail(lineNo, "expected header '" + std::string(kFingerprintHeader) +
                     "'");
  checkHeader(line, lineNo, "moloc-fingerprint-db", "v1");

  if (!nextLine(in, line, lineNo)) fail(lineNo, "missing 'aps' line");
  std::istringstream apsLine(line);
  std::string keyword;
  std::size_t apCount = 0;
  if (!(apsLine >> keyword >> apCount) || keyword != "aps")
    fail(lineNo, "expected 'aps <n>'");
  if (apCount == 0) fail(lineNo, "aps must be >= 1");

  radio::FingerprintDatabase db;
  while (nextLine(in, line, lineNo)) {
    std::istringstream row(line);
    env::LocationId id = 0;
    if (!(row >> keyword >> id) || keyword != "location")
      fail(lineNo, "expected 'location <id> <rss...>'");
    if (id < 0) fail(lineNo, "negative location id");
    std::vector<double> rss;
    double value = 0.0;
    while (row >> value) rss.push_back(value);
    if (rss.size() != apCount)
      fail(lineNo, "expected " + std::to_string(apCount) +
                       " RSS values, got " + std::to_string(rss.size()));
    try {
      db.addLocation(id, radio::Fingerprint(std::move(rss)));
    } catch (const std::invalid_argument& e) {
      fail(lineNo, e.what());
    }
  }
  return db;
}

void saveMotionDatabase(const core::MotionDatabase& db,
                        std::ostream& out) {
  const ScopedStreamFormat guard(out);
  out << kMotionHeader << '\n';
  out << "locations " << db.locationCount() << '\n';
  out.precision(17);
  // forEachEntry iterates in row-major (i, then j) order, so the file
  // layout is identical to the historical dense double loop.
  db.forEachEntry([&out](env::LocationId i, env::LocationId j,
                         const core::RlmStats& entry) {
    out << "entry " << i << ' ' << j << ' ' << entry.muDirectionDeg
        << ' ' << entry.sigmaDirectionDeg << ' ' << entry.muOffsetMeters
        << ' ' << entry.sigmaOffsetMeters << ' ' << entry.sampleCount
        << '\n';
  });
}

core::MotionDatabase loadMotionDatabase(std::istream& in) {
  int lineNo = 0;
  std::string line;
  if (!nextLine(in, line, lineNo))
    fail(lineNo,
         "expected header '" + std::string(kMotionHeader) + "'");
  checkHeader(line, lineNo, "moloc-motion-db", "v1");

  if (!nextLine(in, line, lineNo))
    fail(lineNo, "missing 'locations' line");
  std::istringstream head(line);
  std::string keyword;
  std::size_t locationCount = 0;
  if (!(head >> keyword >> locationCount) || keyword != "locations")
    fail(lineNo, "expected 'locations <n>'");
  // The count must be validated before it is trusted: a corrupt
  // 'locations' line used to reserve n^2 dense entries sight unseen
  // (found by the serialization fuzz target; fuzz/corpus/regressions).
  // MotionDatabase is sparse now, but the cap keeps a corrupt header
  // from legitimizing an absurd id space in this text format, which
  // stays O(entries).
  if (locationCount > kMaxMotionLocations)
    fail(lineNo, "locations " + std::to_string(locationCount) +
                     " exceeds the supported maximum " +
                     std::to_string(kMaxMotionLocations));

  core::MotionDatabase db(locationCount);
  while (nextLine(in, line, lineNo)) {
    std::istringstream row(line);
    env::LocationId i = 0;
    env::LocationId j = 0;
    core::RlmStats stats;
    if (!(row >> keyword >> i >> j >> stats.muDirectionDeg >>
          stats.sigmaDirectionDeg >> stats.muOffsetMeters >>
          stats.sigmaOffsetMeters >> stats.sampleCount) ||
        keyword != "entry")
      fail(lineNo, "expected 'entry <i> <j> <mu_d> <s_d> <mu_o> <s_o> "
                   "<samples>'");
    std::string extra;
    if (row >> extra) fail(lineNo, "trailing data");
    try {
      if (db.hasEntry(i, j))
        fail(lineNo, "duplicate entry for pair (" + std::to_string(i) +
                         ", " + std::to_string(j) + ")");
      db.setEntry(i, j, stats);
    } catch (const std::out_of_range& e) {
      fail(lineNo, e.what());
    }
  }
  return db;
}

void saveProbabilisticDatabase(
    const radio::ProbabilisticFingerprintDatabase& db,
    std::ostream& out) {
  const ScopedStreamFormat guard(out);
  out << "moloc-probabilistic-db v1\n";
  out << "aps " << db.apCount() << '\n';
  out.precision(17);
  for (const env::LocationId id : db.locationIds()) {
    out << "location " << id << " mu";
    for (double v : db.mu(id)) out << ' ' << v;
    out << " sigma";
    for (double v : db.sigma(id)) out << ' ' << v;
    out << '\n';
  }
}

radio::ProbabilisticFingerprintDatabase loadProbabilisticDatabase(
    std::istream& in) {
  int lineNo = 0;
  std::string line;
  if (!nextLine(in, line, lineNo))
    fail(lineNo, "expected header 'moloc-probabilistic-db v1'");
  checkHeader(line, lineNo, "moloc-probabilistic-db", "v1");

  if (!nextLine(in, line, lineNo)) fail(lineNo, "missing 'aps' line");
  std::istringstream apsLine(line);
  std::string keyword;
  std::size_t apCount = 0;
  if (!(apsLine >> keyword >> apCount) || keyword != "aps" ||
      apCount == 0)
    fail(lineNo, "expected 'aps <n>' with n >= 1");

  radio::ProbabilisticFingerprintDatabase db;
  while (nextLine(in, line, lineNo)) {
    std::istringstream row(line);
    env::LocationId id = 0;
    if (!(row >> keyword >> id) || keyword != "location" || id < 0)
      fail(lineNo, "expected 'location <id> mu ... sigma ...'");

    if (!(row >> keyword) || keyword != "mu")
      fail(lineNo, "expected 'mu' marker");
    std::vector<double> mu;
    std::vector<double> sigma;
    double value = 0.0;
    std::string token;
    while (row >> token) {
      if (token == "sigma") break;
      try {
        mu.push_back(std::stod(token));
      } catch (const std::exception&) {
        fail(lineNo, "bad mu value '" + token + "'");
      }
    }
    if (token != "sigma") fail(lineNo, "missing 'sigma' marker");
    while (row >> value) sigma.push_back(value);
    if (mu.size() != apCount || sigma.size() != apCount)
      fail(lineNo, "expected " + std::to_string(apCount) +
                       " mu and sigma values");
    try {
      db.addFittedLocation(id, std::move(mu), std::move(sigma));
    } catch (const std::invalid_argument& e) {
      fail(lineNo, e.what());
    }
  }
  return db;
}

void saveFingerprintDatabase(const radio::FingerprintDatabase& db,
                             const std::string& path) {
  // Rendered whole, then published through the store's tmp + fsync +
  // rename + dir-fsync sequence: a crash leaves the old file or the
  // new one, never a torn half-write.
  std::ostringstream out;
  saveFingerprintDatabase(db, out);
  store::detail::atomicWriteFile(path, std::move(out).str());
}

radio::FingerprintDatabase loadFingerprintDatabase(
    const std::string& path) {
  auto in = openForRead(path);
  return loadFingerprintDatabase(in);
}

void saveMotionDatabase(const core::MotionDatabase& db,
                        const std::string& path) {
  std::ostringstream out;
  saveMotionDatabase(db, out);
  store::detail::atomicWriteFile(path, std::move(out).str());
}

core::MotionDatabase loadMotionDatabase(const std::string& path) {
  auto in = openForRead(path);
  return loadMotionDatabase(in);
}

}  // namespace moloc::io

#include "targets/fuzz_targets.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/world_snapshot.hpp"
#include "image/image_loader.hpp"
#include "image/image_writer.hpp"
#include "net/wire.hpp"
#include "store/checkpoint.hpp"
#include "store/format.hpp"
#include "store/wal.hpp"
#include "util/csv.hpp"

namespace moloc::fuzz {

namespace {

/// Inputs above this are not interesting for format parsing (every
/// length field the formats carry fits well inside it) and only slow
/// the fuzzer down; libFuzzer's -max_len mirrors this bound.
constexpr std::size_t kMaxInputBytes = 1 << 20;

/// Parser-contract violation: not a rejected input (those are typed
/// exceptions the harness catches) but a broken invariant — abort so
/// the fuzzer records the input as a crash.
[[noreturn]] void invariantFailed(const char* surface, const char* what) {
  std::fprintf(stderr, "moloc-fuzz[%s]: invariant violated: %s\n", surface,
               what);
  std::abort();
}

/// A per-process scratch directory, emptied before every iteration.
/// The disk round trip is deliberate: the WAL and checkpoint readers
/// only consume files, and fuzzing through the real open/read path
/// also covers the file-level validation (names, sizes, CRC framing).
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    dir_ = (std::filesystem::temp_directory_path() /
            ("moloc-fuzz-" + std::string(tag) + "-" +
             std::to_string(::getpid())))
               .string();
  }

  const std::string& reset() {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    return dir_;
  }

  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

void writeBytes(const std::string& path, const std::uint8_t* data,
                std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (size != 0)
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  if (!out) invariantFailed("scratch", "cannot write scratch input file");
}

}  // namespace

// ---------------------------------------------------------------------------
// WAL

int runWalReader(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxInputBytes) return 0;
  static ScratchDir scratch("wal");
  const std::string& dir = scratch.reset();
  writeBytes(dir + "/wal-0000000000000001.log", data, size);

  const store::WalReader reader(dir);
  bool scanOk = false;
  try {
    std::uint64_t prevSeq = 0;
    std::uint64_t delivered = 0;
    const store::WalScan scan =
        reader.replay([&](const store::ObservationRecord& record) {
          if (record.seq <= prevSeq)
            invariantFailed("wal", "delivered sequence did not increase");
          prevSeq = record.seq;
          ++delivered;
        });
    if (scan.records != delivered)
      invariantFailed("wal", "scan.records disagrees with callback count");
    if (delivered != 0 && scan.lastSeq < prevSeq)
      invariantFailed("wal", "scan.lastSeq below last delivered seq");
    scanOk = true;
  } catch (const store::StoreError&) {
    // Rejected input (CorruptionError or I/O): the documented outcome.
  }

  if (!scanOk) return 0;
  // A scan the reader accepted must survive repair: repair only
  // truncates a torn tail, and the log it leaves behind must scan
  // clean.  Exceptions past this point are bugs — let them escape.
  const store::WalScan repaired = reader.repair();
  if (repaired.tailDamaged)
    invariantFailed("wal", "repair() left a damaged tail behind");
  const store::WalScan recheck = reader.scan();
  if (recheck.tailDamaged || recheck.records != repaired.records)
    invariantFailed("wal", "post-repair scan disagrees with repair()");
  return 0;
}

// ---------------------------------------------------------------------------
// Checkpoint

int runCheckpointLoad(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxInputBytes) return 0;
  static ScratchDir scratch("ckpt");
  const std::string& dir = scratch.reset();
  // Named seq 1: loadNewestCheckpoint also cross-checks the decoded
  // throughSeq against the file name.
  writeBytes(dir + "/checkpoint-00000000000000000001.ckpt", data, size);

  // The loader's contract is catch-and-skip: nothing an input file
  // contains may throw through it, so no try/catch here.
  const auto loaded = store::loadNewestCheckpoint(dir);
  if (!loaded) return 0;
  if (loaded->data.throughSeq != 1)
    invariantFailed("checkpoint", "loader accepted a name/seq mismatch");

  // Accepted checkpoints must re-encode and re-decode to the same
  // structure (decode is total on encode's image).
  static ScratchDir rewrite("ckpt-rewrite");
  const std::string& dir2 = rewrite.reset();
  store::writeCheckpointFile(dir2, loaded->data.throughSeq,
                             loaded->data.snapshot);
  const auto reloaded = store::loadNewestCheckpoint(dir2);
  if (!reloaded)
    invariantFailed("checkpoint", "re-encoded checkpoint failed to load");
  const auto& a = loaded->data;
  const auto& b = reloaded->data;
  const auto sampleCount = [](const store::CheckpointData& d) {
    std::size_t n = 0;
    for (const auto& pair : d.snapshot.reservoirs) n += pair.samples.size();
    return n;
  };
  if (a.throughSeq != b.throughSeq ||
      a.snapshot.reservoirs.size() != b.snapshot.reservoirs.size() ||
      sampleCount(a) != sampleCount(b))
    invariantFailed("checkpoint", "decode/encode/decode was not stable");
  return 0;
}

// ---------------------------------------------------------------------------
// CSV

namespace {

/// RFC 4180 cell escaping for the round-trip check.  Unlike
/// CsvWriter::escape this also quotes '\r': an unquoted trailing '\r'
/// would fuse with the row's '\n' terminator into a CRLF line ending
/// and silently shorten the cell (the bug the round-trip property
/// originally caught in the writer).
std::string escapeCell(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

int runCsvParse(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxInputBytes) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);

  std::vector<std::vector<std::string>> rows;
  try {
    rows = util::parseCsv(text);
  } catch (const std::invalid_argument&) {
    return 0;  // Rejected input: the documented outcome.
  }

  // Accepted documents must round-trip: re-serialize the rows and
  // re-parse; the parser may normalize line endings but never the
  // cells themselves.
  std::string rewritten;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) rewritten += ',';
      rewritten += escapeCell(row[c]);
    }
    rewritten += '\n';
  }
  const auto reparsed = util::parseCsv(rewritten);
  if (reparsed != rows)
    invariantFailed("csv", "parse/serialize/parse changed the rows");
  return 0;
}

namespace {

/// Decode + canonical re-encode of one CRC-valid frame's payload.
/// Returns the re-encoded *frame*; the caller compares payloads.
std::string reencodeWireFrame(const net::Frame& frame) {
  using net::MsgType;
  switch (frame.type) {
    case MsgType::kLocalize:
      return encodeLocalizeRequest(
          net::decodeLocalizeRequest(frame.payload));
    case MsgType::kLocalizeBatch:
      return encodeLocalizeBatchRequest(
          net::decodeLocalizeBatchRequest(frame.payload));
    case MsgType::kReportObservation:
      return encodeReportObservationRequest(
          net::decodeReportObservationRequest(frame.payload));
    case MsgType::kFlush:
      return encodeFlushRequest(net::decodeFlushRequest(frame.payload));
    case MsgType::kStats:
      return encodeStatsRequest(net::decodeStatsRequest(frame.payload));
    case MsgType::kLocalizeResponse:
      return encodeLocalizeResponse(
          net::decodeLocalizeResponse(frame.payload));
    case MsgType::kLocalizeBatchResponse:
      return encodeLocalizeBatchResponse(
          net::decodeLocalizeBatchResponse(frame.payload));
    case MsgType::kReportObservationResponse:
      return encodeReportObservationResponse(
          net::decodeReportObservationResponse(frame.payload));
    case MsgType::kFlushResponse:
      return encodeFlushResponse(net::decodeFlushResponse(frame.payload));
    case MsgType::kStatsResponse:
      return encodeStatsResponse(net::decodeStatsResponse(frame.payload));
  }
  invariantFailed("wire", "assembler yielded an unknown message type");
}

}  // namespace

int runWireDecode(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxInputBytes) return 0;

  // Feed in small chunks with draining between them, so the fuzzer
  // also explores the assembler's buffering/compaction paths, not just
  // one-shot parses.
  net::FrameAssembler assembler;
  const char* bytes = reinterpret_cast<const char*>(data);
  constexpr std::size_t kChunk = 7;
  net::Frame frame;
  for (std::size_t offset = 0; offset < size; offset += kChunk) {
    assembler.feed(bytes + offset,
                   offset + kChunk <= size ? kChunk : size - offset);
    try {
      while (assembler.next(frame)) {
        try {
          const std::string reframed = reencodeWireFrame(frame);
          const std::string_view payload(
              reframed.data() + net::kHeaderBytes,
              reframed.size() - net::kHeaderBytes - net::kTrailerBytes);
          if (payload != frame.payload)
            invariantFailed("wire",
                            "decode/encode changed an accepted payload");
        } catch (const net::ProtocolError&) {
          // Malformed payload inside a CRC-valid frame: a documented
          // per-message rejection; the stream itself stays in sync.
        }
      }
    } catch (const net::ProtocolError&) {
      return 0;  // Framing damage: the connection would be dropped.
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Venue images

namespace {

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) invariantFailed("image", "cannot read back a written image");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Exercises an accepted image the way serving would: the meta must
/// agree with the views, every fingerprinted id must resolve to a CSR
/// row, every row must be walkable edge by edge, and a probe query
/// must complete through the database (and the embedded index, when
/// present).  The backing buffer is exactly input-sized, so any
/// over-read here is an ASan stop, not silence.
void exerciseLoadedImage(const image::VenueImage& img) {
  const auto& db = img.fingerprints();
  const auto& adjacency = img.adjacency();
  if (db == nullptr || adjacency == nullptr)
    invariantFailed("image", "accepted image is missing a core view");
  if (db->size() != img.meta().locationCount ||
      db->apCount() != img.meta().apCount ||
      adjacency->locationCount() != img.meta().adjacencyLocationCount)
    invariantFailed("image", "meta disagrees with the loaded views");
  if (img.meta().hasIndex != (img.tieredIndex() != nullptr))
    invariantFailed("image", "meta.hasIndex disagrees with the loader");

  for (std::size_t row = 0; row < db->size(); ++row) {
    const env::LocationId id = db->idAt(row);
    if (static_cast<std::size_t>(id) >= adjacency->locationCount())
      invariantFailed("image",
                      "fingerprinted id outside the adjacency "
                      "(the serving invariant)");
  }
  std::uint64_t edges = 0;
  std::int64_t touched = 0;  // Forces a read of every edge's bytes.
  for (std::size_t row = 0; row < adjacency->locationCount(); ++row) {
    const auto span =
        adjacency->outEdges(static_cast<env::LocationId>(row));
    edges += span.size();
    for (const kernel::PairWindow& edge : span) touched += edge.to;
  }
  (void)touched;
  if (edges != img.meta().edgeCount)
    invariantFailed("image", "CSR walk disagrees with meta.edgeCount");

  if (!db->empty()) {
    std::vector<radio::Match> out;
    db->queryInto(db->entryAt(0), 4, out);
    if (img.tieredIndex() != nullptr) {
      std::vector<radio::Match> tiered;
      img.tieredIndex()->queryInto(db->entryAt(0), 4, tiered);
    }
  }
}

}  // namespace

int runImageLoad(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxInputBytes) return 0;

  // Full verification first: everything it accepts, the bulk mode must
  // accept too (bulk only *skips* CRC work, it never adds a check).
  bool fullAccepted = false;
  try {
    const image::VenueImage img =
        image::VenueImage::fromBuffer({data, size},
                                      image::VerifyMode::kFull);
    fullAccepted = true;
    exerciseLoadedImage(img);
  } catch (const image::ImageError&) {
    // Rejected input: the documented outcome for format damage.
  } catch (const store::StoreError&) {
    invariantFailed("image",
                    "I/O-class error from a pure in-memory parse");
  }

  try {
    const image::VenueImage img = image::VenueImage::fromBuffer(
        {data, size}, image::VerifyMode::kBulkUnverified);
    exerciseLoadedImage(img);

    if (fullAccepted) {
      // CRC-clean images must reach a byte-stable fixed point after
      // one pass through the real writer: the input's section order
      // and padding may be non-canonical, but write(load(x)) is, so a
      // second round trip must reproduce it exactly.  This also runs
      // the mmap open path over writer output (fromBuffer above covers
      // the heap path).
      static ScratchDir scratch("image");
      const std::string dir = scratch.reset();
      const core::WorldSnapshot world(
          img.fingerprints(), img.adjacency(), img.meta().generation,
          img.meta().intakeRecords, img.tieredIndex());
      image::writeVenueImage(dir + "/a.img", world);
      const image::VenueImage reloaded =
          image::VenueImage::open(dir + "/a.img");
      exerciseLoadedImage(reloaded);
      const core::WorldSnapshot world2(
          reloaded.fingerprints(), reloaded.adjacency(),
          reloaded.meta().generation, reloaded.meta().intakeRecords,
          reloaded.tieredIndex());
      image::writeVenueImage(dir + "/b.img", world2);
      if (readWholeFile(dir + "/a.img") != readWholeFile(dir + "/b.img"))
        invariantFailed("image",
                        "rewrite of an accepted image is not a fixed "
                        "point");
    }
  } catch (const image::ImageError&) {
    if (fullAccepted)
      invariantFailed("image",
                      "full verification accepted what bulk rejected");
  } catch (const store::StoreError&) {
    invariantFailed("image",
                    "I/O-class error from a pure in-memory parse");
  }
  return 0;
}

}  // namespace moloc::fuzz

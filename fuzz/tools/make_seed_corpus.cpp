// Regenerates the committed fuzz seed corpus (fuzz/corpus/) from the
// real encoders, plus the crafted regression inputs that pin previously
// fixed parser bugs.  Usage:
//
//   moloc_make_seed_corpus <corpus-root>
//
// The binary seeds must come from the actual writers — hand-maintained
// hex would drift the moment a format changes — so this tool links the
// library and round-trips through WalWriter / writeCheckpointFile /
// writeVenueImage.  Text seeds (CSV, malformed documents) are
// committed directly and not rewritten here.

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/online_motion_database.hpp"
#include "core/world_snapshot.hpp"
#include "env/floor_plan.hpp"
#include "geometry/vec2.hpp"
#include "image/format.hpp"
#include "image/image_writer.hpp"
#include "index/tiered_index.hpp"
#include "kernel/motion_kernel.hpp"
#include "net/wire.hpp"
#include "radio/fingerprint_database.hpp"
#include "store/checkpoint.hpp"
#include "store/crc32c.hpp"
#include "store/format.hpp"
#include "store/wal.hpp"

namespace {

namespace fs = std::filesystem;
using moloc::store::detail::putF64;
using moloc::store::detail::putI32;
using moloc::store::detail::putU32;
using moloc::store::detail::putU64;
using moloc::store::detail::putU8;

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeFile(const fs::path& path, const std::string& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.string().c_str(),
              bytes.size());
}

/// A WAL segment header, byte-compatible with WalWriter::openSegment.
std::string walHeader(std::uint64_t firstSeq) {
  std::string out("MOLOCWAL", 8);
  putU32(out, 1);  // version
  putU64(out, firstSeq);
  return out;
}

/// One framed v1 observation record, byte-compatible with
/// WalWriter::append.
std::string walRecord(std::uint64_t seq, std::int32_t start,
                      std::int32_t end, double directionDeg,
                      double offsetMeters) {
  std::string payload;
  putU8(payload, 1);  // kObservationType
  putU64(payload, seq);
  putI32(payload, start);
  putI32(payload, end);
  putF64(payload, directionDeg);
  putF64(payload, offsetMeters);
  std::string frame;
  putU32(frame, static_cast<std::uint32_t>(payload.size()));
  putU32(frame, moloc::store::crc32c(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

fs::path scratchDir(const char* tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("moloc-seed-" + std::string(tag) + "-" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

void makeWalSeeds(const fs::path& root) {
  // A real three-record segment, via the real writer.
  const fs::path dir = scratchDir("wal");
  {
    moloc::store::WalWriter writer(dir.string(), {});
    writer.append(0, 1, 90.0, 4.5);
    writer.append(1, 2, 180.0, 3.25);
    writer.append(2, 0, 270.0, 5.0);
  }
  const std::string segment =
      readFile(dir / "wal-0000000000000001.log");
  writeFile(root / "wal/three-records.bin", segment);
  writeFile(root / "wal/header-only.bin", walHeader(1));
  // Crash fallout the reader must tolerate: the final record torn
  // mid-frame.
  writeFile(root / "wal/torn-tail.bin",
            segment.substr(0, segment.size() - 7));
  fs::remove_all(dir);

  // Regressions: inputs that must keep raising CorruptionError (never
  // crash, never silently pass).  See docs/static_analysis.md.
  //
  // A CRC-valid frame with length 0 has no type byte to read — the
  // structural parse must reject it after the checksum passes.
  std::string zeroLength = walHeader(1);
  putU32(zeroLength, 0);
  putU32(zeroLength, moloc::store::crc32c("", 0));
  writeFile(root / "regressions/wal/zero-length-record.bin", zeroLength);
  // An implausible length field followed by a valid record is mid-log
  // corruption (a torn tail cannot have valid data after it).
  std::string oversized = walHeader(1);
  putU32(oversized, 1u << 20);
  putU32(oversized, 0xdeadbeef);
  oversized += walRecord(1, 0, 1, 90.0, 4.5);
  writeFile(root / "regressions/wal/oversized-length-midlog.bin",
            oversized);
  // Two valid frames whose sequence numbers go backwards.
  std::string regression = walHeader(5);
  regression += walRecord(5, 0, 1, 90.0, 4.5);
  regression += walRecord(3, 1, 2, 180.0, 3.25);
  writeFile(root / "regressions/wal/sequence-regression.bin", regression);
}

void makeCheckpointSeeds(const fs::path& root) {
  moloc::env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  // Both seeds cover seq 1: the harness stores its input as
  // checkpoint-...01.ckpt, and the loader skips a file whose content
  // disagrees with its name, so any other seq never reaches the
  // re-encode check.
  const fs::path dir = scratchDir("ckpt");
  std::string path = moloc::store::writeCheckpointFile(
      dir.string(), 1,
      moloc::core::OnlineMotionDatabase(plan.positions()).snapshot());
  writeFile(root / "checkpoint/empty.bin", readFile(path));

  // Small reservoirs, so evictions have advanced the RNG stream.
  moloc::core::OnlineMotionDatabase db(plan.positions(), {},
                                       /*reservoirCapacity=*/4, /*seed=*/7);
  for (int k = 0; k < 40; ++k)
    db.addObservation(k % 2, 1 + k % 2, 88.0 + 0.2 * (k % 9),
                      3.7 + 0.02 * (k % 11));
  path = moloc::store::writeCheckpointFile(dir.string(), 1, db.snapshot());
  writeFile(root / "checkpoint/evicting-reservoirs.bin", readFile(path));
  fs::remove_all(dir);

  // Regression: a CRC-valid checkpoint whose reservoir count claims
  // 2^40 pairs — the count must be bounded by the remaining bytes
  // before it sizes any allocation.
  std::string body("MOLOCKPT", 8);
  putU32(body, 3);   // version
  putU64(body, 1);   // throughSeq (matches the harness's file name)
  // Snapshot: default config.
  putF64(body, 15.0);  // coarseDirectionThresholdDeg
  putF64(body, 2.0);   // coarseOffsetThresholdMeters
  putF64(body, 3.0);   // fineSigmaMultiplier
  putI32(body, 2);     // minSamplesPerPair
  putF64(body, 1.0);   // minDirectionSigmaDeg
  putF64(body, 0.05);  // minOffsetSigmaMeters
  putU8(body, 1);      // enableCoarseFilter
  putU8(body, 1);      // enableFineFilter
  putU64(body, 4);     // capacity
  putU64(body, 3);     // locationCount
  for (int w = 0; w < 4; ++w) putU64(body, 0x9e3779b97f4a7c15ull + w);
  for (int c = 0; c < 4; ++c) putU64(body, 0);  // counters
  putU64(body, 1ull << 40);                     // reservoirs
  putU32(body, moloc::store::crc32c(body.data(), body.size()));
  writeFile(root / "regressions/checkpoint/reservoir-count-bomb.bin",
            body);
}

/// Venue-image seeds: real images through the real writer (with and
/// without an embedded index), plus regressions for every section-
/// table damage mode the loader must keep rejecting with a typed
/// ImageError — hostile offsets, overlaps, misalignment, duplicate
/// ids, CRC flips, truncation, layout-tag and count damage.
void makeImageSeeds(const fs::path& root) {
  namespace image = moloc::image;

  // A small world, built exactly the way serving does: 12
  // fingerprinted locations x 4 APs, a corridor motion database, and
  // a tiered index sharded small enough to produce several shards.
  auto db = std::make_shared<moloc::radio::FingerprintDatabase>();
  for (int i = 0; i < 12; ++i) {
    std::vector<double> rss(4);
    for (int a = 0; a < 4; ++a)
      rss[static_cast<std::size_t>(a)] = -40.0 - 3.0 * i - 1.5 * a;
    db->addLocation(i, moloc::radio::Fingerprint(rss));
  }
  std::vector<moloc::core::MotionEntry> corridor;
  for (int i = 0; i + 1 < 12; ++i)
    moloc::core::appendWithMirror(corridor, i, i + 1,
                                  {90.0, 4.0, 5.0 + 0.25 * i, 0.3, 20});
  const auto motion =
      std::make_shared<const moloc::core::MotionDatabase>(12, corridor);
  // Coordinates along the corridor, spaced like its RLM offsets.
  auto positions = std::make_shared<std::vector<moloc::geometry::Vec2>>();
  double x = 2.0;
  for (int i = 0; i < 12; ++i) {
    positions->push_back({x, 2.0});
    x += 5.0 + 0.25 * i;
  }
  moloc::index::IndexConfig indexConfig;
  indexConfig.maxShardEntries = 4;
  const auto index = std::make_shared<const moloc::index::TieredIndex>(
      db, indexConfig);

  const fs::path dir = scratchDir("image");
  fs::create_directories(dir);
  {
    const moloc::core::WorldSnapshot world(db, motion, /*generation=*/7,
                                           /*intakeRecords=*/21, index,
                                           positions);
    image::writeVenueImage((dir / "a.img").string(), world);
  }
  const std::string withIndex = readFile(dir / "a.img");
  writeFile(root / "image/with-index.img", withIndex);
  {
    const moloc::core::WorldSnapshot world(db, motion, /*generation=*/7,
                                           /*intakeRecords=*/21, nullptr,
                                           positions);
    image::writeVenueImage((dir / "b.img").string(), world);
  }
  writeFile(root / "image/no-index.img", readFile(dir / "b.img"));
  fs::remove_all(dir);

  // Byte-patching helpers.  The format is host-layout by design (the
  // header's layout tag pins it), so direct memcpy patches are exactly
  // what a hostile or bit-rotted file looks like on this host.
  const auto peekU32 = [](const std::string& bytes, std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  const auto pokeU32 = [](std::string& bytes, std::size_t at,
                          std::uint32_t v) {
    std::memcpy(bytes.data() + at, &v, sizeof(v));
  };
  const auto pokeU64 = [](std::string& bytes, std::size_t at,
                          std::uint64_t v) {
    std::memcpy(bytes.data() + at, &v, sizeof(v));
  };
  // Re-seals FileHeader::tableCrc after a table patch, so the input
  // reaches the *structural* validation it targets instead of dying at
  // the table checksum.
  const auto resealTable = [&](std::string& bytes) {
    const std::uint32_t sections = peekU32(bytes, 24);
    pokeU32(bytes, 28,
            moloc::store::crc32c(
                bytes.data() + sizeof(image::FileHeader),
                sections * sizeof(image::SectionEntry)));
  };
  const auto entryAt = [](std::size_t i) {
    return sizeof(image::FileHeader) + i * sizeof(image::SectionEntry);
  };

  // A truncation (here: mid-table) must be a typed rejection.
  writeFile(root / "regressions/image/truncated-table.img",
            withIndex.substr(0, 48));
  // A flipped byte in a section body must fail that section's CRC.
  std::string bodyFlip = withIndex;
  bodyFlip[bodyFlip.size() - 1] ^= 0x40;
  writeFile(root / "regressions/image/body-crc-flip.img", bodyFlip);
  // A hostile offset far past the file, with the table re-sealed so
  // the bounds check (not the checksum) must reject it.
  std::string hostileOffset = withIndex;
  pokeU64(hostileOffset, entryAt(0) + 8, 1ull << 60);
  resealTable(hostileOffset);
  writeFile(root / "regressions/image/hostile-offset.img", hostileOffset);
  // Two sections claiming overlapping byte ranges.
  std::string overlap = withIndex;
  std::uint64_t firstOffset = 0;
  std::memcpy(&firstOffset, withIndex.data() + entryAt(0) + 8,
              sizeof(firstOffset));
  pokeU64(overlap, entryAt(1) + 8, firstOffset);
  resealTable(overlap);
  writeFile(root / "regressions/image/overlapping-sections.img", overlap);
  // An offset off the 64-byte alignment grid.
  std::string misaligned = withIndex;
  pokeU64(misaligned, entryAt(0) + 8, firstOffset + 8);
  resealTable(misaligned);
  writeFile(root / "regressions/image/misaligned-offset.img", misaligned);
  // The same section id twice.
  std::string duplicate = withIndex;
  pokeU32(duplicate, entryAt(1), peekU32(withIndex, entryAt(0)));
  resealTable(duplicate);
  writeFile(root / "regressions/image/duplicate-section.img", duplicate);
  // A foreign layout tag (other endianness/ABI): rejected by value.
  std::string foreignLayout = withIndex;
  foreignLayout[12] ^= 0x03;
  writeFile(root / "regressions/image/foreign-layout-tag.img",
            foreignLayout);
  // A zero section count inside an otherwise intact header.
  std::string zeroSections = withIndex;
  pokeU32(zeroSections, 24, 0);
  writeFile(root / "regressions/image/zero-sections.img", zeroSections);
  // A column-profile section one value short, its CRC and the table
  // re-sealed, so the shard geometry check (not a checksum) rejects it.
  std::string shortProfile = withIndex;
  for (std::uint32_t i = 0; i < peekU32(withIndex, 24); ++i) {
    if (peekU32(withIndex, entryAt(i)) !=
        static_cast<std::uint32_t>(image::SectionId::kIndexColumnValues))
      continue;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::memcpy(&offset, withIndex.data() + entryAt(i) + 8, sizeof(offset));
    std::memcpy(&length, withIndex.data() + entryAt(i) + 16,
                sizeof(length));
    length -= sizeof(double);
    pokeU64(shortProfile, entryAt(i) + 16, length);
    pokeU32(shortProfile, entryAt(i) + 4,
            moloc::store::crc32c(shortProfile.data() + offset, length));
  }
  resealTable(shortProfile);
  writeFile(root / "regressions/image/truncated-column-profile.img",
            shortProfile);

  // Row 1 of the corridor (edges to 0 and 2) with its two edges
  // swapped, the edge CRC and the table re-sealed, so only the row
  // order check rejects it: MotionDatabase::find binary-searches a row.
  std::string shuffledRow = withIndex;
  for (std::uint32_t i = 0; i < peekU32(withIndex, 24); ++i) {
    if (peekU32(withIndex, entryAt(i)) !=
        static_cast<std::uint32_t>(image::SectionId::kAdjacencyEdges))
      continue;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::memcpy(&offset, withIndex.data() + entryAt(i) + 8, sizeof(offset));
    std::memcpy(&length, withIndex.data() + entryAt(i) + 16,
                sizeof(length));
    constexpr std::size_t kEdge = sizeof(moloc::kernel::PairWindow);
    const std::size_t row1 = offset + kEdge;  // Row 0 holds one edge.
    std::swap_ranges(shuffledRow.begin() + static_cast<std::ptrdiff_t>(row1),
                     shuffledRow.begin() +
                         static_cast<std::ptrdiff_t>(row1 + kEdge),
                     shuffledRow.begin() +
                         static_cast<std::ptrdiff_t>(row1 + kEdge));
    pokeU32(shuffledRow, entryAt(i) + 4,
            moloc::store::crc32c(shuffledRow.data() + offset, length));
  }
  resealTable(shuffledRow);
  writeFile(root / "regressions/image/shuffled-row.img", shuffledRow);

  // A v4 header on v5 content: the version check rejects it by value.
  std::string v4Header = withIndex;
  pokeU32(v4Header, 8, 4);
  writeFile(root / "regressions/image/v4-header.img", v4Header);
}

}  // namespace

/// Wire-protocol seeds: one of each message through the real
/// encoders, a pipelined stream, and regressions for the frame-level
/// damage modes the decoder must keep rejecting without crashing.
void makeWireSeeds(const fs::path& root) {
  using namespace moloc::net;

  WireScan scan;
  scan.sessionId = 42;
  scan.scan = moloc::radio::Fingerprint({-50.0, -60.0, -71.5});
  scan.imu = moloc::sensors::ImuTrace(50.0);
  for (int i = 0; i < 4; ++i)
    scan.imu.append({i / 50.0, 9.81 + 0.25 * i, 90.0 + i, -1.5 * i});

  LocalizeRequest localize;
  localize.tag = 1;
  localize.scan = scan;
  writeFile(root / "wire/localize.bin", encodeLocalizeRequest(localize));

  LocalizeBatchRequest batch;
  batch.tag = 2;
  batch.scans = {scan, scan};
  writeFile(root / "wire/localize-batch.bin",
            encodeLocalizeBatchRequest(batch));

  ReportObservationRequest report;
  report.tag = 3;
  report.start = 0;
  report.end = 1;
  report.directionDeg = 90.0;
  report.offsetMeters = 4.0;
  writeFile(root / "wire/report-observation.bin",
            encodeReportObservationRequest(report));

  LocalizeResponse okResponse;
  okResponse.tag = 4;
  okResponse.estimate.location = 3;
  okResponse.estimate.probability = 0.75;
  okResponse.estimate.candidates = {{3, 0.75}, {1, 0.25}};
  writeFile(root / "wire/localize-response.bin",
            encodeLocalizeResponse(okResponse));

  FlushResponse errResponse;
  errResponse.tag = 5;
  errResponse.status = Status::kShuttingDown;
  errResponse.message = "drain in progress";
  writeFile(root / "wire/flush-response-error.bin",
            encodeFlushResponse(errResponse));

  // A pipelined stream: three frames back to back, as a real
  // connection produces.
  StatsRequest stats;
  stats.tag = 6;
  writeFile(root / "wire/pipelined-stream.bin",
            encodeFlushRequest({7}) + encodeStatsRequest(stats) +
                encodeReportObservationRequest(report));

  // Regressions: every frame-level damage mode must stay a typed
  // rejection, never a crash or over-read.
  std::string badCrc = encodeStatsRequest({8});
  badCrc[badCrc.size() - 1] ^= 0x01;
  writeFile(root / "regressions/wire/bad-crc.bin", badCrc);

  std::string badMagic = encodeFlushRequest({9});
  badMagic[0] ^= 0x01;
  writeFile(root / "regressions/wire/bad-magic.bin", badMagic);

  // A CRC-valid frame whose payload claims 2^32-1 batch scans: the
  // count must be rejected arithmetically before any allocation.
  std::string hostileCount;
  putU64(hostileCount, 10);
  putU32(hostileCount, 0xFFFFFFFFu);
  writeFile(root / "regressions/wire/hostile-count.bin",
            encodeFrame(MsgType::kLocalizeBatch, hostileCount));

  // A CRC-valid Localize whose IMU sample rate is negative: domain
  // validation must surface as a malformed-payload rejection.
  std::string badRate;
  putU64(badRate, 11);   // tag
  putU64(badRate, 1);    // sessionId
  putU32(badRate, 0);    // apCount
  putF64(badRate, -50.0);
  putU32(badRate, 0);    // sampleCount
  writeFile(root / "regressions/wire/negative-sample-rate.bin",
            encodeFrame(MsgType::kLocalize, badRate));

  // A torn tail: a valid frame cut mid-payload (a peer that died
  // mid-send); the assembler must keep waiting, not misparse.
  const std::string torn = encodeLocalizeRequest(localize);
  writeFile(root / "regressions/wire/torn-frame.bin",
            torn.substr(0, torn.size() - 9));
}

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  makeWalSeeds(root);
  makeCheckpointSeeds(root);
  makeWireSeeds(root);
  makeImageSeeds(root);
  return 0;
}

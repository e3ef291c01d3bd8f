// Tests of the venue-image subsystem (src/image): write -> load round
// trips must reproduce every serving structure bitwise, mmap and a
// heap copy of the file must be indistinguishable, views must pin the
// mapping, damaged files must raise typed ImageErrors (never crash or
// over-read), and the writer must keep the store's crash discipline.

#include "image/image_loader.hpp"
#include "image/image_writer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/motion_database.hpp"
#include "core/online_motion_database.hpp"
#include "core/world_snapshot.hpp"
#include "env/floor_plan.hpp"
#include "eval/experiment_world.hpp"
#include "geometry/vec2.hpp"
#include "image/format.hpp"
#include "index/tiered_index.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "kernel/motion_kernel.hpp"
#include "radio/fingerprint.hpp"
#include "radio/fingerprint_database.hpp"
#include "store/crc32c.hpp"
#include "store/fault_injection.hpp"
#include "store/format.hpp"
#include "store/state_store.hpp"
#include "util/rng.hpp"

namespace moloc::image {
namespace {

constexpr double kFloorDbm = -100.0;

std::string freshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_image_" + tag +
                          "_" + std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::shared_ptr<radio::FingerprintDatabase> makeSparseDb(
    std::size_t locations, std::size_t apCount, std::uint64_t seed) {
  auto db = std::make_shared<radio::FingerprintDatabase>();
  util::Rng rng(seed);
  for (std::size_t loc = 0; loc < locations; ++loc) {
    std::vector<double> rss(apCount, kFloorDbm);
    const std::size_t windowStart =
        (loc * apCount / std::max<std::size_t>(locations, 1)) % apCount;
    for (std::size_t i = 0; i < std::min<std::size_t>(4, apCount); ++i)
      rss[(windowStart + i) % apCount] = rng.uniform(-90.0, -40.0);
    db->addLocation(static_cast<env::LocationId>(loc),
                    radio::Fingerprint(std::move(rss)));
  }
  return db;
}

radio::Fingerprint makeQuery(std::size_t apCount, util::Rng& rng) {
  std::vector<double> rss(apCount, kFloorDbm);
  const std::size_t start = static_cast<std::size_t>(
      rng.uniformIndex(static_cast<std::uint64_t>(apCount)));
  for (std::size_t i = 0; i < std::min<std::size_t>(4, apCount); ++i)
    rss[(start + i) % apCount] = rng.uniform(-92.0, -42.0);
  return radio::Fingerprint(std::move(rss));
}

std::shared_ptr<const core::MotionDatabase> makeMotion(
    std::size_t locations, std::uint64_t seed) {
  std::vector<core::MotionEntry> entries;
  util::Rng rng(seed);
  for (std::size_t i = 0; i + 1 < locations; ++i) {
    const auto from = static_cast<env::LocationId>(i);
    entries.push_back({from, from + 1,
                       {rng.uniform(0.0, 180.0), 4.0,
                        rng.uniform(2.0, 6.0), 0.3, 20}});
    if (i + 2 < locations && i % 3 == 0)
      entries.push_back({from + 2, from,
                         {rng.uniform(-180.0, 0.0), 5.0,
                          rng.uniform(2.0, 6.0), 0.4, 12}});
  }
  return std::make_shared<const core::MotionDatabase>(locations, entries);
}

/// One finite, distinct coordinate per location.
core::WorldSnapshot::Positions makePositions(std::size_t locations) {
  auto positions = std::make_shared<std::vector<geometry::Vec2>>();
  for (std::size_t i = 0; i < locations; ++i)
    positions->push_back({1.5 * static_cast<double>(i),
                          0.5 * static_cast<double>(i % 7)});
  return positions;
}

std::shared_ptr<const core::WorldSnapshot> makeWorld(
    std::size_t locations, std::size_t apCount, std::uint64_t seed,
    bool withIndex) {
  auto db = makeSparseDb(locations, apCount, seed);
  std::shared_ptr<const index::TieredIndex> index;
  if (withIndex) {
    index::IndexConfig config;
    config.maxShardEntries = std::max<std::size_t>(locations / 4, 8);
    index = std::make_shared<const index::TieredIndex>(db, config);
  }
  return std::make_shared<const core::WorldSnapshot>(
      db, makeMotion(locations, seed + 1), /*generation=*/3,
      /*intakeRecords=*/77, index, makePositions(locations));
}

void expectMatchesBitwiseEqual(const std::vector<radio::Match>& a,
                               const std::vector<radio::Match>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].location, b[i].location) << "rank " << i;
    EXPECT_EQ(std::memcmp(&a[i].dissimilarity, &b[i].dissimilarity,
                          sizeof(double)),
              0)
        << "rank " << i;
    EXPECT_EQ(std::memcmp(&a[i].probability, &b[i].probability,
                          sizeof(double)),
              0)
        << "rank " << i;
  }
}

std::vector<std::uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)),
      std::istreambuf_iterator<char>());
  return bytes;
}

TEST(VenueImage, RoundTripPreservesEveryStructureBitwise) {
  const std::string dir = freshDir("roundtrip");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(400, 12, 17, /*withIndex=*/true);
  const ImageWriteInfo info = writeVenueImage(path, *world);
  EXPECT_GE(info.sections, 11u);
  EXPECT_EQ(info.bytes, std::filesystem::file_size(path));

  const VenueImage image = VenueImage::open(path);
  EXPECT_TRUE(image.mapped());
  EXPECT_EQ(image.meta().locationCount, 400u);
  EXPECT_EQ(image.meta().apCount, 12u);
  EXPECT_EQ(image.meta().generation, 3u);
  EXPECT_EQ(image.meta().intakeRecords, 77u);
  ASSERT_TRUE(image.meta().hasIndex);
  const core::WorldSnapshot& served = *image.world();
  EXPECT_EQ(served.generation(), 3u);
  EXPECT_EQ(served.intakeRecords(), 77u);

  // Fingerprints: ids, per-entry values, and the kernel mirror.
  const auto& db = *world->fingerprints();
  const auto& loaded = *served.fingerprints();
  ASSERT_EQ(loaded.size(), db.size());
  EXPECT_EQ(loaded.apCount(), db.apCount());
  for (std::size_t r = 0; r < db.size(); ++r) {
    EXPECT_EQ(loaded.idAt(r), db.idAt(r));
    const radio::Fingerprint fpA = db.entryAt(r);
    const radio::Fingerprint fpB = loaded.entryAt(r);
    const auto a = fpA.values();
    const auto b = fpB.values();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
              0)
        << "row " << r;
  }
  const auto& flatA = db.flatMatrix();
  const auto& flatB = loaded.flatMatrix();
  ASSERT_EQ(flatA.paddedRows(), flatB.paddedRows());
  ASSERT_EQ(flatA.cols(), flatB.cols());
  EXPECT_TRUE(flatB.isView());
  EXPECT_EQ(std::memcmp(flatA.data(), flatB.data(),
                        flatA.paddedRows() * flatA.cols() * sizeof(double)),
            0);

  // Adjacency: CSR arrays verbatim, precomputed constants included.
  const auto& adjA = world->adjacency();
  const auto& adjB = served.adjacency();
  EXPECT_TRUE(adjB.isView());
  ASSERT_EQ(adjB.locationCount(), adjA.locationCount());
  ASSERT_EQ(adjB.entryCount(), adjA.entryCount());
  EXPECT_EQ(std::memcmp(adjA.rowStarts().data(), adjB.rowStarts().data(),
                        adjA.rowStarts().size() * sizeof(std::size_t)),
            0);
  EXPECT_EQ(std::memcmp(adjA.edges().data(), adjB.edges().data(),
                        adjA.entryCount() * sizeof(kernel::PairWindow)),
            0);
  // Every entry field survives, the sample count included.
  EXPECT_EQ(adjB.entry(0, 1)->sampleCount, 20);
  EXPECT_EQ(adjB.entry(2, 0)->sampleCount, 12);

  // Reference coordinates: one per adjacency row, bit for bit.
  ASSERT_NE(served.positions(), nullptr);
  ASSERT_EQ(served.positions()->size(), world->positions()->size());
  EXPECT_EQ(std::memcmp(served.positions()->data(),
                        world->positions()->data(),
                        world->positions()->size() * sizeof(geometry::Vec2)),
            0);

  // Index: same shard structure, bitwise-identical answers.
  ASSERT_EQ(served.tieredIndex()->shardCount(),
            world->tieredIndex()->shardCount());
  util::Rng rng(5);
  std::vector<radio::Match> exact;
  std::vector<radio::Match> viaImage;
  for (int trial = 0; trial < 25; ++trial) {
    const radio::Fingerprint query = makeQuery(12, rng);
    for (const std::size_t k : {1u, 4u, 16u}) {
      db.queryInto(query, k, exact);
      served.tieredIndex()->queryInto(query, k, viaImage);
      expectMatchesBitwiseEqual(exact, viaImage);
    }
  }
}

TEST(VenueImage, MmapAndFromBufferAreBitwiseIdentical) {
  const std::string dir = freshDir("buffer");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(150, 8, 23, /*withIndex=*/true);
  writeVenueImage(path, *world);

  const VenueImage viaMmap = VenueImage::open(path);
  const VenueImage viaBuffer = VenueImage::fromBuffer(readBytes(path));
  EXPECT_TRUE(viaMmap.mapped());
  EXPECT_FALSE(viaBuffer.mapped());

  ASSERT_EQ(viaMmap.meta().locationCount, viaBuffer.meta().locationCount);
  const core::WorldSnapshot& mmapWorld = *viaMmap.world();
  const core::WorldSnapshot& bufferWorld = *viaBuffer.world();
  EXPECT_EQ(std::memcmp(mmapWorld.adjacency().edges().data(),
                        bufferWorld.adjacency().edges().data(),
                        mmapWorld.adjacency().entryCount() *
                            sizeof(kernel::PairWindow)),
            0);
  EXPECT_EQ(std::memcmp(mmapWorld.positions()->data(),
                        bufferWorld.positions()->data(),
                        mmapWorld.positions()->size() *
                            sizeof(geometry::Vec2)),
            0);
  util::Rng rng(7);
  std::vector<radio::Match> a;
  std::vector<radio::Match> b;
  for (int trial = 0; trial < 20; ++trial) {
    const radio::Fingerprint query = makeQuery(8, rng);
    mmapWorld.tieredIndex()->queryInto(query, 6, a);
    bufferWorld.tieredIndex()->queryInto(query, 6, b);
    expectMatchesBitwiseEqual(a, b);
  }
}

TEST(VenueImage, HallWorldRoundTripsBitwise) {
  // The office hall's boot world, as molocd --save-image and moloc_cli
  // --save-image write it: generation 0, no intake records, and no
  // index (the hall is far below the tiered-index threshold).
  const eval::ExperimentWorld world;
  const core::WorldSnapshot boot(
      std::make_shared<const radio::FingerprintDatabase>(
          world.fingerprintDb()),
      std::make_shared<const core::MotionDatabase>(world.motionDb()),
      /*generation=*/0, /*intakeRecords=*/0, /*tieredIndex=*/nullptr,
      std::make_shared<const std::vector<geometry::Vec2>>(
          world.hall().plan.positions()));
  const std::string path = freshDir("hall") + "/hall.img";
  writeVenueImage(path, boot);
  const VenueImage image = VenueImage::open(path);
  EXPECT_FALSE(image.meta().hasIndex);

  const core::MotionDatabase& expected = world.motionDb();
  const core::MotionDatabase& loaded = image.world()->adjacency();
  ASSERT_GT(expected.entryCount(), 0u);
  ASSERT_EQ(loaded.locationCount(), expected.locationCount());
  ASSERT_EQ(loaded.entryCount(), expected.entryCount());
  EXPECT_EQ(std::memcmp(expected.rowStarts().data(),
                        loaded.rowStarts().data(),
                        expected.rowStarts().size() * sizeof(std::size_t)),
            0);
  EXPECT_EQ(std::memcmp(expected.edges().data(), loaded.edges().data(),
                        expected.entryCount() * sizeof(kernel::PairWindow)),
            0);

  // Probes: every surveyed fingerprint, then random scans.
  const radio::FingerprintDatabase& db = world.fingerprintDb();
  std::vector<radio::Fingerprint> probes;
  for (std::size_t r = 0; r < db.size(); ++r)
    probes.push_back(db.entryAt(r));
  util::Rng rng(13);
  for (int trial = 0; trial < 20; ++trial)
    probes.push_back(makeQuery(db.apCount(), rng));
  std::vector<radio::Match> exact;
  std::vector<radio::Match> viaImage;
  for (const radio::Fingerprint& probe : probes) {
    for (const std::size_t k : {1u, 4u, 12u}) {
      db.queryInto(probe, k, exact);
      image.world()->fingerprints()->queryInto(probe, k, viaImage);
      expectMatchesBitwiseEqual(exact, viaImage);
    }
  }
}

TEST(VenueImage, BulkUnverifiedModeServesIdentically) {
  const std::string dir = freshDir("bulk");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(120, 8, 31, /*withIndex=*/true);
  writeVenueImage(path, *world);

  const VenueImage full = VenueImage::open(path);
  const VenueImage fast =
      VenueImage::open(path, VerifyMode::kBulkUnverified);
  util::Rng rng(9);
  std::vector<radio::Match> a;
  std::vector<radio::Match> b;
  for (int trial = 0; trial < 10; ++trial) {
    const radio::Fingerprint query = makeQuery(8, rng);
    full.world()->tieredIndex()->queryInto(query, 5, a);
    fast.world()->tieredIndex()->queryInto(query, 5, b);
    expectMatchesBitwiseEqual(a, b);
  }
}

TEST(VenueImage, ViewsPinTheMappingAfterTheImageHandleDies) {
  const std::string dir = freshDir("pin");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(80, 6, 41, /*withIndex=*/true);
  writeVenueImage(path, *world);

  std::shared_ptr<const radio::FingerprintDatabase> db;
  std::shared_ptr<const core::MotionDatabase> adjacency;
  std::shared_ptr<const index::TieredIndex> index;
  {
    const VenueImage image = VenueImage::open(path);
    db = image.world()->fingerprints();
    adjacency = core::WorldSnapshot::adjacencyOf(image.world());
    index = image.world()->tieredIndex();
  }
  // The VenueImage and its world are gone; the mapping must survive
  // behind each aliasing handle independently.
  util::Rng rng(3);
  const radio::Fingerprint query = makeQuery(6, rng);
  std::vector<radio::Match> exact;
  std::vector<radio::Match> tiered;
  db->queryInto(query, 4, exact);
  index->queryInto(query, 4, tiered);
  expectMatchesBitwiseEqual(exact, tiered);
  EXPECT_GT(adjacency->entryCount(), 0u);
  EXPECT_EQ(adjacency->outEdges(0).size(),
            world->adjacency().outEdges(0).size());
  // Drop the database and index; the adjacency alone must still pin
  // the mapping.
  db.reset();
  index.reset();
  EXPECT_EQ(std::memcmp(adjacency->edges().data(),
                        world->adjacency().edges().data(),
                        adjacency->entryCount() * sizeof(kernel::PairWindow)),
            0);
}

TEST(VenueImage, ImageBackedWorldSnapshotServesTheSameWorld) {
  const std::string dir = freshDir("snapshot");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(90, 8, 53, /*withIndex=*/true);
  writeVenueImage(path, *world);

  const VenueImage image = VenueImage::open(path);
  std::shared_ptr<const core::WorldSnapshot> adopted = image.world();
  EXPECT_EQ(adopted->generation(), 3u);
  EXPECT_EQ(adopted->intakeRecords(), 77u);
  EXPECT_EQ(adopted->adjacency().locationCount(),
            world->adjacency().locationCount());

  // adjacencyOf must pin the adopted chain exactly like a built world.
  auto alias = core::WorldSnapshot::adjacencyOf(adopted);
  adopted.reset();
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias->entryCount(), world->adjacency().entryCount());
  for (env::LocationId id = 0;
       static_cast<std::size_t>(id) < world->adjacency().locationCount();
       ++id) {
    const auto a = world->adjacency().outEdges(id);
    const auto b = alias->outEdges(id);
    ASSERT_EQ(a.size(), b.size()) << "row " << id;
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(kernel::PairWindow)),
              0)
        << "row " << id;
  }
}

TEST(VenueImage, WorldWithoutIndexRoundTripsWithoutIndexSections) {
  const std::string dir = freshDir("noindex");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(60, 6, 67, /*withIndex=*/false);
  const ImageWriteInfo info = writeVenueImage(path, *world);
  EXPECT_EQ(info.sections, 6u);

  const VenueImage image = VenueImage::open(path);
  EXPECT_FALSE(image.meta().hasIndex);
  EXPECT_EQ(image.world()->tieredIndex(), nullptr);
  util::Rng rng(11);
  const radio::Fingerprint query = makeQuery(6, rng);
  std::vector<radio::Match> exact;
  std::vector<radio::Match> loaded;
  world->fingerprints()->queryInto(query, 3, exact);
  image.world()->fingerprints()->queryInto(query, 3, loaded);
  expectMatchesBitwiseEqual(exact, loaded);
}

TEST(VenueImage, WriterRejectsWorldViolatingTheServingInvariant) {
  // A fingerprinted id the adjacency cannot look up would make
  // outEdges() over-read at serve time; the writer must refuse.
  auto db = std::make_shared<radio::FingerprintDatabase>();
  db->addLocation(5, radio::Fingerprint({-50.0, -60.0}));
  const core::WorldSnapshot world(
      db, std::make_shared<const core::MotionDatabase>(3), 1, 0, nullptr,
      makePositions(3));
  const std::string dir = freshDir("invariant");
  EXPECT_THROW(writeVenueImage(dir + "/venue.img", world), ImageError);
}

TEST(VenueImage, WriterRejectsWorldWithoutUsableCoordinates) {
  // The loader rejects an image without coordinates or with a
  // non-finite one, so the writer must not produce either.
  auto db = std::make_shared<radio::FingerprintDatabase>();
  db->addLocation(0, radio::Fingerprint({-50.0, -60.0}));
  const auto motion = std::make_shared<const core::MotionDatabase>(2);
  const std::string dir = freshDir("coordinates");
  EXPECT_THROW(writeVenueImage(dir + "/a.img",
                               core::WorldSnapshot(db, motion, 1, 0)),
               ImageError);
  const auto nan = std::make_shared<const std::vector<geometry::Vec2>>(
      std::vector<geometry::Vec2>{
          {1.0, 2.0}, {std::numeric_limits<double>::quiet_NaN(), 0.0}});
  EXPECT_THROW(writeVenueImage(dir + "/b.img",
                               core::WorldSnapshot(db, motion, 1, 0,
                                                   nullptr, nan)),
               ImageError);
  EXPECT_FALSE(std::filesystem::exists(dir + "/a.img"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/b.img"));
}

TEST(VenueImage, EveryTruncationIsATypedError) {
  const std::string dir = freshDir("truncate");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(12, 4, 71, /*withIndex=*/true);
  writeVenueImage(path, *world);
  const std::vector<std::uint8_t> bytes = readBytes(path);
  ASSERT_GT(bytes.size(), sizeof(FileHeader));

  // The full buffer loads; every proper prefix is typed damage.
  EXPECT_NO_THROW(VenueImage::fromBuffer(bytes));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        VenueImage::fromBuffer(std::span(bytes.data(), len)),
        ImageError)
        << "prefix " << len;
  }
}

TEST(VenueImage, EveryCoveredByteFlipIsDetected) {
  const std::string dir = freshDir("bitflip");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(12, 4, 73, /*withIndex=*/true);
  writeVenueImage(path, *world);
  std::vector<std::uint8_t> bytes = readBytes(path);

  // Which byte offsets are covered by a checksum (header + table via
  // tableCrc, every section via its entry's crc)?  Only the zero
  // padding between sections is uncovered; a flip there must load as
  // if nothing happened.
  FileHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<bool> covered(bytes.size(), false);
  const std::size_t tableEnd =
      sizeof(FileHeader) + header.sectionCount * sizeof(SectionEntry);
  for (std::size_t i = 0; i < tableEnd; ++i) covered[i] = true;
  std::vector<SectionEntry> table(header.sectionCount);
  std::memcpy(table.data(), bytes.data() + sizeof(FileHeader),
              header.sectionCount * sizeof(SectionEntry));
  for (const SectionEntry& entry : table)
    for (std::uint64_t i = 0; i < entry.length; ++i)
      covered[entry.offset + i] = true;

  for (std::size_t at = 0; at < bytes.size(); ++at) {
    bytes[at] ^= 0x40;
    if (covered[at]) {
      EXPECT_THROW(VenueImage::fromBuffer(bytes), ImageError)
          << "offset " << at;
    } else {
      const VenueImage image = VenueImage::fromBuffer(bytes);
      EXPECT_EQ(image.meta().locationCount, 12u) << "offset " << at;
    }
    bytes[at] ^= 0x40;
  }
}

TEST(VenueImage, CrashFaultsOnThePublishedFileAreTypedErrors) {
  const std::string dir = freshDir("faults");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(40, 6, 79, /*withIndex=*/true);
  writeVenueImage(path, *world);

  // A leftover .tmp from a crashed writer must not shadow the
  // published image.
  {
    const std::vector<std::uint8_t> bytes = readBytes(path);
    std::ofstream torn(path + ".tmp", std::ios::binary);
    torn.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_NO_THROW(VenueImage::open(path));

  // Re-publishing over the same path replaces the image atomically.
  writeVenueImage(path, *world);
  EXPECT_NO_THROW(VenueImage::open(path));

  const store::testing::FaultFile fault(path);
  const std::uint64_t size = fault.size();
  fault.flipByte(size / 2);
  EXPECT_THROW(VenueImage::open(path), ImageError);
  fault.flipByte(size / 2);  // Undo.
  EXPECT_NO_THROW(VenueImage::open(path));
  fault.truncateTo(size / 2);
  EXPECT_THROW(VenueImage::open(path), ImageError);

  // Missing files are I/O errors, not format damage.
  EXPECT_THROW(VenueImage::open(dir + "/absent.img"), store::StoreError);
}

TEST(VenueImage, ViewStructuresRefuseMutation) {
  const std::string dir = freshDir("immutable");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(30, 6, 83, /*withIndex=*/false);
  writeVenueImage(path, *world);
  const VenueImage image = VenueImage::open(path);
  const radio::FingerprintDatabase& db = *image.world()->fingerprints();

  kernel::FlatMatrix flat = db.flatMatrix();
  EXPECT_TRUE(flat.isView());
  EXPECT_THROW(flat.appendRow(std::vector<double>(6, -70.0)),
               std::logic_error);
  EXPECT_THROW(flat.reset(6), std::logic_error);

  // An entry is a copy gathered from the mapped matrix: writing to it
  // leaves the image untouched.
  radio::Fingerprint entry = db.entryAt(0);
  const double stored = entry[0];
  entry[0] = -1.0;
  EXPECT_EQ(db.entryAt(0)[0], stored);

  const core::MotionDatabase adjacency = image.world()->adjacency();
  EXPECT_TRUE(adjacency.isView());  // A copied view stays a view.
}

TEST(FingerprintDatabase, EntriesGatherTheBitsThatWereAdded) {
  // Seven rows (a partial trailing kernel block) under permuted ids,
  // holding values whose bits a careless gather would change: signed
  // zero, subnormals, and both ends of the double range.
  constexpr std::size_t kRows = 7;
  static_assert(kRows % kernel::kRowBlock != 0);
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const std::vector<env::LocationId> ids = {4, 0, 6, 2, 5, 1, 3};
  std::vector<std::vector<double>> rows;
  auto db = std::make_shared<radio::FingerprintDatabase>();
  for (std::size_t r = 0; r < kRows; ++r) {
    rows.push_back({-0.0, subnormal * static_cast<double>(r + 1), 1e300,
                    -1e300, -40.0 - static_cast<double>(r)});
    db->addLocation(ids[r], radio::Fingerprint(rows.back()));
  }

  const auto expectBits = [&](const radio::FingerprintDatabase& d,
                              std::size_t apCount, const char* what) {
    ASSERT_EQ(d.size(), kRows) << what;
    ASSERT_EQ(d.apCount(), apCount) << what;
    for (std::size_t r = 0; r < kRows; ++r) {
      const radio::Fingerprint byRow = d.entryAt(r);
      const radio::Fingerprint byId = d.entry(ids[r]);
      ASSERT_EQ(byRow.size(), apCount) << what;
      ASSERT_EQ(byId.size(), apCount) << what;
      EXPECT_EQ(std::memcmp(byRow.values().data(), rows[r].data(),
                            apCount * sizeof(double)),
                0)
          << what << ", row " << r;
      EXPECT_EQ(std::memcmp(byId.values().data(), rows[r].data(),
                            apCount * sizeof(double)),
                0)
          << what << ", id " << ids[r];
    }
  };
  expectBits(*db, 5, "addLocation");
  const radio::FingerprintDatabase copy = *db;
  expectBits(copy, 5, "copy");
  expectBits(db->truncatedTo(3), 3, "truncatedTo(3)");

  const std::string dir = freshDir("gather");
  const std::string path = dir + "/venue.img";
  writeVenueImage(path, core::WorldSnapshot(db, makeMotion(kRows, 5),
                                            /*generation=*/1,
                                            /*intakeRecords=*/0, nullptr,
                                            makePositions(kRows)));
  expectBits(*VenueImage::open(path).world()->fingerprints(), 5, "open");
  expectBits(*VenueImage::fromBuffer(readBytes(path)).world()->fingerprints(),
             5, "fromBuffer");
}

TEST(VenueImage, StateStoreKeepsImageAlongsideCheckpointLineage) {
  const std::string dir = freshDir("store");
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});

  // The image is a cache kept in the store's directory, next to (and
  // independent of) the checkpoint + WAL lineage.
  const std::string imagePath = dir + "/venue.img";
  const auto world = makeWorld(50, 6, 97, /*withIndex=*/true);
  std::uint64_t expectedLastSeq = 0;
  {
    store::StateStore store(dir);

    core::OnlineMotionDatabase db(plan.positions());
    db.setSink(&store);
    for (int k = 0; k < 20; ++k)
      db.addObservation(k % 2, 1 + k % 2, 87.0 + 0.3 * (k % 13),
                        3.6 + 0.03 * (k % 17));
    store.checkpoint(db);

    // The image publishes between the checkpoint and the WAL tail...
    writeVenueImage(imagePath, *world);

    // ...and more records land after it.
    for (int k = 0; k < 7; ++k)
      db.addObservation(0, 1, 90.0 + 0.1 * k, 4.0);
    db.setSink(nullptr);
    expectedLastSeq = store.lastSeq();
    EXPECT_GT(expectedLastSeq, store.lastCheckpointSeq());
  }

  // Recovery semantics are untouched by the image file: the checkpoint
  // loads and the WAL tail still replays on top.
  core::OnlineMotionDatabase recovered(plan.positions());
  const store::RecoveryResult result = store::recover(dir, recovered);
  EXPECT_TRUE(result.checkpointLoaded);
  EXPECT_EQ(result.lastSeq, expectedLastSeq);
  EXPECT_EQ(result.replayedRecords, 7u);

  // Reopening the store beside the image leaves both intact, and the
  // image serves the world it captured.
  store::StateStore reopened(dir);
  const VenueImage image = VenueImage::open(imagePath);
  EXPECT_EQ(image.meta().locationCount, 50u);
  EXPECT_TRUE(image.meta().hasIndex);

  // A damaged image is a typed, recoverable failure — the durable
  // lineage does not depend on it.
  const store::testing::FaultFile fault(imagePath);
  fault.flipByte(fault.size() - 1);
  EXPECT_THROW(VenueImage::open(imagePath), ImageError);
  core::OnlineMotionDatabase again(plan.positions());
  EXPECT_EQ(store::recover(dir, again).lastSeq, expectedLastSeq);
}

/// The section-table entry of `id` in an image's bytes.
std::size_t sectionEntryAt(const std::vector<std::uint8_t>& bytes,
                           SectionId id) {
  FileHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (std::size_t i = 0; i < header.sectionCount; ++i) {
    const std::size_t at = sizeof(FileHeader) + i * sizeof(SectionEntry);
    SectionEntry entry{};
    std::memcpy(&entry, bytes.data() + at, sizeof(entry));
    if (entry.id == static_cast<std::uint32_t>(id)) return at;
  }
  ADD_FAILURE() << "no section " << static_cast<std::uint32_t>(id);
  return 0;
}

/// Re-seals FileHeader::tableCrc after a table patch.
void resealTable(std::vector<std::uint8_t>& bytes) {
  FileHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.tableCrc = store::crc32c(bytes.data() + sizeof(FileHeader),
                                  header.sectionCount *
                                      sizeof(SectionEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
}

TEST(VenueImage, LoadedIndexServesTheBuiltIndexBitwise) {
  const std::string dir = freshDir("loaded_index");
  const std::string path = dir + "/venue.img";
  // 37-row shards: shard boundaries fall inside flat-matrix row blocks.
  auto db = makeSparseDb(370, 10, 101);
  index::IndexConfig config;
  config.maxShardEntries = 37;
  auto built = std::make_shared<const index::TieredIndex>(db, config);
  const core::WorldSnapshot world(db, makeMotion(370, 102), 1, 0, built,
                                  makePositions(370));
  writeVenueImage(path, world);
  const VenueImage image = VenueImage::open(path);
  const index::TieredIndex& loaded = *image.world()->tieredIndex();

  ASSERT_EQ(loaded.shardCount(), built->shardCount());
  for (std::size_t s = 0; s < built->shardCount(); ++s) {
    const index::ShardView& a = built->shardView(s);
    const index::ShardView& b = loaded.shardView(s);
    ASSERT_EQ(a.signatures.size(), b.signatures.size());
    EXPECT_EQ(std::memcmp(a.signatures.data(), b.signatures.data(),
                          a.signatures.size()),
              0);
    ASSERT_EQ(a.varyingColumns.size(), b.varyingColumns.size());
    EXPECT_EQ(std::memcmp(a.varyingColumns.data(), b.varyingColumns.data(),
                          a.varyingColumns.size_bytes()),
              0);
    EXPECT_EQ(std::memcmp(a.columnValues.data(), b.columnValues.data(),
                          a.columnValues.size_bytes()),
              0);
  }

  util::Rng rng(103);
  std::vector<radio::Match> exact;
  std::vector<radio::Match> viaBuilt;
  std::vector<radio::Match> viaImage;
  for (const bool forceScalar : {true, false}) {
    kernel::setForceScalar(forceScalar);
    for (int trial = 0; trial < 25; ++trial) {
      const radio::Fingerprint query = makeQuery(10, rng);
      for (const std::size_t k : {1u, 6u, 40u}) {
        db->queryInto(query, k, exact);
        built->queryInto(query, k, viaBuilt);
        loaded.queryInto(query, k, viaImage);
        expectMatchesBitwiseEqual(exact, viaBuilt);
        expectMatchesBitwiseEqual(viaBuilt, viaImage);
      }
    }
  }
}

TEST(VenueImage, OlderVersionImagesAreRejectedWithATypedError) {
  const std::string dir = freshDir("old_version");
  const std::string path = dir + "/venue.img";
  writeVenueImage(path, *makeWorld(20, 4, 107, /*withIndex=*/true));
  const std::vector<std::uint8_t> written = readBytes(path);
  FileHeader header{};
  std::memcpy(&header, written.data(), sizeof(header));
  ASSERT_EQ(header.version, kFormatVersion);
  // v1: thermometer bit planes, no column profiles.  v2: a row-major
  // copy of the radio map in section 3.  v3: zeroed padding where v4
  // stores each edge's sample count.  v4: no reference coordinates.
  for (const std::uint32_t version : {1u, 2u, 3u, 4u}) {
    std::vector<std::uint8_t> bytes = written;
    header.version = version;
    std::memcpy(bytes.data(), &header, sizeof(header));
    try {
      VenueImage::fromBuffer(bytes);
      ADD_FAILURE() << "a v" << version << " image loaded";
    } catch (const ImageError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported format version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(VenueImage, WrittenImagesCarryNoRowMajorSection) {
  // Section id 3 held a row-major copy of the radio map up to v2; the
  // blocked matrix is now its only copy, and the id is retired.
  constexpr std::uint32_t kRetiredRowValues = 3;
  for (const bool withIndex : {false, true}) {
    const std::string dir = freshDir("no_row_section");
    const std::string path = dir + "/venue.img";
    writeVenueImage(path, *makeWorld(20, 4, 127, withIndex));
    std::vector<std::uint8_t> bytes = readBytes(path);
    FileHeader header{};
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::vector<SectionEntry> table(header.sectionCount);
    std::memcpy(table.data(), bytes.data() + sizeof(FileHeader),
                header.sectionCount * sizeof(SectionEntry));
    for (const SectionEntry& entry : table)
      EXPECT_NE(entry.id, kRetiredRowValues) << "withIndex " << withIndex;

    // A table that names the retired id is damage: the loader rejects
    // it rather than skip it.
    const std::size_t at = sectionEntryAt(bytes, SectionId::kLocationIds);
    std::memcpy(bytes.data() + at, &kRetiredRowValues,
                sizeof(kRetiredRowValues));
    resealTable(bytes);
    try {
      VenueImage::fromBuffer(bytes);
      ADD_FAILURE() << "an image with section id 3 loaded";
    } catch (const ImageError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown section id 3"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(VenueImage, TruncatedColumnProfileSectionIsATypedError) {
  const std::string dir = freshDir("short_profile");
  const std::string path = dir + "/venue.img";
  writeVenueImage(path, *makeWorld(40, 6, 109, /*withIndex=*/true));
  std::vector<std::uint8_t> bytes = readBytes(path);

  // One column value short, with a matching CRC and a re-sealed table,
  // so only the geometry check can catch it.
  const std::size_t at =
      sectionEntryAt(bytes, SectionId::kIndexColumnValues);
  SectionEntry entry{};
  std::memcpy(&entry, bytes.data() + at, sizeof(entry));
  entry.length -= sizeof(double);
  entry.crc = store::crc32c(bytes.data() + entry.offset,
                            static_cast<std::size_t>(entry.length));
  std::memcpy(bytes.data() + at, &entry, sizeof(entry));
  resealTable(bytes);
  for (const VerifyMode verify :
       {VerifyMode::kFull, VerifyMode::kBulkUnverified}) {
    try {
      VenueImage::fromBuffer(bytes, verify);
      ADD_FAILURE() << "a short column-profile section loaded";
    } catch (const ImageError& e) {
      EXPECT_NE(std::string(e.what()).find("index_column_values"),
                std::string::npos)
          << e.what();
    }
  }
}

/// Recomputes the CRC of section `id` after its bytes were patched,
/// and re-seals the table, so only a content check can reject the
/// patch.
void resealSection(std::vector<std::uint8_t>& bytes, SectionId id) {
  const std::size_t at = sectionEntryAt(bytes, id);
  SectionEntry entry{};
  std::memcpy(&entry, bytes.data() + at, sizeof(entry));
  entry.crc = store::crc32c(bytes.data() + entry.offset,
                            static_cast<std::size_t>(entry.length));
  std::memcpy(bytes.data() + at, &entry, sizeof(entry));
  resealTable(bytes);
}

/// The byte offset of section `id`'s payload.
std::size_t sectionOffset(const std::vector<std::uint8_t>& bytes,
                          SectionId id) {
  SectionEntry entry{};
  std::memcpy(&entry, bytes.data() + sectionEntryAt(bytes, id),
              sizeof(entry));
  return static_cast<std::size_t>(entry.offset);
}

void expectRejected(const std::vector<std::uint8_t>& bytes,
                    VerifyMode verify, const std::string& message) {
  try {
    VenueImage::fromBuffer(bytes, verify);
    ADD_FAILURE() << "loaded; expected: " << message;
  } catch (const ImageError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

TEST(VenueImage, RowNotSortedByDestinationIsRejectedUnderFullVerify) {
  // makeMotion's row 2 holds edges to 0 and 3; swapping them leaves
  // every destination in range and every CRC valid, but
  // MotionDatabase::find's binary search would miss an entry.
  const std::string path = freshDir("shuffled_row") + "/venue.img";
  const auto world = makeWorld(30, 4, 131, /*withIndex=*/false);
  ASSERT_EQ(world->adjacency().outEdges(2).size(), 2u);
  writeVenueImage(path, *world);
  std::vector<std::uint8_t> bytes = readBytes(path);
  const std::size_t edges =
      sectionOffset(bytes, SectionId::kAdjacencyEdges) +
      world->adjacency().rowStarts()[2] * sizeof(kernel::PairWindow);
  std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(edges),
                   bytes.begin() + static_cast<std::ptrdiff_t>(
                                       edges + sizeof(kernel::PairWindow)),
                   bytes.begin() + static_cast<std::ptrdiff_t>(
                                       edges + sizeof(kernel::PairWindow)));
  resealSection(bytes, SectionId::kAdjacencyEdges);
  expectRejected(bytes, VerifyMode::kFull,
                 "adjacency row 2 is not sorted by destination");
  // kBulkUnverified skips the edge scans, like the edge CRC.
  EXPECT_NO_THROW(VenueImage::fromBuffer(bytes, VerifyMode::kBulkUnverified));
}

TEST(VenueImage, DamagedCoordinatesAreATypedErrorInEveryMode) {
  const std::string path = freshDir("bad_positions") + "/venue.img";
  writeVenueImage(path, *makeWorld(20, 4, 137, /*withIndex=*/true));
  const std::vector<std::uint8_t> written = readBytes(path);

  // A non-finite coordinate under a valid CRC.
  std::vector<std::uint8_t> bytes = written;
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(bytes.data() +
                  sectionOffset(bytes, SectionId::kLocationPositions) +
                  5 * sizeof(geometry::Vec2) + sizeof(double),
              &inf, sizeof(inf));
  resealSection(bytes, SectionId::kLocationPositions);
  for (const VerifyMode verify :
       {VerifyMode::kFull, VerifyMode::kBulkUnverified})
    expectRejected(bytes, verify, "location position is not finite");

  // One coordinate short.
  bytes = written;
  const std::size_t at =
      sectionEntryAt(bytes, SectionId::kLocationPositions);
  SectionEntry entry{};
  std::memcpy(&entry, bytes.data() + at, sizeof(entry));
  entry.length -= sizeof(geometry::Vec2);
  std::memcpy(bytes.data() + at, &entry, sizeof(entry));
  resealSection(bytes, SectionId::kLocationPositions);
  for (const VerifyMode verify :
       {VerifyMode::kFull, VerifyMode::kBulkUnverified})
    expectRejected(bytes, verify, "location_positions section length");

  // No coordinates at all: the entry is cut from the table, which
  // is re-sealed.  The section is required.
  bytes = written;
  FileHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  const auto cut = static_cast<std::ptrdiff_t>(
      sectionEntryAt(bytes, SectionId::kLocationPositions));
  const auto tableEnd = static_cast<std::ptrdiff_t>(
      sizeof(FileHeader) + header.sectionCount * sizeof(SectionEntry));
  constexpr auto kEntry = static_cast<std::ptrdiff_t>(sizeof(SectionEntry));
  std::copy(bytes.begin() + cut + kEntry, bytes.begin() + tableEnd,
            bytes.begin() + cut);
  std::fill(bytes.begin() + tableEnd - kEntry, bytes.begin() + tableEnd, 0);
  --header.sectionCount;
  std::memcpy(bytes.data(), &header, sizeof(header));
  resealTable(bytes);
  for (const VerifyMode verify :
       {VerifyMode::kFull, VerifyMode::kBulkUnverified})
    expectRejected(bytes, verify, "missing location_positions section");
}

TEST(TieredIndexParallelBuild, BitwiseIdenticalToSerial) {
  const auto db = makeSparseDb(1200, 16, 91);
  index::IndexConfig serialConfig;
  serialConfig.maxShardEntries = 128;
  serialConfig.buildThreads = 1;
  index::IndexConfig parallelConfig = serialConfig;
  parallelConfig.buildThreads = 4;

  const index::TieredIndex serial(db, serialConfig);
  const index::TieredIndex parallel(db, parallelConfig);
  ASSERT_EQ(serial.shardCount(), parallel.shardCount());
  EXPECT_GT(serial.shardCount(), 4u);
  for (std::size_t s = 0; s < serial.shardCount(); ++s) {
    const index::ShardView a = serial.shardView(s);
    const index::ShardView b = parallel.shardView(s);
    EXPECT_EQ(a.rowBegin, b.rowBegin);
    EXPECT_EQ(a.rowEnd, b.rowEnd);
    ASSERT_EQ(a.activeAps.size(), b.activeAps.size());
    EXPECT_EQ(std::memcmp(a.activeAps.data(), b.activeAps.data(),
                          a.activeAps.size() * sizeof(std::uint32_t)),
              0);
    EXPECT_EQ(std::memcmp(a.minBucket.data(), b.minBucket.data(),
                          a.minBucket.size()),
              0);
    EXPECT_EQ(std::memcmp(a.maxBucket.data(), b.maxBucket.data(),
                          a.maxBucket.size()),
              0);
    ASSERT_EQ(a.signatures.size(), b.signatures.size());
    EXPECT_EQ(std::memcmp(a.signatures.data(), b.signatures.data(),
                          a.signatures.size()),
              0);
    ASSERT_EQ(a.varyingColumns.size(), b.varyingColumns.size());
    EXPECT_EQ(std::memcmp(a.varyingColumns.data(), b.varyingColumns.data(),
                          a.varyingColumns.size_bytes()),
              0);
    ASSERT_EQ(a.columnValues.size(), b.columnValues.size());
    EXPECT_EQ(std::memcmp(a.columnValues.data(), b.columnValues.data(),
                          a.columnValues.size_bytes()),
              0);
  }

  util::Rng rng(13);
  std::vector<radio::Match> a;
  std::vector<radio::Match> b;
  for (int trial = 0; trial < 25; ++trial) {
    const radio::Fingerprint query = makeQuery(16, rng);
    serial.queryInto(query, 8, a);
    parallel.queryInto(query, 8, b);
    expectMatchesBitwiseEqual(a, b);
  }
}

}  // namespace
}  // namespace moloc::image

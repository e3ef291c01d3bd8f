// Tests of the venue-image subsystem (src/image): write -> load round
// trips must reproduce every serving structure bitwise, mmap and the
// read() fallback must be indistinguishable, views must pin the
// mapping, damaged files must raise typed ImageErrors (never crash or
// over-read), and the writer must keep the store's crash discipline.

#include "image/image_loader.hpp"
#include "image/image_writer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/motion_database.hpp"
#include "core/online_motion_database.hpp"
#include "core/world_snapshot.hpp"
#include "env/floor_plan.hpp"
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

core::MotionDatabase makeMotion(std::size_t locations,
                                std::uint64_t seed) {
  core::MotionDatabase motion(locations);
  util::Rng rng(seed);
  for (std::size_t i = 0; i + 1 < locations; ++i) {
    motion.setEntry(static_cast<env::LocationId>(i),
                    static_cast<env::LocationId>(i + 1),
                    {rng.uniform(0.0, 180.0), 4.0,
                     rng.uniform(2.0, 6.0), 0.3, 20});
    if (i + 2 < locations && i % 3 == 0)
      motion.setEntry(static_cast<env::LocationId>(i + 2),
                      static_cast<env::LocationId>(i),
                      {rng.uniform(-180.0, 0.0), 5.0,
                       rng.uniform(2.0, 6.0), 0.4, 12});
  }
  return motion;
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
      /*intakeRecords=*/77, index);
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
  EXPECT_EQ(image.locationCount(), 400u);
  EXPECT_EQ(image.apCount(), 12u);
  EXPECT_EQ(image.meta().generation, 3u);
  EXPECT_EQ(image.meta().intakeRecords, 77u);
  ASSERT_TRUE(image.hasIndex());

  // Fingerprints: ids, per-entry values, and the kernel mirror.
  const auto& db = *world->fingerprints();
  const auto& loaded = *image.fingerprints();
  ASSERT_EQ(loaded.size(), db.size());
  EXPECT_EQ(loaded.apCount(), db.apCount());
  for (std::size_t r = 0; r < db.size(); ++r) {
    EXPECT_EQ(loaded.idAt(r), db.idAt(r));
    const auto a = db.entryAt(r).values();
    const auto b = loaded.entryAt(r).values();
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
  const auto& adjB = *image.adjacency();
  EXPECT_TRUE(adjB.isView());
  ASSERT_EQ(adjB.locationCount(), adjA.locationCount());
  ASSERT_EQ(adjB.edgeCount(), adjA.edgeCount());
  EXPECT_EQ(std::memcmp(adjA.rowStarts().data(), adjB.rowStarts().data(),
                        adjA.rowStarts().size() * sizeof(std::size_t)),
            0);
  EXPECT_EQ(std::memcmp(adjA.edges().data(), adjB.edges().data(),
                        adjA.edgeCount() * sizeof(kernel::PairWindow)),
            0);

  // Index: same shard structure, bitwise-identical answers.
  ASSERT_EQ(image.tieredIndex()->shardCount(),
            world->tieredIndex()->shardCount());
  util::Rng rng(5);
  std::vector<radio::Match> exact;
  std::vector<radio::Match> viaImage;
  for (int trial = 0; trial < 25; ++trial) {
    const radio::Fingerprint query = makeQuery(12, rng);
    for (const std::size_t k : {1u, 4u, 16u}) {
      db.queryInto(query, k, exact);
      image.tieredIndex()->queryInto(query, k, viaImage);
      expectMatchesBitwiseEqual(exact, viaImage);
    }
  }
}

TEST(VenueImage, MmapAndReadFallbackAreBitwiseIdentical) {
  const std::string dir = freshDir("fallback");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(150, 8, 23, /*withIndex=*/true);
  writeVenueImage(path, *world);

  const VenueImage viaMmap =
      VenueImage::open(path, {LoadMode::kMmap, VerifyMode::kFull});
  const VenueImage viaRead =
      VenueImage::open(path, {LoadMode::kReadFallback, VerifyMode::kFull});
  EXPECT_TRUE(viaMmap.mapped());
  EXPECT_FALSE(viaRead.mapped());

  ASSERT_EQ(viaMmap.locationCount(), viaRead.locationCount());
  EXPECT_EQ(std::memcmp(viaMmap.adjacency()->edges().data(),
                        viaRead.adjacency()->edges().data(),
                        viaMmap.adjacency()->edgeCount() *
                            sizeof(kernel::PairWindow)),
            0);
  util::Rng rng(7);
  std::vector<radio::Match> a;
  std::vector<radio::Match> b;
  for (int trial = 0; trial < 20; ++trial) {
    const radio::Fingerprint query = makeQuery(8, rng);
    viaMmap.tieredIndex()->queryInto(query, 6, a);
    viaRead.tieredIndex()->queryInto(query, 6, b);
    expectMatchesBitwiseEqual(a, b);
  }
}

TEST(VenueImage, BulkUnverifiedModeServesIdentically) {
  const std::string dir = freshDir("bulk");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(120, 8, 31, /*withIndex=*/true);
  writeVenueImage(path, *world);

  const VenueImage full =
      VenueImage::open(path, {LoadMode::kMmap, VerifyMode::kFull});
  const VenueImage fast = VenueImage::open(
      path, {LoadMode::kMmap, VerifyMode::kBulkUnverified});
  util::Rng rng(9);
  std::vector<radio::Match> a;
  std::vector<radio::Match> b;
  for (int trial = 0; trial < 10; ++trial) {
    const radio::Fingerprint query = makeQuery(8, rng);
    full.tieredIndex()->queryInto(query, 5, a);
    fast.tieredIndex()->queryInto(query, 5, b);
    expectMatchesBitwiseEqual(a, b);
  }
}

TEST(VenueImage, ViewsPinTheMappingAfterTheImageHandleDies) {
  const std::string dir = freshDir("pin");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(80, 6, 41, /*withIndex=*/true);
  writeVenueImage(path, *world);

  std::shared_ptr<const radio::FingerprintDatabase> db;
  std::shared_ptr<const kernel::MotionAdjacency> adjacency;
  std::shared_ptr<const index::TieredIndex> index;
  {
    const VenueImage image = VenueImage::open(path);
    db = image.fingerprints();
    adjacency = image.adjacency();
    index = image.tieredIndex();
  }
  // The VenueImage is gone; the mapping must survive behind each
  // aliasing handle independently.
  util::Rng rng(3);
  const radio::Fingerprint query = makeQuery(6, rng);
  std::vector<radio::Match> exact;
  std::vector<radio::Match> tiered;
  db->queryInto(query, 4, exact);
  index->queryInto(query, 4, tiered);
  expectMatchesBitwiseEqual(exact, tiered);
  EXPECT_GT(adjacency->edgeCount(), 0u);
  EXPECT_EQ(adjacency->outEdges(0).size(),
            world->adjacency().outEdges(0).size());
  // Drop the database and index; the adjacency alone must still pin
  // the mapping.
  db.reset();
  index.reset();
  EXPECT_EQ(std::memcmp(adjacency->edges().data(),
                        world->adjacency().edges().data(),
                        adjacency->edgeCount() * sizeof(kernel::PairWindow)),
            0);
}

TEST(VenueImage, ImageBackedWorldSnapshotServesTheSameWorld) {
  const std::string dir = freshDir("snapshot");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(90, 8, 53, /*withIndex=*/true);
  writeVenueImage(path, *world);

  const VenueImage image = VenueImage::open(path);
  auto adopted = std::make_shared<const core::WorldSnapshot>(
      image.fingerprints(), image.adjacency(),
      image.meta().generation, image.meta().intakeRecords,
      image.tieredIndex());
  EXPECT_EQ(adopted->generation(), 3u);
  EXPECT_EQ(adopted->intakeRecords(), 77u);
  EXPECT_EQ(&adopted->adjacency(), image.adjacency().get());
  EXPECT_EQ(adopted->adjacency().locationCount(),
            world->adjacency().locationCount());

  // adjacencyOf must pin the adopted chain exactly like a built world.
  auto alias = core::WorldSnapshot::adjacencyOf(adopted);
  adopted.reset();
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias->edgeCount(), world->adjacency().edgeCount());
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
  EXPECT_FALSE(image.hasIndex());
  EXPECT_EQ(image.tieredIndex(), nullptr);
  util::Rng rng(11);
  const radio::Fingerprint query = makeQuery(6, rng);
  std::vector<radio::Match> exact;
  std::vector<radio::Match> loaded;
  world->fingerprints()->queryInto(query, 3, exact);
  image.fingerprints()->queryInto(query, 3, loaded);
  expectMatchesBitwiseEqual(exact, loaded);
}

TEST(VenueImage, WriterRejectsWorldViolatingTheServingInvariant) {
  // A fingerprinted id the adjacency cannot look up would make
  // outEdges() over-read at serve time; the writer must refuse.
  auto db = std::make_shared<radio::FingerprintDatabase>();
  db->addLocation(5, radio::Fingerprint({-50.0, -60.0}));
  const core::WorldSnapshot world(db, core::MotionDatabase(3), 1, 0);
  const std::string dir = freshDir("invariant");
  EXPECT_THROW(writeVenueImage(dir + "/venue.img", world), ImageError);
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
      EXPECT_EQ(image.locationCount(), 12u) << "offset " << at;
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
  EXPECT_THROW(
      VenueImage::open(path, {LoadMode::kReadFallback, VerifyMode::kFull}),
      ImageError);

  // Missing files are I/O errors, not format damage.
  EXPECT_THROW(VenueImage::open(dir + "/absent.img"), store::StoreError);
  EXPECT_THROW(VenueImage::open(dir + "/absent.img",
                                {LoadMode::kReadFallback,
                                 VerifyMode::kFull}),
               store::StoreError);
}

TEST(VenueImage, ViewStructuresRefuseMutation) {
  const std::string dir = freshDir("immutable");
  const std::string path = dir + "/venue.img";
  const auto world = makeWorld(30, 6, 83, /*withIndex=*/false);
  writeVenueImage(path, *world);
  const VenueImage image = VenueImage::open(path);

  kernel::FlatMatrix flat = image.fingerprints()->flatMatrix();
  EXPECT_TRUE(flat.isView());
  EXPECT_THROW(flat.appendRow(std::vector<double>(6, -70.0)),
               std::logic_error);
  EXPECT_THROW(flat.reset(6), std::logic_error);

  radio::Fingerprint entry = image.fingerprints()->entryAt(0);
  EXPECT_THROW(entry[0] = -1.0, std::logic_error);
  // truncated() must hand back an owning fingerprint, not a view.
  radio::Fingerprint owned = entry.truncated(3);
  EXPECT_NO_THROW(owned[0] = -1.0);

  const kernel::MotionAdjacency adjacency = *image.adjacency();
  EXPECT_TRUE(adjacency.isView());  // A copied view stays a view.
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

    core::OnlineMotionDatabase db(plan);
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
  core::OnlineMotionDatabase recovered(plan);
  const store::RecoveryResult result = store::recover(dir, recovered);
  EXPECT_TRUE(result.checkpointLoaded);
  EXPECT_EQ(result.lastSeq, expectedLastSeq);
  EXPECT_EQ(result.replayedRecords, 7u);

  // Reopening the store beside the image leaves both intact, and the
  // image serves the world it captured.
  store::StateStore reopened(dir);
  const VenueImage image = VenueImage::open(imagePath);
  EXPECT_EQ(image.locationCount(), 50u);
  EXPECT_TRUE(image.hasIndex());

  // A damaged image is a typed, recoverable failure — the durable
  // lineage does not depend on it.
  const store::testing::FaultFile fault(imagePath);
  fault.flipByte(fault.size() - 1);
  EXPECT_THROW(VenueImage::open(imagePath), ImageError);
  core::OnlineMotionDatabase again(plan);
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
  const core::WorldSnapshot world(db, makeMotion(370, 102), 1, 0, built);
  writeVenueImage(path, world);
  const VenueImage image = VenueImage::open(path);
  const index::TieredIndex& loaded = *image.tieredIndex();

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

TEST(VenueImage, Version1ImagesAreRejectedWithATypedError) {
  const std::string dir = freshDir("v1");
  const std::string path = dir + "/venue.img";
  writeVenueImage(path, *makeWorld(20, 4, 107, /*withIndex=*/true));
  std::vector<std::uint8_t> bytes = readBytes(path);
  FileHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  ASSERT_EQ(header.version, kFormatVersion);
  header.version = 1;
  std::memcpy(bytes.data(), &header, sizeof(header));
  try {
    VenueImage::fromBuffer(bytes);
    ADD_FAILURE() << "a v1 image loaded";
  } catch (const ImageError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
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

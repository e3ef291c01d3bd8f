#include "worldgen/generated_venue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <vector>

#include "motion_support.hpp"
#include "service/localization_service.hpp"
#include "util/rng.hpp"
#include "worldgen/venue_spec.hpp"

namespace moloc::worldgen {
namespace {

VenueSpec smallSpec() {
  VenueSpec spec;
  spec.buildings = 2;
  spec.floorsPerBuilding = 2;
  spec.gridCols = 8;
  spec.gridRows = 8;
  spec.apsPerFloor = 4;
  spec.seed = 7;
  return spec;  // 256 locations, 16 APs.
}

TEST(VenueSpecTest, ParsesPresetsAndKeyValueLists) {
  EXPECT_EQ(locationCount(parseVenueSpec("campus-1k")), 1024u);
  EXPECT_EQ(locationCount(parseVenueSpec("campus-4k")), 4096u);
  EXPECT_EQ(locationCount(parseVenueSpec("campus-16k")), 16384u);
  EXPECT_EQ(locationCount(parseVenueSpec("campus-64k")), 65536u);

  const VenueSpec spec = parseVenueSpec(
      "buildings=3,floors=2,cols=10,rows=12,aps-per-floor=5");
  EXPECT_EQ(spec.buildings, 3);
  EXPECT_EQ(spec.floorsPerBuilding, 2);
  EXPECT_EQ(locationCount(spec), 3u * 2u * 10u * 12u);
  EXPECT_EQ(apCount(spec), 3u * 2u * 5u);

  EXPECT_THROW(parseVenueSpec("campus-2k"), std::invalid_argument);
  EXPECT_THROW(parseVenueSpec("bogus=1"), std::invalid_argument);
  EXPECT_THROW(parseVenueSpec("cols=abc"), std::invalid_argument);
  EXPECT_THROW(parseVenueSpec("cols=0"), std::invalid_argument);

  EXPECT_EQ(locationCount(venueSpecForLocations(16384)), 16384u);
  EXPECT_THROW(venueSpecForLocations(12345), std::invalid_argument);
}

TEST(VenueSpecTest, ValidatesBounds) {
  VenueSpec spec = smallSpec();
  EXPECT_NO_THROW(validateVenueSpec(spec));
  spec.gridCols = 1;
  EXPECT_THROW(validateVenueSpec(spec), std::invalid_argument);
  spec = smallSpec();
  spec.spacingMeters = 0.0;
  EXPECT_THROW(validateVenueSpec(spec), std::invalid_argument);
  spec = smallSpec();
  spec.trainSamples = 0;
  EXPECT_THROW(validateVenueSpec(spec), std::invalid_argument);
  spec = smallSpec();
  spec.buildings = 64;
  spec.floorsPerBuilding = 8;
  spec.gridCols = 64;
  spec.gridRows = 64;  // 2M locations > kMaxVenueLocations.
  EXPECT_THROW(validateVenueSpec(spec), std::invalid_argument);
}

TEST(WorldgenTest, GeneratesExpectedStructure) {
  const GeneratedVenue venue(smallSpec());
  EXPECT_EQ(venue.locationCount(), 256u);
  EXPECT_EQ(venue.apCount(), 16u);
  ASSERT_EQ(venue.floors().size(), 4u);
  EXPECT_EQ(venue.accessPoints().size(), 16u);
  EXPECT_EQ(venue.fingerprints().size(), 256u);
  EXPECT_EQ(venue.fingerprints().apCount(), 16u);

  // Per-floor location ranges are contiguous and exhaustive — the
  // shard boundaries handed to the index.
  ASSERT_EQ(venue.shardStarts().size(), 4u);
  std::size_t next = 0;
  for (std::size_t f = 0; f < venue.floors().size(); ++f) {
    const FloorInfo& floor = venue.floors()[f];
    EXPECT_EQ(venue.shardStarts()[f], next);
    EXPECT_EQ(floor.firstLocation, next);
    EXPECT_EQ(floor.locationCount, 64u);
    EXPECT_EQ(floor.apCount, 4u);
    next += floor.locationCount;
  }
  EXPECT_EQ(next, venue.locationCount());

  // floorOf agrees with the ranges.
  for (std::size_t f = 0; f < venue.floors().size(); ++f) {
    const FloorInfo& floor = venue.floors()[f];
    EXPECT_EQ(&venue.floorOf(static_cast<env::LocationId>(
                  floor.firstLocation)),
              &floor);
    EXPECT_EQ(&venue.floorOf(static_cast<env::LocationId>(
                  floor.firstLocation + floor.locationCount - 1)),
              &floor);
  }
  EXPECT_THROW(
      venue.floorOf(static_cast<env::LocationId>(venue.locationCount())),
      std::out_of_range);

  // Stairs and bridges keep the whole campus walkable.
  EXPECT_EQ(venue.site().graph.nodeCount(), venue.locationCount());
  EXPECT_TRUE(venue.site().graph.isConnected());
  EXPECT_EQ(venue.site().apPositions.size(), venue.apCount());
}

TEST(WorldgenTest, VisibilityIsSparseAndFloorLocal) {
  const GeneratedVenue venue(smallSpec());
  const double floorDbm = venue.spec().propagation.detectionFloorDbm;
  std::size_t heardTotal = 0;
  for (std::size_t loc = 0; loc < venue.locationCount(); ++loc) {
    const FloorInfo& floor =
        venue.floorOf(static_cast<env::LocationId>(loc));
    const radio::Fingerprint& entry =
        venue.fingerprints().entry(static_cast<env::LocationId>(loc));
    std::size_t heard = 0;
    for (std::size_t ap = 0; ap < entry.size(); ++ap) {
      if (entry[ap] <= floorDbm) continue;
      ++heard;
      // Heard APs are always the location's own floor's.
      EXPECT_GE(ap, floor.firstAp);
      EXPECT_LT(ap, floor.firstAp + floor.apCount);
    }
    heardTotal += heard;
    EXPECT_GE(heard, 1u) << "location " << loc << " hears nothing";
  }
  // Sparse: the average location hears far fewer APs than exist.
  EXPECT_LT(heardTotal, venue.locationCount() * venue.apCount() / 2);
}

TEST(WorldgenTest, IsDeterministicInTheSpec) {
  const GeneratedVenue a(smallSpec());
  const GeneratedVenue b(smallSpec());
  ASSERT_EQ(a.locationCount(), b.locationCount());
  for (std::size_t loc = 0; loc < a.locationCount(); ++loc) {
    const radio::Fingerprint fa =
        a.fingerprints().entry(static_cast<env::LocationId>(loc));
    const radio::Fingerprint fb =
        b.fingerprints().entry(static_cast<env::LocationId>(loc));
    const auto va = fa.values();
    const auto vb = fb.values();
    ASSERT_EQ(va.size(), vb.size());
    EXPECT_EQ(std::memcmp(va.data(), vb.data(),
                          va.size() * sizeof(double)),
              0)
        << "location " << loc;
  }
  EXPECT_EQ(a.motion().entryCount(), b.motion().entryCount());

  // Serving scans replay bitwise for the same RNG stream.
  util::Rng rngA(123);
  util::Rng rngB(123);
  const radio::Fingerprint scanA = a.scanAt(17, 90.0, rngA);
  const radio::Fingerprint scanB = b.scanAt(17, 90.0, rngB);
  ASSERT_EQ(scanA.size(), scanB.size());
  for (std::size_t i = 0; i < scanA.size(); ++i)
    EXPECT_EQ(scanA[i], scanB[i]);

  // A different seed produces a different radio map.
  VenueSpec other = smallSpec();
  other.seed = 8;
  const GeneratedVenue c(other);
  bool anyDifferent = false;
  for (std::size_t loc = 0; loc < a.locationCount() && !anyDifferent;
       ++loc) {
    const radio::Fingerprint fa =
        a.fingerprints().entry(static_cast<env::LocationId>(loc));
    const radio::Fingerprint fc =
        c.fingerprints().entry(static_cast<env::LocationId>(loc));
    const auto va = fa.values();
    const auto vc = fc.values();
    anyDifferent = std::memcmp(va.data(), vc.data(),
                               va.size() * sizeof(double)) != 0;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(WorldgenTest, MotionDatabaseCoversWalkEdges) {
  const GeneratedVenue venue(smallSpec());
  EXPECT_EQ(venue.motion().locationCount(), venue.locationCount());
  // One stored RLM pair per undirected walk edge.
  EXPECT_EQ(venue.motion().entryCount(),
            venue.site().graph.edgeCount() * 2);
  for (env::LocationId loc = 0; loc < 64; ++loc)
    for (const auto& edge : venue.site().graph.neighbors(loc))
      EXPECT_TRUE(venue.motion().entry(loc, edge.to).has_value())
          << loc << " -> " << edge.to;

  util::Rng rng(1);
  EXPECT_THROW(venue.scanAt(
                   static_cast<env::LocationId>(venue.locationCount()),
                   0.0, rng),
               std::out_of_range);
}

TEST(WorldgenTest, MotionDatabaseIsPinned) {
  // The map-derived motion database of a preset venue, entry by entry
  // bitwise: a change to how the generator fills it shows here.
  const GeneratedVenue venue(parseVenueSpec("campus-1k"));
  test_support::Fnv64 digest;
  digest.mix(venue.motion());
  EXPECT_EQ(digest.value(), 0xb1621fe7218dea67ULL);
}

// Named for the sanitizer CI filters (Worldgen.*): the venue pipeline
// through the service — snapshot-owned index build on publish — must
// behave identically with the tiered index on and off.
TEST(WorldgenTest, ServiceWithIndexMatchesExactServiceBitwise) {
  VenueSpec spec = smallSpec();
  const GeneratedVenue venue(spec);

  const auto radioMap = venue.sharedFingerprints();
  index::IndexConfig audited;
  audited.exhaustiveCheck = true;  // Audit recall on every query.
  service::ServiceConfig config;
  config.metrics = nullptr;
  const auto motion =
      std::make_shared<const core::MotionDatabase>(venue.motion());
  service::LocalizationService withIndex(
      std::make_shared<const core::WorldSnapshot>(
          radioMap, motion, 0, 0,
          std::make_shared<const index::TieredIndex>(
              radioMap, audited, venue.shardStarts())),
      config);
  ASSERT_TRUE(withIndex.tieredIndex() != nullptr);
  EXPECT_EQ(withIndex.currentWorld()->tieredIndex().get(),
            withIndex.tieredIndex().get());

  service::LocalizationService exact(
      std::make_shared<const core::WorldSnapshot>(radioMap, motion, 0, 0),
      config);
  ASSERT_TRUE(exact.tieredIndex() == nullptr);

  util::Rng rng(99);
  std::vector<service::ScanRequest> batch;
  for (std::size_t u = 0; u < 16; ++u) {
    const auto loc = static_cast<env::LocationId>(
        rng.uniformIndex(venue.locationCount()));
    service::ScanRequest request;
    request.session = u + 1;
    request.scan = venue.scanAt(loc, 0.0, rng);
    batch.push_back(std::move(request));
  }
  const auto indexedResults = withIndex.localizeBatch(batch);
  const auto exactResults = exact.localizeBatch(batch);
  ASSERT_EQ(indexedResults.size(), exactResults.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(indexedResults[i].location, exactResults[i].location);
    EXPECT_EQ(std::memcmp(&indexedResults[i].probability,
                          &exactResults[i].probability, sizeof(double)),
              0);
    ASSERT_EQ(indexedResults[i].candidates.size(),
              exactResults[i].candidates.size());
    for (std::size_t c = 0; c < indexedResults[i].candidates.size(); ++c)
      EXPECT_EQ(indexedResults[i].candidates[c].location,
                exactResults[i].candidates[c].location);
  }

  // submitScan (the unbatched per-session path) routes through the
  // index-backed estimator; results must match the exact service too.
  const auto scan = venue.scanAt(5, 0.0, rng);
  const sensors::ImuTrace noImu;
  const auto viaIndex = withIndex.submitScan(1000, scan, noImu);
  const auto viaExact = exact.submitScan(1000, scan, noImu);
  EXPECT_EQ(viaIndex.location, viaExact.location);
  EXPECT_EQ(std::memcmp(&viaIndex.probability, &viaExact.probability,
                        sizeof(double)),
            0);
}

}  // namespace
}  // namespace moloc::worldgen

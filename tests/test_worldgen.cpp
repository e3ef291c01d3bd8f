#include "worldgen/generated_venue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/online_motion_database.hpp"
#include "geometry/angles.hpp"
#include "geometry/vec2.hpp"
#include "image/image_loader.hpp"
#include "image/image_writer.hpp"
#include "motion_support.hpp"
#include "sensors/accelerometer_model.hpp"
#include "sensors/compass_model.hpp"
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

/// The boot world molocd builds for `venue` (the same bootWorld call).
std::shared_ptr<const core::WorldSnapshot> venueBootWorld(
    const GeneratedVenue& venue, service::ServiceConfig& config) {
  config.indexShardStarts = venue.shardStarts();
  return service::bootWorld(
      venue.sharedFingerprints(), venue.sharedMotion(),
      std::make_shared<const std::vector<geometry::Vec2>>(
          venue.site().plan.positions()),
      config);
}

TEST(WorldgenTest, BootWorldSharesTheVenueDatabases) {
  const GeneratedVenue venue(smallSpec());
  service::ServiceConfig config;
  config.metrics = nullptr;
  const auto world = venueBootWorld(venue, config);
  // No copy of either database: the world holds the venue's own.
  EXPECT_EQ(&world->adjacency(), &venue.motion());
  EXPECT_EQ(world->fingerprints().get(), &venue.fingerprints());
  ASSERT_NE(world->positions(), nullptr);
  EXPECT_EQ(world->positions()->size(), venue.locationCount());
}

/// A deterministic walking IMU trace (3 s at 50 Hz) heading `heading`.
sensors::ImuTrace walkingTrace(double headingDeg, std::uint64_t seed) {
  util::Rng rng(seed);
  sensors::AccelerometerModel accel;
  sensors::CompassModel compass;
  const auto accelSeries = accel.walkingSamples(150, 1.8, rng);
  const auto compassSeries = compass.readings(headingDeg, 0.0, 150, rng);
  sensors::ImuTrace trace(50.0);
  for (std::size_t i = 0; i < 150; ++i)
    trace.append({i / 50.0, accelSeries[i], compassSeries[i]});
  return trace;
}

void expectSameEstimate(const core::LocationEstimate& a,
                        const core::LocationEstimate& b) {
  EXPECT_EQ(a.location, b.location);
  EXPECT_EQ(std::memcmp(&a.probability, &b.probability, sizeof(double)), 0);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t c = 0; c < a.candidates.size(); ++c) {
    EXPECT_EQ(a.candidates[c].location, b.candidates[c].location);
    EXPECT_EQ(std::memcmp(&a.candidates[c].probability,
                          &b.candidates[c].probability, sizeof(double)),
              0);
  }
}

// A venue boot and a boot from that venue's image are one world: with
// an intake built from each world's own coordinates and fed the same
// observations, both serve bitwise-equal estimates before and after
// the intake publishes.
TEST(WorldgenTest, ImageBootWithIntakeMatchesTheVenueBootBitwise) {
  VenueSpec spec = smallSpec();
  spec.gridCols = 16;
  spec.gridRows = 16;  // 1024 locations: the boot world has an index.
  const GeneratedVenue venue(spec);
  service::ServiceConfig config;
  config.metrics = nullptr;
  const auto venueWorld = venueBootWorld(venue, config);
  ASSERT_NE(venueWorld->tieredIndex(), nullptr);

  const std::string dir =
      ::testing::TempDir() + "moloc_worldgen_image_boot";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/venue.img";
  image::writeVenueImage(path, *venueWorld);
  const auto imageWorld = image::VenueImage::open(path).world();
  ASSERT_NE(imageWorld->tieredIndex(), nullptr);

  service::LocalizationService fromVenue(venueWorld, config);
  service::LocalizationService fromImage(imageWorld, config);
  core::OnlineMotionDatabase venueIntake(
      *fromVenue.currentWorld()->positions());
  core::OnlineMotionDatabase imageIntake(
      *fromImage.currentWorld()->positions());
  fromVenue.attachIntake(&venueIntake);
  fromImage.attachIntake(&imageIntake);

  // Sessions walk east along floor 0's first row.
  const auto localizeBoth = [&](std::uint64_t round) {
    util::Rng rng(round);
    for (std::uint64_t session = 1; session <= 8; ++session) {
      const auto loc = static_cast<env::LocationId>(session + round);
      const radio::Fingerprint scan = venue.scanAt(loc, 90.0, rng);
      const sensors::ImuTrace imu =
          walkingTrace(90.0, round * 100 + session);
      SCOPED_TRACE("round " + std::to_string(round) + ", session " +
                   std::to_string(session));
      expectSameEstimate(fromVenue.submitScan(session, scan, imu),
                         fromImage.submitScan(session, scan, imu));
    }
  };
  localizeBoth(0);

  const std::vector<geometry::Vec2>& positions = *venueWorld->positions();
  for (env::LocationId a = 0; a + 1 < spec.gridCols; ++a) {
    const geometry::Vec2 from = positions[static_cast<std::size_t>(a)];
    const geometry::Vec2 to = positions[static_cast<std::size_t>(a) + 1];
    for (int k = 0; k < 4; ++k) {
      const double direction =
          geometry::headingBetweenDeg(from, to) + 0.5 * k;
      const double offset = geometry::distance(from, to) + 0.05 * k;
      const bool accepted =
          fromVenue.reportObservation(a, a + 1, direction, offset);
      EXPECT_TRUE(accepted);
      EXPECT_EQ(fromImage.reportObservation(a, a + 1, direction, offset),
                accepted);
    }
  }
  fromVenue.flushIntake();
  fromImage.flushIntake();

  const core::MotionDatabase& venueMotion =
      fromVenue.currentWorld()->adjacency();
  const core::MotionDatabase& imageMotion =
      fromImage.currentWorld()->adjacency();
  ASSERT_GT(venueMotion.entryCount(), 0u);
  ASSERT_EQ(venueMotion.entryCount(), imageMotion.entryCount());
  EXPECT_EQ(std::memcmp(venueMotion.edges().data(), imageMotion.edges().data(),
                        venueMotion.entryCount() * sizeof(kernel::PairWindow)),
            0);
  localizeBoth(1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace moloc::worldgen

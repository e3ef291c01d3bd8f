// MoLocEngine with the Horus-style probabilistic candidate backend:
// the engine contract must hold identically regardless of which
// matcher feeds candidate estimation.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/moloc_engine.hpp"
#include "motion_support.hpp"
#include "radio/probabilistic_database.hpp"

namespace moloc::core {
namespace {

radio::ProbabilisticFingerprintDatabase twinWorldDb() {
  auto samples = [](double a, double b) {
    std::vector<radio::Fingerprint> out;
    for (int i = 0; i < 10; ++i) {
      const double jitter = 2.0 * (i % 3 - 1);
      out.emplace_back(std::vector<double>{a + jitter, b - jitter});
    }
    return out;
  };
  radio::ProbabilisticFingerprintDatabase db;
  db.addLocation(0, samples(-50.0, -60.0));   // Twin of 1.
  db.addLocation(1, samples(-50.3, -60.3));   // Twin of 0.
  db.addLocation(2, samples(-70.0, -40.0));   // Unique.
  return db;
}

MotionDatabase twinWorldMotion() {
  // 0 -> 2: east; 1 -> 2: north (the disambiguating legs).
  return test_support::mirroredDb(3, {{0, 2, {90.0, 4.0, 6.0, 0.3, 20}},
                                      {1, 2, {0.0, 4.0, 6.0, 0.3, 20}}});
}

/// The engine over the probabilistic backend, via the general
/// constructor.
MoLocEngine probabilisticEngine(
    const radio::ProbabilisticFingerprintDatabase& db,
    const MotionDatabase& motion) {
  return MoLocEngine(CandidateEstimator(db, 3),
                     std::make_shared<const MotionDatabase>(motion),
                     {3, {}});
}

TEST(EngineProbabilistic, FirstFixFollowsLikelihood) {
  const auto db = twinWorldDb();
  const auto motion = twinWorldMotion();
  MoLocEngine engine = probabilisticEngine(db, motion);
  const auto fix =
      engine.localize(radio::Fingerprint({-69.0, -41.0}), std::nullopt);
  EXPECT_EQ(fix.location, 2);
  EXPECT_EQ(fix.candidates.size(), 3u);
}

TEST(EngineProbabilistic, PosteriorIsNormalized) {
  const auto db = twinWorldDb();
  const auto motion = twinWorldMotion();
  MoLocEngine engine = probabilisticEngine(db, motion);
  const auto fix =
      engine.localize(radio::Fingerprint({-55.0, -55.0}), std::nullopt);
  double total = 0.0;
  for (const auto& c : fix.candidates) {
    EXPECT_TRUE(std::isfinite(c.probability));
    total += c.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(EngineProbabilistic, MotionStillDisambiguatesTwins) {
  const auto db = twinWorldDb();
  const auto motion = twinWorldMotion();
  MoLocEngine engine = probabilisticEngine(db, motion);
  // Start at the unique location, then walk the reverse of 0 -> 2
  // (west 6 m): only twin 0 explains that motion.
  engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);
  const auto fix =
      engine.localize(radio::Fingerprint({-50.15, -60.15}),
                      sensors::MotionMeasurement{270.0, 6.0});
  EXPECT_EQ(fix.location, 0);

  // Same scan but walking south (reverse of 1 -> 2): twin 1 wins.
  engine.reset();
  engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);
  const auto other =
      engine.localize(radio::Fingerprint({-50.15, -60.15}),
                      sensors::MotionMeasurement{180.0, 6.0});
  EXPECT_EQ(other.location, 1);
}

TEST(EngineProbabilistic, MatchesDeterministicContractOnUnambiguous) {
  // On an unambiguous scan both backends agree on the estimate.
  const auto probDb = twinWorldDb();
  radio::FingerprintDatabase detDb;
  detDb.addLocation(0, radio::Fingerprint({-50.0, -60.0}));
  detDb.addLocation(1, radio::Fingerprint({-50.3, -60.3}));
  detDb.addLocation(2, radio::Fingerprint({-70.0, -40.0}));
  const auto motion = twinWorldMotion();

  MoLocEngine probEngine = probabilisticEngine(probDb, motion);
  MoLocEngine detEngine(detDb, motion, {3, {}});
  const radio::Fingerprint scan({-68.0, -42.0});
  EXPECT_EQ(probEngine.localize(scan, std::nullopt).location,
            detEngine.localize(scan, std::nullopt).location);
}

}  // namespace
}  // namespace moloc::core

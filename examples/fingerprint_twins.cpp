// The paper's Fig. 1 scenario, built by hand with the public API: an
// open space with two APs, a location q and its mirror twin q', and a
// user whose motion disambiguates what fingerprints alone cannot.
//
// Demonstrates the low-level API (FloorPlan, RadioEnvironment,
// FingerprintDatabase, MotionDatabase, MoLocEngine) without the
// ExperimentWorld convenience wrapper.

#include <cstdio>
#include <vector>

#include "baseline/wifi_fingerprinting.hpp"
#include "core/moloc_engine.hpp"
#include "core/motion_database.hpp"
#include "env/floor_plan.hpp"
#include "radio/radio_environment.hpp"
#include "geometry/angles.hpp"
#include "radio/site_survey.hpp"

int main() {
  using namespace moloc;

  // An open 20 m x 20 m space.  Two APs on the horizontal mid-line
  // (the line S1-S2 of Fig. 1).
  env::FloorPlan plan(20.0, 20.0);
  const auto p = plan.addReferenceLocation({4.0, 10.0});    // On S1S2.
  const auto q = plan.addReferenceLocation({10.0, 14.0});   // North.
  const auto qTwin = plan.addReferenceLocation({10.0, 6.0});  // Mirror.

  radio::PropagationParams radioParams;
  radioParams.shadowingSigmaDb = 0.3;  // Nearly ideal open space:
  radioParams.temporalSigmaDb = 2.0;   // twins are almost exact.
  radioParams.bodyAttenuationDb = 0.0;
  radio::RadioEnvironment radio(
      plan, {{0, {2.0, 10.0}}, {1, {18.0, 10.0}}}, radioParams);

  // Site survey.
  util::Rng rng(1);
  radio::SurveyConfig survey;
  const auto surveyData = radio::conductSurvey(radio, survey, rng);
  const auto fingerprints = surveyData.buildDatabase();

  std::printf("=== Fig. 1: distinguishing fingerprint twins ===\n\n");
  std::printf("fingerprint separation q vs q': %.1f dB "
              "(vs %.1f dB q vs p)\n",
              radio::dissimilarity(fingerprints.entry(q),
                                   fingerprints.entry(qTwin)),
              radio::dissimilarity(fingerprints.entry(q),
                                   fingerprints.entry(p)));

  // How often does plain fingerprinting confuse the twins?
  const baseline::WifiFingerprinting wifi(fingerprints);
  int wrong = 0;
  const int queries = 1000;
  for (int i = 0; i < queries; ++i) {
    const auto scan = radio.scan(plan.location(q).pos, 270.0, rng);
    if (wifi.localize(scan) != q) ++wrong;
  }
  std::printf("plain WiFi fingerprinting at q: %d / %d queries "
              "mislocated (mostly to the twin q')\n\n",
              wrong, queries);

  // The motion database knows the walkable legs p -> q and p -> q'.
  const auto pPos = plan.location(p).pos;
  const auto qPos = plan.location(q).pos;
  const auto qTwinPos = plan.location(qTwin).pos;
  std::vector<core::MotionEntry> legs;
  core::appendWithMirror(legs, p, q,
                         {geometry::headingBetweenDeg(pPos, qPos), 5.0,
                          geometry::distance(pPos, qPos), 0.3, 20});
  core::appendWithMirror(legs, p, qTwin,
                         {geometry::headingBetweenDeg(pPos, qTwinPos), 5.0,
                          geometry::distance(pPos, qTwinPos), 0.3, 20});
  const core::MotionDatabase motion(plan.locationCount(), legs);

  // Fig. 1(b): the user starts at p (unique fingerprint), then walks
  // to q.  The motion (north-east-ish) matches p -> q, not p -> q'.
  core::MoLocConfig config;
  config.candidateCount = 3;
  core::MoLocEngine engine(fingerprints, motion, config);

  int molocWrong = 0;
  int wifiWrong = 0;
  for (int i = 0; i < queries; ++i) {
    engine.reset();
    engine.localize(radio.scan(pPos, 90.0, rng), std::nullopt);
    const auto scanAtQ = radio.scan(qPos, 56.0, rng);
    const sensors::MotionMeasurement walkToQ{
        geometry::headingBetweenDeg(pPos, qPos) + rng.normal(0.0, 3.0),
        geometry::distance(pPos, qPos) + rng.normal(0.0, 0.2)};
    if (engine.localize(scanAtQ, walkToQ).location != q) ++molocWrong;
    if (wifi.localize(scanAtQ) != q) ++wifiWrong;
  }
  std::printf("after walking p -> q (Fig. 1b):\n");
  std::printf("  WiFi baseline wrong: %4d / %d\n", wifiWrong, queries);
  std::printf("  MoLoc wrong:         %4d / %d\n\n", molocWrong, queries);

  // Fig. 1(c): even when the *initial* fix is the wrong twin, the
  // retained candidate set lets the next motion-constrained fix
  // recover.
  int recovered = 0;
  int initialWrong = 0;
  for (int i = 0; i < queries; ++i) {
    engine.reset();
    const auto initial =
        engine.localize(radio.scan(qPos, 270.0, rng), std::nullopt);
    if (initial.location == q) continue;  // Only erroneous initials.
    ++initialWrong;
    // The user walks q -> p; motion matches the q -> p leg.
    const sensors::MotionMeasurement walkToP{
        geometry::headingBetweenDeg(qPos, pPos) + rng.normal(0.0, 3.0),
        geometry::distance(qPos, pPos) + rng.normal(0.0, 0.2)};
    const auto fix = engine.localize(radio.scan(pPos, 236.0, rng),
                                     walkToP);
    if (fix.location == p) ++recovered;
  }
  std::printf("after an erroneous initial fix at q (Fig. 1c):\n");
  std::printf("  erroneous initials: %d; recovered at the next fix: %d "
              "(%.0f%%)\n",
              initialWrong, recovered,
              initialWrong ? 100.0 * recovered / initialWrong : 0.0);
  return 0;
}

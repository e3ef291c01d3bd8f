// Extension E3: deterministic (Eq. 1-4) vs Horus-style probabilistic
// fingerprint matching (the paper's related work [17]) — both as a
// standalone localizer and as MoLoc's candidate source.  Shows that the
// motion term composes with either matcher, which is the paper's
// compatibility claim ("regardless of fingerprint types").

#include <cstdio>
#include <memory>

#include "baseline/wifi_fingerprinting.hpp"
#include "bench/common.hpp"
#include "radio/probabilistic_database.hpp"

int main() {
  using namespace moloc;

  std::printf("=== Extension E3: deterministic vs probabilistic "
              "matching (6 APs) ===\n");

  eval::WorldConfig config;
  eval::ExperimentWorld world(config);

  // Build the probabilistic radio map from the same survey the
  // deterministic one used.
  util::Rng surveyRng(config.seed);
  util::Rng derived = surveyRng.split();
  const auto survey =
      radio::conductSurvey(world.radio(), config.survey, derived);
  const auto probDb =
      radio::ProbabilisticFingerprintDatabase::fromSurvey(survey);

  const baseline::WifiFingerprinting nearest(world.fingerprintDb());
  core::MoLocEngine molocDet = world.makeEngine();
  core::MoLocEngine molocProb(
      core::CandidateEstimator(probDb, config.moloc.candidateCount),
      std::make_shared<const core::MotionDatabase>(world.motionDb()),
      config.moloc);

  eval::ErrorStats nearestStats, horusStats, molocDetStats,
      molocProbStats;

  for (int t = 0; t < bench::kTestTraces; ++t) {
    const auto& user =
        world.users()[static_cast<std::size_t>(t) % world.users().size()];
    const auto trace =
        world.makeTrace(user, bench::kLegsPerTrace, world.evalRng());
    molocDet.reset();
    molocProb.reset();

    auto record = [&world](env::LocationId estimated,
                           env::LocationId truth) {
      return eval::LocalizationRecord{
          estimated, truth, world.locationDistance(estimated, truth)};
    };

    nearestStats.add(
        record(nearest.localize(trace.initialScan), trace.startTruth));
    horusStats.add(
        record(probDb.mostLikely(trace.initialScan), trace.startTruth));
    molocDetStats.add(record(
        molocDet.localize(trace.initialScan, std::nullopt).location,
        trace.startTruth));
    molocProbStats.add(record(
        molocProb.localize(trace.initialScan, std::nullopt).location,
        trace.startTruth));

    for (const auto& interval : trace.intervals) {
      const auto motion = world.processInterval(interval, user);
      nearestStats.add(record(nearest.localize(interval.scanAtArrival),
                              interval.toTruth));
      horusStats.add(record(probDb.mostLikely(interval.scanAtArrival),
                            interval.toTruth));
      molocDetStats.add(
          record(molocDet.localize(interval.scanAtArrival, motion).location,
                 interval.toTruth));
      molocProbStats.add(record(
          molocProb.localize(interval.scanAtArrival, motion).location,
          interval.toTruth));
    }
  }

  std::printf("%-26s %-10s %-12s %-10s\n", "method", "accuracy",
              "mean_err_m", "max_err_m");
  util::CsvWriter csv(bench::resultsDir() + "/ext_probabilistic.csv",
                      {"method", "accuracy", "mean_err_m", "max_err_m"});
  const struct {
    const char* name;
    const eval::ErrorStats* stats;
  } rows[] = {{"nearest (Eq. 2)", &nearestStats},
              {"horus-ml", &horusStats},
              {"moloc + deterministic", &molocDetStats},
              {"moloc + probabilistic", &molocProbStats}};
  for (const auto& row : rows) {
    std::printf("%-26s %-10.3f %-12.2f %-10.2f\n", row.name,
                row.stats->accuracy(), row.stats->meanError(),
                row.stats->maxError());
    csv.cell(row.name).cell(row.stats->accuracy())
        .cell(row.stats->meanError()).cell(row.stats->maxError()).endRow();
  }
  std::printf("\nexpected: motion lifts both matchers far above their "
              "standalone accuracy.\n");
  std::printf("rows written to %s/ext_probabilistic.csv\n",
              bench::resultsDir().c_str());
  return 0;
}

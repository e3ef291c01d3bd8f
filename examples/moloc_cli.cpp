// moloc_cli: a configurable command-line front end for the simulator.
//
// Runs the full pipeline (survey -> crowdsourced motion database ->
// paired MoLoc/WiFi evaluation) with every major knob exposed as a
// flag, prints a summary report, and can save the trained world as a
// venue image that `molocd --image` serves.
//
//   ./moloc_cli --aps 5 --seed 7 --traces 50 --legs 15
//   ./moloc_cli --k 4 --alpha 30 --temporal-noise 4
//   ./moloc_cli --save-image hall.img && ./molocd --image hall.img

#include <cstdio>
#include <exception>
#include <memory>

#include "baseline/wifi_fingerprinting.hpp"
#include "eval/convergence.hpp"
#include "eval/experiment_world.hpp"
#include "image/image_writer.hpp"
#include "io/trace_io.hpp"
#include "service/localization_service.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace moloc;

  util::ArgParser args(
      "moloc_cli: run the MoLoc office-hall experiment with custom "
      "parameters");
  args.addOption("aps", "6", "number of access points (1-6)");
  args.addOption("seed", "42", "master random seed");
  args.addOption("traces", "34", "test walks to evaluate");
  args.addOption("legs", "12", "aisle legs per test walk");
  args.addOption("training-traces", "150",
                 "crowdsourced walks for the motion database");
  args.addOption("k", "12", "candidate-set size");
  args.addOption("alpha", "20", "direction discretization (degrees)");
  args.addOption("beta", "1", "offset discretization (metres)");
  args.addOption("temporal-noise", "6.5",
                 "per-scan RSS noise sigma (dB)");
  args.addOption("drift", "0", "radio-map staleness drift sigma (dB)");
  args.addOption("save-image", "",
                 "write the trained world (radio map and motion "
                 "database) to this venue image");
  args.addOption("record-traces", "",
                 "write the evaluated test walks to this path");
  args.addOption("replay-traces", "",
                 "evaluate walks loaded from this path instead of "
                 "simulating new ones");
  args.addSwitch("quiet", "print only the summary line");

  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n\n%s", e.what(), args.usage().c_str());
    return 2;
  }

  eval::WorldConfig config;
  config.apCount = args.getInt("aps");
  config.seed = static_cast<std::uint64_t>(args.getInt("seed"));
  config.trainingTraces = args.getInt("training-traces");
  config.moloc.candidateCount =
      static_cast<std::size_t>(args.getInt("k"));
  config.moloc.matcher.alphaDeg = args.getDouble("alpha");
  config.moloc.matcher.betaMeters = args.getDouble("beta");
  config.propagation.temporalSigmaDb = args.getDouble("temporal-noise");
  config.propagation.driftSigmaDb = args.getDouble("drift");

  const bool quiet = args.getSwitch("quiet");
  const int traces = args.getInt("traces");
  const int legs = args.getInt("legs");

  try {
    if (!quiet)
      std::printf("building world: %d APs, seed %llu, %d training "
                  "walks...\n",
                  config.apCount,
                  static_cast<unsigned long long>(config.seed),
                  config.trainingTraces);
    eval::ExperimentWorld world(config);

    if (!quiet) {
      const auto& report = world.builderReport();
      std::printf("motion db: %zu pairs from %zu observations "
                  "(%zu rejected)\n",
                  report.pairsStored, report.observations,
                  report.rejectedCoarse + report.rejectedFine);
    }

    // Assemble the test walks: replayed from disk, or freshly
    // simulated (and optionally recorded).
    std::vector<traj::Trace> walks;
    const std::string replayPath = args.getString("replay-traces");
    if (!replayPath.empty()) {
      walks = io::loadTraces(replayPath);
      if (!quiet)
        std::printf("replaying %zu recorded walks from %s\n",
                    walks.size(), replayPath.c_str());
    } else {
      for (int t = 0; t < traces; ++t)
        walks.push_back(world.makeTrace(
            world.users()[static_cast<std::size_t>(t) %
                          world.users().size()],
            legs, world.evalRng()));
      const std::string recordPath = args.getString("record-traces");
      if (!recordPath.empty()) {
        io::saveTraces(walks, recordPath);
        if (!quiet)
          std::printf("recorded %zu walks to %s\n", walks.size(),
                      recordPath.c_str());
      }
    }

    eval::ErrorStats moloc;
    eval::ErrorStats wifi;
    std::vector<std::vector<eval::LocalizationRecord>> molocWalks;
    std::vector<std::vector<eval::LocalizationRecord>> wifiWalks;
    {
      const baseline::WifiFingerprinting wifiLocalizer(
          world.fingerprintDb());
      auto engine = world.makeEngine();
      for (const auto& walk : walks) {
        engine.reset();
        std::vector<eval::LocalizationRecord> molocWalk;
        std::vector<eval::LocalizationRecord> wifiWalk;
        auto record = [&world](env::LocationId estimated,
                               env::LocationId truth) {
          return eval::LocalizationRecord{
              estimated, truth,
              world.locationDistance(estimated, truth)};
        };
        const auto initial =
            engine.localize(walk.initialScan, std::nullopt);
        molocWalk.push_back(record(initial.location, walk.startTruth));
        wifiWalk.push_back(record(
            wifiLocalizer.localize(walk.initialScan), walk.startTruth));
        for (const auto& interval : walk.intervals) {
          const auto motion = world.processInterval(interval, walk.user);
          const auto fix =
              engine.localize(interval.scanAtArrival, motion);
          molocWalk.push_back(record(fix.location, interval.toTruth));
          wifiWalk.push_back(
              record(wifiLocalizer.localize(interval.scanAtArrival),
                     interval.toTruth));
        }
        moloc.addAll(molocWalk);
        wifi.addAll(wifiWalk);
        molocWalks.push_back(std::move(molocWalk));
        wifiWalks.push_back(std::move(wifiWalk));
      }
    }

    std::printf("moloc: accuracy %.3f  mean %.2f m  max %.2f m | "
                "wifi: accuracy %.3f  mean %.2f m  max %.2f m\n",
                moloc.accuracy(), moloc.meanError(), moloc.maxError(),
                wifi.accuracy(), wifi.meanError(), wifi.maxError());
    if (!quiet) {
      const auto convMoloc = eval::analyzeConvergence(molocWalks);
      const auto convWifi = eval::analyzeConvergence(wifiWalks);
      std::printf("convergence (erroneous-initial walks): EL %.2f vs "
                  "%.2f, subsequent accuracy %.2f vs %.2f\n",
                  convMoloc.meanErroneousBeforeFirstAccurate,
                  convWifi.meanErroneousBeforeFirstAccurate,
                  convMoloc.subsequentAccuracy,
                  convWifi.subsequentAccuracy);
    }

    const std::string imagePath = args.getString("save-image");
    if (!imagePath.empty()) {
      // The boot world molocd would serve for this hall.
      const auto boot = service::bootWorld(
          std::make_shared<const radio::FingerprintDatabase>(
              world.fingerprintDb()),
          world.motionDb(), service::ServiceConfig{});
      const image::ImageWriteInfo info =
          image::writeVenueImage(imagePath, *boot);
      if (!quiet)
        std::printf("venue image written to %s (%llu bytes)\n",
                    imagePath.c_str(),
                    static_cast<unsigned long long>(info.bytes));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// Walks through the motion-database construction pipeline of Sec. IV:
// crowdsourced intake, data reassembling (mirroring onto the smaller-ID
// endpoint), the coarse map-comparison filter, and the fine 2-sigma
// filter — showing what each stage rejects and what the final Gaussians
// look like next to the map's ground truth.  A final phase feeds the
// honest and junk part of the crowd stream through an intake with the
// durable store attached, then recovers from disk and shows the rebuilt
// state is bit-identical (see docs/persistence.md).

#include <cstdio>
#include <filesystem>

#include "core/online_motion_database.hpp"
#include "env/office_hall.hpp"
#include "geometry/angles.hpp"
#include "store/state_store.hpp"
#include "util/rng.hpp"

int main() {
  using namespace moloc;

  const auto hall = env::makeOfficeHall();
  // The default 64-sample reservoirs hold every observation of a pair
  // here, so nothing is evicted.
  core::OnlineMotionDatabase intake(hall.plan.positions());
  util::Rng rng(7);

  // Simulated crowd data for three legs: mostly honest measurements
  // with realistic sensor noise, plus the two classic corruption modes
  // the paper names — wrong location estimates (fingerprint ambiguity)
  // and junk sensor readings.
  const struct {
    env::LocationId from;
    env::LocationId to;
  } legs[] = {{0, 1}, {1, 8}, {8, 9}};

  int honest = 0;
  int mislocated = 0;
  int junk = 0;
  for (const auto& leg : legs) {
    const auto rlm = hall.graph.groundTruthRlm(leg.from, leg.to);
    for (int i = 0; i < 40; ++i) {
      // Honest: direction within a few degrees, offset within ~0.3 m.
      intake.addObservation(leg.from, leg.to,
                            rlm->directionDeg + rng.normal(0.0, 3.0),
                            rlm->offsetMeters + rng.normal(0.0, 0.2));
      ++honest;
    }
    for (int i = 0; i < 6; ++i) {
      // Mislocated: the walker thought she was on a *different* pair,
      // so her (perfectly fine) measurement lands on the wrong entry.
      intake.addObservation(leg.from, 27 - leg.to,
                            rlm->directionDeg + rng.normal(0.0, 3.0),
                            rlm->offsetMeters + rng.normal(0.0, 0.2));
      ++mislocated;
    }
    for (int i = 0; i < 3; ++i) {
      // Junk sensors: direction flipped, offset doubled.
      intake.addObservation(
          leg.from, leg.to,
          geometry::reverseHeadingDeg(rlm->directionDeg),
          rlm->offsetMeters * 2.2);
      ++junk;
    }
  }

  std::printf("=== Crowdsourcing sanitation walkthrough ===\n\n");
  std::printf("intake: %d honest + %d mislocated + %d junk "
              "observations\n\n",
              honest, mislocated, junk);

  const core::BuilderReport report = intake.report();
  const core::MotionDatabase db = intake.database();

  std::printf("sanitation report:\n");
  std::printf("  rejected by coarse map filter: %zu\n",
              report.rejectedCoarse);
  std::printf("  rejected by fine 2-sigma filter: %zu\n",
              report.rejectedFine);
  std::printf("  pairs stored: %zu\n\n", report.pairsStored);

  std::printf("learned entries vs map ground truth:\n");
  std::printf("%-8s %-22s %-22s %-8s\n", "pair", "learned (dir, off)",
              "map (dir, off)", "samples");
  for (const auto& leg : legs) {
    const auto learned = db.entry(leg.from, leg.to);
    const auto truth = hall.graph.groundTruthRlm(leg.from, leg.to);
    if (!learned) {
      std::printf("%d-%d      (not learned)\n", leg.from, leg.to);
      continue;
    }
    std::printf("%d-%-6d (%6.1f deg, %5.2f m)   (%6.1f deg, %5.2f m)   "
                "%d\n",
                leg.from, leg.to, learned->muDirectionDeg,
                learned->muOffsetMeters, truth->directionDeg,
                truth->offsetMeters, learned->sampleCount);
    // The mirror entry comes for free via mutual reachability.
    const auto mirror = db.entry(leg.to, leg.from);
    std::printf("%d-%-6d (%6.1f deg, %5.2f m)   <- mirrored "
                "automatically\n",
                leg.to, leg.from, mirror->muDirectionDeg,
                mirror->muOffsetMeters);
  }

  // --- Durable intake: the same crowd stream, but through the online
  // database with a write-ahead log + checkpoint underneath, the way a
  // deployed installation survives restarts.
  std::printf("\n=== Durable intake (WAL + checkpoint) ===\n\n");
  const std::string storeDir =
      (std::filesystem::temp_directory_path() /
       "moloc_example_store").string();
  std::filesystem::remove_all(storeDir);

  core::OnlineMotionDatabase online(hall.plan.positions(), {}, 64, /*seed=*/7);
  {
    store::StoreConfig storeConfig;
    storeConfig.wal.fsync = store::FsyncPolicy::kEveryN;
    store::StateStore store(storeDir, storeConfig);
    online.setSink(&store);  // Accepted observations hit the log first.

    util::Rng crowdRng(7);
    for (const auto& leg : legs) {
      const auto rlm = hall.graph.groundTruthRlm(leg.from, leg.to);
      for (int i = 0; i < 40; ++i)
        online.addObservation(
            leg.from, leg.to,
            rlm->directionDeg + crowdRng.normal(0.0, 3.0),
            rlm->offsetMeters + crowdRng.normal(0.0, 0.2));
      for (int i = 0; i < 3; ++i)  // Junk: rejected, so never logged.
        online.addObservation(
            leg.from, leg.to,
            geometry::reverseHeadingDeg(rlm->directionDeg),
            rlm->offsetMeters * 2.2);
    }
    const auto info = store.checkpoint(online);
    std::printf("logged %llu accepted observations, checkpoint through "
                "seq %llu (%zu WAL segment(s) compacted)\n",
                static_cast<unsigned long long>(store.lastSeq()),
                static_cast<unsigned long long>(info.throughSeq),
                info.compactedSegments);
    online.setSink(nullptr);
  }

  // Simulated restart: rebuild from disk alone and compare.
  core::OnlineMotionDatabase rebuilt(hall.plan.positions(), {}, 64, 7);
  const auto recovery = store::recover(storeDir, rebuilt);
  std::printf("recovered: checkpoint %s, %llu record(s) replayed from "
              "the WAL tail\n",
              recovery.checkpointLoaded ? "loaded" : "absent",
              static_cast<unsigned long long>(recovery.replayedRecords));

  const core::MotionDatabase live = online.database();
  const core::MotionDatabase fromDisk = rebuilt.database();
  bool identical = live.entryCount() == fromDisk.entryCount() &&
                   online.snapshot().rngState == rebuilt.snapshot().rngState;
  live.forEachEntry([&](env::LocationId i, env::LocationId j,
                        const core::RlmStats& stats) {
    const auto disk = fromDisk.entry(i, j);
    identical = identical && disk &&
                stats.muDirectionDeg == disk->muDirectionDeg &&
                stats.sigmaOffsetMeters == disk->sigmaOffsetMeters;
  });
  std::printf("rebuilt state %s the live database (%zu published "
              "entries)\n",
              identical ? "bit-identically matches" : "DIFFERS FROM",
              fromDisk.entryCount());
  std::filesystem::remove_all(storeDir);
  return identical ? 0 : 1;
}

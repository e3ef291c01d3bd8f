// molocd: the MoLoc network serving daemon.
//
// Boots one world — loaded from a venue image with --image, generated
// from a campus spec with --venue (worldgen::GeneratedVenue, determined
// by the spec plus --venue-seed), or by default the paper's office hall
// (ExperimentWorld, fully determined by --seed) — wraps it in a
// LocalizationService with the crowdsourcing intake attached, and
// serves the binary wire protocol (src/net/wire.hpp) over TCP until
// SIGTERM/SIGINT — at which point it drains gracefully: stop
// accepting, answer every request already received, flush the intake
// durably, exit 0.
//
// A load generator built from the same seed(s) produces bit-identical
// worlds, which is what lets moloc_loadgen verify network-served
// estimates byte-for-byte against in-process results.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/online_motion_database.hpp"
#include "core/world_snapshot.hpp"
#include "eval/experiment_world.hpp"
#include "geometry/vec2.hpp"
#include "image/image_loader.hpp"
#include "image/image_writer.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/intake.hpp"
#include "service/localization_service.hpp"
#include "store/state_store.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "worldgen/generated_venue.hpp"
#include "worldgen/venue_spec.hpp"

namespace {

// Signal handlers may only touch this pointer; requestStop() is
// async-signal-safe (one eventfd write).
moloc::net::Server* g_server = nullptr;

void handleStopSignal(int) {
  if (g_server != nullptr) g_server->requestStop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace moloc;

  util::ArgParser args(
      "molocd: MoLoc localization daemon serving the binary wire "
      "protocol over TCP (see docs/serving.md)");
  args.addOption("host", "127.0.0.1", "IPv4 address to bind");
  args.addOption("port", "0", "TCP port (0 picks an ephemeral port)");
  args.addOption("net-threads", "2",
                 "serving threads: each reads, handles and answers "
                 "requests to completion");
  args.addOption("shards", "16", "session map shards");
  args.addOption("seed", "42", "world seed (loadgen must match)");
  args.addOption("ap-count", "6", "access points in the world (4-6)");
  args.addOption("venue", "",
                 "serve a generated campus venue instead of the office "
                 "hall: campus-{1k,4k,16k,64k} or a key=value list "
                 "(see worldgen::parseVenueSpec)");
  args.addOption("venue-seed", "42",
                 "venue generation seed (loadgen must match)");
  args.addOption("image", "",
                 "serve the world stored in a venue image (src/image) "
                 "instead of building one; the intake starts empty, as "
                 "for a built world, unless --wal-dir recovers a "
                 "lineage");
  args.addOption("image-verify", "full",
                 "image CRC policy: 'full' checksums every section, "
                 "'bulk' skips the large arrays for millisecond "
                 "cold attach (structure is always validated)");
  args.addOption("save-image", "",
                 "write the boot world (built or loaded) to this "
                 "venue image and exit without serving");
  args.addOption("wal-dir", "",
                 "durable store directory for the intake WAL "
                 "(empty = in-memory intake only)");
  args.addOption("checkpoint-every", "0",
                 "checkpoint cadence in records, checked at each world "
                 "publish; the intake writer writes each checkpoint "
                 "itself (0 = off; requires --wal-dir)");
  args.addOption("port-file", "",
                 "write the bound port to this file once listening");
  args.addOption("drain-timeout-ms", "5000",
                 "force-close connections still busy this long after "
                 "SIGTERM/SIGINT (0 = wait indefinitely)");
  args.addSwitch("no-intake",
                 "serve localization only; ReportObservation/Flush "
                 "answer BAD_REQUEST");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "molocd: %s\n%s", e.what(),
                 args.usage().c_str());
    return 2;
  }

  // A client that dies before its response is sent must surface as
  // EPIPE on that one socket (handled as a clean disconnect), never as
  // a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  try {
    service::ServiceConfig serviceConfig;
    serviceConfig.shardCount =
        static_cast<std::size_t>(args.getInt("shards"));
    // The one boot world: loaded from --image, or built from --venue or
    // the office hall.  A built world keeps only what its snapshot
    // shares, so the venue or hall object is released at once.
    std::shared_ptr<const core::WorldSnapshot> world;
    std::string source;
    const std::string imagePath = args.getString("image");
    const std::string venueSpecText = args.getString("venue");
    if (!imagePath.empty()) {
      if (!venueSpecText.empty())
        throw util::ConfigError(
            "--image and --venue are mutually exclusive");
      const std::string verify = args.getString("image-verify");
      if (verify != "full" && verify != "bulk")
        throw util::ConfigError(
            "--image-verify must be 'full' or 'bulk'");
      world = image::VenueImage::open(
                  imagePath, verify == "bulk"
                                 ? image::VerifyMode::kBulkUnverified
                                 : image::VerifyMode::kFull)
                  .world();
      source = "image " + imagePath;
    } else if (!venueSpecText.empty()) {
      worldgen::VenueSpec spec = worldgen::parseVenueSpec(venueSpecText);
      spec.seed = static_cast<std::uint64_t>(args.getInt("venue-seed"));
      const worldgen::GeneratedVenue venue(spec);
      // The index splits at the venue's natural per-floor boundaries.
      serviceConfig.indexShardStarts = venue.shardStarts();
      world = service::bootWorld(
          venue.sharedFingerprints(), venue.sharedMotion(),
          std::make_shared<const std::vector<geometry::Vec2>>(
              venue.site().plan.positions()),
          serviceConfig);
      source = "venue " + worldgen::describeVenueSpec(spec) + ", seed " +
               std::to_string(spec.seed);
    } else {
      eval::WorldConfig worldConfig;
      worldConfig.seed = static_cast<std::uint64_t>(args.getInt("seed"));
      worldConfig.apCount = args.getInt("ap-count");
      const eval::ExperimentWorld hall(worldConfig);
      world = service::bootWorld(
          std::make_shared<const radio::FingerprintDatabase>(
              hall.fingerprintDb()),
          std::make_shared<const core::MotionDatabase>(hall.motionDb()),
          std::make_shared<const std::vector<geometry::Vec2>>(
              hall.hall().plan.positions()),
          serviceConfig);
      source = "office hall, seed " + std::to_string(worldConfig.seed);
    }
    const std::uint64_t bootGeneration = world->generation();

    // Declared before the service: attachIntake requires the database
    // and store to outlive it (the intake writer joins in the
    // service's destructor).
    std::unique_ptr<store::StateStore> stateStore;
    std::unique_ptr<core::OnlineMotionDatabase> intakeDb;
    // The service holds the only reference, so the boot world's motion
    // database is released once a publish replaces it.
    service::LocalizationService service(std::move(world), serviceConfig);

    const std::string saveImagePath = args.getString("save-image");
    if (!saveImagePath.empty()) {
      const image::ImageWriteInfo info =
          image::writeVenueImage(saveImagePath, *service.currentWorld());
      std::printf(
          "molocd: wrote venue image %s (%llu bytes, %zu sections, "
          "%zu locations, index %s)\n",
          saveImagePath.c_str(),
          static_cast<unsigned long long>(info.bytes), info.sections,
          service.fingerprints().size(),
          service.tieredIndex() ? "embedded" : "none");
      return 0;
    }

    std::string intakeText = args.getSwitch("no-intake") ? "off" : "on";
    if (!args.getSwitch("no-intake")) {
      intakeDb = std::make_unique<core::OnlineMotionDatabase>(
          *service.currentWorld()->positions());
      const std::string walDir = args.getString("wal-dir");
      if (!walDir.empty()) {
        // Continue the durable lineage: without this the store would
        // carry on its sequence numbers over an empty database, and the
        // next checkpoint would claim (and compaction then delete) the
        // previous run's records.
        const store::RecoveryResult recovered = store::recover(
            walDir, *intakeDb, &obs::MetricsRegistry::global());
        intakeText += ", recovered " +
                      std::to_string(intakeDb->counters().accepted) +
                      " records (checkpoint seq " +
                      std::to_string(recovered.checkpointSeq) + ", " +
                      std::to_string(recovered.replayedRecords) +
                      " replayed)";
        store::StoreConfig storeConfig;
        storeConfig.metrics = &obs::MetricsRegistry::global();
        stateStore =
            std::make_unique<store::StateStore>(walDir, storeConfig);
      }
      service.attachIntake(
          intakeDb.get(), stateStore.get(),
          static_cast<std::uint64_t>(args.getInt("checkpoint-every")));
    }

    net::ServerConfig netConfig;
    netConfig.host = args.getString("host");
    netConfig.port = static_cast<std::uint16_t>(args.getInt("port"));
    netConfig.workerThreads =
        static_cast<std::size_t>(args.getInt("net-threads"));
    netConfig.drainTimeoutMs =
        static_cast<std::size_t>(args.getInt("drain-timeout-ms"));
    netConfig.drainHook = [&service] {
      // Part of the SIGTERM contract: every observation admitted
      // before the drain is durably applied and published.  A service
      // without intake (or one already shutting down) has nothing to
      // flush.
      try {
        service.flushIntake();
      } catch (const std::logic_error&) {
      } catch (const service::ShutdownError&) {
      }
    };
    net::Server server(service, netConfig);
    g_server = &server;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);

    std::printf(
        "molocd: serving %s:%u (%s, generation %llu, %zu locations, "
        "%zu APs, index %s, intake %s)\n",
        netConfig.host.c_str(), unsigned{server.port()},
        source.c_str(),
        static_cast<unsigned long long>(bootGeneration),
        service.fingerprints().size(), service.fingerprints().apCount(),
        service.tieredIndex() ? "on" : "off", intakeText.c_str());
    std::fflush(stdout);
    const std::string portFile = args.getString("port-file");
    if (!portFile.empty()) {
      std::FILE* f = std::fopen(portFile.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "molocd: cannot write port file '%s'\n",
                     portFile.c_str());
        return 1;
      }
      std::fprintf(f, "%u\n", unsigned{server.port()});
      std::fclose(f);
    }

    server.waitUntilStopped();
    g_server = nullptr;

    const net::ServerStats stats = server.stats();
    std::printf(
        "molocd: drained (served %llu requests, %llu connections, "
        "%llu clean disconnects, %llu overloads, %llu protocol "
        "errors)\n",
        static_cast<unsigned long long>(stats.requestsServed),
        static_cast<unsigned long long>(stats.connectionsAccepted),
        static_cast<unsigned long long>(stats.cleanDisconnects),
        static_cast<unsigned long long>(stats.overloadRejections),
        static_cast<unsigned long long>(stats.protocolErrors));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "molocd: fatal: %s\n", e.what());
    return 1;
  }
}

// moloc_loadgen: trace-replay load generator for molocd.
//
// Builds the same seeded world as the daemon — the office-hall
// ExperimentWorld by default, or with --venue the same generated
// campus venue (worldgen::GeneratedVenue; spec and --venue-seed must
// match the daemon's) — simulates a cohort of walking users, and
// replays every user's scan sequence over real TCP connections using
// the binary wire protocol — thousands of concurrent sessions
// multiplexed over a handful of pipelined connections, exactly the
// shape of a production deployment.
//
// This is the socket-level correctness check (CI runs it under TSan
// and ASan against a sanitized molocd), not a latency benchmark: it is
// closed-loop, so per-request times would measure its own bursts.
// Latency claims cite servebench/ (open-loop) only.
//
// Phases:
//   1. Localize phase: every user's walk replayed end to end; aggregate
//      QPS and error counts recorded.
//   2. Observation phase: ground-truth reachability observations
//      reported through the intake (Report/Flush/Stats round trip).
//   3. Verification phase: the identical scan sequences replayed
//      through an in-process LocalizationService built from the same
//      seed; estimates must be bitwise identical to what the network
//      returned (the service's determinism contract extended across
//      the wire).
//
// Emits bench_results/BENCH_micro_net.json with the host recorded
// (schema gated by tools/check_bench_json.py).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/online_motion_database.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "service/localization_service.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "worldgen/generated_venue.hpp"
#include "worldgen/venue_spec.hpp"

namespace {

using namespace moloc;
using Clock = std::chrono::steady_clock;

/// One pre-encoded localize request plus its bookkeeping.
struct PlannedRequest {
  std::uint64_t tag = 0;
  std::size_t userIndex = 0;
  std::size_t round = 0;
  std::string frame;
};

/// One user's walk as a replayable scan sequence.
struct UserScript {
  std::uint64_t sessionId = 0;
  std::vector<radio::Fingerprint> scans;
  std::vector<sensors::ImuTrace> imus;  ///< Parallel; [0] is empty.
};

/// One ground-truth relative-location observation for phase 2.
struct ObservationTruth {
  env::LocationId from = 0;
  env::LocationId to = 0;
  double directionDeg = 0.0;
  double offsetMeters = 0.0;
};

struct CompletedRequest {
  std::uint64_t tag = 0;
  std::size_t userIndex = 0;
  std::size_t round = 0;
  net::Status status = net::Status::kOk;
  core::LocationEstimate estimate;
};

/// Per-connection worker result.
struct WorkerResult {
  std::vector<CompletedRequest> completed;
  std::uint64_t protocolErrors = 0;
  std::string error;  ///< Non-empty when the worker aborted.
};

std::uint64_t makeTag(std::size_t userIndex, std::size_t round) {
  return (static_cast<std::uint64_t>(userIndex) << 16) | round;
}

/// Replays `rounds` interleaved across this connection's users: one
/// request per user per round, pipelined within the round, responses
/// drained before the next round begins.  Pending requests therefore
/// never exceed the user count per connection, which stays far below
/// the server's pipelining bound.
void runConnection(const std::string& host, std::uint16_t port,
                   const std::vector<PlannedRequest>* const* rounds,
                   std::size_t roundCount, WorkerResult* result) {
  try {
    net::Client client(host, port);
    for (std::size_t r = 0; r < roundCount; ++r) {
      const std::vector<PlannedRequest>& round = *rounds[r];
      for (const PlannedRequest& request : round) client.send(request.frame);
      for (std::size_t i = 0; i < round.size(); ++i) {
        const net::Frame frame = client.recvFrame();
        if (frame.type != net::MsgType::kLocalizeResponse) {
          ++result->protocolErrors;
          continue;
        }
        const net::LocalizeResponse response =
            net::decodeLocalizeResponse(frame.payload);
        // Responses arrive in request order; resolve by tag anyway so
        // a reordering bug surfaces as a status error, not a crash.
        const std::size_t idx =
            i < round.size() && round[i].tag == response.tag
                ? i
                : round.size();
        CompletedRequest done;
        done.tag = response.tag;
        done.status = response.status;
        done.estimate = response.estimate;
        if (idx < round.size()) {
          done.userIndex = round[idx].userIndex;
          done.round = round[idx].round;
        } else {
          ++result->protocolErrors;
        }
        result->completed.push_back(std::move(done));
      }
    }
  } catch (const net::ProtocolError& e) {
    ++result->protocolErrors;
    result->error = e.what();
  } catch (const std::exception& e) {
    result->error = e.what();
  }
}

bool bitwiseEqual(const core::LocationEstimate& a,
                  const core::LocationEstimate& b) {
  if (a.location != b.location ||
      a.candidates.size() != b.candidates.size())
    return false;
  if (std::memcmp(&a.probability, &b.probability, sizeof(double)) != 0)
    return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    if (a.candidates[i].location != b.candidates[i].location) return false;
    if (std::memcmp(&a.candidates[i].probability,
                    &b.candidates[i].probability, sizeof(double)) != 0)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "moloc_loadgen: trace-replay load generator for molocd "
      "(see docs/serving.md); the daemon must run with the same "
      "--seed/--ap-count and default engine config for the bitwise "
      "verification to hold");
  args.addOption("host", "127.0.0.1", "daemon address");
  args.addOption("port", "0", "daemon port");
  args.addOption("port-file", "",
                 "read the daemon port from this file (overrides "
                 "--port)");
  args.addOption("users", "1024", "concurrent simulated users");
  args.addOption("connections", "16", "TCP connections to spread over");
  args.addOption("legs", "4", "walk legs per user (requests = legs+1)");
  args.addOption("seed", "42", "world seed (must match the daemon)");
  args.addOption("ap-count", "6", "world AP count (must match)");
  args.addOption("venue", "",
                 "replay against a generated campus venue instead of "
                 "the office hall (must match the daemon's --venue)");
  args.addOption("venue-seed", "42",
                 "venue generation seed (must match the daemon)");
  args.addOption("observations", "64",
                 "ground-truth observations to report in phase 2");
  args.addOption("out", "", "output JSON path (default bench_results/)");
  args.addSwitch("smoke", "small fast run for CI (128 users, 2 legs)");
  args.addSwitch("skip-verify", "skip the in-process bitwise check");
  args.addSwitch("server-no-intake",
                 "daemon runs --no-intake: skip the observation phase "
                 "and verify against an intake-less service");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moloc_loadgen: %s\n%s", e.what(),
                 args.usage().c_str());
    return 2;
  }

  const bool smoke = args.getSwitch("smoke");
  const std::size_t users =
      smoke ? 128 : static_cast<std::size_t>(args.getInt("users"));
  const std::size_t connections = std::min<std::size_t>(
      smoke ? 4 : static_cast<std::size_t>(args.getInt("connections")),
      std::max<std::size_t>(users, 1));
  const int legs = smoke ? 2 : args.getInt("legs");
  const std::string host = args.getString("host");

  std::uint16_t port = static_cast<std::uint16_t>(args.getInt("port"));
  const std::string portFile = args.getString("port-file");
  if (!portFile.empty()) {
    std::FILE* f = std::fopen(portFile.c_str(), "r");
    unsigned filePort = 0;
    if (f == nullptr || std::fscanf(f, "%u", &filePort) != 1) {
      std::fprintf(stderr, "moloc_loadgen: cannot read port from '%s'\n",
                   portFile.c_str());
      if (f) std::fclose(f);
      return 2;
    }
    std::fclose(f);
    port = static_cast<std::uint16_t>(filePort);
  }
  if (port == 0) {
    std::fprintf(stderr,
                 "moloc_loadgen: --port or --port-file is required\n");
    return 2;
  }

  eval::WorldConfig worldConfig;
  worldConfig.seed = static_cast<std::uint64_t>(args.getInt("seed"));
  worldConfig.apCount = args.getInt("ap-count");
  std::unique_ptr<eval::ExperimentWorld> world;
  std::unique_ptr<worldgen::GeneratedVenue> venue;
  const std::string venueText = args.getString("venue");
  if (!venueText.empty()) {
    worldgen::VenueSpec spec = worldgen::parseVenueSpec(venueText);
    spec.seed = static_cast<std::uint64_t>(args.getInt("venue-seed"));
    std::printf("moloc_loadgen: generating venue %s (seed %llu)...\n",
                worldgen::describeVenueSpec(spec).c_str(),
                static_cast<unsigned long long>(spec.seed));
    venue = std::make_unique<worldgen::GeneratedVenue>(spec);
  } else {
    std::printf("moloc_loadgen: building world (seed %llu, %d APs)...\n",
                static_cast<unsigned long long>(worldConfig.seed),
                worldConfig.apCount);
    world = std::make_unique<eval::ExperimentWorld>(worldConfig);
  }

  // ---- Script generation: one deterministic walk per user ----------
  std::printf("moloc_loadgen: scripting %zu users x %d legs...\n", users,
              legs);
  std::vector<UserScript> scripts(users);
  std::vector<std::vector<ObservationTruth>> truths(users);
  if (venue) {
    // Venue mode: random walks over the venue's walk graph, scans
    // drawn from the serving-epoch radio model, fingerprint-only
    // rounds (empty IMU).  Steps stay on one floor — stair and bridge
    // legs have no straight-line geometry, which the intake's
    // map-consistency filter would reject.
    const env::WalkGraph& graph = venue->site().graph;
    for (std::size_t u = 0; u < users; ++u) {
      util::Rng rng(venue->spec().seed * 1000003ULL + 0x70000000ULL + u);
      UserScript& script = scripts[u];
      script.sessionId = u + 1;
      env::LocationId loc = static_cast<env::LocationId>(
          rng.uniformIndex(venue->locationCount()));
      script.scans.push_back(venue->scanAt(loc, 0.0, rng));
      script.imus.emplace_back();
      for (int leg = 0; leg < legs; ++leg) {
        const auto neighbors = graph.neighbors(loc);
        env::LocationId next = loc;
        double stepHeading = 0.0;
        double stepLength = 0.0;
        for (int attempt = 0; attempt < 8; ++attempt) {
          const auto& edge =
              neighbors[static_cast<std::size_t>(rng.uniformIndex(
                  static_cast<std::uint64_t>(neighbors.size())))];
          if (&venue->floorOf(edge.to) != &venue->floorOf(loc)) continue;
          next = edge.to;
          stepHeading = edge.headingDeg;
          stepLength = edge.length;
          break;
        }
        if (next != loc)
          truths[u].push_back({loc, next, stepHeading, stepLength});
        loc = next;
        script.scans.push_back(venue->scanAt(loc, stepHeading, rng));
        script.imus.emplace_back();
      }
    }
  } else {
    for (std::size_t u = 0; u < users; ++u) {
      const auto& profile = world->users()[u % world->users().size()];
      // Per-user stream derived from the master seed: identical
      // between runs and independent of user count ordering.
      util::Rng rng(worldConfig.seed * 1000003ULL + u);
      const traj::Trace trace = world->makeTrace(profile, legs, rng);
      UserScript& script = scripts[u];
      script.sessionId = u + 1;
      script.scans.push_back(trace.initialScan);
      script.imus.emplace_back();
      for (const auto& interval : trace.intervals) {
        script.scans.push_back(interval.scanAtArrival);
        script.imus.push_back(interval.imu);
        truths[u].push_back({interval.fromTruth, interval.toTruth,
                             interval.trueDirectionDeg,
                             interval.trueOffsetMeters});
      }
    }
  }

  // Rounds: request r of every user, partitioned by connection.
  const std::size_t roundCount = static_cast<std::size_t>(legs) + 1;
  std::vector<std::vector<std::vector<PlannedRequest>>> plan(
      connections,
      std::vector<std::vector<PlannedRequest>>(roundCount));
  for (std::size_t u = 0; u < users; ++u) {
    const std::size_t c = u % connections;
    for (std::size_t r = 0; r < roundCount; ++r) {
      PlannedRequest request;
      request.tag = makeTag(u, r);
      request.userIndex = u;
      request.round = r;
      net::LocalizeRequest wire;
      wire.tag = request.tag;
      wire.scan = {scripts[u].sessionId, scripts[u].scans[r],
                   scripts[u].imus[r]};
      request.frame = net::encodeLocalizeRequest(wire);
      plan[c][r].push_back(std::move(request));
    }
  }

  // ---- Phase 1: localize replay -------------------------------------
  const std::size_t totalRequests = users * roundCount;
  std::printf(
      "moloc_loadgen: replaying %zu requests over %zu connections to "
      "%s:%u...\n",
      totalRequests, connections, host.c_str(), unsigned{port});
  std::vector<WorkerResult> results(connections);
  std::vector<std::vector<const std::vector<PlannedRequest>*>> roundPtrs(
      connections);
  for (std::size_t c = 0; c < connections; ++c)
    for (std::size_t r = 0; r < roundCount; ++r)
      roundPtrs[c].push_back(&plan[c][r]);

  const auto startTime = Clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c)
      workers.emplace_back(runConnection, host, port,
                           roundPtrs[c].data(), roundCount, &results[c]);
    for (auto& worker : workers) worker.join();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - startTime).count();

  std::uint64_t protocolErrors = 0;
  std::uint64_t statusErrors = 0;
  std::size_t completed = 0;
  // estimate per (user, round) for the verification phase.
  std::vector<std::vector<core::LocationEstimate>> served(
      users, std::vector<core::LocationEstimate>(roundCount));
  std::vector<std::vector<bool>> haveServed(
      users, std::vector<bool>(roundCount, false));
  for (const auto& result : results) {
    protocolErrors += result.protocolErrors;
    if (!result.error.empty())
      std::fprintf(stderr, "moloc_loadgen: worker error: %s\n",
                   result.error.c_str());
    for (const auto& done : result.completed) {
      ++completed;
      if (done.status != net::Status::kOk) {
        ++statusErrors;
        continue;
      }
      if (done.userIndex < users && done.round < roundCount) {
        served[done.userIndex][done.round] = done.estimate;
        haveServed[done.userIndex][done.round] = true;
      }
    }
  }
  const double qps =
      seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
  std::printf(
      "moloc_loadgen: %zu/%zu responses in %.2fs (%.0f qps, %llu protocol "
      "errors, %llu status errors)\n",
      completed, totalRequests, seconds, qps,
      static_cast<unsigned long long>(protocolErrors),
      static_cast<unsigned long long>(statusErrors));

  // ---- Phase 2: observation round trip (Report/Flush/Stats) --------
  const bool serverHasIntake = !args.getSwitch("server-no-intake");
  std::uint64_t observationsReported = 0;
  std::uint64_t observationsAccepted = 0;
  bool flushOk = false;
  net::ServerStats serverStats;
  try {
    net::Client control(host, port);
    if (serverHasIntake) {
      std::size_t available = 0;
      for (const auto& userTruths : truths) available += userTruths.size();
      const std::size_t toReport = std::min<std::size_t>(
          static_cast<std::size_t>(args.getInt("observations")),
          available);
      std::size_t reported = 0;
      for (std::size_t u = 0; u < users && reported < toReport; ++u) {
        for (const auto& truth : truths[u]) {
          if (reported >= toReport) break;
          const auto response = control.reportObservation(
              makeTag(u, 9000 + reported), truth.from, truth.to,
              truth.directionDeg, truth.offsetMeters);
          ++reported;
          ++observationsReported;
          if (response.status == net::Status::kOk && response.accepted)
            ++observationsAccepted;
        }
      }
      const auto flushResponse = control.flush(1);
      flushOk = flushResponse.status == net::Status::kOk;
    }
    const auto statsResponse = control.stats(2);
    if (statsResponse.status == net::Status::kOk)
      serverStats = statsResponse.stats;
    control.shutdownWrites();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moloc_loadgen: control phase error: %s\n",
                 e.what());
  }
  std::printf(
      "moloc_loadgen: observations %llu reported / %llu accepted, "
      "flush %s, server generation %llu\n",
      static_cast<unsigned long long>(observationsReported),
      static_cast<unsigned long long>(observationsAccepted),
      flushOk ? "ok" : "skipped",
      static_cast<unsigned long long>(serverStats.worldGeneration));

  // ---- Phase 3: in-process bitwise verification --------------------
  bool verified = true;
  std::size_t compared = 0;
  const bool verify = !args.getSwitch("skip-verify");
  if (verify) {
    std::printf("moloc_loadgen: verifying against in-process service"
                "...\n");
    // Mirror the daemon's construction exactly: same databases, same
    // default engine config (venue mode includes the same tiered-index
    // shard boundaries), and the same (empty) intake database —
    // attaching intake publishes generation 1, which the sessions
    // adopt, so skipping it would verify against the wrong world.
    core::OnlineMotionDatabase verifyDb(venue ? venue->site().plan
                                              : world->hall().plan);
    service::ServiceConfig verifyConfig;
    verifyConfig.threadCount = 1;
    if (venue) verifyConfig.indexShardStarts = venue->shardStarts();
    service::LocalizationService reference(
        venue ? venue->fingerprints() : world->fingerprintDb(),
        venue ? venue->motion() : world->motionDb(), verifyConfig);
    if (serverHasIntake) reference.attachIntake(&verifyDb);
    for (std::size_t u = 0; u < users; ++u) {
      for (std::size_t r = 0; r < roundCount; ++r) {
        const auto estimate = reference.submitScan(
            scripts[u].sessionId, scripts[u].scans[r],
            scripts[u].imus[r]);
        if (!haveServed[u][r]) {
          verified = false;
          continue;
        }
        ++compared;
        if (!bitwiseEqual(estimate, served[u][r])) {
          verified = false;
          std::fprintf(stderr,
                       "moloc_loadgen: MISMATCH user %zu round %zu "
                       "(served %d, local %d)\n",
                       u, r, served[u][r].location, estimate.location);
        }
      }
    }
    std::printf("moloc_loadgen: bitwise verification %s (%zu requests "
                "compared)\n",
                verified ? "PASSED" : "FAILED", compared);
  }

  // ---- JSON snapshot ------------------------------------------------
  std::string outPath = args.getString("out");
  if (outPath.empty())
    outPath = bench::resultsDir() + "/BENCH_micro_net.json";
  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "micro_net")
      .field("schema_version", 1.0)
      .beginObject("config")
      .field("users", static_cast<double>(users))
      .field("connections", static_cast<double>(connections))
      .field("requests_per_user", static_cast<double>(roundCount))
      .field("seed", static_cast<double>(worldConfig.seed))
      .field("ap_count", static_cast<double>(worldConfig.apCount))
      .field("venue", venueText)
      .field("venue_locations",
             venue ? static_cast<double>(venue->locationCount()) : 0.0)
      .field("smoke", smoke)
      .field("simd_compiled", static_cast<bool>(MOLOC_SIMD_ENABLED))
      .field("simd_active", kernel::simdLevelName(kernel::activeSimdLevel()))
      .field("hardware_concurrency",
             static_cast<double>(std::thread::hardware_concurrency()))
      .field("cpu_model", bench::cpuModel())
      .field("build_type", MOLOC_BUILD_TYPE)
      .endObject()
      .beginObject("totals")
      .field("queries", static_cast<double>(completed))
      .field("seconds", seconds)
      .field("qps", qps)
      .field("protocol_errors", static_cast<double>(protocolErrors))
      .field("status_errors", static_cast<double>(statusErrors))
      .endObject()
      .beginObject("observations")
      .field("reported", static_cast<double>(observationsReported))
      .field("accepted", static_cast<double>(observationsAccepted))
      .field("flush_ok", flushOk)
      .endObject()
      .beginObject("verification")
      .field("enabled", verify)
      .field("requests_compared", static_cast<double>(compared))
      .field("bitwise_identical", verified)
      .endObject()
      .beginObject("server")
      .field("requests_served",
             static_cast<double>(serverStats.requestsServed))
      .field("world_generation",
             static_cast<double>(serverStats.worldGeneration))
      .field("clean_disconnects",
             static_cast<double>(serverStats.cleanDisconnects))
      .field("overload_rejections",
             static_cast<double>(serverStats.overloadRejections))
      .field("server_protocol_errors",
             static_cast<double>(serverStats.protocolErrors))
      .endObject()
      .endObject();
  if (!json.writeTo(outPath)) {
    std::fprintf(stderr, "moloc_loadgen: cannot write %s\n",
                 outPath.c_str());
    return 1;
  }
  std::printf("moloc_loadgen: wrote %s\n", outPath.c_str());

  const bool healthy = protocolErrors == 0 && statusErrors == 0 &&
                       completed == totalRequests &&
                       (!verify || verified);
  return healthy ? 0 : 1;
}

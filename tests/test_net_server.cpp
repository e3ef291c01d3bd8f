#include "net/server.hpp"

#include <gtest/gtest.h>

#include <linux/sockios.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/online_motion_database.hpp"
#include "image/image_loader.hpp"
#include "image/image_writer.hpp"
#include "motion_support.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "sensors/accelerometer_model.hpp"
#include "sensors/compass_model.hpp"
#include "service/localization_service.hpp"
#include "util/rng.hpp"

namespace moloc::net {
namespace {

// ---- The Fig. 1 twin world (mirrors test_localization_service) -----

radio::FingerprintDatabase twinFingerprints() {
  radio::FingerprintDatabase db;
  db.addLocation(0, radio::Fingerprint({-50.0, -60.0}));
  db.addLocation(1, radio::Fingerprint({-55.0, -57.0}));
  db.addLocation(2, radio::Fingerprint({-50.1, -60.1}));
  db.addLocation(3, radio::Fingerprint({-55.1, -57.1}));
  db.addLocation(4, radio::Fingerprint({-70.0, -40.0}));
  return db;
}

core::MotionDatabase twinMotion() {
  return test_support::mirroredDb(5, {{0, 1, {90.0, 4.0, 4.0, 0.3, 20}},
                                      {2, 3, {90.0, 4.0, 4.0, 0.3, 20}},
                                      {1, 4, {117.0, 4.0, 8.9, 0.4, 20}},
                                      {3, 4, {63.0, 4.0, 8.9, 0.4, 20}}});
}

sensors::ImuTrace walkingTrace(std::uint64_t seed) {
  util::Rng rng(seed);
  sensors::AccelerometerModel accel;
  sensors::CompassModel compass;
  const auto accelSeries = accel.walkingSamples(150, 1.8, rng);
  const auto compassSeries = compass.readings(90.0, 0.0, 150, rng);
  sensors::ImuTrace trace(50.0);
  for (std::size_t i = 0; i < 150; ++i)
    trace.append({i / 50.0, accelSeries[i], compassSeries[i]});
  return trace;
}

struct Walk {
  std::vector<radio::Fingerprint> scans;
  std::vector<sensors::ImuTrace> imu;
};

Walk makeWalk(std::uint64_t seed) {
  util::Rng rng(seed);
  Walk walk;
  const double jitter = rng.uniform(-0.4, 0.4);
  walk.scans.push_back(radio::Fingerprint({-50.0 + jitter, -60.0}));
  walk.imu.push_back(sensors::ImuTrace(50.0));  // First fix: no IMU.
  walk.scans.push_back(radio::Fingerprint({-55.0 + jitter, -57.0}));
  walk.imu.push_back(walkingTrace(seed * 7 + 1));
  walk.scans.push_back(radio::Fingerprint({-70.0 + jitter, -40.0}));
  walk.imu.push_back(walkingTrace(seed * 7 + 2));
  return walk;
}

bool estimatesBitwiseEqual(const core::LocationEstimate& a,
                           const core::LocationEstimate& b) {
  if (a.location != b.location || a.probability != b.probability ||
      a.candidates.size() != b.candidates.size())
    return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i)
    if (a.candidates[i].location != b.candidates[i].location ||
        a.candidates[i].probability != b.candidates[i].probability)
      return false;
  return true;
}

service::ServiceConfig testConfig() {
  service::ServiceConfig config;
  config.shardCount = 4;
  config.engine = core::MoLocConfig{5, {}};
  return config;
}

env::FloorPlan intakePlan() {
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  return plan;
}

ServerConfig loopbackConfig() {
  ServerConfig config;
  config.port = 0;  // Ephemeral; never collides across parallel tests.
  config.workerThreads = 2;
  return config;
}

/// Spins until `predicate` holds or ~2 s pass (the server's counters
/// are updated by a serving thread slightly after the client observes
/// the socket effect).
template <typename Predicate>
bool eventually(Predicate predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

/// Blocks until every byte the client sent has been ACKed — i.e. the
/// whole burst sits in the server's kernel receive buffer, whether or
/// not the server has read it.  Makes the drain tests deterministic:
/// the stop request provably races only the *serving* of the burst,
/// not its TCP delivery.
void awaitDelivered(const Client& client) {
  ASSERT_TRUE(eventually([&] {
    int unacked = -1;
    return ::ioctl(client.fd(), SIOCOUTQ, &unacked) == 0 && unacked == 0;
  }));
}

/// Turns a recv that would block forever into a NetError after 10 s,
/// so a server that never answers fails the test instead of hanging it.
void boundReceives(const Client& client) {
  timeval limit{};
  limit.tv_sec = 10;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &limit,
                         sizeof limit),
            0);
}

TEST(NetServer, LoopbackLocalizeIsBitwiseIdenticalToInProcess) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  service::LocalizationService reference(twinFingerprints(), twinMotion(),
                                         testConfig());
  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  for (std::uint64_t user = 1; user <= 3; ++user) {
    const Walk walk = makeWalk(user);
    for (std::size_t r = 0; r < walk.scans.size(); ++r) {
      const std::uint64_t tag = user * 100 + r;
      const LocalizeResponse response =
          client.localize(tag, user, walk.scans[r], walk.imu[r]);
      ASSERT_EQ(response.status, Status::kOk) << response.message;
      EXPECT_EQ(response.tag, tag);
      const auto expected =
          reference.submitScan(user, walk.scans[r], walk.imu[r]);
      EXPECT_TRUE(estimatesBitwiseEqual(response.estimate, expected))
          << "user " << user << " round " << r;
    }
  }
  EXPECT_EQ(served.sessionCount(), 3u);
  EXPECT_EQ(server.stats().requestsServed, 9u);
}

// The tentpole acceptance test for src/image: a service booted from a
// venue image (zero-copy mmap views all the way down) must answer the
// wire protocol bitwise-identically to a service built fresh from the
// same databases.
TEST(NetServer, ImageLoadedWorldServesBitwiseIdenticalToFreshlyBuilt) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_net_image_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/venue.img";

  // Give the (small) world a tiered index so the image embeds its
  // shard signatures and the served localize path exercises them.
  const service::ServiceConfig config = testConfig();
  const auto radioMap =
      std::make_shared<const radio::FingerprintDatabase>(twinFingerprints());
  service::LocalizationService reference(
      std::make_shared<const core::WorldSnapshot>(
          radioMap, std::make_shared<const core::MotionDatabase>(twinMotion()),
          0, 0,
          std::make_shared<const index::TieredIndex>(radioMap)),
      config);
  ASSERT_NE(reference.tieredIndex(), nullptr);
  image::writeVenueImage(path, *reference.currentWorld());

  const image::VenueImage venueImage = image::VenueImage::open(path);
  ASSERT_TRUE(venueImage.hasIndex());
  service::LocalizationService served(
      std::make_shared<const core::WorldSnapshot>(
          venueImage.fingerprints(), venueImage.adjacency(),
          venueImage.meta().generation, venueImage.meta().intakeRecords,
          venueImage.tieredIndex()),
      config);
  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  for (std::uint64_t user = 1; user <= 3; ++user) {
    const Walk walk = makeWalk(user + 20);
    for (std::size_t r = 0; r < walk.scans.size(); ++r) {
      const std::uint64_t tag = user * 100 + r;
      const LocalizeResponse response =
          client.localize(tag, user, walk.scans[r], walk.imu[r]);
      ASSERT_EQ(response.status, Status::kOk) << response.message;
      const auto expected =
          reference.submitScan(user, walk.scans[r], walk.imu[r]);
      EXPECT_TRUE(estimatesBitwiseEqual(response.estimate, expected))
          << "user " << user << " round " << r;
    }
  }
  EXPECT_EQ(served.sessionCount(), 3u);
}

TEST(NetServer, LocalizeBatchMatchesAndPreservesOrder) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  service::LocalizationService reference(twinFingerprints(), twinMotion(),
                                         testConfig());
  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  LocalizeBatchRequest request;
  request.tag = 5;
  std::vector<service::ScanRequest> referenceBatch;
  for (std::uint64_t user = 1; user <= 4; ++user) {
    const Walk walk = makeWalk(user + 10);
    for (std::size_t r = 0; r < walk.scans.size(); ++r) {
      WireScan scan;
      scan.sessionId = user;
      scan.scan = walk.scans[r];
      scan.imu = walk.imu[r];
      request.scans.push_back(scan);
      referenceBatch.push_back({user, walk.scans[r], walk.imu[r]});
    }
  }

  const LocalizeBatchResponse response = client.localizeBatch(request);
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  const auto expected = reference.localizeBatch(referenceBatch);
  ASSERT_EQ(response.estimates.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_TRUE(estimatesBitwiseEqual(response.estimates[i], expected[i]))
        << "batch index " << i;
}

TEST(NetServer, ReportFlushAndStatsRoundTrip) {
  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan);
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  served.attachIntake(&db);
  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  const ReportObservationResponse accepted =
      client.reportObservation(1, 0, 1, 90.0, 4.0);
  ASSERT_EQ(accepted.status, Status::kOk) << accepted.message;
  EXPECT_TRUE(accepted.accepted);

  // Coarse map rejection is a normal kOk answer with accepted=false.
  const ReportObservationResponse rejected =
      client.reportObservation(2, 0, 1, 180.0, 4.0);
  ASSERT_EQ(rejected.status, Status::kOk) << rejected.message;
  EXPECT_FALSE(rejected.accepted);

  const FlushResponse flushed = client.flush(3);
  ASSERT_EQ(flushed.status, Status::kOk) << flushed.message;
  EXPECT_EQ(db.counters().accepted, 1u);

  const StatsResponse stats = client.stats(4);
  ASSERT_EQ(stats.status, Status::kOk) << stats.message;
  EXPECT_EQ(stats.stats.intakeApplied, 1u);
  EXPECT_EQ(stats.stats.requestsServed, 4u);
  EXPECT_EQ(stats.stats.connectionsAccepted, 1u);
  // The published world moved past the boot generation.
  EXPECT_GE(stats.stats.worldGeneration, 1u);
}

TEST(NetServer, ReportWithoutIntakeIsBadRequestNotDisconnect) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  const ReportObservationResponse response =
      client.reportObservation(1, 0, 1, 90.0, 4.0);
  EXPECT_EQ(response.status, Status::kBadRequest);
  EXPECT_FALSE(response.message.empty());

  // The connection survives an application-level error.
  const StatsResponse stats = client.stats(2);
  EXPECT_EQ(stats.status, Status::kOk);
}

/// Write-ahead sink that parks the intake writer until released, so
/// the one-slot queue below stays provably full while the test floods
/// the server.
class BlockingSink : public core::ObservationSink {
 public:
  void onAccepted(env::LocationId, env::LocationId, double,
                  double) override {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
};

TEST(NetServer, IntakeBackpressureMapsToOverloadedStatus) {
  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan);
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  service::IntakePolicy policy;
  policy.queueCapacity = 1;
  served.attachIntake(&db, nullptr, 0, policy);
  BlockingSink sink;
  db.setSink(&sink);

  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  // First observation: admitted, then pinned mid-apply by the sink.
  // Second: admitted into the one queue slot.  Third and later: the
  // queue is full — the server must answer OVERLOADED and keep the
  // connection, never drop it.
  ASSERT_EQ(client.reportObservation(1, 0, 1, 90.0, 4.0).status,
            Status::kOk);
  ASSERT_TRUE(eventually([&] { return sink.entered.load(); }));

  bool sawOverload = false;
  for (std::uint64_t tag = 2; tag <= 6; ++tag) {
    const ReportObservationResponse response =
        client.reportObservation(tag, 0, 1, 90.0, 4.0);
    if (response.status == Status::kOverloaded) {
      sawOverload = true;
      EXPECT_FALSE(response.message.empty());
    } else {
      EXPECT_EQ(response.status, Status::kOk) << response.message;
    }
  }
  EXPECT_TRUE(sawOverload);
  EXPECT_GE(server.stats().overloadRejections, 1u);

  // Release the writer; the connection is still healthy.
  sink.release.store(true);
  EXPECT_EQ(client.stats(99).status, Status::kOk);
  db.setSink(nullptr);
}

TEST(NetServer, DrainAnswersEveryPipelinedRequestBeforeClosing) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  // Pipeline a burst without reading, then immediately request drain.
  constexpr std::uint64_t kBurst = 24;
  const Walk walk = makeWalk(1);
  for (std::uint64_t tag = 0; tag < kBurst; ++tag) {
    LocalizeRequest request;
    request.tag = tag;
    request.scan.sessionId = 1 + (tag % 4);
    request.scan.scan = walk.scans[0];
    request.scan.imu = walk.imu[0];
    client.send(encodeLocalizeRequest(request));
  }
  awaitDelivered(client);
  server.requestStop();

  // Every response owed must still arrive, in order, before the close.
  for (std::uint64_t tag = 0; tag < kBurst; ++tag) {
    const Frame frame = client.recvFrame();
    ASSERT_EQ(frame.type, MsgType::kLocalizeResponse);
    const LocalizeResponse response = decodeLocalizeResponse(frame.payload);
    EXPECT_EQ(response.tag, tag);
    EXPECT_EQ(response.status, Status::kOk) << response.message;
  }
  EXPECT_THROW(client.recvFrame(), NetError);  // Clean close after drain.

  server.waitUntilStopped();
  EXPECT_TRUE(server.stopped());
  EXPECT_EQ(server.stats().requestsServed, kBurst);
}

TEST(NetServer, OversizedBatchResponseIsAnErrorNotAWedgedConnection) {
  // Each served estimate encodes larger than the minimal scan that
  // produced it, so a batch that fits the 1 MiB request bound can
  // yield a response that does not.  The failed encode must come back
  // as a kInternalError *response* — never wedge the connection (a
  // worker exception would leave `processing` set forever) or block
  // the drain.
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  service::LocalizationService reference(twinFingerprints(), twinMotion(),
                                         testConfig());
  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  // Learn the per-estimate encoded size from one in-process first fix
  // (same world, same scan), then size the batch so its response
  // provably overflows while the request still frames.
  const radio::Fingerprint scan({-50.0, -60.0});
  const sensors::ImuTrace noImu(50.0);
  const auto fix = reference.submitScan(1, scan, noImu);
  ASSERT_GE(fix.candidates.size(), 3u);  // twin world: k=5 over 5 locations
  const std::size_t perEstimate = 4 + 8 + 4 + 12 * fix.candidates.size();
  const std::size_t count = kMaxPayloadBytes / perEstimate + 100;
  const std::size_t perScan = 8 + 4 + 2 * 8 + 8 + 4;  // 2 APs, no IMU
  ASSERT_LE(8 + 4 + count * perScan, kMaxPayloadBytes);

  LocalizeBatchRequest request;
  request.tag = 1;
  request.scans.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    WireScan s;
    s.sessionId = i + 1;  // Distinct sessions: every estimate is a first fix.
    s.scan = scan;
    s.imu = noImu;
    request.scans.push_back(std::move(s));
  }

  const LocalizeBatchResponse response = client.localizeBatch(request);
  EXPECT_EQ(response.status, Status::kInternalError);
  EXPECT_FALSE(response.message.empty());
  EXPECT_TRUE(response.estimates.empty());

  // The connection survived and the server still drains cleanly.
  EXPECT_EQ(client.stats(2).status, Status::kOk);
  server.requestStop();
  server.waitUntilStopped();
  EXPECT_TRUE(server.stopped());
}

TEST(NetServer, DrainDeadlineForceClosesAStalledMidFramePeer) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  ServerConfig config = loopbackConfig();
  config.drainTimeoutMs = 200;
  Server server(served, config);
  Client client("127.0.0.1", server.port());

  // A frame that never finishes: only half the header arrives.  The
  // peer looks permanently "mid-send" to the reap pass.
  const std::string frame = encodeFlushRequest({1});
  client.send(std::string_view(frame.data(), 6));
  awaitDelivered(client);

  server.requestStop();
  // Without the deadline the loop would wait forever for the rest of
  // the frame; with it the straggler is cut and the drain completes.
  server.waitUntilStopped();
  EXPECT_TRUE(server.stopped());
  EXPECT_THROW(client.recvFrame(), NetError);
  // Force-closing is our hang-up, not a peer one: never counted clean.
  EXPECT_EQ(server.stats().cleanDisconnects, 0u);
}

TEST(NetServer, DrainRunsTheDrainHookAfterFlushingResponses) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  std::atomic<bool> hookRan{false};
  ServerConfig config = loopbackConfig();
  config.drainHook = [&] { hookRan.store(true); };
  Server server(served, config);

  Client client("127.0.0.1", server.port());
  client.send(encodeStatsRequest({1}));
  awaitDelivered(client);
  server.requestStop();
  EXPECT_EQ(client.recvFrame().type, MsgType::kStatsResponse);
  server.waitUntilStopped();
  EXPECT_TRUE(hookRan.load());

  // A drained server accepts no new connections.
  EXPECT_THROW(Client("127.0.0.1", server.port()), NetError);
}

TEST(NetServer, SigtermHandlerDrainsLikeMolocd) {
  // Mirrors molocd's signal wiring: requestStop() is async-signal-safe,
  // so the handler may call it directly.
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  Server server(served, loopbackConfig());

  static Server* signalTarget;
  signalTarget = &server;
  using HandlerFn = void (*)(int);
  const HandlerFn previous = std::signal(
      SIGTERM, [](int) { signalTarget->requestStop(); });
  ASSERT_NE(previous, SIG_ERR);
  std::raise(SIGTERM);
  std::signal(SIGTERM, previous);

  server.waitUntilStopped();
  EXPECT_TRUE(server.stopped());
  signalTarget = nullptr;
}

TEST(NetServer, MalformedBytesCountAndDropTheConnection) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  Server server(served, loopbackConfig());
  Client client("127.0.0.1", server.port());

  client.send("this is not a MLOC frame, not even close....");
  EXPECT_THROW(client.recvFrame(), NetError);
  EXPECT_TRUE(eventually([&] { return server.stats().protocolErrors >= 1; }));

  // A response-typed frame from a client is equally a protocol error.
  Client second("127.0.0.1", server.port());
  FlushResponse spoofed;
  spoofed.tag = 1;
  second.send(encodeFlushResponse(spoofed));
  EXPECT_THROW(second.recvFrame(), NetError);
  EXPECT_TRUE(eventually([&] { return server.stats().protocolErrors >= 2; }));

  // The server itself is unharmed.
  Client third("127.0.0.1", server.port());
  EXPECT_EQ(third.stats(1).status, Status::kOk);

  // Taxonomy: a protocol-error drop is *not* a clean disconnect — the
  // two counters partition disconnect causes, they never double-count.
  // (The stats round trip above guarantees the loop has long since
  // reaped both dropped connections.)
  EXPECT_EQ(server.stats().cleanDisconnects, 0u);
}

TEST(NetServer, PeerHangupIsACleanCountedDisconnect) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  Server server(served, loopbackConfig());
  {
    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.stats(1).status, Status::kOk);
  }  // Destructor closes the socket: EOF at the server.
  EXPECT_TRUE(
      eventually([&] { return server.stats().cleanDisconnects >= 1; }));
  EXPECT_EQ(server.stats().protocolErrors, 0u);
}

TEST(NetServer, ManyConcurrentClientsKeepSessionsIsolated) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  service::LocalizationService reference(twinFingerprints(), twinMotion(),
                                         testConfig());
  Server server(served, loopbackConfig());

  constexpr std::uint64_t kClients = 8;
  std::vector<std::vector<LocalizeResponse>> results(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::uint64_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      const Walk walk = makeWalk(c + 1);
      for (std::size_t r = 0; r < walk.scans.size(); ++r)
        results[c].push_back(
            client.localize(r, c + 1, walk.scans[r], walk.imu[r]));
    });
  }
  for (auto& t : threads) t.join();

  for (std::uint64_t c = 0; c < kClients; ++c) {
    const Walk walk = makeWalk(c + 1);
    ASSERT_EQ(results[c].size(), walk.scans.size());
    for (std::size_t r = 0; r < walk.scans.size(); ++r) {
      ASSERT_EQ(results[c][r].status, Status::kOk);
      const auto expected =
          reference.submitScan(c + 1, walk.scans[r], walk.imu[r]);
      EXPECT_TRUE(estimatesBitwiseEqual(results[c][r].estimate, expected))
          << "client " << c << " round " << r;
    }
  }
  EXPECT_EQ(served.sessionCount(), kClients);
}

TEST(NetServer, DrainWithoutDeadlineClosesIdleAndJustAnsweredConnections) {
  // With no drain deadline, only the drain's own visit can close a
  // connection that sends nothing after the stop: an idle one gets no
  // readiness event at all, and one that was just answered has
  // already been re-armed.  Neither may hold waitUntilStopped open.
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  ServerConfig config = loopbackConfig();
  config.drainTimeoutMs = 0;
  Server server(served, config);
  Client idle("127.0.0.1", server.port());
  Client answered("127.0.0.1", server.port());
  ASSERT_EQ(answered.stats(1).status, Status::kOk);
  ASSERT_TRUE(
      eventually([&] { return server.stats().connectionsAccepted == 2; }));

  server.requestStop();
  auto stopping =
      std::async(std::launch::async, [&] { server.waitUntilStopped(); });
  const bool inTime = stopping.wait_for(std::chrono::seconds(2)) ==
                      std::future_status::ready;
  if (!inTime) {
    // Watchdog: hanging up lets the drain finish, so a regression fails
    // here instead of hanging the suite.
    idle.shutdownWrites();
    answered.shutdownWrites();
  }
  stopping.wait();
  EXPECT_TRUE(inTime) << "an idle connection held the drain open";
  EXPECT_TRUE(server.stopped());
  EXPECT_THROW(idle.recvFrame(), NetError);
  EXPECT_THROW(answered.recvFrame(), NetError);
}

TEST(NetServer, ConnectionLimitParksTheListenerUntilAPeerHangsUp) {
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  ServerConfig config = loopbackConfig();
  config.maxConnections = 1;
  Server server(served, config);

  auto first = std::make_unique<Client>("127.0.0.1", server.port());
  ASSERT_EQ(first->stats(1).status, Status::kOk);

  // The handshake completes in the kernel's backlog, but the server
  // must not take the connection while the first one is open.
  Client second("127.0.0.1", server.port());
  boundReceives(second);
  second.send(encodeStatsRequest({2}));
  pollfd ready{second.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&ready, 1, 200), 0) << "served past maxConnections";
  EXPECT_EQ(server.stats().connectionsAccepted, 1u);

  // The hang-up frees the slot and re-arms the listener.
  first.reset();
  const Frame frame = second.recvFrame();
  ASSERT_EQ(frame.type, MsgType::kStatsResponse);
  EXPECT_EQ(decodeStatsResponse(frame.payload).tag, 2u);
  EXPECT_EQ(server.stats().connectionsAccepted, 2u);
}

TEST(NetServer, WriteQueueBoundStopsReadingAPeerThatNeverReads) {
  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan);
  service::LocalizationService served(twinFingerprints(), twinMotion(),
                                      testConfig());
  served.attachIntake(&db);  // Stats then answers without an exception.
  ServerConfig config = loopbackConfig();
  config.workerThreads = 1;
  config.maxWriteQueueBytes = 64u << 10;
  Server server(served, config);

  // The peer pipelines Stats requests and reads nothing.  Once the
  // kernel buffers and the 64 KiB write queue are full, the server
  // must stop reading it, so the sender blocks for good.
  Client stuffed("127.0.0.1", server.port());
  boundReceives(stuffed);
  constexpr std::uint64_t kMaxFrames = 1u << 20;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> stopSending{false};
  std::atomic<bool> senderDone{false};
  std::thread sender([&] {
    for (std::uint64_t tag = 0; tag < kMaxFrames && !stopSending.load();
         ++tag) {
      const std::string frame = encodeStatsRequest({tag});
      for (std::size_t off = 0; off < frame.size();) {
        const ssize_t n = ::send(stuffed.fd(), frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
          senderDone.store(true);
          return;
        }
        off += static_cast<std::size_t>(n);
      }
      sent.store(tag + 1);
    }
    senderDone.store(true);
  });

  std::uint64_t lastSent = 0;
  auto lastProgress = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - lastProgress <
         std::chrono::milliseconds(300)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (sent.load() != lastSent) {
      lastSent = sent.load();
      lastProgress = std::chrono::steady_clock::now();
    }
  }
  EXPECT_FALSE(senderDone.load()) << "the server never stopped reading";

  // The single serving thread is not stuck on the stalled peer.
  Client second("127.0.0.1", server.port());
  boundReceives(second);
  EXPECT_EQ(second.stats(1).status, Status::kOk);

  // Reading resumes the stalled peer; every response arrives, in tag
  // order.  While every finished frame is answered the server's queue
  // is empty, so it reads again and the sender makes progress alone.
  stopSending.store(true);
  std::uint64_t received = 0;
  bool inOrder = true;
  for (;;) {
    if (received < sent.load()) {
      const Frame frame = stuffed.recvFrame();
      inOrder = inOrder && frame.type == MsgType::kStatsResponse &&
                decodeStatsResponse(frame.payload).tag == received;
      ++received;
    } else if (senderDone.load() && received == sent.load()) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  sender.join();
  EXPECT_TRUE(inOrder);
  EXPECT_EQ(received, sent.load());
  EXPECT_GT(received, 0u);
}


}  // namespace
}  // namespace moloc::net

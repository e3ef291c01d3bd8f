// servebench_load: open-loop load generator and checker for molocd.
//
//   servebench_load --workload NAME --seed N --seconds S --port P
//                   --server-pid PID [--trace 0|1]
//
// Drives a running molocd over TCP with the MoLoc library's own wire
// codec (net::encode*Request, net::FrameAssembler, net::decode*Response).
// Phases:
//
//   1. warm-up: the scans due before the measured phase (they open the
//      sessions of the users already walking when it starts), sent
//      closed-loop, so sessions, connections and the server's pools are
//      warm;
//   2. measured: the schedule's requests for S seconds, each encoded
//      ahead of time and sent when it is due (open loop).  Latency runs
//      from the due time, not from when the generator got round to the
//      send, so a stall in the server is charged to every request it
//      delays (no coordinated omission).  Latency percentiles are the
//      median over ten equal windows of the phase; molocd's CPU time
//      over the phase (all threads, from /proc) is reported per request;
//   3. with --trace 1: fresh users with one request in flight, for the
//      unloaded round trip;
//   4. verification: the phases replayed in order through an in-process
//      service::LocalizationService built the way molocd builds it.
//      Every served estimate must equal its in-process one bitwise and
//      have a fix, and the measured scans must be accurate against the
//      walks' ground truth.  With --trace 1 this pass also yields the
//      layer metrics (service round, engine stages, candidate stage).
//
// The last stdout line is one JSON object: correct, attempted, failed,
// and the metrics this program measures (run.py adds setup_s).

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "service/localization_service.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;
using Clock = std::chrono::steady_clock;

struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Session ids of the schedule's users, on the server and in-process.
constexpr std::uint64_t kSessionBase = 1ULL << 40;

net::WireScan wireScan(const Schedule& schedule, const Item& item) {
  const Scan& scan = schedule.scan(item);
  return {kSessionBase + item.user, scan.fingerprint, scan.imu};
}

/// The frame of `request`: Localize for one scan, LocalizeBatch for
/// several.
std::string encodeRequest(const Schedule& schedule, const Request& request,
                          std::uint64_t tag) {
  if (request.items.size() == 1)
    return net::encodeLocalizeRequest(
        {tag, wireScan(schedule, request.items.front())});
  net::LocalizeBatchRequest batch;
  batch.tag = tag;
  for (const Item& item : request.items)
    batch.scans.push_back(wireScan(schedule, item));
  return net::encodeLocalizeBatchRequest(batch);
}

// ---- Sockets -----------------------------------------------------------

/// Owns one socket.
struct Socket {
  explicit Socket(int fd) : fd(fd) {}
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { ::close(fd); }
  int fd;
};

int connectTo(std::uint16_t port, bool nonBlocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Fatal("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw Fatal("connect: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (nonBlocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One synchronous Stats round trip on its own connection.
net::ServerStats fetchStats(std::uint16_t port) {
  const Socket socket(connectTo(port, false));
  const std::string frame = net::encodeStatsRequest({1});
  for (std::size_t sent = 0; sent < frame.size();) {
    const ssize_t n =
        ::write(socket.fd, frame.data() + sent, frame.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Fatal("stats write failed");
    sent += static_cast<std::size_t>(n);
  }
  net::FrameAssembler in;
  net::Frame reply;
  char buf[4096];
  while (!in.next(reply)) {
    const ssize_t n = ::read(socket.fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Fatal("stats read failed");
    in.feed(buf, static_cast<std::size_t>(n));
  }
  if (reply.type != net::MsgType::kStatsResponse)
    throw Fatal("bad stats response");
  const net::StatsResponse stats = net::decodeStatsResponse(reply.payload);
  if (stats.status != net::Status::kOk) throw Fatal("stats refused");
  return stats.stats;
}

// ---- The generator -----------------------------------------------------

struct Outcome {
  bool answered = false;
  double latencyUs = 0.0;
  double lagUs = 0.0;  ///< How late the generator sent it.
  std::size_t requestBytes = 0;
  std::size_t responseBytes = 0;
  std::string payload;  ///< Response payload, decoded after the phase.
};

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t outOffset = 0;
  net::FrameAssembler in;
  /// Requests sent and not yet answered, with the time their latency
  /// runs from.  molocd answers each connection in request order.
  std::deque<std::pair<std::size_t, Clock::time_point>> inflight;
  std::deque<std::size_t> queued;  ///< Closed loop: not yet sent.
};

/// How far ahead of its due time the open loop encodes a request.
constexpr auto kEncodeAhead = std::chrono::milliseconds(50);

/// Drives `requests` on `connectionCount` fresh connections, tagged
/// `tagBase` + index.  With `window` == 0 requests go out at their due
/// times (open loop); otherwise each connection keeps at most `window`
/// requests in flight (closed loop) and latency runs from the send.
std::vector<Outcome> runPhase(std::uint16_t port, std::size_t connectionCount,
                              const Schedule& schedule,
                              const std::vector<Request>& requests,
                              std::uint64_t tagBase, std::size_t window,
                              double drainSeconds) {
  std::vector<Outcome> outcomes(requests.size());
  std::vector<std::string> frames(requests.size());
  std::vector<Connection> conns(connectionCount);
  std::vector<std::unique_ptr<Socket>> sockets;
  for (auto& conn : conns) {
    sockets.push_back(std::make_unique<Socket>(connectTo(port, true)));
    conn.fd = sockets.back()->fd;
  }
  if (window > 0)
    for (std::size_t i = 0; i < requests.size(); ++i)
      conns[requests[i].conn].queued.push_back(i);

  const auto encode = [&](std::size_t i) {
    if (frames[i].empty())
      frames[i] = encodeRequest(schedule, requests[i], tagBase + i);
  };
  const auto send = [&](std::size_t i, Clock::time_point from,
                        Clock::time_point now) {
    Connection& conn = conns[requests[i].conn];
    encode(i);
    outcomes[i].requestBytes = frames[i].size();
    outcomes[i].lagUs = micros(from, now);
    conn.out += frames[i];
    std::string().swap(frames[i]);
    conn.inflight.emplace_back(i, from);
  };
  const auto dueOf = [](Clock::time_point t0, double at) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(at));
  };

  const Clock::time_point t0 = Clock::now() + kEncodeAhead;
  const double lastAt = requests.empty() ? 0.0 : requests.back().at;
  const Clock::time_point deadline =
      dueOf(t0, (window > 0 ? 0.0 : lastAt) + drainSeconds);
  std::size_t next = 0;
  std::size_t encoded = 0;
  std::size_t answered = 0;
  std::vector<pollfd> fds(conns.size());
  net::Frame frame;
  char buf[1 << 16];
  while (answered < requests.size()) {
    Clock::time_point now = Clock::now();
    if (now > deadline) break;
    if (window == 0) {
      for (; next < requests.size(); ++next) {
        const auto due = dueOf(t0, requests[next].at);
        if (due > now) break;
        send(next, due, now);
      }
      for (encoded = std::max(encoded, next);
           encoded < requests.size() &&
           dueOf(t0, requests[encoded].at) <= now + kEncodeAhead;
           ++encoded)
        encode(encoded);
      now = Clock::now();
    } else {
      for (auto& conn : conns)
        while (!conn.queued.empty() && conn.inflight.size() < window) {
          encode(conn.queued.front());
          const auto sentAt = Clock::now();
          send(conn.queued.front(), sentAt, sentAt);
          conn.queued.pop_front();
        }
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Connection& conn = conns[c];
      while (conn.outOffset < conn.out.size()) {
        const ssize_t n = ::write(conn.fd, conn.out.data() + conn.outOffset,
                                  conn.out.size() - conn.outOffset);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0)
          throw Fatal("write: " + std::string(std::strerror(errno)));
        conn.outOffset += static_cast<std::size_t>(n);
      }
      if (conn.outOffset == conn.out.size()) {
        conn.out.clear();
        conn.outOffset = 0;
      }
      fds[c] = {conn.fd,
                static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
                0};
    }
    Clock::time_point wake = deadline;
    if (window == 0 && next < requests.size())
      wake = std::min(wake, dueOf(t0, requests[next].at));
    const auto waitNs = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    const timespec timeout{static_cast<time_t>(waitNs / 1000000000),
                           static_cast<long>(waitNs % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0) {
      if (errno == EINTR) continue;
      throw Fatal("ppoll: " + std::string(std::strerror(errno)));
    }
    now = Clock::now();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Connection& conn = conns[c];
      for (;;) {
        const ssize_t n = ::read(conn.fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) throw Fatal("molocd closed a connection");
        conn.in.feed(buf, static_cast<std::size_t>(n));
      }
      while (conn.in.next(frame)) {
        if (conn.inflight.empty()) throw Fatal("unsolicited response");
        const auto [i, from] = conn.inflight.front();
        conn.inflight.pop_front();
        const auto expected = requests[i].items.size() > 1
                                  ? net::MsgType::kLocalizeBatchResponse
                                  : net::MsgType::kLocalizeResponse;
        if (frame.type != expected) throw Fatal("response out of order");
        Outcome& outcome = outcomes[i];
        outcome.answered = true;
        outcome.latencyUs = micros(from, now);
        outcome.responseBytes =
            net::kHeaderBytes + frame.payload.size() + net::kTrailerBytes;
        outcome.payload = std::move(frame.payload);
        ++answered;
      }
    }
  }
  return outcomes;
}

/// The estimates of an answered request; empty when it was not answered
/// or answered with an error status.
std::vector<core::LocationEstimate> servedEstimates(const Outcome& outcome,
                                                    const Request& request,
                                                    std::uint64_t tag) {
  if (!outcome.answered) return {};
  std::vector<core::LocationEstimate> estimates;
  std::uint64_t echoed = 0;
  net::Status status = net::Status::kOk;
  if (request.items.size() > 1) {
    net::LocalizeBatchResponse response =
        net::decodeLocalizeBatchResponse(outcome.payload);
    echoed = response.tag;
    status = response.status;
    estimates = std::move(response.estimates);
  } else {
    net::LocalizeResponse response =
        net::decodeLocalizeResponse(outcome.payload);
    echoed = response.tag;
    status = response.status;
    estimates.push_back(std::move(response.estimate));
  }
  if (echoed != tag) throw Fatal("response tag mismatch");
  if (status != net::Status::kOk) return {};
  if (estimates.size() != request.items.size())
    throw Fatal("estimate count mismatch");
  return estimates;
}

bool bitwiseEqual(const core::LocationEstimate& a,
                  const core::LocationEstimate& b) {
  if (a.location != b.location || a.candidates.size() != b.candidates.size())
    return false;
  if (std::memcmp(&a.probability, &b.probability, sizeof(double)) != 0)
    return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i)
    if (a.candidates[i].location != b.candidates[i].location ||
        std::memcmp(&a.candidates[i].probability,
                    &b.candidates[i].probability, sizeof(double)) != 0)
      return false;
  return true;
}

/// What the verification of one or more phases found.
struct Check {
  std::size_t failed = 0;      ///< Not answered, or an error status.
  std::size_t mismatches = 0;  ///< Differs from in-process, or no fix.
  double errorSum = 0.0;       ///< Metres from the ground truth.
  std::size_t errorCount = 0;
  std::vector<double> scanUs;  ///< In-process time per scan.
};

/// Replays `requests` through `reference` in order and compares each
/// answer with what molocd served.
void verify(service::LocalizationService& reference, const World& world,
            const Schedule& schedule, const std::vector<Request>& requests,
            const std::vector<Outcome>& outcomes, std::uint64_t tagBase,
            Check& check) {
  std::vector<service::ScanRequest> batch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    std::vector<core::LocationEstimate> local;
    if (request.items.size() == 1) {
      const Item& item = request.items.front();
      const Scan& scan = schedule.scan(item);
      const auto start = Clock::now();
      local.push_back(reference.submitScan(kSessionBase + item.user,
                                           scan.fingerprint, scan.imu));
      check.scanUs.push_back(micros(start, Clock::now()));
    } else {
      batch.clear();
      for (const Item& item : request.items)
        batch.push_back({kSessionBase + item.user,
                         schedule.scan(item).fingerprint,
                         schedule.scan(item).imu});
      const auto start = Clock::now();
      local = reference.localizeBatch(batch);
      check.scanUs.push_back(micros(start, Clock::now()) /
                             static_cast<double>(batch.size()));
    }
    const auto served = servedEstimates(outcomes[i], request, tagBase + i);
    if (served.empty()) {
      ++check.failed;
      continue;
    }
    for (std::size_t k = 0; k < served.size(); ++k) {
      if (!served[k].hasFix() || !bitwiseEqual(served[k], local[k]))
        ++check.mismatches;
      check.errorSum += world.distance(served[k].location,
                                       schedule.scan(request.items[k]).truth);
      ++check.errorCount;
    }
  }
}

/// Equal time windows the measured phase is cut into for percentiles.
constexpr std::size_t kWindows = 10;
/// Scans the candidate-stage probe times at most.
constexpr std::size_t kCandidateScans = 6000;

/// CPU time all threads of process `pid` have run, in nanoseconds
/// (first field of each /proc/<pid>/task/<tid>/schedstat).
std::uint64_t cpuNs(const std::string& pid) {
  std::uint64_t total = 0;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + pid + "/task")) {
    std::FILE* f = std::fopen((task.path() / "schedstat").c_str(), "r");
    if (f == nullptr) continue;  // Thread exited meanwhile.
    unsigned long long ns = 0;
    if (std::fscanf(f, "%llu", &ns) == 1) total += ns;
    std::fclose(f);
  }
  if (total == 0) throw Fatal("cannot read molocd CPU time");
  return total;
}

/// Time recorded in the histogram `name` with `labels`, in microseconds
/// per scan over `scans` scans.
double perScanUs(obs::MetricsRegistry& registry, const std::string& name,
                 const obs::Labels& labels, std::size_t scans) {
  const obs::Histogram* h = registry.findHistogram(name, labels);
  return h != nullptr ? h->sum() * 1e6 / static_cast<double>(scans) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const WorkloadSpec& spec = findWorkload(argValue(argc, argv, "--workload"));
    const auto seed = std::stoull(argValue(argc, argv, "--seed"));
    const double seconds = std::stod(argValue(argc, argv, "--seconds"));
    const auto port = static_cast<std::uint16_t>(
        std::stoul(argValue(argc, argv, "--port")));
    const bool trace = argValue(argc, argv, "--trace", "0") == "1";
    const std::string serverPid = argValue(argc, argv, "--server-pid");

    // Wake on time: the default 50 us timer slack would show up as
    // generator lag on every request.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    const World world(spec);
    const Schedule schedule = makeSchedule(spec, world, seed, seconds);
    if (schedule.measured.empty()) throw Fatal("no requests scheduled");

    constexpr std::uint64_t kWarmupTags = 1ULL << 32;
    constexpr std::uint64_t kMeasuredTags = 2ULL << 32;
    constexpr std::uint64_t kProbeTags = 3ULL << 32;
    constexpr std::size_t kWarmupWindow = 16;

    const auto warmupStart = Clock::now();
    const auto warmup =
        runPhase(port, spec.connections, schedule, schedule.warmup,
                 kWarmupTags, kWarmupWindow, 120.0);
    const double warmupSeconds = micros(warmupStart, Clock::now()) / 1e6;
    const net::ServerStats before = fetchStats(port);
    const std::uint64_t cpuBefore = cpuNs(serverPid);
    const auto outcomes =
        runPhase(port, spec.connections, schedule, schedule.measured,
                 kMeasuredTags, 0, 20.0);
    const std::uint64_t cpuAfter = cpuNs(serverPid);
    const net::ServerStats after = fetchStats(port);
    std::vector<Outcome> probe;
    if (trace)
      probe = runPhase(port, 1, schedule, schedule.probe, kProbeTags, 1, 60.0);

    // The in-process reference, as molocd builds it with --no-intake.
    obs::MetricsRegistry registry;
    service::ServiceConfig config;
    config.threadCount = 1;
    config.metrics = &registry;
    if (world.venue() != nullptr)
      config.indexShardStarts = world.venue()->shardStarts();
    service::LocalizationService reference(world.fingerprints(),
                                           world.motion(), config);
    Check other;
    Check check;
    verify(reference, world, schedule, schedule.warmup, warmup, kWarmupTags,
           other);
    verify(reference, world, schedule, schedule.measured, outcomes,
           kMeasuredTags, check);
    if (trace)
      verify(reference, world, schedule, schedule.probe, probe, kProbeTags,
             other);

    std::size_t scans = 0;
    for (const Request& request : schedule.measured)
      scans += request.items.size();
    const double meanError =
        check.errorSum /
        static_cast<double>(std::max<std::size_t>(1, check.errorCount));
    const bool correct = check.errorCount > 0 && check.mismatches == 0 &&
                         other.failed == 0 && other.mismatches == 0 &&
                         meanError <= spec.maxMeanErrorMeters;
    std::fprintf(
        stderr,
        "servebench_load: %s seed %llu: warm-up %zu requests closed-loop "
        "at %.0f/s; measured %zu requests (%.0f scans/s offered), %zu "
        "failed, %zu mismatches, mean error %.3f m\n",
        spec.name.c_str(), static_cast<unsigned long long>(seed),
        warmup.size(), static_cast<double>(warmup.size()) / warmupSeconds,
        outcomes.size(), static_cast<double>(scans) / seconds, check.failed,
        check.mismatches + other.mismatches + other.failed, meanError);

    // Each percentile is taken per window and the median window
    // reported, so one stall of the shared host moves one window only.
    // The tail reported is p90: on a shared host the per-window p99
    // swings by more than any useful regression bound between runs.
    std::vector<std::vector<double>> windows(kWindows);
    std::vector<double> lags;
    double requestBytes = 0.0;
    double responseBytes = 0.0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& outcome = outcomes[i];
      lags.push_back(outcome.lagUs);
      requestBytes += static_cast<double>(outcome.requestBytes);
      if (!outcome.answered) continue;
      responseBytes += static_cast<double>(outcome.responseBytes);
      windows[std::min(kWindows - 1,
                       static_cast<std::size_t>(schedule.measured[i].at /
                                                seconds * kWindows))]
          .push_back(outcome.latencyUs);
    }
    std::vector<double> p50s;
    std::vector<double> p90s;
    for (auto& window : windows) {
      p50s.push_back(quantile(window, 0.50));
      p90s.push_back(quantile(window, 0.90));
    }
    std::map<std::string, double> metrics;
    const double p50Us = quantile(p50s, 0.50);
    metrics["latency_p50_ms"] = p50Us / 1e3;
    metrics["latency_p90_ms"] = quantile(p90s, 0.50) / 1e3;
    metrics["server_cpu_us"] = static_cast<double>(cpuAfter - cpuBefore) /
                               1e3 / static_cast<double>(outcomes.size());
    if (trace) {
      std::vector<double> rtts;
      for (const auto& outcome : probe)
        if (outcome.answered) rtts.push_back(outcome.latencyUs);
      const double rttP50 = quantile(rtts, 0.50);
      metrics["gen_lag_p99_us"] = quantile(lags, 0.99);
      metrics["rtt_idle_p50_us"] = rttP50;
      metrics["queue_p50_us"] = p50Us - rttP50;
      metrics["wire_request_bytes"] =
          requestBytes / static_cast<double>(outcomes.size());
      metrics["wire_response_bytes"] =
          responseBytes / static_cast<double>(std::max<std::size_t>(
                              1, outcomes.size() - check.failed));
      metrics["server_requests"] =
          static_cast<double>(after.requestsServed - before.requestsServed);
      metrics["mean_error_m"] = meanError;
      metrics["service_scan_p50_us"] = quantile(check.scanUs, 0.50);
      // The engine's stages over every scan the reference served.  A
      // batch matches its scans' fingerprints up front, outside the
      // engine's fingerprint stage.
      std::size_t referenceScans = 0;
      for (const auto* phase :
           {&schedule.warmup, &schedule.measured, &schedule.probe})
        for (const Request& request : *phase)
          referenceScans += request.items.size();
      const auto stageUs = [&](const char* stage) {
        return perScanUs(registry, "moloc_engine_stage_seconds",
                         {{"stage", stage}}, referenceScans);
      };
      metrics["stage_fingerprint_us"] =
          stageUs("fingerprint") +
          perScanUs(registry, "moloc_service_batch_match_seconds", {},
                    referenceScans);
      metrics["stage_motion_us"] = stageUs("motion");
      metrics["stage_fusion_us"] = stageUs("fusion");

      // The candidate stage on its own: the tiered index when the
      // service built one (campus venues), else the exact radio-map scan.
      const std::size_t k = reference.config().engine.candidateCount;
      std::vector<radio::Match> matches;
      std::vector<double> candidateUs;
      double rows = 0.0;
      for (const Request& request : schedule.measured)
        for (const Item& item : request.items) {
          if (candidateUs.size() >= kCandidateScans) break;
          const radio::Fingerprint& scan = schedule.scan(item).fingerprint;
          const auto start = Clock::now();
          if (const auto& index = reference.tieredIndex()) {
            index::QueryStats stats;
            index->queryInto(scan, k, matches, &stats);
            candidateUs.push_back(micros(start, Clock::now()));
            rows += static_cast<double>(stats.shortlistSize);
          } else {
            reference.fingerprints().queryInto(scan, k, matches);
            candidateUs.push_back(micros(start, Clock::now()));
            rows += static_cast<double>(reference.fingerprints().size());
          }
        }
      metrics["candidate_p50_us"] = quantile(candidateUs, 0.50);
      metrics["candidate_rows_mean"] =
          rows / static_cast<double>(
                     std::max<std::size_t>(1, candidateUs.size()));
    }

    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false", outcomes.size(), check.failed,
        jsonMembers(metrics).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench_load: %s\n", e.what());
    return 1;
  }
}

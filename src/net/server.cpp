#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "service/intake.hpp"
#include "service/localization_service.hpp"
#include "store/format.hpp"
#include "util/retry_eintr.hpp"

namespace moloc::net {

namespace {

/// epoll tags of the two non-connection entries; a connection's tag
/// is its Connection object.
char kListenerTag;
char kStopTag;

/// Best-effort tag for an error reply when the payload itself failed
/// to decode: every message begins with the u64 tag, so echo it when
/// at least that much arrived.
std::uint64_t peekTag(const std::string& payload) {
  if (payload.size() < 8) return 0;
  store::detail::Cursor cursor(payload.data(), payload.size());
  return cursor.readU64();
}

/// Full 16 KiB reads one turn may make before the connection goes to
/// the back of the ready list, so a peer that streams without pause
/// cannot keep a serving thread to itself.
constexpr int kMaxReadsPerTurn = 16;

std::size_t resolveThreads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool control(int epollFd, int op, int fd, std::uint32_t events, void* tag) {
  epoll_event event{};
  event.events = events;
  event.data.ptr = tag;
  return ::epoll_ctl(epollFd, op, fd, &event) == 0;
}

}  // namespace

Server::Server(service::LocalizationService& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {
  const Listener listener = listenOn(config_.host, config_.port);
  port_ = listener.port;
  {
    const util::MutexLock lock(poolMu_);
    listenFd_ = listener.fd;
  }
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  stopFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epollFd_ < 0 || stopFd_ < 0 ||
      !control(epollFd_, EPOLL_CTL_ADD, listener.fd, EPOLLIN | EPOLLONESHOT,
               &kListenerTag) ||
      !control(epollFd_, EPOLL_CTL_ADD, stopFd_, EPOLLIN | EPOLLONESHOT,
               &kStopTag)) {
    ::close(listener.fd);
    if (epollFd_ >= 0) ::close(epollFd_);
    if (stopFd_ >= 0) ::close(stopFd_);
    throw NetError("cannot create the epoll set");
  }
  const std::size_t threads = resolveThreads(config_.workerThreads);
  running_.store(threads);
  try {
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      threads_.emplace_back([this] { serve(); });
  } catch (...) {
    // The threads already running drain and close the sockets; with
    // none, nothing else will close the listener.
    running_.fetch_sub(threads - threads_.size());
    requestStop();
    waitUntilStopped();
    {
      const util::MutexLock lock(poolMu_);
      if (listenFd_ >= 0) ::close(listenFd_);
    }
    ::close(epollFd_);
    ::close(stopFd_);
    throw;
  }
}

Server::~Server() {
  requestStop();
  waitUntilStopped();
  // The drain closed every connection socket and the listener.
  ::close(epollFd_);
  ::close(stopFd_);
}

void Server::requestStop() {
  // Async-signal-safe: one eventfd write, retried only on EINTR (a
  // plain loop, still signal-safe).  Repeats only add to the counter.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc =
      util::retryEintr([&] { return ::write(stopFd_, &one, sizeof one); });
}

void Server::waitUntilStopped() {
  for (auto& thread : threads_)
    if (thread.joinable()) thread.join();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requestsServed = requestsServed_.load(std::memory_order_relaxed);
  s.connectionsAccepted =
      connectionsAccepted_.load(std::memory_order_relaxed);
  s.cleanDisconnects = cleanDisconnects_.load(std::memory_order_relaxed);
  s.overloadRejections =
      overloadRejections_.load(std::memory_order_relaxed);
  s.protocolErrors = protocolErrors_.load(std::memory_order_relaxed);
  return s;
}

void Server::serve() {
  for (;;) {
    int timeoutMs = -1;
    if (draining_.load(std::memory_order_acquire) &&
        config_.drainTimeoutMs > 0) {
      const auto left = drainDeadline_ - std::chrono::steady_clock::now();
      if (left > std::chrono::steady_clock::duration::zero())
        timeoutMs = static_cast<int>(
            std::chrono::ceil<std::chrono::milliseconds>(left).count());
      else if (!stragglersClosed_.exchange(true))
        closeStragglers();
    }
    epoll_event event{};
    const int ready = util::retryEintr(
        [&] { return ::epoll_wait(epollFd_, &event, 1, timeoutMs); });
    if (ready <= 0) continue;  // drain deadline (handled above) or failure
    void* const tag = event.data.ptr;
    if (tag == &kStopTag) {
      if (drained_.load(std::memory_order_acquire)) break;
      beginDrain();
    } else if (tag == &kListenerTag) {
      const util::MutexLock lock(poolMu_);
      acceptReady();
    } else {
      Connection& conn = *static_cast<Connection*>(tag);
      if (tryTake(conn)) serveConnection(conn);
    }
  }
  // The last thread out: every socket is closed; make admitted
  // observations durable before reporting the server stopped.
  if (running_.fetch_sub(1) == 1) {
    if (config_.drainHook) config_.drainHook();
    exited_.store(true, std::memory_order_release);
  }
}

void Server::acceptReady() {
  if (listenFd_ < 0) return;  // stale event: the drain closed it
  while (openConnections_ < config_.maxConnections) {
    const int fd = util::retryEintr([&] {
      return ::accept4(listenFd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    });
    if (fd < 0) {  // EAGAIN or transient accept failure
      control(epollFd_, EPOLL_CTL_MOD, listenFd_, EPOLLIN | EPOLLONESHOT,
              &kListenerTag);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (free_.empty()) {
      pool_.push_back(std::make_unique<Connection>());
      free_.push_back(pool_.back().get());
    }
    Connection& conn = *free_.back();
    // A free connection's fields belong to nobody: stale events only
    // read its state.
    conn.fd = fd;
    const util::MutexLock connLock(conn.mu);
    if (!control(epollFd_, EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLONESHOT,
                 &conn)) {
      ::close(fd);
      conn.fd = -1;
      continue;
    }
    conn.state = ConnState::kArmed;
    free_.pop_back();
    ++openConnections_;
    connectionsAccepted_.fetch_add(1, std::memory_order_relaxed);
  }
  // At the bound: stay disarmed until closeConnection frees a slot.
  listenerParked_ = true;
}

std::vector<Server::Connection*> Server::snapshotPool() {
  const util::MutexLock lock(poolMu_);
  std::vector<Connection*> all;
  all.reserve(pool_.size());
  for (const auto& conn : pool_) all.push_back(conn.get());
  return all;
}

void Server::beginDrain() {
  {
    const util::MutexLock lock(poolMu_);
    if (config_.drainTimeoutMs > 0)
      drainDeadline_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(config_.drainTimeoutMs);
    draining_.store(true, std::memory_order_release);
    // Adopt connections the kernel already completed into the accept
    // backlog: a peer that connected (and possibly sent requests)
    // before the stop is in-flight work, and closing the listener
    // over its head would RST it unanswered.  New connect attempts
    // after the close are refused, which is the drain contract.
    acceptReady();
    ::close(listenFd_);
    listenFd_ = -1;
    finishIfDrained();
  }
  // An idle connection has no readiness to deliver, so visit each one:
  // a read made now, after the stop, finds it quiet and closes it.
  // Owned connections are left to their owners, which see draining_.
  for (Connection* conn : snapshotPool())
    if (tryTake(*conn)) serveConnection(*conn);
}

void Server::closeStragglers() {
  // stragglersClosed_ is already set: an owner that finishes after
  // this sweep passed its connection closes it instead of re-arming.
  for (Connection* conn : snapshotPool())
    if (tryTake(*conn)) closeConnection(*conn, false);
}

bool Server::tryTake(Connection& conn) {
  const util::MutexLock lock(conn.mu);
  if (conn.state != ConnState::kArmed) return false;
  conn.state = ConnState::kOwned;
  return true;
}

void Server::serveConnection(Connection& conn) {
  for (bool readAfterStop = draining_.load(std::memory_order_acquire);;
       readAfterStop = true) {
    const Pump result = pump(conn);
    if (result == Pump::kPeerGone || result == Pump::kBroken) {
      closeConnection(conn, result == Pump::kPeerGone);
      return;
    }
    // The peer hung up and has every answer: a clean disconnect.
    if (conn.inputClosed && conn.outbuf.empty()) {
      closeConnection(conn, true);
      return;
    }
    {
      // Under the lock beginDrain's visit takes: either this owner sees
      // the drain, or it re-arms before the visit looks.
      const util::MutexLock lock(conn.mu);
      const bool draining = draining_.load(std::memory_order_acquire);
      // The drain's cutoff is a read made after the stop.
      if (draining && !readAfterStop) continue;
      const bool owesWork = result == Pump::kBusy || !conn.outbuf.empty() ||
                            conn.assembler.buffered() > 0;
      const bool keep =
          !draining ||
          (owesWork && !stragglersClosed_.load() &&
           (config_.drainTimeoutMs == 0 ||
            std::chrono::steady_clock::now() < drainDeadline_));
      if (keep) {
        std::uint32_t events = EPOLLONESHOT;
        if (!conn.inputClosed &&
            conn.outbuf.size() < config_.maxWriteQueueBytes)
          events |= EPOLLIN;
        if (!conn.outbuf.empty()) events |= EPOLLOUT;
        conn.state = ConnState::kArmed;
        control(epollFd_, EPOLL_CTL_MOD, conn.fd, events, &conn);
        return;
      }
    }
    // Drained quiet, or cut off at the deadline: our hang-up, never
    // counted as a clean disconnect.
    closeConnection(conn, false);
    return;
  }
}

Server::Pump Server::pump(Connection& conn) {
  if (!flush(conn)) return Pump::kPeerGone;
  char buf[16384];
  for (int reads = 0; reads < kMaxReadsPerTurn && !conn.inputClosed &&
                      conn.outbuf.size() < config_.maxWriteQueueBytes;
       ++reads) {
    const ssize_t n = util::retryEintr(
        [&] { return ::recv(conn.fd, buf, sizeof buf, 0); });
    if (n == 0) {  // orderly peer shutdown
      conn.inputClosed = true;
      break;
    }
    if (n < 0)  // ECONNRESET and friends: the peer vanished
      return errno == EAGAIN || errno == EWOULDBLOCK ? Pump::kQuiet
                                                     : Pump::kPeerGone;
    conn.assembler.feed(buf, static_cast<std::size_t>(n));
    try {
      Frame frame;
      while (conn.assembler.next(frame)) {
        if ((static_cast<std::uint8_t>(frame.type) & 0x80u) != 0)
          throw ProtocolError(WireFault::kBadType,
                              "response-typed frame from client");
        conn.outbuf += handleFrame(frame);
      }
    } catch (const ProtocolError&) {
      // Framing damage desynchronizes the stream: there is no resync
      // point, so count it and drop the peer.
      protocolErrors_.fetch_add(1, std::memory_order_relaxed);
      return Pump::kBroken;
    } catch (...) {
      // Handlers answer their own failures; anything escaping is a
      // server-side defect, and the peer must not wait forever.
      return Pump::kBroken;
    }
    if (!flush(conn)) return Pump::kPeerGone;
    // A short read emptied the socket; a later arrival fires the
    // re-armed event.
    if (static_cast<std::size_t>(n) < sizeof buf) return Pump::kQuiet;
  }
  return conn.inputClosed ? Pump::kQuiet : Pump::kBusy;
}

bool Server::flush(Connection& conn) {
  std::size_t sent = 0;
  while (sent < conn.outbuf.size()) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE
    // (molocd additionally ignores SIGPIPE process-wide).
    const ssize_t n = util::retryEintr([&] {
      return ::send(conn.fd, conn.outbuf.data() + sent,
                    conn.outbuf.size() - sent, MSG_NOSIGNAL);
    });
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // EPIPE / ECONNRESET: the peer is gone
    }
    sent += static_cast<std::size_t>(n);
  }
  conn.outbuf.erase(0, sent);
  return true;
}

void Server::closeConnection(Connection& conn, bool clean) {
  if (clean) cleanDisconnects_.fetch_add(1, std::memory_order_relaxed);
  // Closing also removes the socket from the epoll set: accept4 gave
  // it CLOEXEC and it is never duplicated.
  ::close(conn.fd);
  conn.fd = -1;
  conn.assembler = FrameAssembler{};
  std::string().swap(conn.outbuf);
  conn.inputClosed = false;
  {
    const util::MutexLock lock(conn.mu);
    conn.state = ConnState::kFree;
  }
  const util::MutexLock lock(poolMu_);
  free_.push_back(&conn);
  --openConnections_;
  if (listenerParked_ && listenFd_ >= 0) {
    listenerParked_ = false;
    control(epollFd_, EPOLL_CTL_MOD, listenFd_, EPOLLIN | EPOLLONESHOT,
            &kListenerTag);
  }
  finishIfDrained();
}

void Server::finishIfDrained() {
  if (listenFd_ >= 0 || openConnections_ > 0 || drained_.exchange(true))
    return;
  // Level-triggered from now on (the eventfd is never read), so every
  // serving thread takes the stop event once more and exits.
  control(epollFd_, EPOLL_CTL_MOD, stopFd_, EPOLLIN, &kStopTag);
}

namespace {

/// Encoding a response can itself fail: a <=1 MiB LocalizeBatch of
/// minimal scans yields estimates whose encoding legitimately exceeds
/// kMaxPayloadBytes (each estimate encodes larger than its scan).
/// That must stay a *response* — strip the body and answer
/// kInternalError, which is guaranteed to frame — never an exception
/// escaping into the serving thread.
std::string encodeBounded(LocalizeResponse&& resp) {
  try {
    return encodeLocalizeResponse(resp);
  } catch (const ProtocolError&) {
    resp.estimate = core::LocationEstimate{};
    resp.status = Status::kInternalError;
    resp.message = "encoded response exceeds the frame bound";
    return encodeLocalizeResponse(resp);
  }
}

std::string encodeBounded(LocalizeBatchResponse&& resp) {
  try {
    return encodeLocalizeBatchResponse(resp);
  } catch (const ProtocolError&) {
    resp.estimates.clear();
    resp.status = Status::kInternalError;
    resp.message =
        "encoded batch response exceeds the frame bound; split the batch";
    return encodeLocalizeBatchResponse(resp);
  }
}

}  // namespace

template <typename Response>
void Server::answerFailure(Response& resp) {
  try {
    throw;
  } catch (const ProtocolError& e) {
    protocolErrors_.fetch_add(1, std::memory_order_relaxed);
    resp.status = Status::kBadRequest;
    resp.message = e.what();
  } catch (const service::BackpressureError& e) {
    overloadRejections_.fetch_add(1, std::memory_order_relaxed);
    resp.status = Status::kOverloaded;
    resp.message = e.what();
  } catch (const service::ShutdownError& e) {
    resp.status = Status::kShuttingDown;
    resp.message = e.what();
  } catch (const std::logic_error& e) {
    // std::invalid_argument (bad scan, unknown location) and the
    // "no intake attached" logic_error both mean the request itself
    // was unserviceable.
    resp.status = Status::kBadRequest;
    resp.message = e.what();
  } catch (const std::exception& e) {
    resp.status = Status::kInternalError;
    resp.message = e.what();
  }
}

std::string Server::handleFrame(const Frame& frame) {
  requestsServed_.fetch_add(1, std::memory_order_relaxed);
  switch (frame.type) {
    case MsgType::kLocalize:
      return handleLocalize(frame);
    case MsgType::kLocalizeBatch:
      return handleLocalizeBatch(frame);
    case MsgType::kReportObservation:
      return handleReportObservation(frame);
    case MsgType::kFlush:
      return handleFlush(frame);
    case MsgType::kStats:
      return handleStats(frame);
    default: {  // unreachable: pump() rejects response-typed frames
      FlushResponse resp;
      resp.tag = peekTag(frame.payload);
      resp.status = Status::kBadRequest;
      resp.message = "unexpected message type";
      return encodeFlushResponse(resp);
    }
  }
}

std::string Server::handleLocalize(const Frame& frame) {
  LocalizeResponse resp;
  resp.tag = peekTag(frame.payload);
  try {
    const LocalizeRequest req = decodeLocalizeRequest(frame.payload);
    resp.tag = req.tag;
    resp.estimate = service_.submitScan(req.scan.sessionId, req.scan.scan,
                                        req.scan.imu);
  } catch (...) {
    answerFailure(resp);
  }
  return encodeBounded(std::move(resp));
}

std::string Server::handleLocalizeBatch(const Frame& frame) {
  LocalizeBatchResponse resp;
  resp.tag = peekTag(frame.payload);
  try {
    const LocalizeBatchRequest req =
        decodeLocalizeBatchRequest(frame.payload);
    resp.tag = req.tag;
    std::vector<service::ScanRequest> batch;
    batch.reserve(req.scans.size());
    for (const auto& scan : req.scans)
      batch.push_back({scan.sessionId, scan.scan, scan.imu});
    resp.estimates = service_.localizeBatch(batch);
  } catch (...) {
    answerFailure(resp);
    resp.estimates.clear();
  }
  return encodeBounded(std::move(resp));
}

std::string Server::handleReportObservation(const Frame& frame) {
  ReportObservationResponse resp;
  resp.tag = peekTag(frame.payload);
  try {
    const ReportObservationRequest req =
        decodeReportObservationRequest(frame.payload);
    resp.tag = req.tag;
    resp.accepted = service_.reportObservation(
        req.start, req.end, req.directionDeg, req.offsetMeters);
  } catch (...) {
    answerFailure(resp);
  }
  return encodeReportObservationResponse(resp);
}

std::string Server::handleFlush(const Frame& frame) {
  FlushResponse resp;
  resp.tag = peekTag(frame.payload);
  try {
    const FlushRequest req = decodeFlushRequest(frame.payload);
    resp.tag = req.tag;
    service_.flushIntake();
  } catch (...) {
    answerFailure(resp);
  }
  return encodeFlushResponse(resp);
}

std::string Server::handleStats(const Frame& frame) {
  StatsResponse resp;
  resp.tag = peekTag(frame.payload);
  try {
    const StatsRequest req = decodeStatsRequest(frame.payload);
    resp.tag = req.tag;
    resp.stats = stats();
    resp.stats.sessions = service_.sessionCount();
    resp.stats.worldGeneration = service_.currentWorld()->generation();
    try {
      resp.stats.intakeApplied = service_.intakeStats().applied;
    } catch (const std::logic_error&) {
      resp.stats.intakeApplied = 0;  // no intake attached
    }
  } catch (...) {
    answerFailure(resp);
  }
  return encodeStatsResponse(resp);
}

}  // namespace moloc::net

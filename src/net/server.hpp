#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace moloc::service {
class LocalizationService;
}

namespace moloc::net {

/// Tunables of the molocd serving threads.
struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Server::port().
  std::uint16_t port = 0;
  /// Serving threads, each running requests to completion; 0 selects
  /// hardware concurrency (at least 1).  Distinct from the service's
  /// internal batch pool.
  std::size_t workerThreads = 0;
  /// Open connections; at the bound the listener stays disarmed until
  /// a connection closes.
  std::size_t maxConnections = 4096;
  /// Per-connection bound on buffered response bytes; past it the
  /// server stops reading that socket (TCP backpressure) until the
  /// peer consumes responses.
  std::size_t maxWriteQueueBytes = 4u << 20;
  /// Upper bound on the graceful drain, measured from when a serving
  /// thread takes the stop request.  Connections still busy at the
  /// deadline — a peer stalled mid-frame or one that never reads its
  /// responses — are force-closed, so a single slow or hostile client
  /// cannot block shutdown indefinitely.  0 waits forever.
  std::size_t drainTimeoutMs = 5000;
  /// Runs once during graceful drain, on the last serving thread to
  /// exit, after every in-flight response has been flushed and every
  /// socket closed.  molocd points this at
  /// LocalizationService::flushIntake so a SIGTERM durably lands every
  /// admitted observation.
  std::function<void()> drainHook;
};

/// The molocd TCP front end: `workerThreads` serving threads wait on
/// one shared epoll set and run each request to completion on the
/// thread that reads it (docs/serving.md, "Network serving").
///
///   - Every connection is registered EPOLLONESHOT.  The thread that
///     takes its readiness owns it until it re-arms it: it reads and
///     answers every complete frame in arrival order — the service's
///     per-session apply order, which keeps network-served results
///     bitwise-identical to in-process calls — sends the responses
///     itself (non-blocking), and re-arms with EPOLLIN and/or EPOLLOUT.
///   - Ownership changes hands only under the connection's mutex, so a
///     stale event finds the connection owned or free and is dropped.
///     Connection objects are recycled, never freed while the server
///     runs, and only the owner closes a descriptor.
///   - Overload maps to wire statuses, never to dropped connections.
///     A peer hanging up is a counted *clean disconnect*; framing
///     damage is a counted protocol error that drops the connection.
///
/// Graceful drain (requestStop(), typically from SIGTERM): the listener
/// closes after adopting its backlog; every request already delivered
/// to this host is answered; each connection closes once a read made
/// after the stop finds it quiet (the stopping thread visits idle
/// ones); past ServerConfig::drainTimeoutMs the rest are force-closed;
/// and the last serving thread out runs the drain hook.
class Server {
 public:
  /// Binds and starts serving immediately.  `service` must outlive
  /// the server.  Throws NetError when the address cannot be bound.
  explicit Server(service::LocalizationService& service,
                  ServerConfig config = {});

  /// requestStop() + waitUntilStopped().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually-bound port.
  std::uint16_t port() const { return port_; }

  /// Begins graceful drain.  Async-signal-safe (one eventfd write) so
  /// a SIGTERM handler may call it directly.  Idempotent.
  void requestStop();

  /// Blocks until every serving thread has drained and exited.
  void waitUntilStopped();

  bool stopped() const { return exited_.load(std::memory_order_acquire); }

  /// Point-in-time server counters (the Stats request returns these
  /// plus the service-side fields).
  ServerStats stats() const;

 private:
  enum class ConnState : std::uint8_t {
    kArmed,  ///< Registered for readiness; the next taker owns it.
    kOwned,  ///< One thread is reading, handling or writing it.
    kFree,   ///< Closed; waiting on the free list for a new socket.
  };

  /// Everything but `state` belongs to the connection's current owner;
  /// `mu` orders the hand-overs.
  struct Connection {
    util::Mutex mu;
    ConnState state MOLOC_GUARDED_BY(mu) = ConnState::kFree;
    int fd = -1;
    FrameAssembler assembler;
    /// Encoded responses not yet written to the socket.
    std::string outbuf;
    bool inputClosed = false;  ///< Peer EOF seen; no more reads.
  };

  /// How one pump() round left a connection.
  enum class Pump : std::uint8_t {
    kQuiet,     ///< Read until the socket had nothing more (or EOF).
    kBusy,      ///< Stopped reading early (write bound or turn
                ///< limit); more may wait.
    kPeerGone,  ///< EPIPE/ECONNRESET: a clean disconnect.
    kBroken,    ///< Protocol error or handler defect: a dirty drop.
  };

  void serve();
  /// Accepts until EAGAIN or the connection bound, then re-arms or
  /// parks the listener.
  void acceptReady() MOLOC_REQUIRES(poolMu_);
  /// Every connection object, live or free (objects are never freed
  /// while the server runs, so the pointers stay valid).
  std::vector<Connection*> snapshotPool();
  /// The stop event: adopt the backlog, close the listener, visit
  /// every idle connection once.
  void beginDrain();
  /// Force-closes every connection that is not owned right now (the
  /// owners of the rest close theirs when they next finish).
  void closeStragglers();
  /// Armed → owned; false when the connection is owned or free.
  static bool tryTake(Connection& conn);
  /// Owner-side: pumps `conn`, then re-arms or closes it.
  void serveConnection(Connection& conn);
  /// Reads, handles every complete frame in order, and writes.
  Pump pump(Connection& conn);
  /// Writes as much of conn.outbuf as the socket takes; false when
  /// the peer is gone.
  static bool flush(Connection& conn);
  /// Executes one decoded request; returns the encoded response frame.
  std::string handleFrame(const Frame& frame);
  std::string handleLocalize(const Frame& frame);
  std::string handleLocalizeBatch(const Frame& frame);
  std::string handleReportObservation(const Frame& frame);
  std::string handleFlush(const Frame& frame);
  std::string handleStats(const Frame& frame);
  /// Called inside a catch handler: answers the exception in flight
  /// with its wire status and message, counting protocol faults and
  /// overloads.
  template <typename Response>
  void answerFailure(Response& resp);
  /// Owner-side: closes the socket and returns `conn` to the free
  /// list; `clean` selects which counter ticks.
  void closeConnection(Connection& conn, bool clean);
  /// Wakes every serving thread to exit once the drain has nothing
  /// left open.
  void finishIfDrained() MOLOC_REQUIRES(poolMu_);

  service::LocalizationService& service_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  int epollFd_ = -1;
  /// eventfd made readable by requestStop().  One-shot, so one thread
  /// begins the drain; level-triggered once it is done, so all exit.
  int stopFd_ = -1;

  util::Mutex poolMu_;
  /// -1 once the drain closed it.
  int listenFd_ MOLOC_GUARDED_BY(poolMu_) = -1;
  /// At maxConnections the listener stays disarmed until a close.
  bool listenerParked_ MOLOC_GUARDED_BY(poolMu_) = false;
  std::size_t openConnections_ MOLOC_GUARDED_BY(poolMu_) = 0;
  /// Every connection object ever allocated; addresses are stable, so
  /// epoll events may carry them.
  std::vector<std::unique_ptr<Connection>> pool_ MOLOC_GUARDED_BY(poolMu_);
  std::vector<Connection*> free_ MOLOC_GUARDED_BY(poolMu_);

  /// Written once, before draining_ is released.
  std::chrono::steady_clock::time_point drainDeadline_{};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stragglersClosed_{false};
  std::atomic<bool> drained_{false};
  std::atomic<std::size_t> running_{0};
  std::atomic<bool> exited_{false};

  std::atomic<std::uint64_t> requestsServed_{0};
  std::atomic<std::uint64_t> connectionsAccepted_{0};
  std::atomic<std::uint64_t> cleanDisconnects_{0};
  std::atomic<std::uint64_t> overloadRejections_{0};
  std::atomic<std::uint64_t> protocolErrors_{0};

  std::vector<std::thread> threads_;
};

}  // namespace moloc::net

// QueryServer: the epoll front door over QueryService.
//
// One event-loop thread owns every socket; a small pool of dispatch workers
// owns every QueryService::Execute call. The split exists because Execute
// legitimately BLOCKS — admission queues park the caller, retry backoffs
// sleep — and a blocked event loop would stall every other connection. The
// loop therefore never executes a query: it parses frames, hands decoded
// requests to the workers, and flushes the response frames the workers
// encode, with an eventfd as the workers' doorbell.
//
// Per-connection discipline:
//
//   * Bounded buffers. The read buffer can hold at most one maximum-size
//     frame beyond what has been parsed (ExtractFrame rejects oversized
//     declared lengths from the header alone, so a hostile length field
//     never grows the buffer). Decoded-but-undispatched requests queue up
//     to Options::max_pending_requests; at the cap the connection's
//     EPOLLIN interest is dropped — backpressure, counted in
//     net.backpressure_pauses — and TCP flow control pushes back on the
//     client. Reading resumes as responses drain.
//   * Bounded output. A connection whose unflushed response bytes exceed
//     Options::max_frame_bytes is held — no dispatch and no reading, also
//     counted in net.backpressure_pauses — until HandleWritable drains it,
//     so a peer that pipelines requests and never reads costs at most
//     about two maximum-size frames of server memory.
//   * FIFO responses. Requests on one connection dispatch one at a time,
//     in arrival order, so responses come back in request order — the
//     protocol has no correlation ids, byte order IS the correlation.
//   * Fail closed. A hostile byte stream (bad magic, lying length, CRC
//     mismatch, malformed payload) closes the connection immediately; no
//     best-effort resynchronization, no error frame a confused peer could
//     misparse mid-stream. Counted in net.protocol_errors.
//   * Descriptor exhaustion sheds, never spins. When accept fails with
//     EMFILE/ENFILE the server frees a spare descriptor it holds for the
//     purpose, accepts the pending connection into it and closes it
//     (counted in net.connections_refused), then re-arms the spare — the
//     peer sees its connection end instead of hanging, and the level-
//     triggered listener stops firing.
//
// Shutdown() is a graceful drain: the listen socket closes first (new
// connections are refused by the kernel), reading stops everywhere (no new
// requests), every already-received request runs to completion and its
// response frame is flushed, and only then do connections close. A drain
// deadline (Options::drain_timeout) bounds the wait; connections still
// alive at the deadline are force-closed.

#ifndef MRPA_NET_SERVER_H_
#define MRPA_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "obs/obs.h"
#include "service/query_service.h"
#include "util/status.h"

namespace mrpa::net {

class QueryServer {
 public:
  struct Options {
    // 0 asks the kernel for an ephemeral port; read it back via port().
    uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
    // Accepted connections beyond this are closed immediately (counted in
    // net.connections_refused).
    size_t max_connections = 64;
    // Whole-frame cap enforced on both directions.
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    // Decoded requests a connection may have queued or executing before
    // the server stops reading from it.
    size_t max_pending_requests = 8;
    // Threads running QueryService::Execute. They block in admission
    // queues and backoff sleeps, so this is a concurrency cap on queries,
    // not on sockets.
    size_t dispatch_threads = 2;
    // Graceful-drain bound: connections still busy this long after
    // Shutdown() begins are force-closed.
    std::chrono::milliseconds drain_timeout{5000};
    // Metrics sink for the net.* counters and histograms. May be null.
    obs::ObsRegistry* obs = nullptr;
  };

  // The service must outlive the server.
  QueryServer(service::QueryService& service, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens, and spawns the event loop + dispatch workers.
  // kIOError on socket failures; kAlreadyExists if already running.
  Status Start();

  // Graceful drain (see the file comment). Idempotent; blocks until the
  // loop and every worker have joined.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  // Live connection count, for tests and operators.
  size_t active_connections() const {
    return conn_count_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::vector<uint8_t> in;   // Unparsed bytes off the socket.
    std::vector<uint8_t> out;  // Encoded response bytes not yet written.
    size_t out_pos = 0;        // Prefix of `out` already written.
    std::deque<WireRequest> requests;  // Decoded, awaiting dispatch.
    bool in_dispatch = false;  // One request is with the workers.
    bool paused = false;       // EPOLLIN dropped (backpressure or drain).
    // Requests received but not yet answered on the wire.
    size_t pending() const {
      return requests.size() + (in_dispatch ? 1 : 0);
    }
  };

  struct WorkItem {
    uint64_t conn_id = 0;
    WireRequest request;
    std::chrono::steady_clock::time_point received;
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::vector<uint8_t> frame;
  };

  void EventLoop();
  void DispatchWorker();

  // Event-loop-thread helpers.
  void HandleAccept();
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  // Parses complete frames out of conn.in (respecting the pending cap) and
  // dispatches; returns false when the stream turned hostile and the
  // connection was closed.
  bool ParseAndDispatch(Connection& conn);
  // Unflushed output beyond one maximum-size frame holds the connection:
  // no dispatch and no reading until HandleWritable drains it.
  bool OutputHeld(const Connection& conn) const;
  void MaybeDispatch(Connection& conn);
  void UpdateInterest(Connection& conn);
  void CloseConnection(uint64_t id);
  void DrainCompletions();
  void BeginDrainLocked();

  void Count(obs::Metric m, uint64_t n = 1) const;
  void Record(obs::Hist h, uint64_t v) const;

  service::QueryService& service_;
  Options options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  // Held open so that, once the process is out of descriptors, one can be
  // freed to accept-and-close the pending connection (see HandleAccept).
  int spare_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  bool drain_started_ = false;  // Event-loop thread only.
  std::chrono::steady_clock::time_point drain_deadline_;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Loop-thread-owned connection table; only the atomic count below is
  // visible to other threads.
  std::unordered_map<uint64_t, Connection> conns_;
  std::atomic<size_t> conn_count_{0};
  std::unordered_map<int, uint64_t> fd_to_id_;
  uint64_t next_conn_id_ = 1;

  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> work_;
  bool stop_workers_ = false;

  std::mutex done_mu_;
  std::deque<Completion> done_;
};

}  // namespace mrpa::net

#endif  // MRPA_NET_SERVER_H_

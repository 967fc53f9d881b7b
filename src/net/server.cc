#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace mrpa::net {

namespace {

constexpr size_t kReadChunkBytes = 64 * 1024;

Status Errno(const char* what) {
  return Status::IOError(std::string("net: ") + what + ": " +
                         std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int OpenSpareDescriptor() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

}  // namespace

QueryServer::QueryServer(service::QueryService& service, Options options)
    : service_(service), options_(std::move(options)) {
  if (options_.dispatch_threads == 0) options_.dispatch_threads = 1;
  if (options_.max_pending_requests == 0) options_.max_pending_requests = 1;
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::Count(obs::Metric m, uint64_t n) const {
  if (options_.obs != nullptr) options_.obs->Add(m, n);
}

void QueryServer::Record(obs::Hist h, uint64_t v) const {
  if (options_.obs != nullptr) options_.obs->Record(h, v);
}

Status QueryServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("net: server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("net: bad bind address " +
                                   options_.bind_address);
  }
  auto fail = [this](const char* what) {
    Status status = Errno(what);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (spare_fd_ >= 0) ::close(spare_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = spare_fd_ = -1;
    return status;
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  if (!SetNonBlocking(listen_fd_)) return fail("fcntl");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return fail("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail("epoll_ctl(listen)");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return fail("epoll_ctl(wake)");
  }
  spare_fd_ = OpenSpareDescriptor();
  if (spare_fd_ < 0) return fail("open(spare descriptor)");

  draining_.store(false, std::memory_order_release);
  drain_started_ = false;
  stop_workers_ = false;
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { EventLoop(); });
  workers_.reserve(options_.dispatch_threads);
  for (size_t i = 0; i < options_.dispatch_threads; ++i) {
    workers_.emplace_back([this] { DispatchWorker(); });
  }
  return Status::OK();
}

void QueryServer::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (spare_fd_ >= 0) ::close(spare_fd_);
  epoll_fd_ = wake_fd_ = spare_fd_ = -1;
  done_.clear();
  work_.clear();
  running_.store(false, std::memory_order_release);
}

// --- Dispatch workers -------------------------------------------------------

void QueryServer::DispatchWorker() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return stop_workers_ || !work_.empty(); });
      if (work_.empty()) return;  // stop_workers_ and the queue is drained.
      item = std::move(work_.front());
      work_.pop_front();
    }

    service::QueryRequest request;
    request.kind = item.request.kind;
    request.mode = item.request.mode;
    request.steps = std::move(item.request.steps);
    request.limits = item.request.limits;
    if (item.request.deadline_micros.has_value()) {
      // The wire carries REMAINING micros at client send time; re-root the
      // window at frame receipt so server-side queueing counts against it.
      request.deadline = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::microseconds(*item.request.deadline_micros));
    }

    Result<service::QueryResponse> executed =
        service_.Execute(item.request.tenant, request);
    Count(obs::Metric::kNetRequestsDispatched);

    WireResponse response;
    if (executed.ok()) {
      response = MakeWireResponse(*executed, item.request.mode);
    } else {
      response.outcome = executed.status();
      response.mode = item.request.mode;
    }
    Result<std::vector<uint8_t>> frame =
        EncodeResponseFrame(response, options_.max_frame_bytes);
    if (!frame.ok()) {
      // The answer outgrew the frame cap: degrade at the sender. The error
      // outcome is still a small, well-formed frame.
      WireResponse oversized;
      oversized.outcome = frame.status();
      oversized.mode = item.request.mode;
      frame = EncodeResponseFrame(oversized, options_.max_frame_bytes);
    }
    Record(obs::Hist::kNetRequestNanos,
           static_cast<uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - item.received)
                   .count()));

    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(Completion{item.conn_id, std::move(*frame)});
    }
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

// --- Event loop -------------------------------------------------------------

void QueryServer::EventLoop() {
  std::vector<epoll_event> events(64);
  for (;;) {
    if (draining_.load(std::memory_order_acquire) && !drain_started_) {
      drain_started_ = true;
      drain_deadline_ = std::chrono::steady_clock::now() +
                        options_.drain_timeout;
      // Refuse new connections at the kernel: the listen socket goes away.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      // Stop reading everywhere — no new requests — and close connections
      // with nothing in flight. Collect ids first: CloseConnection erases.
      std::vector<uint64_t> ids;
      ids.reserve(conns_.size());
      for (auto& [id, conn] : conns_) {
        conn.paused = true;
        UpdateInterest(conn);
        ids.push_back(id);
      }
      for (uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it != conns_.end() && it->second.pending() == 0 &&
            it->second.out_pos >= it->second.out.size()) {
          CloseConnection(id);
        }
      }
    }
    if (drain_started_) {
      if (conns_.empty()) return;
      if (std::chrono::steady_clock::now() >= drain_deadline_) {
        std::vector<uint64_t> ids;
        ids.reserve(conns_.size());
        for (const auto& [id, conn] : conns_) ids.push_back(id);
        for (uint64_t id : ids) CloseConnection(id);
        return;
      }
    }

    int timeout_ms = 100;
    if (drain_started_) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          drain_deadline_ - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(
          std::max<int64_t>(0, std::min<int64_t>(left.count(), 100)));
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll itself failed; nothing recoverable.
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t mask = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      if (fd == listen_fd_ && listen_fd_ >= 0) {
        HandleAccept();
        continue;
      }
      auto id_it = fd_to_id_.find(fd);
      if (id_it == fd_to_id_.end()) continue;  // Closed earlier this batch.
      const uint64_t id = id_it->second;
      if ((mask & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(id);
        continue;
      }
      if ((mask & EPOLLIN) != 0) {
        auto it = conns_.find(id);
        if (it != conns_.end()) HandleReadable(it->second);
      }
      if ((mask & EPOLLOUT) != 0) {
        auto it = conns_.find(id);
        if (it != conns_.end()) HandleWritable(it->second);
      }
    }
  }
}

void QueryServer::HandleAccept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // Out of descriptors, the pending connection keeps the level-
      // triggered listener readable, so returning would spin the loop.
      // Shed it instead: free the spare, accept into it, close, re-arm.
      if ((errno == EMFILE || errno == ENFILE) && spare_fd_ >= 0) {
        ::close(spare_fd_);
        const int shed = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (shed >= 0) {
          ::close(shed);
          Count(obs::Metric::kNetConnectionsRefused);
        }
        spare_fd_ = OpenSpareDescriptor();
        if (shed >= 0) continue;
      }
      return;  // EAGAIN or a transient accept failure.
    }
    if (conns_.size() >= options_.max_connections ||
        draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      Count(obs::Metric::kNetConnectionsRefused);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      Count(obs::Metric::kNetConnectionsRefused);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    fd_to_id_[fd] = id;
    conn_count_.store(conns_.size(), std::memory_order_release);
    Count(obs::Metric::kNetConnectionsAccepted);
  }
}

void QueryServer::HandleReadable(Connection& conn) {
  uint8_t chunk[kReadChunkBytes];
  for (;;) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      if (!ParseAndDispatch(conn)) return;  // Connection closed.
      if (conn.paused) return;  // Backpressure: leave the rest in the kernel.
      continue;
    }
    if (n == 0) {  // Peer closed. The protocol is strictly request/response;
      CloseConnection(conn.id);  // a half-closed peer has nothing to wait for.
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(conn.id);
    return;
  }
}

bool QueryServer::ParseAndDispatch(Connection& conn) {
  size_t consumed = 0;
  // Parse while under the pending cap; bytes beyond it stay buffered (and
  // the cap also stops further reads below).
  while (conn.pending() < options_.max_pending_requests) {
    const std::span<const uint8_t> rest(conn.in.data() + consumed,
                                        conn.in.size() - consumed);
    const ExtractResult extracted =
        ExtractFrame(rest, options_.max_frame_bytes);
    if (extracted.state == FrameState::kNeedMore) break;
    if (extracted.state == FrameState::kError ||
        extracted.header.type != FrameType::kRequest) {
      Count(obs::Metric::kNetProtocolErrors);
      CloseConnection(conn.id);
      return false;
    }
    Result<WireRequest> request = DecodeRequestPayload(
        rest.subspan(kFrameHeaderBytes,
                     extracted.frame_bytes - kFrameHeaderBytes));
    if (!request.ok()) {
      Count(obs::Metric::kNetProtocolErrors);
      CloseConnection(conn.id);
      return false;
    }
    Count(obs::Metric::kNetFramesRead);
    Record(obs::Hist::kNetFrameBytes, extracted.frame_bytes);
    conn.requests.push_back(std::move(*request));
    consumed += extracted.frame_bytes;
  }
  if (consumed > 0) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<ptrdiff_t>(consumed));
  }
  MaybeDispatch(conn);
  const bool should_pause =
      conn.pending() >= options_.max_pending_requests || OutputHeld(conn) ||
      drain_started_;
  if (should_pause && !conn.paused) {
    conn.paused = true;
    if (!drain_started_) Count(obs::Metric::kNetBackpressurePauses);
    UpdateInterest(conn);
  }
  return true;
}

bool QueryServer::OutputHeld(const Connection& conn) const {
  return conn.out.size() - conn.out_pos > options_.max_frame_bytes;
}

void QueryServer::MaybeDispatch(Connection& conn) {
  if (conn.in_dispatch || conn.requests.empty() || OutputHeld(conn)) return;
  WorkItem item;
  item.conn_id = conn.id;
  item.request = std::move(conn.requests.front());
  conn.requests.pop_front();
  item.received = std::chrono::steady_clock::now();
  conn.in_dispatch = true;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_.push_back(std::move(item));
  }
  work_cv_.notify_one();
}

void QueryServer::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (Completion& done : batch) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // Closed while the query ran.
    Connection& conn = it->second;
    Count(obs::Metric::kNetFramesWritten);
    Record(obs::Hist::kNetFrameBytes, done.frame.size());
    conn.out.insert(conn.out.end(), done.frame.begin(), done.frame.end());
    conn.in_dispatch = false;
    // Flush what the socket takes now; HandleWritable then dispatches the
    // next request and resumes reading, unless the output holds them.
    HandleWritable(conn);
    auto again = conns_.find(done.conn_id);
    if (again != conns_.end() && OutputHeld(again->second)) {
      // Nothing more is dispatched for this connection until its output
      // drains, so each hold is counted once.
      Count(obs::Metric::kNetBackpressurePauses);
    }
  }
}

void QueryServer::HandleWritable(Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_pos,
                              conn.out.size() - conn.out_pos);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn.id);
    return;
  }
  if (conn.out_pos >= conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
    if (drain_started_ && conn.pending() == 0) {
      // Fully drained: every received request is answered and flushed.
      CloseConnection(conn.id);
      return;
    }
  } else if (conn.out_pos >= conn.out.size() - conn.out_pos) {
    // Drop the written prefix once it outweighs the rest, so a slow
    // reader's buffer stays within twice its unflushed bytes.
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<ptrdiff_t>(conn.out_pos));
    conn.out_pos = 0;
  }
  if (OutputHeld(conn)) {
    conn.paused = true;  // Hold reading as well as dispatch.
  } else {
    MaybeDispatch(conn);
    // Room freed: resume reading (never during drain).
    if (conn.paused && !drain_started_ &&
        conn.pending() < options_.max_pending_requests) {
      conn.paused = false;
      // Bytes may have queued in conn.in while paused; parse them now.
      if (!ParseAndDispatch(conn)) return;
    }
  }
  UpdateInterest(conn);
}

void QueryServer::UpdateInterest(Connection& conn) {
  epoll_event ev{};
  ev.events = 0;
  if (!conn.paused) ev.events |= EPOLLIN;
  if (conn.out_pos < conn.out.size()) ev.events |= EPOLLOUT;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void QueryServer::CloseConnection(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  const int fd = it->second.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  fd_to_id_.erase(fd);
  conns_.erase(it);
  conn_count_.store(conns_.size(), std::memory_order_release);
}

}  // namespace mrpa::net

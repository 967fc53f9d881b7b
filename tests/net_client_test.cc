// End-to-end client/server tests over real sockets: QueryClient speaking
// the wire protocol to a QueryServer on a loopback ephemeral port, with
// QueryService underneath. What is proven here:
//
//   * answers through the network equal answers from a direct
//     QueryService::Execute against the same snapshot, for every answer
//     mode (the single-version differential; net_chaos_test does the
//     hot-swap version);
//   * the retry taxonomy holds across the wire — admission sheds and
//     transport failures retry (including a reconnect to a restarted
//     server), budget trips and deadlines are terminal;
//   * graceful drain: Shutdown() refuses new connections, completes the
//     in-flight request with a well-formed response frame, and ends with
//     zero live connections;
//   * descriptor exhaustion: out of file descriptors, the server sheds
//     the pending connection instead of leaving it hanging.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "service/snapshot_registry.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_universe.h"
#include "storage/snapshot_writer.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mrpa::net {
namespace {

using service::QueryKind;
using service::QueryService;
using service::SnapshotRegistry;
using service::TenantQuota;
using storage::SnapshotReader;
using storage::SnapshotUniverse;
using storage::SnapshotWriter;

MultiRelationalGraph MakeContent() {
  ErdosRenyiParams params;
  params.num_vertices = 22;
  params.num_labels = 3;
  params.num_edges = 100;
  params.seed = 77;
  return GenerateErdosRenyi(params).value();
}

// Everything a test needs to talk to a served snapshot, torn down in
// reverse order by ~TestStack.
struct TestStack {
  obs::ObsRegistry obs;
  ThreadPool pool{2};
  SnapshotRegistry registry{&obs};
  std::unique_ptr<QueryService> service;
  std::unique_ptr<QueryServer> server;

  explicit TestStack(size_t service_attempts = 3) {
    QueryService::Options options;
    options.obs = &obs;
    options.pool = &pool;
    options.retry.max_attempts = service_attempts;
    options.retry.initial_backoff = std::chrono::microseconds(50);
    options.retry.max_backoff = std::chrono::microseconds(500);
    service = std::make_unique<QueryService>(registry, options);

    auto bytes = SnapshotWriter().Serialize(MakeContent());
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    auto universe = SnapshotReader().FromBuffer(*bytes);
    EXPECT_TRUE(universe.ok()) << universe.status();
    auto version = registry.HotSwap(std::move(*universe));
    EXPECT_TRUE(version.ok()) << version.status();

    TenantQuota generous;
    generous.max_in_flight = 8;
    generous.query_limits.max_steps = 100000;
    EXPECT_TRUE(service->RegisterTenant("tenant", generous).ok());
  }

  Status Serve(QueryServer::Options server_options = {}) {
    server_options.obs = &obs;
    server = std::make_unique<QueryServer>(*service, server_options);
    return server->Start();
  }
};

std::vector<EdgePattern> Steps() {
  return {EdgePattern::LabeledAnyOf({0, 1}),
          EdgePattern(IdConstraint(), IdConstraint::Exactly(1),
                      IdConstraint())};
}

WireRequest MakeRequest(AnswerMode mode,
                        QueryKind kind = QueryKind::kTraversal) {
  WireRequest request;
  request.tenant = "tenant";
  request.kind = kind;
  request.mode = mode;
  request.steps = Steps();
  return request;
}

TEST(NetClientTest, ExecuteMatchesDirectServiceForEveryMode) {
  TestStack stack;
  ASSERT_TRUE(stack.Serve().ok());
  QueryClient client("127.0.0.1", stack.server->port());

  for (const QueryKind kind :
       {QueryKind::kTraversal, QueryKind::kChainForward,
        QueryKind::kChainBackward}) {
    // The direct oracle: same tenant, same snapshot (no swaps here).
    service::QueryRequest direct;
    direct.kind = kind;
    direct.steps = Steps();
    auto expected = stack.service->Execute("tenant", direct);
    ASSERT_TRUE(expected.ok()) << expected.status();

    for (const AnswerMode mode :
         {AnswerMode::kPaths, AnswerMode::kCount, AnswerMode::kExists}) {
      const WireResponse oracle = MakeWireResponse(*expected, mode);
      size_t attempts = 0;
      auto got = client.Execute(MakeRequest(mode, kind), &attempts);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(attempts, 1u);
      EXPECT_TRUE(got->outcome.ok());
      EXPECT_EQ(got->truncated, oracle.truncated);
      EXPECT_EQ(got->limit, oracle.limit);
      EXPECT_EQ(got->snapshot_version, oracle.snapshot_version);
      EXPECT_EQ(got->mode, mode);
      EXPECT_EQ(got->paths, oracle.paths);
      EXPECT_EQ(got->count, oracle.count);
      EXPECT_EQ(got->exists, oracle.exists);
    }
  }
}

TEST(NetClientTest, UnknownTenantIsATerminalErrorOutcome) {
  TestStack stack;
  ASSERT_TRUE(stack.Serve().ok());
  QueryClient client("127.0.0.1", stack.server->port());
  WireRequest request = MakeRequest(AnswerMode::kPaths);
  request.tenant = "nobody";
  size_t attempts = 0;
  auto got = client.Execute(request, &attempts);
  ASSERT_TRUE(got.ok()) << got.status();  // The frame came back fine...
  EXPECT_TRUE(got->outcome.IsNotFound());  // ...carrying the service error.
  EXPECT_EQ(attempts, 1u);
}

TEST(NetClientTest, ShedRetriesAndRecovers) {
  // Service-side retries off (max_attempts = 1): one injected admission
  // failure becomes one shed ON THE WIRE, and recovery must come from the
  // CLIENT's retry loop.
  TestStack stack(/*service_attempts=*/1);
  ASSERT_TRUE(stack.Serve().ok());
  QueryClient::Options client_options;
  client_options.retry.initial_backoff = std::chrono::microseconds(100);
  QueryClient client("127.0.0.1", stack.server->port(), client_options);

  ScopedFault fault(service::kFaultSiteServiceAdmit, 1,
                    Status::ResourceExhausted("injected shed"));
  size_t attempts = 0;
  auto got = client.Execute(MakeRequest(AnswerMode::kCount), &attempts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(attempts, 2u);  // Shed once, clean on the retry.
  EXPECT_TRUE(got->outcome.ok());
  EXPECT_FALSE(got->truncated);
  EXPECT_GT(got->snapshot_version, 0u);
}

TEST(NetClientTest, PersistentShedDegradesAfterRetryBudget) {
  // A starved token bucket (one token ever, microscopic refill) with no
  // queue: every admission after the first sheds immediately. The client
  // must spend its whole retry budget and then return the degraded shed
  // shape — OK, truncated, version 0 — exactly like the in-process service.
  TestStack stack(/*service_attempts=*/1);
  TenantQuota starved;
  starved.qps = 1e-6;
  starved.burst = 1;
  starved.max_queued = 0;
  ASSERT_TRUE(stack.service->RegisterTenant("starved", starved).ok());
  ASSERT_TRUE(stack.Serve().ok());

  QueryClient::Options client_options;
  client_options.retry.max_attempts = 3;
  client_options.retry.initial_backoff = std::chrono::microseconds(100);
  QueryClient client("127.0.0.1", stack.server->port(), client_options);

  WireRequest request = MakeRequest(AnswerMode::kPaths);
  request.tenant = "starved";
  size_t attempts = 0;
  auto warm = client.Execute(request, &attempts);  // Takes the one token.
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm->outcome.ok());
  ASSERT_FALSE(warm->truncated);

  auto shed = client.Execute(request, &attempts);
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(attempts, 3u);  // Every attempt shed; budget exhausted.
  EXPECT_TRUE(shed->outcome.ok());
  EXPECT_TRUE(shed->truncated);
  EXPECT_TRUE(shed->limit.IsResourceExhausted());
  EXPECT_EQ(shed->snapshot_version, 0u);  // The shed discriminator.
  EXPECT_TRUE(shed->paths.empty());
}

TEST(NetClientTest, BudgetTripIsTerminalNotRetried) {
  TestStack stack;
  TenantQuota tight;
  tight.query_limits.max_paths = 1;  // Guaranteed trip on this content.
  ASSERT_TRUE(stack.service->RegisterTenant("tight", tight).ok());
  ASSERT_TRUE(stack.Serve().ok());
  QueryClient client("127.0.0.1", stack.server->port());

  WireRequest request = MakeRequest(AnswerMode::kPaths);
  request.tenant = "tight";
  size_t attempts = 0;
  auto got = client.Execute(request, &attempts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(attempts, 1u);  // The partial answer IS the answer.
  EXPECT_TRUE(got->truncated);
  EXPECT_TRUE(got->limit.IsResourceExhausted());
  EXPECT_GT(got->snapshot_version, 0u);  // Trip, not shed: not retryable.
}

TEST(NetClientTest, DeadlineAlreadySpentIsTerminal) {
  TestStack stack;
  ASSERT_TRUE(stack.Serve().ok());
  QueryClient client("127.0.0.1", stack.server->port());
  WireRequest request = MakeRequest(AnswerMode::kExists);
  request.deadline_micros = 0;  // Nothing left before the first attempt.
  size_t attempts = 0;
  auto got = client.Execute(request, &attempts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(attempts, 0u);
  EXPECT_TRUE(got->truncated);
  EXPECT_TRUE(got->limit.IsDeadlineExceeded());
}

TEST(NetClientTest, TransportFailureReconnectsToRestartedServer) {
  TestStack stack;
  ASSERT_TRUE(stack.Serve().ok());
  const uint16_t port = stack.server->port();
  QueryClient::Options client_options;
  client_options.retry.initial_backoff = std::chrono::milliseconds(2);
  QueryClient client("127.0.0.1", port, client_options);

  size_t attempts = 0;
  auto warm = client.Execute(MakeRequest(AnswerMode::kCount), &attempts);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(attempts, 1u);

  // Bounce the server; the client still holds the dead connection. Its
  // first attempt fails in transport, and the retry must reconnect to the
  // reincarnation on the same port (SO_REUSEADDR).
  stack.server->Shutdown();
  QueryServer::Options same_port;
  same_port.port = port;
  ASSERT_TRUE(stack.Serve(same_port).ok());
  ASSERT_EQ(stack.server->port(), port);

  auto got = client.Execute(MakeRequest(AnswerMode::kCount), &attempts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_GE(attempts, 2u);
  EXPECT_TRUE(got->outcome.ok());
  EXPECT_EQ(got->count, warm->count);
}

TEST(NetClientTest, TransportExhaustionSurfacesIOError) {
  // Find a port with no listener by binding an ephemeral port and closing
  // it again.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  QueryClient::Options client_options;
  client_options.retry.max_attempts = 2;
  client_options.retry.initial_backoff = std::chrono::microseconds(200);
  QueryClient client("127.0.0.1", dead_port, client_options);
  size_t attempts = 0;
  auto got = client.Execute(MakeRequest(AnswerMode::kPaths), &attempts);
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError()) << got.status();
  EXPECT_EQ(attempts, 2u);  // Connect refused is retryable; it just never
}                           // healed.

TEST(NetClientTest, GracefulDrainFinishesInFlightAndRefusesNew) {
  TestStack stack;
  ASSERT_TRUE(stack.Serve().ok());
  const uint16_t port = stack.server->port();

  // A raw socket so the test controls timing: send one request, then begin
  // the drain while its response is still in flight.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  auto frame = EncodeRequestFrame(MakeRequest(AnswerMode::kPaths));
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(::send(fd, frame->data(), frame->size(), 0),
            static_cast<ssize_t>(frame->size()));

  // Wait until the server has actually picked the request up, so Shutdown
  // finds it in flight rather than unread in a kernel buffer.
  const auto pickup_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stack.obs.Value(obs::Metric::kNetRequestsDispatched) == 0 &&
         std::chrono::steady_clock::now() < pickup_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(stack.obs.Value(obs::Metric::kNetRequestsDispatched), 0u);

  stack.server->Shutdown();  // Blocks until the drain completes.

  // The in-flight request's response must have been flushed, well-formed,
  // before the connection closed.
  std::vector<uint8_t> in;
  uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // Orderly EOF after the frame.
    in.insert(in.end(), chunk, chunk + n);
  }
  ::close(fd);
  const ExtractResult extracted = ExtractFrame(in);
  ASSERT_EQ(extracted.state, FrameState::kFrame) << extracted.error;
  EXPECT_EQ(extracted.frame_bytes, in.size());  // Exactly one whole frame.
  auto response = DecodeResponsePayload(std::span<const uint8_t>(in).subspan(
      kFrameHeaderBytes, extracted.frame_bytes - kFrameHeaderBytes));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->outcome.ok());

  // Drained: no live connections, and the door is shut for newcomers.
  EXPECT_EQ(stack.server->active_connections(), 0u);
  const int late = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(late, 0);
  EXPECT_NE(::connect(late, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::close(late);
}

TEST(NetClientTest, HostileBytesGetTheConnectionClosed) {
  TestStack stack;
  ASSERT_TRUE(stack.Serve().ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(stack.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, 0), 0);
  uint8_t chunk[64];
  const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);  // Blocks till close.
  EXPECT_LE(n, 0);  // No error frame, no resync: the connection just ends.
  ::close(fd);
  // And the server is unharmed for well-behaved peers.
  QueryClient client("127.0.0.1", stack.server->port());
  auto got = client.Execute(MakeRequest(AnswerMode::kExists));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->outcome.ok());
}

// Descriptor exhaustion: while the process is out of file descriptors the
// server cannot accept. It must shed the pending connection — the peer sees
// it end — instead of spinning on its level-triggered listener with the
// peer hanging, and serve again once descriptors free up.
TEST(NetClientTest, DescriptorExhaustionShedsInsteadOfHanging) {
  TestStack stack;
  ASSERT_TRUE(stack.Serve().ok());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(stack.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int over = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(over, 0);

  // Lower the soft limit to just above the descriptor table and fill what
  // is left of it, so the server's next accept fails with EMFILE.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur =
      std::min<rlim_t>(saved.rlim_cur, static_cast<rlim_t>(over) + 16);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(over)) >= 0;) fillers.push_back(fd);
  const int fill_errno = errno;

  const int connected = ::connect(
      over, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  pollfd ends{over, POLLIN, 0};
  const int ready = ::poll(&ends, 1, /*timeout=*/3000);
  ssize_t received = 1;
  if (ready == 1) {
    uint8_t byte = 0;
    received = ::recv(over, &byte, 1, 0);
  }

  // Give the descriptors back before asserting anything.
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ::close(over);

  EXPECT_EQ(fill_errno, EMFILE);
  EXPECT_EQ(connected, 0);
  EXPECT_EQ(ready, 1) << "the over-limit connection was left hanging";
  EXPECT_LE(received, 0);  // Closed (EOF or reset), never served.
  EXPECT_GE(stack.obs.Value(obs::Metric::kNetConnectionsRefused), 1u);

  QueryClient client("127.0.0.1", stack.server->port());
  auto got = client.Execute(MakeRequest(AnswerMode::kExists));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->outcome.ok());
}

// A peer that pipelines requests and never reads must not grow the
// server's output without bound: once its unflushed answers exceed one
// maximum-size frame, the server stops dispatching (and reading) its
// requests. When the peer reads again, every answer arrives, in order.
TEST(NetClientTest, NonReadingPeerHoldsDispatchUntilItReads) {
  TestStack stack;
  QueryServer::Options options;
  options.max_frame_bytes = 64 << 10;
  ASSERT_TRUE(stack.Serve(options).ok());

  // Request i asks for the first 1000 + i % 100 three-step paths: an
  // answer of about 40 KB, well above what the kernel's socket buffers hold
  // in total, whose size tells the answers apart.
  constexpr size_t kRequests = 2000;
  const std::vector<EdgePattern> steps(3, EdgePattern::Any());
  service::QueryRequest all;
  all.steps = steps;
  auto everything = stack.service->Execute("tenant", all);
  ASSERT_TRUE(everything.ok()) << everything.status();
  ASSERT_GE(everything->result.paths.size(), 1100u);
  std::vector<uint8_t> stream;
  for (size_t i = 0; i < kRequests; ++i) {
    WireRequest request = MakeRequest(AnswerMode::kPaths);
    request.steps = steps;
    request.limits.max_paths = 1000 + i % 100;
    auto frame = EncodeRequestFrame(request);
    ASSERT_TRUE(frame.ok()) << frame.status();
    stream.insert(stream.end(), frame->begin(), frame->end());
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(stack.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // Sent from a second thread: once the server holds the connection, the
  // unread requests fill the socket buffers and the send blocks until this
  // thread reads. However the test ends, the socket is shut down (which
  // ends a blocked send) and the writer joined before the stream goes.
  std::thread writer([&] {
    for (size_t sent = 0; sent < stream.size();) {
      const ssize_t n = ::send(fd, stream.data() + sent, stream.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  });
  struct StopWriter {
    std::thread& writer;
    int fd;
    ~StopWriter() {
      ::shutdown(fd, SHUT_RDWR);
      writer.join();
      ::close(fd);
    }
  } stop_writer{writer, fd};

  // Wait until dispatching stops moving (or 10 s pass).
  uint64_t dispatched = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int unchanged = 0;
       unchanged < 5 && std::chrono::steady_clock::now() < give_up;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t now = stack.obs.Value(obs::Metric::kNetRequestsDispatched);
    unchanged = now == dispatched ? unchanged + 1 : 0;
    dispatched = now;
  }
  EXPECT_LT(dispatched, kRequests / 4);
  EXPECT_GE(stack.obs.Value(obs::Metric::kNetBackpressurePauses), 1u);

  std::vector<uint8_t> in;
  std::vector<uint8_t> chunk(64 << 10);
  size_t answered = 0;
  while (answered < kRequests) {
    const ExtractResult extracted = ExtractFrame(in, options.max_frame_bytes);
    if (extracted.state == FrameState::kFrame) {
      auto response = DecodeResponsePayload(
          std::span<const uint8_t>(in).subspan(
              kFrameHeaderBytes, extracted.frame_bytes - kFrameHeaderBytes));
      ASSERT_TRUE(response.ok()) << response.status();
      ASSERT_TRUE(response->outcome.ok()) << response->outcome;
      ASSERT_EQ(response->paths.size(), 1000 + answered % 100)
          << "answer " << answered;
      in.erase(in.begin(),
               in.begin() + static_cast<ptrdiff_t>(extracted.frame_bytes));
      ++answered;
      continue;
    }
    ASSERT_EQ(extracted.state, FrameState::kNeedMore);
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    ASSERT_GT(n, 0) << "the server closed after " << answered << " answers";
    in.insert(in.end(), chunk.begin(), chunk.begin() + n);
  }
  EXPECT_EQ(stack.obs.Value(obs::Metric::kNetRequestsDispatched), kRequests);
}

}  // namespace
}  // namespace mrpa::net

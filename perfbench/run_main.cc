// perfbench_run: the timed process of the serving-stack benchmark.
//
//   perfbench_run --workload W --seed N --seconds S --dir D
//                 [--trace 0|1] [--trace-out FILE] [--counts]
//
// It builds, in this one process, the stack a deployment runs — graph →
// storage → service → net, with delta for writes — from the generated
// inputs in D, drives it through QueryClient over loopback, checks every
// answer, and prints one JSON object as the last line of stdout:
//
//   --trace 0  the end-to-end metrics (setup_s, qps, latencies, CPU, RSS,
//              write latency and fold visibility);
//   --trace 1  the per-layer metrics: spans around each public call the
//              benchmark makes, from a remote pass and a separate replay
//              pass below the service boundary (perfbench/README.md);
//   --counts   the deterministic counts only (check_determinism.py).
//
// Deployment settings follow examples/query_server: a 2-thread evaluation
// pool, 2 dispatch threads, no deadlines or budgets, tenant caps above the
// connection count. No metrics registry is attached anywhere: attaching one
// recalibrates density thresholds and enables deadline-based admission
// rejects, which would measure a different program.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_inputs.h"
#include "compiler/compiler.h"
#include "core/expr.h"
#include "core/traversal.h"
#include "delta/compactor.h"
#include "delta/delta_overlay.h"
#include "engine/chain_planner.h"
#include "graph/io.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "service/snapshot_registry.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "trace.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using mrpa::Edge;
using mrpa::EdgeHash;
using mrpa::EdgePattern;
using mrpa::ExecContext;
using mrpa::GovernedPathSet;
using mrpa::Path;
using mrpa::PathSet;
using mrpa::Result;
using mrpa::Status;
using mrpa::net::AnswerMode;
using mrpa::net::WireRequest;
using mrpa::net::WireResponse;
using mrpa::service::QueryKind;
using EdgeSet = std::unordered_set<Edge, EdgeHash>;

// Set-ups per run, half before the reads and half after the writes, so
// that they lie about half a minute apart. setup_s is their median, not
// the fastest: on a shared host one set-up can take half again as long as
// another in the same run, so the fastest depends on whether the run caught
// a quiet moment.
constexpr size_t kSetupsBefore = 3;
constexpr size_t kSetupsAfter = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kClients = 2;
constexpr size_t kPoolThreads = 2;
constexpr size_t kDispatchThreads = 2;
// Folds of the write probe that read-only workloads run after their reads.
constexpr size_t kProbeFolds = 16;
// Traced run: share of --seconds for each remote sub-pass (untraced and
// traced), the blocks they are cut into, replay sizes.
constexpr double kTracedPassShare = 0.25;
constexpr size_t kTracedBlocks = 8;
constexpr size_t kPointReplays = 512;
constexpr size_t kSummaryReplaysPerShape = 64;
constexpr size_t kFoldReplays = 5;
constexpr size_t kCompileSamples = 6;
constexpr size_t kRunsPerCompile = 10;

struct Args {
  Workload workload = Workload::kRemotePoint;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool counts_only = false;
  std::string dir;
  std::string trace_out;
};

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_run: " << message << "\n";
  std::exit(1);
}

// Operations attempted and failed, by kind, plus the first few reasons.
class Tally {
 public:
  void Ok(const char* kind) { Count(kind, ""); }
  void Fail(const char* kind, const std::string& why) { Count(kind, why); }
  // A failed check that is not an operation (a cross-check, an invariant).
  void Violation(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++violations_;
    Note(why);
  }

  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Sum(0);
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Sum(1);
  }
  bool correct() const {
    std::lock_guard<std::mutex> lock(mu_);
    return violations_ == 0 && Sum(1) == 0;
  }
  void Report(std::ostream& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [kind, c] : counts_) {
      out << "  " << kind << ": attempted " << c[0] << ", failed " << c[1]
          << "\n";
    }
    out << "  check violations: " << violations_ << "\n";
    for (const std::string& why : notes_) out << "  failure: " << why << "\n";
  }

 private:
  void Count(const char* kind, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& c = counts_[kind];
    ++c[0];
    if (!why.empty()) {
      ++c[1];
      Note(std::string(kind) + ": " + why);
    }
  }
  void Note(const std::string& why) {
    if (notes_.size() < 10) notes_.push_back(why);
  }
  uint64_t Sum(int column) const {
    uint64_t total = 0;
    for (const auto& entry : counts_) total += entry.second[column];
    return total;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::array<uint64_t, 2>> counts_;
  uint64_t violations_ = 0;
  std::vector<std::string> notes_;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  std::string graph_path;
  std::string image_path;
  std::vector<WireRequest> requests;
  std::vector<Verdict> churn;
  EdgeSet churned;  // Every edge the churn stream touches.
};

Inputs LoadInputs(const std::string& dir) {
  Inputs in;
  in.graph_path = dir + "/" + kGraphFile;
  in.image_path = dir + "/image.mrgs";
  auto requests = ReadRequests(dir + "/" + kRequestsFile);
  if (!requests || requests->empty()) Die("no request pool in " + dir);
  in.requests = std::move(*requests);
  std::ifstream churn(dir + "/" + kChurnFile);
  for (std::string line; std::getline(churn, line);) {
    auto verdict = ParseVerdict(line);
    if (!verdict) Die("malformed churn line: " + line);
    in.churn.push_back(*verdict);
    in.churned.insert(verdict->edge);
  }
  return in;
}

// ---------------------------------------------------------------------------
// The serving stack.

class Stack {
 public:
  Stack() : pool_(kPoolThreads), service_(registry_, ServiceOptions(&pool_)) {
    mrpa::service::TenantQuota quota;  // No rate limit, no budgets.
    quota.max_in_flight = 8;
    quota.max_queued = 16;
    if (!service_.RegisterTenant(kTenant, quota).ok()) Die("tenant");
  }

  Status Serve() {
    mrpa::net::QueryServer::Options options;
    options.dispatch_threads = kDispatchThreads;
    if (options.obs != nullptr) Die("a metrics registry is attached");
    server_ = std::make_unique<mrpa::net::QueryServer>(service_, options);
    return server_->Start();
  }

  mrpa::ThreadPool& pool() { return pool_; }
  mrpa::service::SnapshotRegistry& registry() { return registry_; }
  mrpa::service::QueryService& service() { return service_; }
  uint16_t port() const { return server_->port(); }

 private:
  static mrpa::service::QueryService::Options ServiceOptions(
      mrpa::ThreadPool* pool) {
    mrpa::service::QueryService::Options options;
    options.pool = pool;
    if (options.obs != nullptr || options.admission.obs != nullptr) {
      Die("a metrics registry is attached");
    }
    return options;
  }

  mrpa::ThreadPool pool_;
  mrpa::service::SnapshotRegistry registry_{nullptr};
  mrpa::service::QueryService service_;
  std::unique_ptr<mrpa::net::QueryServer> server_;  // Stops first.
};

// Clients make one wire attempt per call: a retried shed or transport error
// would otherwise come back as an answer and hide the failure.
std::unique_ptr<mrpa::net::QueryClient> Connect(uint16_t port) {
  mrpa::net::QueryClient::Options options;
  options.retry.max_attempts = 1;
  auto client =
      std::make_unique<mrpa::net::QueryClient>("127.0.0.1", port, options);
  if (!client->Connect().ok()) Die("cannot connect to the server");
  return client;
}

struct Setup {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<mrpa::net::QueryClient> client;
  double seconds = 0;
  size_t image_bytes = 0;
  size_t edges = 0;
};

// ReadGraphFile → WriteFile → MapFile → HotSwap → Start → first answer,
// timed as setup_s. The parsed graph is released once its image is written:
// the deployment serves the image.
Setup SetUpOnce(const Inputs& in, SpanLog* log, Tally& tally) {
  Setup s;
  const int64_t start = NowNanos();
  s.stack = std::make_unique<Stack>();
  {
    const int64_t t0 = NowNanos();
    auto graph = mrpa::ReadGraphFile(in.graph_path);
    const int64_t t1 = NowNanos();
    if (!graph.ok()) Die(graph.status().ToString());
    const Status written =
        mrpa::storage::SnapshotWriter().WriteFile(*graph, in.image_path);
    const int64_t t2 = NowNanos();
    if (!written.ok()) Die(written.ToString());
    s.edges = graph->num_edges();
    if (log != nullptr) {
      log->Add("graph.read_tsv", 0, t0, t1);
      log->Add("storage.write_image", 0, t1, t2);
    }
  }
  const int64_t t3 = NowNanos();
  auto universe = mrpa::storage::SnapshotReader().MapFile(in.image_path);
  const int64_t t4 = NowNanos();
  if (!universe.ok()) Die(universe.status().ToString());
  s.image_bytes = universe->snapshot_bytes();
  auto version = s.stack->registry().HotSwap(std::move(*universe));
  const int64_t t5 = NowNanos();
  if (!version.ok()) Die(version.status().ToString());
  if (log != nullptr) {
    log->Add("storage.load", 0, t3, t4);
    log->Add("service.hotswap", 0, t4, t5);
  }
  if (!s.stack->Serve().ok()) Die("server failed to start");
  s.client = Connect(s.stack->port());
  auto first = s.client->Execute(in.requests.front());
  s.seconds = (NowNanos() - start) / 1e9;
  if (!first.ok() || !first->outcome.ok() || first->truncated ||
      first->snapshot_version == 0) {
    tally.Fail("query", "the first answer after set-up failed");
  } else {
    tally.Ok("query");
  }
  return s;
}

// Runs `n` set-ups, each after the previous stack has stopped (its image
// file is rewritten), appends their times to `seconds`, and leaves the last
// one serving in `s`.
void SetUp(const Inputs& in, size_t n, SpanLog* log, Tally& tally, Setup& s,
           std::vector<double>& seconds) {
  for (size_t k = 0; k < n; ++k) {
    s.client.reset();
    s.stack.reset();
    s = SetUpOnce(in, log, tally);
    seconds.push_back(s.seconds);
  }
}

// ---------------------------------------------------------------------------
// Expected answers, computed in process on the fixed snapshot before any
// timing, through a different entry point than the service where one
// exists: the sequential fold for kTraversal (the service runs the
// pool-parallel fold), and the opposite direction as a cross-check for
// kChainForward.

uint64_t Digest(const PathSet& paths) {
  uint64_t h = mrpa::Mix64(paths.size());
  for (const Path& p : paths) {
    h = mrpa::HashCombine(h, p.length());
    for (const Edge& e : p) {
      h = mrpa::HashCombine(h, (uint64_t{e.tail} << 32) ^ e.head);
      h = mrpa::HashCombine(h, e.label);
    }
  }
  return h;
}

uint64_t DigestBytes(uint64_t h, const std::vector<uint8_t>& bytes) {
  for (uint8_t b : bytes) h = mrpa::HashCombine(h, b);
  return h;
}

struct Expected {
  size_t paths = 0;
  uint64_t digest = 0;
  mrpa::ExecStats stats;
  PathSet kept;  // live_ingest only: for the churn-aware comparison.
};

struct PoolCounts {
  double paths_per_query = 0;
  double steps_per_query = 0;
  double bytes_per_query = 0;
  double paths_per_step = 0;
  double request_bytes = 0;
  double response_bytes = 0;
  double exists_hit_share = 0;
  uint64_t request_digest = 0;
  uint64_t answer_digest = 0;
};

Result<GovernedPathSet> Evaluate(const mrpa::EdgeUniverse& u,
                                 const WireRequest& r,
                                 mrpa::ChainDirection direction) {
  ExecContext ctx;
  if (r.kind == QueryKind::kTraversal) {
    mrpa::TraversalSpec spec;
    spec.steps = r.steps;
    return mrpa::TraverseGoverned(u, spec, ctx);
  }
  return mrpa::EvaluateChainGoverned(u, r.steps, direction, ctx);
}

std::vector<Expected> ComputeExpected(const Inputs& in, Stack& stack,
                                      bool keep_paths, Tally& tally,
                                      PoolCounts& counts) {
  auto guard = stack.registry().Acquire();
  const mrpa::EdgeUniverse& u = guard.universe();
  std::vector<Expected> out(in.requests.size());
  double paths = 0, steps = 0, bytes = 0, req_bytes = 0, resp_bytes = 0;
  size_t exists_probes = 0, exists_hits = 0;
  counts.request_digest = counts.answer_digest = 0;
  for (size_t i = 0; i < in.requests.size(); ++i) {
    const WireRequest& r = in.requests[i];
    const auto direction = r.kind == QueryKind::kChainBackward
                               ? mrpa::ChainDirection::kBackward
                               : mrpa::ChainDirection::kForward;
    auto g = Evaluate(u, r, direction);
    if (!g.ok() || g->truncated) {
      Die("expected answer failed: " + DescribeRequest(r));
    }
    if (r.kind == QueryKind::kChainForward) {
      auto other = Evaluate(u, r, mrpa::ChainDirection::kBackward);
      if (!other.ok() || other->paths != g->paths) {
        tally.Violation("forward and backward chains disagree: " +
                        DescribeRequest(r));
      }
    }
    Expected& e = out[i];
    e.paths = g->paths.size();
    e.digest = Digest(g->paths);
    e.stats = g->stats;
    paths += g->stats.paths_yielded;
    steps += g->stats.steps_expanded;
    bytes += g->stats.bytes_charged;
    if (r.mode == AnswerMode::kExists || r.mode == AnswerMode::kPaths) {
      ++exists_probes;
      exists_hits += e.paths > 0 ? 1 : 0;
    }

    auto request_frame = mrpa::net::EncodeRequestFrame(r);
    mrpa::service::QueryResponse response;
    response.result = *g;
    response.snapshot_version = 1;
    auto response_frame = mrpa::net::EncodeResponseFrame(
        mrpa::net::MakeWireResponse(response, r.mode));
    if (!request_frame.ok() || !response_frame.ok()) Die("encode failed");
    req_bytes += request_frame->size();
    resp_bytes += response_frame->size();
    counts.request_digest = DigestBytes(counts.request_digest, *request_frame);
    counts.answer_digest = mrpa::HashCombine(counts.answer_digest, e.digest);
    if (keep_paths) e.kept = std::move(g->paths);
  }
  const double n = static_cast<double>(in.requests.size());
  counts.paths_per_query = paths / n;
  counts.steps_per_query = steps / n;
  counts.bytes_per_query = bytes / n;
  counts.paths_per_step = steps > 0 ? paths / steps : 0;
  counts.request_bytes = req_bytes / n;
  counts.response_bytes = resp_bytes / n;
  counts.exists_hit_share =
      exists_probes > 0 ? static_cast<double>(exists_hits) / exists_probes : 0;
  return out;
}

// Under churn a point answer may differ from the fixed snapshot's only in
// paths that use a churned edge: every other path must be present exactly
// when it was, and every returned path must be a well-formed 2-step walk
// from the request's source.
bool SameOutsideChurn(const WireRequest& r, const PathSet& expected,
                      const PathSet& got, const EdgeSet& churned) {
  const auto source = r.steps.front().tail().SingleId();
  auto untouched = [&](const Path& p) {
    for (const Edge& e : p) {
      if (churned.count(e) != 0) return false;
    }
    return true;
  };
  std::vector<const Path*> a, b;
  for (const Path& p : got) {
    if (p.length() != 2 || p.edge(0).tail != source ||
        p.edge(0).head != p.edge(1).tail) {
      return false;
    }
    if (untouched(p)) a.push_back(&p);
  }
  for (const Path& p : expected) {
    if (untouched(p)) b.push_back(&p);
  }
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Path* x, const Path* y) { return *x == *y; });
}

// Empty when `got` answers `r` as expected; otherwise the reason. Under
// churn the execution counters are not compared: a churned edge can change
// the work of a query whose answer it leaves alone (an edge to a vertex
// with no out-edges adds a candidate but no 2-step path).
std::string CheckAnswer(const WireRequest& r, const Expected& e,
                        const WireResponse& got, const EdgeSet* churned) {
  if (!got.outcome.ok()) return "outcome " + got.outcome.ToString();
  if (got.snapshot_version == 0) return "shed";
  if (got.truncated) return "truncated: " + got.limit.ToString();
  if (got.attempts > 1) {
    return "the service retried it " + std::to_string(got.attempts - 1) +
           " times";
  }
  switch (r.mode) {
    case AnswerMode::kPaths:
      if (got.paths.size() == e.paths && Digest(got.paths) == e.digest) break;
      if (churned != nullptr &&
          SameOutsideChurn(r, e.kept, got.paths, *churned)) {
        return "";
      }
      return "wrong paths for " + DescribeRequest(r);
    case AnswerMode::kCount:
      if (got.count != e.paths) return "wrong count for " + DescribeRequest(r);
      break;
    case AnswerMode::kExists:
      if (got.exists != (e.paths > 0)) {
        return "wrong exists for " + DescribeRequest(r);
      }
      break;
  }
  if (churned == nullptr &&
      (got.stats.paths_yielded != e.stats.paths_yielded ||
       got.stats.steps_expanded != e.stats.steps_expanded ||
       got.stats.bytes_charged != e.stats.bytes_charged)) {
    return "execution counters differ for " + DescribeRequest(r);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Closed-loop clients.

struct Sample {
  int64_t done = 0;  // Completion time, NowNanos().
  float latency_us = 0;
  bool answered = false;
};

struct ClientStats {
  std::vector<Sample> samples;
  uint64_t wire_attempts = 0;
  uint64_t admissions = 0;  // Admission attempts the service reported.
  uint64_t sheds = 0;
  // Traced phases only: the evaluation time each answer reports
  // (ExecStats::elapsed_nanos), what QueryService::Execute spent between
  // snapshot acquisition and the result.
  std::vector<float> evaluate_us;
};

// The clients cycle through `order` (indices into the request pool), each
// from its own position, which carries over from one phase to the next.
struct Readers {
  const Inputs* in = nullptr;
  const std::vector<Expected>* expected = nullptr;
  const EdgeSet* churned = nullptr;  // live_ingest only.
  std::vector<std::unique_ptr<mrpa::net::QueryClient>> clients;
  std::vector<size_t> order;
  std::vector<size_t> position;  // One per client, into `order`.
};

void ClientLoop(Readers& readers, size_t c, const std::atomic<bool>& stop,
                SpanLog* log, ClientStats& out, Tally& tally) {
  mrpa::net::QueryClient& client = *readers.clients[c];
  const auto& requests = readers.in->requests;
  size_t& position = readers.position[c];
  uint64_t last_version = 0;
  for (; !stop.load(); position = (position + 1) % readers.order.size()) {
    const size_t i = readers.order[position];
    size_t attempts = 0;
    const int64_t t0 = NowNanos();
    auto r = client.Execute(requests[i], &attempts);
    const int64_t t1 = NowNanos();
    if (log != nullptr) log->Add("net.roundtrip", i, t0, t1);
    out.samples.push_back({t1, static_cast<float>((t1 - t0) / 1e3), false});
    out.wire_attempts += attempts;
    if (!r.ok()) {
      tally.Fail("query", "transport: " + r.status().ToString());
      continue;
    }
    out.admissions += r->attempts;
    if (log != nullptr) {
      out.evaluate_us.push_back(
          static_cast<float>(r->stats.elapsed_nanos / 1e3));
    }
    out.sheds += r->attempts - 1 + (r->snapshot_version == 0 ? 1 : 0);
    std::string why =
        CheckAnswer(requests[i], (*readers.expected)[i], *r, readers.churned);
    if (why.empty() && r->snapshot_version < last_version) {
      why = "snapshot version went backwards";
    }
    last_version = std::max(last_version, r->snapshot_version);
    if (!why.empty()) {
      tally.Fail("query", why);
      continue;
    }
    tally.Ok("query");
    out.samples.back().answered = true;
  }
}

struct Phase {
  std::vector<ClientStats> clients;
  int64_t start = 0;
  int64_t end = 0;
  double cpu_start = 0;  // Process CPU seconds at start and end.
  double cpu_end = 0;
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// Runs the first `clients` readers for `seconds`; `logs` (one per client)
// records spans.
Phase RunReaders(Readers& readers, size_t clients, double seconds,
                 std::vector<SpanLog>* logs, Tally& tally) {
  Phase phase;
  phase.clients.resize(clients);
  for (ClientStats& c : phase.clients) c.samples.reserve(1 << 17);
  std::atomic<bool> stop{false};
  phase.cpu_start = CpuSeconds();
  phase.start = NowNanos();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(readers, c, stop, logs != nullptr ? &(*logs)[c] : nullptr,
                 phase.clients[c], tally);
    });
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(phase.start + static_cast<int64_t>(
                                                 seconds * 1e9))));
  phase.end = NowNanos();
  phase.cpu_end = CpuSeconds();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  return phase;
}

// Read metrics over the whole phase: answered queries per second, the round
// trip's p50 and p90, and process CPU per answered query. Requests that
// complete after the phase ends are not counted.
struct ReadSummary {
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double cpu_us = 0;
};

// Appends the round trips of the requests that completed within the phase.
void AddLatencies(const Phase& phase, std::vector<double>& out) {
  for (const ClientStats& c : phase.clients) {
    for (const Sample& s : c.samples) {
      if (s.done <= phase.end) out.push_back(s.latency_us);
    }
  }
}

ReadSummary Summarize(const Phase& phase) {
  std::vector<double> latency;
  AddLatencies(phase, latency);
  double answered = 0;
  for (const ClientStats& c : phase.clients) {
    for (const Sample& s : c.samples) {
      answered += s.done <= phase.end && s.answered ? 1 : 0;
    }
  }
  const double seconds = (phase.end - phase.start) / 1e9;
  const double cpu_us = (phase.cpu_end - phase.cpu_start) * 1e6;
  return {answered / seconds, Quantile(latency, 0.5), Quantile(latency, 0.9),
          answered > 0 ? cpu_us / answered : 0};
}

// ---------------------------------------------------------------------------
// The writer and the fold thread.
//
// The writer applies the churn stream open-loop at kVerdictsPerSecond; the
// fold thread runs Compact + ReclaimDrops each time kVerdictsPerFold more
// verdicts have been applied. Folds are triggered by count only, never by a
// timer. After each fold an exists probe over the wire checks the fold's
// newest insert (present) and newest tombstone (absent).

struct IngestStats {
  std::vector<double> write_us;
  std::vector<double> late_us;
  std::vector<double> visibility_ms;
  uint64_t folds = 0;
  uint64_t deferred_drops = 0;
  uint64_t edges_rewritten = 0;
  uint64_t verdicts_folded = 0;
};

class Ingest {
 public:
  Ingest(Stack& stack, const Inputs& in, size_t base_edges, Tally& tally,
         SpanLog* writer_log, SpanLog* fold_log)
      : registry_(stack.registry()),
        churn_(in.churn),
        base_edges_(base_edges),
        tally_(tally),
        writer_log_(writer_log),
        fold_log_(fold_log),
        compactor_(&registry_, mrpa::delta::CompactorOptions{}),
        probe_client_(Connect(stack.port())),
        applied_at_(in.churn.size(), 0) {
    stats_.write_us.reserve(churn_.size());
    stats_.late_us.reserve(churn_.size());
    stats_.visibility_ms.reserve(churn_.size());
  }
  ~Ingest() { Stop(); }

  Ingest(const Ingest&) = delete;
  Ingest& operator=(const Ingest&) = delete;

  // Applies at most `limit` verdicts; folds run until Stop().
  void Start(size_t limit) {
    limit_ = std::min(limit, churn_.size());
    writer_ = std::thread([this] { Write(); });
    folder_ = std::thread([this] { Fold(); });
  }

  // Stops the writer, lets a fold in progress finish, then folds whatever
  // was applied since the last fold (untimed), so the served image holds
  // every applied verdict.
  void Stop() {
    if (!writer_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    writer_.join();
    folder_.join();
    if (applied_.load() > published_) FoldOnce(/*timed=*/false);
    compactor_.ReclaimDrops(delta_);
  }

  // Blocks until `folds` timed folds have been attempted.
  void WaitForFolds(uint64_t folds) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(60),
                      [&] { return fold_attempts_ >= folds; })) {
      tally_.Violation("the write probe's folds did not complete");
    }
  }

  size_t applied() const { return applied_.load(); }
  const IngestStats& stats() const { return stats_; }

 private:
  void Write() {
    const int64_t start = NowNanos();
    for (size_t k = 0; k < limit_; ++k) {
      if (stop_requested()) break;
      const int64_t due =
          start + static_cast<int64_t>(k * 1e9 / kVerdictsPerSecond);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      stats_.late_us.push_back((NowNanos() - due) / 1e3);
      const Verdict& v = churn_[k];
      Status status;
      int64_t t0 = 0, t1 = 0;
      {
        auto guard = registry_.Acquire();
        t0 = NowNanos();
        status = v.remove ? delta_.RemoveEdge(guard.universe(), v.edge)
                          : delta_.AddEdge(guard.universe(), v.edge);
        t1 = NowNanos();
      }
      if (writer_log_ != nullptr) writer_log_->Add("delta.apply", k, t0, t1);
      stats_.write_us.push_back((t1 - t0) / 1e3);
      if (status.ok()) {
        tally_.Ok("write");
      } else {
        tally_.Fail("write", FormatVerdict(v) + ": " + status.ToString());
      }
      applied_at_[k] = t1;
      applied_.store(k + 1);
      if ((k + 1) % kVerdictsPerFold == 0) {
        { std::lock_guard<std::mutex> lock(mu_); }
        cv_.notify_all();
      }
    }
  }

  bool stop_requested() {
    std::lock_guard<std::mutex> lock(mu_);
    return stop_;
  }

  void Fold() {
    for (size_t next = kVerdictsPerFold; next <= limit_;
         next += kVerdictsPerFold) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || applied_.load() >= next; });
        if (stop_) return;
      }
      FoldOnce(/*timed=*/true);
    }
  }

  void FoldOnce(bool timed) {
    // Verdicts below n0 are certainly in this fold; the few applied between
    // this read and the seal inside Compact are attributed to the next.
    const size_t n0 = applied_.load();
    Result<mrpa::delta::CompactionResult> result = Status::Internal("unset");
    int64_t t0 = 0, t1 = 0;
    {
      auto guard = registry_.Acquire();
      t0 = NowNanos();
      result = compactor_.Compact(guard.universe(), delta_);
      t1 = NowNanos();
    }
    const int64_t r0 = NowNanos();
    compactor_.ReclaimDrops(delta_);
    const int64_t r1 = NowNanos();
    const size_t n1 = applied_.load();
    if (timed) {
      std::lock_guard<std::mutex> lock(mu_);
      ++fold_attempts_;
    }
    if (!result.ok()) {
      tally_.Fail("fold", result.status().ToString());
      cv_.notify_all();
      return;
    }
    tally_.Ok("fold");
    if (result->edges != base_edges_ && result->edges != base_edges_ + 1) {
      tally_.Violation("|E| is not stationary: " +
                       std::to_string(result->edges) + " edges after a fold");
    }
    if (timed) {
      if (fold_log_ != nullptr) {
        fold_log_->Add("delta.compact", n0, t0, t1);
        fold_log_->Add("delta.reclaim_drops", n0, r0, r1);
      }
      std::lock_guard<std::mutex> lock(mu_);
      stats_.deferred_drops += result->generations_dropped ? 0 : 1;
      stats_.edges_rewritten += result->edges;
      stats_.verdicts_folded = n0;
      for (size_t i = published_; i < n0; ++i) {
        stats_.visibility_ms.push_back((t1 - applied_at_[i]) / 1e6);
      }
      ++stats_.folds;
    }
    published_ = n0;
    Probe(result->version, n0, n1);
    cv_.notify_all();
  }

  // The newest insert and the newest tombstone below n0 whose edge no later
  // verdict (up to n1) touches: their state in the published image is known
  // whichever side of the seal the verdicts in [n0, n1) fell.
  void Probe(uint64_t version, size_t n0, size_t n1) {
    EdgeSet later;
    for (size_t i = n0; i < n1; ++i) later.insert(churn_[i].edge);
    std::optional<Edge> insert, tombstone;
    for (size_t i = n0; i-- > 0 && (!insert || !tombstone);) {
      const Verdict& v = churn_[i];
      if (later.count(v.edge) == 0) {
        auto& slot = v.remove ? tombstone : insert;
        if (!slot) slot = v.edge;
      }
      later.insert(v.edge);
    }
    for (const auto& [edge, present] :
         {std::pair{insert, true}, std::pair{tombstone, false}}) {
      if (!edge) continue;
      WireRequest probe;
      probe.tenant = kTenant;
      probe.mode = AnswerMode::kExists;
      probe.steps = {EdgePattern::Exactly(*edge)};
      auto r = probe_client_->Execute(probe);
      if (!r.ok()) {
        tally_.Fail("probe", r.status().ToString());
      } else if (!r->outcome.ok() || r->truncated ||
                 r->snapshot_version < version || r->exists != present) {
        tally_.Fail("probe", "fold v" + std::to_string(version) + " shows " +
                                 edge->ToString() +
                                 (r->exists ? " present" : " absent") +
                                 " at v" +
                                 std::to_string(r->snapshot_version));
      } else {
        tally_.Ok("probe");
      }
    }
  }

  mrpa::service::SnapshotRegistry& registry_;
  const std::vector<Verdict>& churn_;
  const size_t base_edges_;
  Tally& tally_;
  SpanLog* writer_log_;
  SpanLog* fold_log_;
  mrpa::delta::DeltaOverlay delta_{nullptr};
  mrpa::delta::Compactor compactor_;
  std::unique_ptr<mrpa::net::QueryClient> probe_client_;

  std::vector<int64_t> applied_at_;  // Writer-written below applied_.
  std::atomic<size_t> applied_{0};
  size_t limit_ = 0;
  size_t published_ = 0;  // Fold thread (and Stop after the join) only.

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;   // Guarded by mu_.
  uint64_t fold_attempts_ = 0;  // Guarded by mu_.
  IngestStats stats_;   // Writer vectors: writer only until joined.

  std::thread writer_;
  std::thread folder_;
};

// ---------------------------------------------------------------------------
// Output.

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::cerr << "operations:\n";
  tally.Report(std::cerr);
  std::cout << "{\"correct\": " << (tally.correct() ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed()
            << ", \"metrics\": " << metrics.Json() << "}" << std::endl;
}

void ReportIngest(const IngestStats& s, size_t applied) {
  std::cerr << "writer: " << applied << " verdicts, late p90 "
            << Quantile(s.late_us, 0.9) << " us; folds " << s.folds
            << " (count trigger expects about " << applied / kVerdictsPerFold
            << ")\n";
}

// ---------------------------------------------------------------------------
// Traced run: the replay pass below the service boundary.

struct Replayer {
  Stack& stack;
  const Inputs& in;
  const std::vector<Expected>& expected;
  bool fixed_snapshot;  // False once churn has changed the served image.
  bool point;           // Point workloads replay both chain directions.
  SpanLog& log;
  Tally& tally;

  void Check(bool ok, const std::string& what) {
    if (!ok) tally.Violation("replay: " + what);
  }

  void Request(size_t j) {
    const WireRequest& r = in.requests[j];
    const int64_t root = log.Open("replay", j);
    auto frame = log.Time("net.encode_request", j, root,
                          [&] { return mrpa::net::EncodeRequestFrame(r); });
    Check(frame.ok(), "encode request");
    auto decoded = log.Time("net.decode_request", j, root, [&] {
      auto x = mrpa::net::ExtractFrame(*frame);
      return mrpa::net::DecodeRequestPayload(
          std::span<const uint8_t>(*frame).subspan(
              mrpa::net::kFrameHeaderBytes,
              x.frame_bytes - mrpa::net::kFrameHeaderBytes));
    });
    Check(decoded.ok() && decoded->steps == r.steps, "decode request");

    mrpa::service::QueryRequest q;
    q.kind = r.kind;
    q.steps = r.steps;
    // Not timed: the server reports its own evaluation time in every traced
    // answer, under the load and cache state of the round trip that holds
    // it, which is what service.execute_us and the transport split use.
    auto& service = stack.service();
    auto response = service.Execute(kTenant, q);
    Check(response.ok() && !response->result.truncated, "execute");
    if (!response.ok()) return;
    if (fixed_snapshot) {
      Check(Digest(response->result.paths) == expected[j].digest,
            "in-process answer differs from the expected one");
    }
    log.Time("service.admit", j, root, [&] {
      mrpa::service::AdmissionController::AdmitRequest admit;
      admit.tenant = kTenant;
      auto ticket = service.admission().Admit(admit);
      Check(ticket.ok(), "admit");
      if (ticket.ok()) ticket->Release();
    });
    log.Time("service.acquire", j, root, [&] {
      Check(static_cast<bool>(stack.registry().Acquire()), "acquire");
    });
    Evaluators(j, root, r);

    auto wire = log.Time("net.encode_response", j, root, [&] {
      return mrpa::net::EncodeResponseFrame(
          mrpa::net::MakeWireResponse(*response, r.mode));
    });
    Check(wire.ok(), "encode response");
    auto back = log.Time("net.decode_response", j, root, [&] {
      auto x = mrpa::net::ExtractFrame(*wire);
      return mrpa::net::DecodeResponsePayload(
          std::span<const uint8_t>(*wire).subspan(
              mrpa::net::kFrameHeaderBytes,
              x.frame_bytes - mrpa::net::kFrameHeaderBytes));
    });
    const size_t paths = response->result.paths.size();
    const size_t count =
        r.mode == AnswerMode::kExists ? (paths > 0 ? 1 : 0) : paths;
    Check(back.ok() && back->count == count, "decode response");
    log.Close(root);
  }

  // The evaluator the service dispatches for the request's kind; the point
  // workloads, whose requests are all kTraversal, also replay the chain
  // engine forward over the request and backward over its mirror (the same
  // 2-step shape anchored at its far end), so every engine layer is timed
  // on every workload.
  void Evaluators(size_t j, int64_t root, const WireRequest& r) {
    auto guard = stack.registry().Acquire();
    const mrpa::EdgeUniverse& u = guard.universe();
    auto governed = [&](const char* name, auto&& call) {
      ExecContext ctx;
      auto g = log.Time(name, j, root, [&] { return call(ctx); });
      Check(g.ok() && !g->truncated, name);
    };
    auto traverse = [&](mrpa::frontier::DensityMode mode) {
      return [&, mode](ExecContext& ctx) {
        mrpa::TraversalSpec spec;
        spec.steps = r.steps;
        spec.density.mode = mode;
        mrpa::ParallelTraversalOptions parallel;
        parallel.pool = &stack.pool();
        return mrpa::TraverseParallelGoverned(u, spec, ctx, parallel);
      };
    };
    auto chain = [&](const std::vector<EdgePattern>& steps,
                     mrpa::ChainDirection direction) {
      return [&, direction](ExecContext& ctx) {
        return mrpa::EvaluateChainGoverned(u, steps, direction, ctx);
      };
    };
    switch (r.kind) {
      case QueryKind::kTraversal:
        governed("core.traverse", traverse(mrpa::frontier::DensityMode::kAuto));
        governed("frontier.sparse_only",
                 traverse(mrpa::frontier::DensityMode::kForceSparse));
        break;
      case QueryKind::kChainForward:
        governed("engine.chain_forward",
                 chain(r.steps, mrpa::ChainDirection::kForward));
        break;
      case QueryKind::kChainBackward:
        governed("engine.chain_backward",
                 chain(r.steps, mrpa::ChainDirection::kBackward));
        break;
    }
    if (point) {
      const std::vector<EdgePattern> mirror = {
          EdgePattern::Any(),
          EdgePattern::Into(*r.steps.front().tail().SingleId())};
      governed("engine.chain_forward",
               chain(r.steps, mrpa::ChainDirection::kForward));
      governed("engine.chain_backward",
               chain(mirror, mrpa::ChainDirection::kBackward));
    }
  }

  // CompileQuery of the request as a ⋈◦ chain of atoms against the served
  // snapshot, then CompiledQuery::Run; returns whether the plan ran
  // backward.
  bool Compile(size_t j) {
    const WireRequest& r = in.requests[j];
    mrpa::PathExprPtr expr = mrpa::PathExpr::Atom(r.steps.front());
    for (size_t i = 1; i < r.steps.size(); ++i) {
      expr = mrpa::PathExpr::MakeJoin(expr, mrpa::PathExpr::Atom(r.steps[i]));
    }
    auto guard = stack.registry().Acquire();
    auto compiled = log.Time("compiler.compile", j, SpanLog::kNoParent, [&] {
      return mrpa::CompileQuery(expr, guard.universe());
    });
    Check(compiled.ok(), "compile");
    if (!compiled.ok()) return false;
    for (size_t k = 0; k < kRunsPerCompile; ++k) {
      ExecContext ctx;
      auto out = log.Time("compiler.run", j, SpanLog::kNoParent,
                          [&] { return compiled->Run(ctx); });
      Check(out.ok() && !out->truncated, "compiled run");
      if (out.ok() && fixed_snapshot) {
        Check(Digest(out->paths) == expected[j].digest,
              "compiled plan answers differently");
      }
    }
    return compiled->is_chain() &&
           compiled->chain_plan().direction == mrpa::ChainDirection::kBackward;
  }

  // A fold done by hand, one call at a time, continuing the churn stream at
  // `*pos`: apply kVerdictsPerFold verdicts to a fresh overlay, seal, View,
  // Serialize, FromBuffer, HotSwap.
  void Fold(size_t rep, size_t* pos, size_t base_edges) {
    if (*pos + kVerdictsPerFold > in.churn.size()) return;
    mrpa::delta::DeltaOverlay overlay(nullptr);
    Result<mrpa::storage::SnapshotUniverse> image = Status::Internal("unset");
    {
      auto guard = stack.registry().Acquire();
      const mrpa::EdgeUniverse& u = guard.universe();
      for (size_t i = *pos; i < *pos + kVerdictsPerFold; ++i) {
        const Verdict& v = in.churn[i];
        const Status s = v.remove ? overlay.RemoveEdge(u, v.edge)
                                  : overlay.AddEdge(u, v.edge);
        if (s.ok()) {
          tally.Ok("write");
        } else {
          tally.Fail("write", FormatVerdict(v) + ": " + s.ToString());
        }
      }
      overlay.Seal();
      auto view = log.Time("delta.view", rep, SpanLog::kNoParent,
                           [&] { return overlay.View(u); });
      Check(view.ok(), "view");
      if (!view.ok()) return;
      Check(view->num_edges() == base_edges ||
                view->num_edges() == base_edges + 1,
            "|E| is not stationary in a replayed fold");
      auto bytes = log.Time("storage.fold_write", rep, SpanLog::kNoParent, [&] {
        return mrpa::storage::SnapshotWriter().Serialize(*view);
      });
      Check(bytes.ok(), "serialize");
      if (!bytes.ok()) return;
      image = log.Time("storage.fold_load", rep, SpanLog::kNoParent, [&] {
        return mrpa::storage::SnapshotReader().FromBuffer(std::move(*bytes));
      });
      Check(image.ok(), "load");
      if (!image.ok()) return;
    }
    auto version = log.Time("service.hotswap", rep, SpanLog::kNoParent, [&] {
      return stack.registry().HotSwap(std::move(*image));
    });
    Check(version.ok(), "hotswap");
    *pos += kVerdictsPerFold;
  }
};

// A seeded sample of the pool: kPointReplays requests, or
// kSummaryReplaysPerShape of each summary shape, in shuffled order.
std::vector<size_t> ReplaySample(const Inputs& in, Workload w, uint64_t seed) {
  std::vector<size_t> order(in.requests.size());
  std::iota(order.begin(), order.end(), 0);
  mrpa::Rng rng(seed ^ 0x7265706c6179ULL);
  rng.Shuffle(order);
  std::vector<size_t> sample;
  std::map<QueryKind, size_t> taken;
  for (size_t j : order) {
    const size_t cap = w == Workload::kRemoteSummary ? kSummaryReplaysPerShape
                                                     : kPointReplays;
    if (taken[in.requests[j].kind]++ < cap) sample.push_back(j);
  }
  return sample;
}

std::vector<double> Durations(const std::vector<const SpanLog*>& logs,
                              const std::string& name, double unit_ns) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (name == s.name) out.push_back((s.end - s.start) / unit_ns);
    }
  }
  return out;
}

// One line per span: name, request id, parent (index within its log, or
// -1), start relative to the first span, duration, and self time (the
// duration minus the children's).
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start);
  }
  out << "log\tspan\tname\trequest\tparent\tstart_ns\tdur_ns\tself_ns\n";
  for (size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l]->spans();
    std::vector<int64_t> children(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) children[s.parent] += s.end - s.start;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << l << '\t' << i << '\t' << s.name << '\t' << s.request << '\t'
          << s.parent << '\t' << s.start - origin << '\t' << s.end - s.start
          << '\t' << (s.end - s.start) - children[i] << '\n';
    }
  }
}

// ---------------------------------------------------------------------------

int Main(const Args& args) {
  const Inputs in = LoadInputs(args.dir);
  const bool live = args.workload == Workload::kLiveIngest;
  const bool point = args.workload != Workload::kRemoteSummary;
  Tally tally;
  SpanLog main_log;
  SpanLog* setup_log = args.trace ? &main_log : nullptr;

  std::vector<double> setup_s;
  Setup s;
  SetUp(in, args.counts_only ? 1 : kSetupsBefore, setup_log, tally, s,
        setup_s);
  Stack& stack = *s.stack;
  const size_t base_edges = s.edges;

  PoolCounts counts;
  const std::vector<Expected> expected =
      ComputeExpected(in, stack, live, tally, counts);
  if (args.counts_only) {
    std::cout << std::setprecision(12)
              << "{\"paths_per_query\": " << counts.paths_per_query
              << ", \"steps_per_query\": " << counts.steps_per_query
              << ", \"bytes_per_query\": " << counts.bytes_per_query
              << ", \"paths_per_step\": " << counts.paths_per_step
              << ", \"request_bytes\": " << counts.request_bytes
              << ", \"response_bytes\": " << counts.response_bytes
              << ", \"exists_hit_share\": " << counts.exists_hit_share
              << ", \"image_bytes_per_edge\": "
              << static_cast<double>(s.image_bytes) / s.edges
              << ", \"request_digest\": \"" << counts.request_digest
              << "\", \"answer_digest\": \"" << counts.answer_digest << "\"}"
              << std::endl;
    return tally.correct() ? 0 : 1;
  }

  Readers readers;
  readers.in = &in;
  readers.expected = &expected;
  readers.churned = live ? &in.churned : nullptr;
  readers.clients.push_back(std::move(s.client));
  while (readers.clients.size() < kClients) {
    readers.clients.push_back(Connect(stack.port()));
  }
  // Each client starts at its own offset of the whole pool.
  readers.order.resize(in.requests.size());
  std::iota(readers.order.begin(), readers.order.end(), 0);
  for (size_t c = 0; c < kClients; ++c) {
    readers.position.push_back(c * in.requests.size() / kClients);
  }
  RunReaders(readers, kClients, kWarmupSeconds, nullptr, tally);

  Metrics metrics;
  if (!args.trace) {
    Phase phase;
    IngestStats writes;
    double peak_rss_mb = 0;
    {
      Ingest ingest(stack, in, base_edges, tally, nullptr, nullptr);
      if (live) {
        ingest.Start(in.churn.size());
        phase = RunReaders(readers, kClients, args.seconds, nullptr, tally);
      } else {
        // The read-only workloads' memory peak is that of set-up and reads;
        // the write probe's folds come after it is taken.
        phase = RunReaders(readers, kClients, args.seconds, nullptr, tally);
        peak_rss_mb = PeakRssMb();
        ingest.Start(kProbeFolds * kVerdictsPerFold);
        ingest.WaitForFolds(kProbeFolds);
      }
      ingest.Stop();
      if (live) peak_rss_mb = PeakRssMb();
      ReportIngest(ingest.stats(), ingest.applied());
      writes = ingest.stats();
    }
    readers.clients.clear();
    SetUp(in, kSetupsAfter, nullptr, tally, s, setup_s);
    std::cerr << "set-up seconds:";
    for (double t : setup_s) std::cerr << ' ' << t;
    std::cerr << "\n";
    const ReadSummary reads = Summarize(phase);
    metrics.Add("setup_s", Quantile(setup_s, 0.5), "s");
    metrics.Add("qps", reads.qps, "1/s");
    metrics.Add("latency_p50_us", reads.p50_us, "us");
    metrics.Add("latency_p90_us", reads.p90_us, "us");
    metrics.Add("cpu_us_per_query", reads.cpu_us, "us");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    metrics.Add("write_p50_us", Quantile(writes.write_us, 0.5), "us");
    metrics.Add("write_p90_us", Quantile(writes.write_us, 0.9), "us");
    metrics.Add("visibility_ms_p50", Quantile(writes.visibility_ms, 0.5),
                "ms");
    PrintResult(tally, metrics);
    return 0;
  }

  // Traced run, in kTracedBlocks blocks on one client that cycles through
  // the replay sample. Each block runs the client untraced, then with a span
  // around every QueryClient::Execute, then replays the whole sample below
  // the service boundary with no client load; live_ingest writes
  // throughout. With one client each round trip holds only its own request,
  // and its answer carries the server's evaluation time for that request,
  // so the round trip splits into codec, evaluation and transport.
  // Interleaving the blocks puts the replay's spans in the same stretch of
  // time as the round trips, so a slow spell of the host lands on both. The
  // compiler sample follows, then the write probe of the read-only
  // workloads, which changes their served image.
  const std::vector<size_t> sample = ReplaySample(in, args.workload, args.seed);
  readers.order = sample;
  readers.position.assign(kClients, 0);
  std::vector<SpanLog> client_logs(1);
  SpanLog writer_log, fold_log;
  std::vector<Phase> untraced, traced;
  IngestStats writes;
  size_t stream_pos = 0;
  Replayer replay{stack, in, expected, !live, point, main_log, tally};
  size_t backward = 0, compiled = 0;
  {
    Ingest ingest(stack, in, base_edges, tally, &writer_log, &fold_log);
    if (live) ingest.Start(in.churn.size());
    const double block_seconds =
        args.seconds * kTracedPassShare / kTracedBlocks;
    for (size_t b = 0; b < kTracedBlocks; ++b) {
      untraced.push_back(
          RunReaders(readers, 1, block_seconds, nullptr, tally));
      traced.push_back(
          RunReaders(readers, 1, block_seconds, &client_logs, tally));
      for (size_t j : sample) replay.Request(j);
    }
    readers.clients.clear();
    if (live) ingest.Stop();
    std::map<QueryKind, size_t> compiled_per_kind;
    const size_t per_kind = point ? kCompileSamples : kCompileSamples / 3;
    for (size_t j : sample) {
      if (compiled_per_kind[in.requests[j].kind]++ >= per_kind) continue;
      backward += replay.Compile(j) ? 1 : 0;
      ++compiled;
    }
    if (!live) {
      ingest.Start(kProbeFolds * kVerdictsPerFold);
      ingest.WaitForFolds(kProbeFolds);
      ingest.Stop();
    }
    ReportIngest(ingest.stats(), ingest.applied());
    writes = ingest.stats();
    stream_pos = ingest.applied();
  }
  for (size_t rep = 0; rep < kFoldReplays; ++rep) {
    replay.Fold(rep, &stream_pos, base_edges);
  }

  std::vector<const SpanLog*> logs = {&main_log, &writer_log, &fold_log};
  for (const SpanLog& l : client_logs) logs.push_back(&l);
  auto p50 = [&](const char* name, double unit_ns) {
    return Quantile(Durations(logs, name, unit_ns), 0.5);
  };
  const double roundtrip = p50("net.roundtrip", 1e3);
  const double codec = p50("net.encode_request", 1e3) +
                       p50("net.decode_request", 1e3) +
                       p50("net.encode_response", 1e3) +
                       p50("net.decode_response", 1e3);
  std::vector<double> evaluate_us;
  for (const Phase& phase : traced) {
    for (const ClientStats& c : phase.clients) {
      evaluate_us.insert(evaluate_us.end(), c.evaluate_us.begin(),
                         c.evaluate_us.end());
    }
  }
  const double execute = Quantile(evaluate_us, 0.5);
  const double transport = roundtrip - codec - execute;
  if (transport < 0) {
    tally.Violation("conservation: named layers exceed the round trip");
  }
  std::vector<double> untraced_us;
  for (const Phase& phase : untraced) AddLatencies(phase, untraced_us);
  const double untraced_p50 = Quantile(untraced_us, 0.5);
  std::cerr << "tracing overhead: traced round trip p50 " << roundtrip
            << " us vs untraced " << untraced_p50 << " us, one client ("
            << (roundtrip / untraced_p50 - 1) * 100 << "%)\n";
  uint64_t wire_attempts = 0, admissions = 0, sheds = 0, queries = 0;
  for (const auto* phases : {&untraced, &traced}) {
    for (const Phase& phase : *phases) {
      for (const ClientStats& c : phase.clients) {
        wire_attempts += c.wire_attempts;
        admissions += c.admissions;
        sheds += c.sheds;
        queries += c.samples.size();
      }
    }
  }

  metrics.Add("net.roundtrip_us", roundtrip, "us");
  metrics.Add("net.encode_request_us", p50("net.encode_request", 1e3), "us");
  metrics.Add("net.decode_request_us", p50("net.decode_request", 1e3), "us");
  metrics.Add("net.encode_response_us", p50("net.encode_response", 1e3), "us");
  metrics.Add("net.decode_response_us", p50("net.decode_response", 1e3), "us");
  metrics.Add("net.transport_us", transport, "us");
  metrics.Add("net.request_bytes", counts.request_bytes, "bytes");
  metrics.Add("net.response_bytes", counts.response_bytes, "bytes");
  metrics.Add("net.attempts_per_query",
              static_cast<double>(wire_attempts) / queries, "ratio");
  metrics.Add("service.execute_us", execute, "us");
  metrics.Add("service.admit_us", p50("service.admit", 1e3), "us");
  metrics.Add("service.acquire_us", p50("service.acquire", 1e3), "us");
  metrics.Add("service.hotswap_us", p50("service.hotswap", 1e3), "us");
  metrics.Add("service.shed_share",
              admissions > 0 ? static_cast<double>(sheds) / admissions : 0,
              "ratio");
  metrics.Add("core.traverse_us", p50("core.traverse", 1e3), "us");
  metrics.Add("core.paths_per_query", counts.paths_per_query, "count");
  metrics.Add("core.steps_per_query", counts.steps_per_query, "count");
  metrics.Add("core.bytes_per_query", counts.bytes_per_query, "bytes");
  metrics.Add("core.paths_per_step", counts.paths_per_step, "ratio");
  metrics.Add("engine.chain_forward_us", p50("engine.chain_forward", 1e3),
              "us");
  metrics.Add("engine.chain_backward_us", p50("engine.chain_backward", 1e3),
              "us");
  metrics.Add("engine.exists_hit_share", counts.exists_hit_share, "ratio");
  metrics.Add("frontier.sparse_only_us", p50("frontier.sparse_only", 1e3),
              "us");
  metrics.Add("compiler.compile_us", p50("compiler.compile", 1e3), "us");
  metrics.Add("compiler.run_us", p50("compiler.run", 1e3), "us");
  metrics.Add("compiler.backward_share",
              compiled > 0 ? static_cast<double>(backward) / compiled : 0,
              "ratio");
  metrics.Add("storage.write_image_ms", p50("storage.write_image", 1e6), "ms");
  metrics.Add("storage.load_ms", p50("storage.load", 1e6), "ms");
  metrics.Add("storage.fold_write_ms", p50("storage.fold_write", 1e6), "ms");
  metrics.Add("storage.fold_load_ms", p50("storage.fold_load", 1e6), "ms");
  metrics.Add("storage.image_bytes_per_edge",
              static_cast<double>(s.image_bytes) / s.edges, "bytes");
  metrics.Add("graph.read_tsv_ms", p50("graph.read_tsv", 1e6), "ms");
  metrics.Add("delta.apply_us", p50("delta.apply", 1e3), "us");
  metrics.Add("delta.view_ms", p50("delta.view", 1e6), "ms");
  metrics.Add("delta.compact_ms", p50("delta.compact", 1e6), "ms");
  metrics.Add("delta.edges_rewritten_per_verdict",
              writes.verdicts_folded > 0
                  ? static_cast<double>(writes.edges_rewritten) /
                        writes.verdicts_folded
                  : 0,
              "ratio");
  metrics.Add("delta.deferred_drop_share",
              writes.folds > 0
                  ? static_cast<double>(writes.deferred_drops) / writes.folds
                  : 0,
              "ratio");
  if (!args.trace_out.empty()) WriteSpans(args.trace_out, logs);
  PrintResult(tally, metrics);
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--counts") {
      args.counts_only = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  const auto parsed = ParseWorkload(workload);
  if (!parsed || args.dir.empty() || args.seconds <= 0) {
    Die("usage: perfbench_run --workload W --seed N --seconds S --dir D "
        "[--trace 0|1] [--trace-out FILE] [--counts]");
  }
  args.workload = *parsed;
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(perfbench::ParseArgs(argc, argv));
}

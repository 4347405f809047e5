// perfbench — fixed-work append/audit benchmark over the real TCP stack.
//
// Each workload runs an in-process ShardedDeployment behind an RpcServer
// (DispatchEngineRpc, wedgeblockd's default pools) and drives it through
// a TcpNodeClient with the tenant-scoped ops only. The work of a run is a
// seeded, pre-generated list of operations sized from --seconds, so op
// counts, gas and chain transactions follow from the work and not from
// how fast the run went. The simulated chain advances one block per K
// acked append RPCs (a driver thread), never on a wall-clock timer, and
// is drained until every acked root is confirmed.
//
// Every response is checked cheaply (dense index, echoed bytes, shared
// root) and then verified in full; after the drain a seeded sample of
// acked entries must be chain-committed with the signed root and read
// back byte-identical. Any failure makes the process exit 1.
//
//   perfbench --workload ingest|durable_mixed|audit_read --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]
//   perfbench --selftest
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. The line before it is the full result row (sample counts,
// provenance and the per-op-kind metrics). Traced runs also write their
// spans as JSONL and the per-layer summary under --out-dir.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/client.h"
#include "core/rpc_codec.h"
#include "crypto/ecdsa.h"
#include "merkle/multi_proof.h"
#include "rpc/rpc_server.h"
#include "rpc/tcp_client.h"
#include "shard/shard_rpc.h"
#include "shard/sharded_engine.h"
#include "spans.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace wedge;

// ---------------------------------------------------------------------------
// Workloads

/// The shape of one workload. Work is sized as ops = ops_per_second *
/// --seconds (closed loop: a calibrated estimate of what the shape
/// sustains on a 4-core box; open loop: the fixed arrival rate).
struct WorkloadSpec {
  std::string name;
  uint32_t shards = 1;
  bool forest = false;
  uint32_t epoch_ticks = 1;
  StoreBackend store = StoreBackend::kMemory;
  bool fsync = false;
  uint32_t tenants = 1;
  double tenant_zipf = 0;
  uint32_t rpc_entries = 0;  ///< Entries per append RPC.
  size_t value_bytes = 0;
  double read_frac = 0;        ///< Share of single-entry readT ops.
  double batch_read_frac = 0;  ///< Share of whole-position readBatchT ops.
  bool open_loop = false;
  double ops_per_second = 0;
  uint32_t blocks_per_k = 0;   ///< K: one block per K acked appends.
  uint32_t corpus_batches = 0; ///< Pre-signed append batches per tenant.
  uint64_t preload_positions = 0;
  uint32_t preload_entries = 0;
  double position_zipf = 0;
};

constexpr size_t kKeyBytes = 16;
/// Tree-cache capacity of the node (OffchainNodeConfig default); the
/// audit workload preloads more than twice this many positions.
constexpr uint64_t kTreeCache = 4096;

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> w;
  {
    WorkloadSpec s;
    s.name = "ingest";
    s.rpc_entries = 256;
    s.value_bytes = 256;
    s.ops_per_second = 26;
    s.blocks_per_k = 2;
    s.corpus_batches = 16;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "durable_mixed";
    s.shards = 4;
    s.forest = true;
    s.epoch_ticks = 4;
    s.store = StoreBackend::kSegment;
    s.fsync = true;
    s.tenants = 64;
    s.tenant_zipf = 1.0;
    s.rpc_entries = 32;
    s.value_bytes = 1024;
    s.read_frac = 0.2;
    s.open_loop = true;
    // Half of the 175 ops/s this shape sustained on the 4-core VM when
    // the open-loop rate was set far above capacity. Re-measure the same
    // way (raise this figure) before changing it.
    s.ops_per_second = 87;
    s.blocks_per_k = 8;
    s.corpus_batches = 4;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "audit_read";
    s.forest = true;
    s.epoch_ticks = 4;
    s.store = StoreBackend::kSegment;
    s.value_bytes = 256;
    s.read_frac = 0.8;
    s.batch_read_frac = 0.2;
    s.ops_per_second = 2800;
    s.preload_positions = 2 * kTreeCache + 256;
    s.preload_entries = 8;
    s.position_zipf = 0.7;
    w.push_back(s);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Small helpers

double NowSeconds() {
  return static_cast<double>(RealClock::Global()->NowMicros()) / 1e6;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Returns the heap that set-up freed to the kernel and restarts the
/// resident-set high-water mark (VmHWM) from there, so the peak reported
/// covers serving, not the debris of the set-ups and their signing
/// threads (setup_s reports set-up's cost). Without the trim, that debris
/// moved the peak by 15% between identical runs. Returns false where the
/// kernel refuses the reset; the peak then covers the whole process.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// Peak resident set (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Zipf(s) over [0, n), rank 0 hottest; inverse-CDF sampling.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng& rng) const {
    size_t i = std::upper_bound(cdf_.begin(), cdf_.end(), rng.NextDouble()) -
               cdf_.begin();
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Runs fn(i) for i in [0, n) on up to `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, unsigned threads, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

struct Counters {
  MetricsSnapshot snap;
  uint64_t gas = 0;

  uint64_t C(const std::string& name) const { return snap.CounterValue(name); }
  HistogramSnapshot H(const std::string& name) const {
    const HistogramSnapshot* h = snap.FindHistogram(name);
    return h == nullptr ? HistogramSnapshot{} : *h;
  }
};

/// Mean of a histogram's change between two snapshots (0 when empty).
double DeltaMean(const Counters& a, const Counters& b,
                 const std::string& name) {
  HistogramSnapshot x = a.H(name), y = b.H(name);
  uint64_t n = y.count - x.count;
  return n == 0 ? 0.0 : static_cast<double>(y.sum - x.sum) / n;
}

double DeltaSum(const Counters& a, const Counters& b, const std::string& name) {
  return static_cast<double>(b.H(name).sum - a.H(name).sum);
}

uint64_t DeltaCount(const Counters& a, const Counters& b,
                    const std::string& name) {
  return b.H(name).count - a.H(name).count;
}

// ---------------------------------------------------------------------------
// The stack under test

struct Tenant {
  TenantId id = 0;
  std::vector<std::vector<AppendRequest>> batches;
  std::vector<std::vector<Bytes>> leaves;  ///< Serialized batches[b][i].
  std::mutex mu;
  std::vector<Stage1Response> recent;  ///< Ring of recently acked entries.
  size_t recent_next = 0;
};
constexpr size_t kRecent = 64;

struct Stack {
  std::string log_dir;
  std::unique_ptr<ShardedDeployment> d;
  std::unique_ptr<RpcServer> server;
  std::unique_ptr<TcpNodeClient> client;
  Address engine;
  std::vector<std::unique_ptr<Tenant>> tenants;
  /// audit_read: expected leaves per log id, from the preload.
  std::vector<std::vector<SharedBytes>> preload;
  uint64_t user_bytes = 0;  ///< Acked key+value bytes (durability ratio).

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (client != nullptr) client->Close();
    if (server != nullptr) server->Shutdown();
    client.reset();
    server.reset();
    d.reset();
    if (!log_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(log_dir, ec);
    }
  }

  Counters Snapshot() {
    Counters c;
    c.snap = d->telemetry().metrics.Snapshot();
    c.gas = d->chain().TotalGasUsed(engine);
    return c;
  }
};

ShardedDeploymentConfig DeploymentConfig(const WorkloadSpec& spec,
                                         const std::string& log_dir) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = spec.shards;
  config.engine.forest_stage2 = spec.forest;
  config.engine.epoch_ticks = spec.epoch_ticks;
  if (spec.store != StoreBackend::kMemory) {
    config.log_dir = log_dir;
    config.store_backend = spec.store;
    config.log_fsync = spec.fsync;
  }
  return config;
}

Bytes MakeKey(uint64_t tenant, uint64_t seq) {
  char buf[kKeyBytes + 1];
  std::snprintf(buf, sizeof(buf), "k%05" PRIu64 "-%09" PRIu64, tenant % 100000,
                seq % 1000000000);
  return Bytes(buf, buf + kKeyBytes);
}

/// Signs every tenant's corpus (in parallel; setup time).
void SignCorpus(Stack& s, const WorkloadSpec& spec, uint64_t seed,
                unsigned threads) {
  for (uint32_t t = 0; t < spec.tenants; ++t) {
    auto ten = std::make_unique<Tenant>();
    ten->id = t + 1;
    ten->batches.resize(spec.corpus_batches);
    ten->leaves.resize(spec.corpus_batches);
    s.tenants.push_back(std::move(ten));
  }
  const size_t jobs = static_cast<size_t>(spec.tenants) * spec.corpus_batches;
  ParallelFor(jobs, threads, [&](size_t j) {
    Tenant& ten = *s.tenants[j / spec.corpus_batches];
    size_t b = j % spec.corpus_batches;
    KeyPair key = KeyPair::FromSeed(seed * 1000003 + ten.id);
    Rng rng(seed * 7919 + j);
    for (uint32_t i = 0; i < spec.rpc_entries; ++i) {
      uint64_t seq = b * spec.rpc_entries + i;
      ten.batches[b].push_back(AppendRequest::Make(
          key, seq, MakeKey(ten.id, seq), rng.NextBytes(spec.value_bytes)));
      ten.leaves[b].push_back(ten.batches[b].back().Serialize());
    }
  });
}

/// audit_read setup: loads the positions straight into the engine (the
/// read benches' fast-preload knobs: no client-signature check, unsigned
/// append responses), then closes the deployment so the measured one is
/// reopened from disk with Recover().
Status Preload(Stack& s, const WorkloadSpec& spec, uint64_t seed,
               unsigned threads) {
  ShardedDeploymentConfig config = DeploymentConfig(spec, s.log_dir);
  config.engine.node.verify_client_signatures = false;
  config.engine.node.sign_stage1_responses = false;
  WEDGE_ASSIGN_OR_RETURN(auto d, ShardedDeployment::Create(config));
  const TenantId tenant = 1;
  KeyPair key = KeyPair::FromSeed(seed * 1000003 + tenant);
  // Signing runs in parallel; appends run in order, so position p holds
  // batch p and the same seed always lays out the same log.
  std::vector<std::vector<AppendRequest>> batches(spec.preload_positions);
  ParallelFor(spec.preload_positions, threads, [&](size_t p) {
    Rng rng(seed * 6151 + p);
    for (uint32_t i = 0; i < spec.preload_entries; ++i) {
      uint64_t seq = p * spec.preload_entries + i;
      batches[p].push_back(AppendRequest::Make(
          key, seq, MakeKey(tenant, seq), rng.NextBytes(spec.value_bytes)));
    }
  });
  for (uint64_t p = 0; p < spec.preload_positions; ++p) {
    WEDGE_ASSIGN_OR_RETURN(auto out,
                           d->engine().Append(tenant, std::move(batches[p])));
    if (out.size() != spec.preload_entries || out.front().index.log_id != p) {
      return Status::Internal("preload position " + std::to_string(p) +
                              " landed out of place");
    }
    std::vector<SharedBytes> leaves;
    for (const Stage1Response& r : out) leaves.push_back(r.entry);
    s.preload.push_back(std::move(leaves));
  }
  s.user_bytes = spec.preload_positions * spec.preload_entries *
                 (kKeyBytes + spec.value_bytes);
  return Status::Ok();
}

Result<std::unique_ptr<Stack>> Setup(const WorkloadSpec& spec, uint64_t seed,
                                     const std::string& log_dir,
                                     unsigned threads) {
  auto s = std::make_unique<Stack>();
  s->log_dir = log_dir;
  if (!log_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(log_dir, ec);
    std::filesystem::create_directories(log_dir, ec);
    if (ec) return Status::Internal("cannot create " + log_dir);
  }
  if (spec.preload_positions > 0) {
    WEDGE_RETURN_IF_ERROR(Preload(*s, spec, seed, threads));
  }
  ShardedDeploymentConfig config = DeploymentConfig(spec, log_dir);
  WEDGE_ASSIGN_OR_RETURN(s->d, ShardedDeployment::Create(config));
  s->engine = s->d->engine().address();
  if (spec.preload_positions > 0) {
    WEDGE_ASSIGN_OR_RETURN(auto report, s->d->engine().Recover());
    if (report.restaged_roots != spec.preload_positions) {
      return Status::Internal("recovery restaged " +
                              std::to_string(report.restaged_roots) +
                              " roots, expected " +
                              std::to_string(spec.preload_positions));
    }
  }

  ShardedLogEngine& engine = s->d->engine();
  s->server = std::make_unique<RpcServer>(
      [&engine](std::string_view op, const Bytes& body) {
        return DispatchEngineRpc(engine, op, body);
      },
      KeyPair::FromSeed(config.engine_key_seed), RpcServerConfig{},
      &s->d->telemetry());
  WEDGE_RETURN_IF_ERROR(s->server->Start());
  TcpClientConfig client_config;
  client_config.port = s->server->port();
  client_config.pool_size = 1;
  s->client = std::make_unique<TcpNodeClient>(
      KeyPair::FromSeed(seed + 0xC1),
      KeyPair::FromSeed(config.engine_key_seed).address(), client_config);
  WEDGE_RETURN_IF_ERROR(s->client->Connect());
  if (spec.corpus_batches > 0) SignCorpus(*s, spec, seed, threads);
  return s;
}

// ---------------------------------------------------------------------------
// Operations

enum class OpKind : uint8_t { kAppend, kRead, kReadBatch };

struct Op {
  OpKind kind = OpKind::kAppend;
  uint32_t tenant = 0;  ///< Index into Stack::tenants (0 for audit_read).
  uint32_t arg = 0;     ///< Corpus batch, recent-ring slot, or log id.
  uint32_t offset = 0;  ///< audit_read readT: entry within the position.
};

std::vector<Op> MakeOps(const WorkloadSpec& spec, uint64_t seed, size_t n) {
  uint64_t name_hash = 1469598103934665603ull;  // FNV-1a: stable everywhere.
  for (char c : spec.name) name_hash = (name_hash ^ c) * 1099511628211ull;
  Rng rng(seed * 2654435761u + name_hash);
  Zipf tenants(std::max<uint32_t>(1, spec.tenants), spec.tenant_zipf);
  std::optional<Zipf> positions;
  std::vector<uint32_t> position_of_rank;
  if (spec.preload_positions > 0) {
    positions.emplace(spec.preload_positions, spec.position_zipf);
    // Hot ranks land on seeded, scattered log ids.
    for (uint64_t p = 0; p < spec.preload_positions; ++p) {
      position_of_rank.push_back(static_cast<uint32_t>(p));
    }
    for (size_t i = position_of_rank.size() - 1; i > 0; --i) {
      std::swap(position_of_rank[i], position_of_rank[rng.Uniform(i + 1)]);
    }
  }
  std::vector<Op> ops(n);
  std::vector<uint32_t> next_batch(std::max<uint32_t>(1, spec.tenants), 0);
  for (Op& op : ops) {
    double u = rng.NextDouble();
    if (u < spec.batch_read_frac) {
      op.kind = OpKind::kReadBatch;
    } else if (u < spec.batch_read_frac + spec.read_frac) {
      op.kind = OpKind::kRead;
    } else {
      op.kind = OpKind::kAppend;
    }
    if (positions.has_value()) {
      op.arg = position_of_rank[positions->Sample(rng)];
      op.offset = static_cast<uint32_t>(rng.Uniform(spec.preload_entries));
      continue;
    }
    op.tenant = static_cast<uint32_t>(tenants.Sample(rng));
    if (op.kind == OpKind::kAppend) {
      op.arg = next_batch[op.tenant]++ % spec.corpus_batches;
    } else {
      op.arg = static_cast<uint32_t>(rng.Uniform(kRecent));
    }
  }
  return ops;
}

/// One finished operation as the client saw it.
struct OpSample {
  OpKind kind = OpKind::kAppend;
  bool ok = false;
  uint32_t entries = 0;
  double latency_us = 0;
  double late_us = 0;  ///< Open loop: how late the generator fired it.
};

/// One block per K acked append RPCs, advanced on its own thread.
class ChainDriver {
 public:
  ChainDriver(ShardedDeployment* d, uint32_t k, SpanLog* spans)
      : d_(d), k_(k), spans_(spans) {
    if (k_ > 0) thread_ = std::thread([this] { Loop(); });
  }
  ~ChainDriver() { Finish(); }
  ChainDriver(const ChainDriver&) = delete;
  ChainDriver& operator=(const ChainDriver&) = delete;

  void OnAck() {
    if (k_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (++acked_ % k_ == 0) cv_.notify_one();
  }

  /// Advances the blocks still owed for the acks so far, then stops.
  void Finish() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  uint64_t blocks() const { return blocks_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || acked_ / k_ > blocks_; });
      if (acked_ / k_ > blocks_) {
        ++blocks_;
        lock.unlock();
        {
          ScopedSpan span(*spans_, "chain.advance");
          d_->AdvanceBlocks(1);
        }
        lock.lock();
        continue;
      }
      if (stop_) return;
    }
  }

  ShardedDeployment* d_;
  const uint32_t k_;
  SpanLog* spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t acked_ = 0;
  uint64_t blocks_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

/// An acked entry kept for the post-drain oracle and for the replays.
struct Ack {
  uint32_t tenant = 0;
  Stage1Response response;
};

/// What the replays of a traced phase time in isolation.
struct Recorded {
  std::mutex mu;
  std::vector<std::pair<uint32_t, uint32_t>> appends;  ///< (tenant, batch).
  std::vector<std::vector<Stage1Response>> append_replies;
  std::vector<std::pair<uint32_t, Stage1Response>> reads;
  std::vector<BatchReadResponse> batch_reads;
  uint64_t seen = 0;  ///< Ops offered; every kRecordEvery-th is kept.
};
constexpr size_t kRecordEvery = 8;
constexpr size_t kMaxRecorded = 64;

class Runner {
 public:
  Runner(Stack& stack, SpanLog& spans) : s_(stack), spans_(spans) {}

  /// Executes one op synchronously and returns its sample. Acked entries
  /// are kept for the oracle; failures are described in errors().
  OpSample Exec(const Op& op, uint64_t trace_id, double start_us,
                ChainDriver* driver, Recorded* rec) {
    OpSample out;
    out.kind = op.kind;
    ScopedTrace scope(trace_id, trace_id != 0 ? "perfbench" : "");
    ScopedSpan root(spans_, "client.op", 0, trace_id);
    switch (op.kind) {
      case OpKind::kAppend:
        out.ok = DoAppend(op, root.id(), trace_id, driver, rec, &out.entries);
        break;
      case OpKind::kRead:
        out.ok = DoRead(op, root.id(), trace_id, rec, &out.entries);
        break;
      case OpKind::kReadBatch:
        out.ok = DoReadBatch(op, root.id(), trace_id, rec, &out.entries);
        break;
    }
    out.latency_us = static_cast<double>(RealClock::Global()->NowMicros()) -
                     start_us;
    return out;
  }

  std::vector<Ack> TakeAcks() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(acks_);
  }

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (errors_.size() < 16) errors_.push_back(what);
  }
  std::vector<std::string> errors() {
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }

 private:
  bool DoAppend(const Op& op, uint64_t parent, uint64_t trace_id,
                ChainDriver* driver, Recorded* rec, uint32_t* entries) {
    Tenant& ten = *s_.tenants[op.tenant];
    const std::vector<AppendRequest>& batch = ten.batches[op.arg];
    const std::vector<Bytes>& leaves = ten.leaves[op.arg];
    Result<std::vector<Stage1Response>> reply = Status::Internal("unset");
    {
      ScopedSpan span(spans_, "rpc.call", parent, trace_id);
      reply = s_.client->AppendForTenant(ten.id, batch);
    }
    if (!reply.ok()) {
      Fail("append: " + reply.status().ToString());
      return false;
    }
    const std::vector<Stage1Response>& rs = *reply;
    {
      // Cheap checks first: one response per request, a dense index
      // inside one position, the sent bytes echoed back, one shared root.
      ScopedSpan span(spans_, "client.check", parent, trace_id);
      if (rs.size() != batch.size()) {
        Fail("append: response count mismatch");
        return false;
      }
      for (size_t i = 0; i < rs.size(); ++i) {
        const Stage1Response& r = rs[i];
        if (r.index.log_id != rs[0].index.log_id || r.index.offset != i ||
            r.proof.log_id != r.index.log_id ||
            r.proof.shard_id != rs[0].proof.shard_id ||
            r.proof.mroot != rs[0].proof.mroot || !(r.entry == leaves[i])) {
          Fail("append: response " + std::to_string(i) + " fails cheap check");
          return false;
        }
      }
    }
    {
      ScopedSpan span(spans_, "client.verify", parent, trace_id);
      for (const Stage1Response& r : rs) {
        if (!r.Verify(s_.engine)) {
          Fail("append: stage-1 verification failed");
          return false;
        }
      }
    }
    *entries = static_cast<uint32_t>(rs.size());
    if (driver != nullptr) driver->OnAck();
    const Stage1Response& keep =
        rs[(op.arg * 7 + rs[0].index.log_id) % rs.size()];
    {
      std::lock_guard<std::mutex> lock(ten.mu);
      if (ten.recent.size() < kRecent) {
        ten.recent.push_back(keep);
      } else {
        ten.recent[ten.recent_next] = keep;
      }
      ten.recent_next = (ten.recent_next + 1) % kRecent;
    }
    uint64_t user_bytes = 0;
    for (const AppendRequest& req : batch) {
      user_bytes += req.key.size() + req.value.size();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      acks_.push_back(Ack{op.tenant, keep});
      s_.user_bytes += user_bytes;
    }
    if (rec != nullptr) {
      std::lock_guard<std::mutex> lock(rec->mu);
      if (rec->appends.size() < kMaxRecorded &&
          rec->seen++ % kRecordEvery == 0) {
        rec->appends.push_back({op.tenant, op.arg});
        rec->append_replies.push_back(rs);
      }
    }
    return true;
  }

  bool DoRead(const Op& op, uint64_t parent, uint64_t trace_id, Recorded* rec,
              uint32_t* entries) {
    Tenant* ten = s_.tenants.empty() ? nullptr : s_.tenants[op.tenant].get();
    TenantId tenant_id = ten == nullptr ? 1 : ten->id;
    EntryIndex index;
    SharedBytes expected;
    std::optional<Hash256> expected_root;
    if (ten == nullptr) {
      index = EntryIndex{op.arg, op.offset};
      expected = s_.preload[op.arg][op.offset];
    } else {
      std::lock_guard<std::mutex> lock(ten->mu);
      if (ten->recent.empty()) {
        Fail("read: tenant has no acked entry");
        return false;
      }
      const Stage1Response& target = ten->recent[op.arg % ten->recent.size()];
      index = target.index;
      expected = target.entry;
      expected_root = target.proof.mroot;
    }
    Result<Stage1Response> reply = Status::Internal("unset");
    {
      ScopedSpan span(spans_, "rpc.call", parent, trace_id);
      reply = s_.client->ReadOneForTenant(tenant_id, index);
    }
    if (!reply.ok()) {
      Fail("read: " + reply.status().ToString());
      return false;
    }
    {
      ScopedSpan span(spans_, "client.check", parent, trace_id);
      if (!(reply->index == index) || reply->proof.log_id != index.log_id ||
          !(reply->entry == expected) ||
          (expected_root.has_value() && reply->proof.mroot != *expected_root)) {
        Fail("read: response fails cheap check");
        return false;
      }
    }
    {
      ScopedSpan span(spans_, "client.verify", parent, trace_id);
      if (!reply->Verify(s_.engine)) {
        Fail("read: stage-1 verification failed");
        return false;
      }
    }
    *entries = 1;
    if (rec != nullptr) {
      std::lock_guard<std::mutex> lock(rec->mu);
      if (rec->reads.size() < kMaxRecorded &&
          rec->seen++ % kRecordEvery == 0) {
        rec->reads.push_back({op.tenant, *reply});
      }
    }
    return true;
  }

  bool DoReadBatch(const Op& op, uint64_t parent, uint64_t trace_id,
                   Recorded* rec, uint32_t* entries) {
    const std::vector<SharedBytes>& expected = s_.preload[op.arg];
    Result<BatchReadResponse> reply = Status::Internal("unset");
    {
      ScopedSpan span(spans_, "rpc.call", parent, trace_id);
      reply = s_.client->ReadBatchForTenant(1, op.arg, {});
    }
    if (!reply.ok()) {
      Fail("readBatch: " + reply.status().ToString());
      return false;
    }
    {
      ScopedSpan span(spans_, "client.check", parent, trace_id);
      if (reply->log_id != op.arg || reply->entries.size() != expected.size()) {
        Fail("readBatch: wrong position or entry count");
        return false;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (reply->entries[i].first != i ||
            !(reply->entries[i].second == expected[i].get())) {
          Fail("readBatch: entry " + std::to_string(i) + " differs");
          return false;
        }
      }
    }
    {
      ScopedSpan span(spans_, "client.verify", parent, trace_id);
      if (!reply->Verify(s_.engine)) {
        Fail("readBatch: verification failed");
        return false;
      }
    }
    *entries = static_cast<uint32_t>(expected.size());
    if (rec != nullptr) {
      std::lock_guard<std::mutex> lock(rec->mu);
      if (rec->batch_reads.size() < kMaxRecorded &&
          rec->seen++ % kRecordEvery == 0) {
        rec->batch_reads.push_back(*reply);
      }
    }
    return true;
  }

  Stack& s_;
  SpanLog& spans_;
  std::mutex mu_;
  std::vector<Ack> acks_;
  std::vector<std::string> errors_;
};

/// One fixed-work slice of a measured phase.
struct Round {
  size_t first = 0, last = 0;  ///< Sample indices [first, last).
  size_t op_first = 0;         ///< Op index of sample `first`.
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Result of one measured phase.
struct Phase {
  std::vector<OpSample> samples;
  std::vector<Round> rounds;
  uint64_t blocks = 0;
  Counters before, after;  ///< Around the phase (before the drain).
};

/// A phase runs its op list as this many equal slices, back to back. The
/// reported figures cover every slice, so periodic work (segment seals,
/// epoch closes) counts wherever it lands; the per-slice rate and CPU
/// cost go into the result row to show where a run's time went, and a
/// traced run pairs each untraced slice with a traced one.
constexpr size_t kRounds = 10;

/// Runs `ops` on `workers` threads, slice by slice: closed loop (each
/// worker takes the next op as soon as its previous one is accepted) or
/// open loop (the slice's k-th op is due k / rate after the slice starts;
/// latency runs from the due time). With `traced`, every slice runs twice
/// in a row, untraced then traced, so the two kinds of round see the
/// same work and the same machine and their ratio is the tracing cost.
Phase RunPhase(const WorkloadSpec& spec, Stack& s, Runner& runner,
               const std::vector<Op>& ops, unsigned workers, bool traced,
               SpanLog& spans, Recorded* rec, uint64_t trace_base) {
  Phase phase;
  for (size_t r = 0; r < kRounds; ++r) {
    for (bool with_trace : {false, true}) {
      if (with_trace && !traced) continue;
      Round round;
      round.op_first = ops.size() * r / kRounds;
      round.first = phase.samples.size();
      round.last =
          round.first + ops.size() * (r + 1) / kRounds - round.op_first;
      round.traced = with_trace;
      phase.rounds.push_back(round);
      phase.samples.resize(round.last);
    }
  }
  phase.before = s.Snapshot();
  ChainDriver driver(s.d.get(), spec.blocks_per_k, &spans);
  const double interval_us = spec.open_loop ? 1e6 / spec.ops_per_second : 0;
  for (Round& round : phase.rounds) {
    spans.Enable(round.traced);
    Recorded* round_rec = round.traced ? rec : nullptr;
    const double t0 = static_cast<double>(RealClock::Global()->NowMicros());
    const double cpu0 = CpuSeconds();
    std::atomic<size_t> next{round.first};
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (size_t i = next++; i < round.last; i = next++) {
          const size_t k = i - round.first;
          double due = t0 + interval_us * static_cast<double>(k);
          double now = static_cast<double>(RealClock::Global()->NowMicros());
          if (spec.open_loop && now < due) {
            usleep(static_cast<useconds_t>(due - now));
            now = static_cast<double>(RealClock::Global()->NowMicros());
          }
          double start = spec.open_loop ? due : now;
          OpSample sample =
              runner.Exec(ops[round.op_first + k],
                          round.traced ? trace_base + i + 1 : 0, start,
                          &driver, round_rec);
          sample.late_us = spec.open_loop ? std::max(0.0, now - due) : 0;
          phase.samples[i] = sample;
        }
      });
    }
    for (auto& th : pool) th.join();
    round.wall_s =
        (static_cast<double>(RealClock::Global()->NowMicros()) - t0) / 1e6;
    round.cpu_s = CpuSeconds() - cpu0;
  }
  spans.Enable(false);
  phase.after = s.Snapshot();
  driver.Finish();
  phase.blocks = driver.blocks();
  return phase;
}

/// Advances the chain until every acked root is confirmed. Returns the
/// blocks it took, or -1 when the chain did not settle.
int Drain(const WorkloadSpec& spec, Stack& s) {
  constexpr int kMaxBlocks = 256;
  ShardedLogEngine& engine = s.d->engine();
  for (int blocks = 0; blocks <= kMaxBlocks; ++blocks) {
    bool settled = true;
    if (spec.forest) {
      EpochRootAggregator* agg = engine.aggregator();
      // Roots are polled on every tick; before the first tick nothing
      // says every sealed root has been seen, so always tick once.
      settled = blocks > 0 && agg->staged_count() == 0 &&
                agg->epochs_unconfirmed() == 0;
    } else {
      for (uint32_t i = 0; i < engine.num_shards(); ++i) {
        settled = settled && engine.shard(i).UncommittedDigests() == 0 &&
                  engine.shard(i).PendingDigests() == 0;
      }
    }
    if (settled) return blocks;
    s.d->AdvanceBlocks(1);
  }
  return -1;
}

/// Def. 3.1 oracle on a seeded sample of acked entries: each must be
/// chain-committed with the root its signed response carries, and read
/// back byte-identical. Returns (checked, failed).
std::pair<uint64_t, uint64_t> CheckAcked(const WorkloadSpec& spec, Stack& s,
                                         Runner& runner,
                                         const std::vector<Ack>& acks,
                                         uint64_t seed, size_t want) {
  if (acks.empty()) return {0, 0};
  UserClient user = s.d->MakeUser(1, seed + 0x05E5);
  Rng rng(seed ^ 0x0AC1E);
  uint64_t checked = 0, failed = 0;
  for (size_t k = 0; k < std::min(want, acks.size()); ++k) {
    const Ack& ack = acks[rng.Uniform(acks.size())];
    const Stage1Response& r = ack.response;
    TenantId tenant = s.tenants.empty() ? 1 : s.tenants[ack.tenant]->id;
    ++checked;
    bool ok = true;
    std::string why;
    if (spec.forest) {
      auto agg = s.client->FetchAggregationProof(tenant, r.index.log_id);
      ok = agg.ok() && user.VerifyAggregation(r, *agg);
      if (ok) {
        auto check = user.CheckForestCommit(*agg);
        ok = check.ok() && *check == CommitCheck::kBlockchainCommitted;
      }
      if (!ok) why = "forest commit";
    } else {
      auto check = user.CheckBlockchainCommit(r);
      ok = check.ok() && *check == CommitCheck::kBlockchainCommitted;
      if (!ok) why = "blockchain commit";
    }
    if (ok) {
      auto back = s.client->ReadOneForTenant(tenant, r.index);
      ok = back.ok() && back->entry == r.entry &&
           back->proof.mroot == r.proof.mroot && back->Verify(s.engine);
      if (!ok) why = "read-back";
    }
    if (!ok) {
      ++failed;
      runner.Fail("oracle: log " + std::to_string(r.index.log_id) + " " + why);
    }
  }
  return {checked, failed};
}

/// audit_read: a seeded sample of preloaded entries must be readable
/// after Recover(), byte-identical and forest-committed.
std::vector<Ack> SamplePreload(Stack& s, uint64_t seed, size_t want,
                               Runner& runner, uint64_t* failed) {
  std::vector<Ack> acks;
  Rng rng(seed ^ 0x9E10AD);
  for (size_t k = 0; k < want; ++k) {
    uint64_t log_id = rng.Uniform(s.preload.size());
    uint32_t offset =
        static_cast<uint32_t>(rng.Uniform(s.preload[log_id].size()));
    auto r = s.client->ReadOneForTenant(1, EntryIndex{log_id, offset});
    if (!r.ok() || !(r->entry == s.preload[log_id][offset]) ||
        !r->Verify(s.engine)) {
      ++*failed;
      runner.Fail("recovered entry " + std::to_string(log_id) + "/" +
                  std::to_string(offset) + " unreadable");
      continue;
    }
    acks.push_back(Ack{0, *r});
  }
  return acks;
}

// ---------------------------------------------------------------------------
// Replays: each module's public function on the phase's recorded inputs,
// timed in isolation (traced runs only).

struct Replays {
  double codec_us_per_entry = 0;
  double engine_us_per_entry = 0;
  double build_us_per_entry = 0;
  double multiproof_us_per_entry = 0;
  double req_verify_us_per_entry = 0;
  double sign_many_us_per_entry = 0;
  double store_read_us_mean = 0;
};


Replays RunReplays(Stack& s, Recorded& rec, SpanLog& spans) {
  Replays out;
  ShardedLogEngine& engine = s.d->engine();
  auto per = [](double us, uint64_t n) {
    return n == 0 ? 0.0 : us / static_cast<double>(n);
  };

  // Inputs several replays share: the recorded positions' requests and
  // leaves (append batches, batch reads, or the positions single reads
  // hit), and the signed hash of every recorded response.
  std::vector<std::vector<AppendRequest>> batches;
  std::vector<std::vector<Bytes>> leaves;
  for (auto [t, b] : rec.appends) {
    batches.push_back(s.tenants[t]->batches[b]);
    leaves.push_back(s.tenants[t]->leaves[b]);
  }
  auto add_position = [&](const std::vector<Bytes>& position) {
    std::vector<AppendRequest> reqs;
    for (const Bytes& leaf : position) {
      auto req = AppendRequest::Deserialize(leaf);
      if (req.ok()) reqs.push_back(std::move(*req));
    }
    batches.push_back(std::move(reqs));
    leaves.push_back(position);
  };
  for (const BatchReadResponse& br : rec.batch_reads) {
    std::vector<Bytes> position;
    for (const auto& entry : br.entries) position.push_back(entry.second);
    add_position(position);
  }
  if (rec.appends.empty() && rec.batch_reads.empty()) {
    for (const auto& read : rec.reads) {
      uint64_t id = read.second.index.log_id;
      if (id >= s.preload.size()) continue;
      std::vector<Bytes> position;
      for (const SharedBytes& leaf : s.preload[id]) position.push_back(leaf);
      add_position(position);
    }
  }
  uint64_t batch_entries = 0;
  for (const auto& b : leaves) batch_entries += b.size();
  std::vector<Hash256> hashes;
  for (const auto& rs : rec.append_replies) {
    for (const Stage1Response& r : rs) hashes.push_back(r.SignedHash());
  }
  for (const auto& read : rec.reads) hashes.push_back(read.second.SignedHash());
  for (const BatchReadResponse& br : rec.batch_reads) {
    hashes.push_back(br.SignedHash());
  }
  auto tenant_id = [&s](uint32_t t) {
    return s.tenants.empty() ? TenantId{1} : s.tenants[t]->id;
  };

  // net: request and response encode + decode, as client and server do.
  uint64_t codec_entries = 0;
  double codec_us = spans.Time("replay.net.codec", [&] {
    for (size_t i = 0; i < rec.appends.size(); ++i) {
      const auto& [t, b] = rec.appends[i];
      RpcRequest req{1, std::string(kOpAppendTenant),
                     EncodeTenantAppendBody(tenant_id(t),
                                            s.tenants[t]->batches[b]), 0, ""};
      auto decoded = RpcRequest::Decode(req.Encode());
      ByteReader reader(decoded->body);
      (void)reader.ReadU64();
      uint32_t count = reader.ReadU32().value_or(0);
      for (uint32_t k = 0; k < count; ++k) {
        auto raw = reader.ReadBytes();
        if (raw.ok()) (void)AppendRequest::Deserialize(*raw);
      }
      Bytes reply;
      PutU32(reply, static_cast<uint32_t>(rec.append_replies[i].size()));
      for (const Stage1Response& r : rec.append_replies[i]) {
        PutBytes(reply, r.Serialize());
      }
      auto resp = RpcResponse::Decode(RpcResponse::Success(1, reply).Encode());
      (void)DecodeAppendReply(resp->body);
      codec_entries += count;
    }
    for (const auto& [t, r] : rec.reads) {
      RpcRequest req{1, std::string(kOpReadTenant),
                     EncodeTenantReadBody(tenant_id(t), r.index), 0, ""};
      (void)RpcRequest::Decode(req.Encode());
      auto resp =
          RpcResponse::Decode(RpcResponse::Success(1, r.Serialize()).Encode());
      (void)DecodeReadReply(resp->body);
      ++codec_entries;
    }
    for (const BatchReadResponse& br : rec.batch_reads) {
      RpcRequest req{1, std::string(kOpReadBatchTenant),
                     EncodeTenantReadBatchBody(1, br.log_id, {}), 0, ""};
      (void)RpcRequest::Decode(req.Encode());
      auto resp =
          RpcResponse::Decode(RpcResponse::Success(1, br.Serialize()).Encode());
      (void)DecodeReadBatchReply(resp->body);
      codec_entries += br.entries.size();
    }
  });
  out.codec_us_per_entry = per(codec_us, codec_entries);

  // merkle: tree builds and whole-position multi-proofs.
  std::vector<MerkleTree> trees;
  double build_us = spans.Time("replay.merkle.build", [&] {
    for (const auto& b : leaves) {
      auto tree = MerkleTree::Build(b);
      if (tree.ok()) trees.push_back(std::move(*tree));
    }
  });
  out.build_us_per_entry = per(build_us, batch_entries);
  double multiproof_us = spans.Time("replay.merkle.multiproof", [&] {
    for (const MerkleTree& tree : trees) {
      std::vector<uint64_t> all(tree.LeafCount());
      for (uint64_t i = 0; i < all.size(); ++i) all[i] = i;
      (void)BuildMultiProof(tree, std::move(all));
    }
  });
  out.multiproof_us_per_entry = per(multiproof_us, batch_entries);

  // crypto: the node's request-signature check and batched signing.
  uint64_t verified = 0;
  double verify_us = spans.Time("replay.crypto.req_verify", [&] {
    for (const auto& b : batches) {
      for (const AppendRequest& req : b) verified += req.VerifySignature();
    }
  });
  out.req_verify_us_per_entry = per(verify_us, verified);
  KeyPair signer = KeyPair::FromSeed(0x5167);
  double sign_us = spans.Time("replay.crypto.sign_many", [&] {
    (void)EcdsaSignMany(signer.private_key(), hashes);
  });
  out.sign_many_us_per_entry = per(sign_us, hashes.size());

  // storage: entry reads straight from the shard stores.
  std::vector<std::pair<TenantId, EntryIndex>> targets;
  for (size_t i = 0; i < rec.appends.size(); ++i) {
    targets.push_back({tenant_id(rec.appends[i].first),
                       rec.append_replies[i].front().index});
  }
  for (const auto& [t, r] : rec.reads) {
    targets.push_back({tenant_id(t), r.index});
  }
  for (const BatchReadResponse& br : rec.batch_reads) {
    targets.push_back({1, EntryIndex{br.log_id, 0}});
  }
  double store_us = spans.Time("replay.storage.read", [&] {
    for (const auto& [tenant, index] : targets) {
      (void)engine.shard(engine.ShardFor(tenant)).store().GetEntry(index);
    }
  });
  out.store_read_us_mean = per(store_us, targets.size());

  // shard: the engine's Append/ReadOne/ReadBatch without TCP. Appends go
  // last: they add positions to the live engine.
  uint64_t engine_entries = 0;
  double engine_us = spans.Time("replay.shard.engine", [&] {
    for (const auto& [t, r] : rec.reads) {
      engine_entries += engine.ReadOne(tenant_id(t), r.index).ok();
    }
    for (const BatchReadResponse& br : rec.batch_reads) {
      auto got = engine.ReadBatch(1, br.log_id, {});
      if (got.ok()) engine_entries += got->entries.size();
    }
    for (size_t i = 0; i < rec.appends.size(); ++i) {
      const auto& [t, b] = rec.appends[i];
      auto got = engine.Append(tenant_id(t), s.tenants[t]->batches[b]);
      if (got.ok()) engine_entries += got->size();
    }
  });
  out.engine_us_per_entry = per(engine_us, engine_entries);
  return out;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Latency summary of one op kind: exact p50/p99 with their counts.
struct LatencyRow {
  Percentile p50, p99;
};

LatencyRow Latency(const std::vector<OpSample>& samples, OpKind kind) {
  std::vector<double> v;
  for (const OpSample& s : samples) {
    if (s.ok && s.kind == kind) v.push_back(s.latency_us / 1000.0);
  }
  std::sort(v.begin(), v.end());
  return LatencyRow{PercentileOfSorted(v, 0.50), PercentileOfSorted(v, 0.99)};
}

std::string PercentileJson(const Percentile& p) {
  return "{\"value\": " + Num(p.value) + ", \"n\": " + std::to_string(p.n) +
         ", \"beyond\": " + std::to_string(p.beyond) +
         ", \"ok\": " + (p.ok ? "true" : "false") + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-results";
  std::string commit = "unknown";
  bool selftest = false;
};

struct Env {
  unsigned nproc = 1;
  unsigned workers = 1;      ///< Load threads issuing ops.
  unsigned connections = 1;  ///< One TcpNodeClient reader thread each.
  unsigned driver = 0;       ///< Chain driver thread (0 or 1).
  size_t ops = 0;
};

/// An untraced run sets the stack up this many times and reports the
/// median set-up time.
constexpr int kSetups = 5;
constexpr size_t kOracleSamples = 64;

std::string ProvenanceJson(const Args& args, const WorkloadSpec& spec,
                           const Env& env) {
  std::string flush = spec.store == StoreBackend::kMemory ? "none"
                      : spec.fsync ? "fsync-group-commit"
                                   : "group-flush";
  return "\"workload\": " + Quote(spec.name) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + std::to_string(args.seconds) +
         ", \"nproc\": " + std::to_string(env.nproc) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"store\": " + Quote(std::string(StoreBackendName(spec.store))) +
         ", \"flush\": " + Quote(flush) +
         ", \"commit\": " + Quote(args.commit) +
         ", \"shards\": " + std::to_string(spec.shards) +
         ", \"stage2\": " + Quote(spec.forest ? "forest" : "per-batch") +
         ", \"tenants\": " + std::to_string(spec.tenants) +
         ", \"k_appends_per_block\": " + std::to_string(spec.blocks_per_k) +
         ", \"loop\": " + Quote(spec.open_loop ? "open" : "closed") +
         ", \"open_rate_ops_per_s\": " +
         Num(spec.open_loop ? spec.ops_per_second : 0) +
         ", \"workers\": " + std::to_string(env.workers) +
         ", \"connections\": " + std::to_string(env.connections) +
         ", \"driver_threads\": " + std::to_string(env.driver);
}

/// Warm-up (untimed): spins up the pools and the lazily built EC tables,
/// and gives every tenant acked entries to read.
bool WarmUp(const WorkloadSpec& spec, Runner& runner) {
  std::vector<Op> ops;
  if (spec.preload_positions > 0) {
    ops = MakeOps(spec, 0x3A3A, 128);
  } else {
    for (uint32_t t = 0; t < spec.tenants; ++t) {
      const uint32_t batches = std::min<uint32_t>(2, spec.corpus_batches);
      for (uint32_t b = 0; b < batches; ++b) {
        ops.push_back(Op{OpKind::kAppend, t, b, 0});
      }
      if (spec.read_frac > 0) ops.push_back(Op{OpKind::kRead, t, 0, 0});
    }
    while (ops.size() < 16) ops.push_back(Op{OpKind::kAppend, 0, 0, 0});
  }
  for (const Op& op : ops) {
    double start = static_cast<double>(RealClock::Global()->NowMicros());
    if (!runner.Exec(op, 0, start, nullptr, nullptr).ok) return false;
  }
  (void)runner.TakeAcks();
  return true;
}

struct PhaseStats {
  uint64_t attempted = 0, failed = 0, entries = 0;
  uint64_t appends = 0, reads = 0, batch_reads = 0;
  // Over all the rounds of one kind: entries per measured second, CPU per
  // entry, and exact latency percentiles over every accepted op.
  double wall_s = 0;
  double entries_per_s = 0;
  double cpu_ms_per_kentry = 0;
  Percentile lat_p50, lat_p90, lat_p99;
  std::string rounds_json;  ///< Per-round figures for the result row.
};

/// Figures over the phase's rounds of one kind (traced or not).
PhaseStats Summarize(const Phase& p, bool traced) {
  PhaseStats st;
  double cpu_s = 0;
  std::vector<double> lat;
  st.rounds_json = "[";
  for (const Round& r : p.rounds) {
    if (r.traced != traced) continue;
    uint64_t entries = 0;
    for (size_t i = r.first; i < r.last; ++i) {
      const OpSample& s = p.samples[i];
      ++st.attempted;
      if (!s.ok) {
        ++st.failed;
        continue;
      }
      entries += s.entries;
      st.appends += s.kind == OpKind::kAppend;
      st.reads += s.kind == OpKind::kRead;
      st.batch_reads += s.kind == OpKind::kReadBatch;
      lat.push_back(s.latency_us / 1000.0);
    }
    st.entries += entries;
    st.wall_s += r.wall_s;
    cpu_s += r.cpu_s;
    if (st.rounds_json.size() > 1) st.rounds_json += ", ";
    st.rounds_json +=
        "{\"ops\": " + std::to_string(r.last - r.first) +
        ", \"wall_s\": " + Num(r.wall_s) + ", \"entries_per_s\": " +
        Num(r.wall_s > 0 ? entries / r.wall_s : 0) +
        ", \"cpu_ms_per_kentry\": " +
        Num(entries > 0 ? r.cpu_s * 1e6 / entries : 0) + "}";
  }
  st.rounds_json += "]";
  std::sort(lat.begin(), lat.end());
  st.lat_p50 = PercentileOfSorted(lat, 0.50);
  st.lat_p90 = PercentileOfSorted(lat, 0.90);
  st.lat_p99 = PercentileOfSorted(lat, 0.99);
  st.entries_per_s = st.wall_s > 0 ? st.entries / st.wall_s : 0;
  st.cpu_ms_per_kentry = st.entries > 0 ? cpu_s * 1e6 / st.entries : 0;
  return st;
}

void PrintErrors(Runner& runner) {
  for (const std::string& e : runner.errors()) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
}

int Finish(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// A stack ready for its measured phase.
struct Prepared {
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;  ///< Seconds each set-up took.
  bool rss_reset = false;       ///< See ResetPeakRss.
};

/// Sets the stack up `setups` times, each from scratch, keeping the last
/// one, and warms it up. Returns no stack (after saying why) on failure.
Prepared Prepare(const Args& args, const WorkloadSpec& spec, const Env& env,
                 const std::string& run_dir, int setups) {
  Prepared out;
  for (int i = 0; i < setups; ++i) {
    out.stack.reset();
    double t0 = NowSeconds();
    auto s = Setup(spec, args.seed,
                   spec.store == StoreBackend::kMemory
                       ? ""
                       : run_dir + "/setup-" + std::to_string(i),
                   env.nproc);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   s.status().ToString().c_str());
      return Prepared{};
    }
    out.stack = std::move(s).value();
    out.setup_s.push_back(NowSeconds() - t0);
  }
  out.rss_reset = ResetPeakRss();
  SpanLog spans;
  Runner runner(*out.stack, spans);
  if (!WarmUp(spec, runner) || Drain(spec, *out.stack) < 0) {
    PrintErrors(runner);
    std::fprintf(stderr, "perfbench: warm-up failed\n");
    return Prepared{};
  }
  return out;
}

/// What the chain and the oracle say once a measured phase is over.
struct Settled {
  int drain_blocks = 0;
  Counters drained;  ///< After the drain.
  uint64_t oracle_checked = 0, oracle_failed = 0;
};

/// Drains the chain, then runs the Def. 3.1 oracle on a seeded sample of
/// the phase's acks (audit_read: of the preloaded entries, read back after
/// Recover()). Failures are recorded in the runner.
Settled Settle(const WorkloadSpec& spec, Stack& s, Runner& runner,
               uint64_t seed) {
  Settled out;
  out.drain_blocks = Drain(spec, s);
  out.drained = s.Snapshot();
  std::vector<Ack> acks = runner.TakeAcks();
  if (spec.preload_positions > 0) {
    acks = SamplePreload(s, seed, kOracleSamples, runner, &out.oracle_failed);
    out.oracle_checked += kOracleSamples;
  }
  auto [checked, failed] =
      CheckAcked(spec, s, runner, acks, seed, kOracleSamples);
  out.oracle_checked += checked;
  out.oracle_failed += failed;
  if (out.drain_blocks < 0) {
    runner.Fail("chain did not settle after the measured phase");
    ++out.oracle_failed;
  }
  return out;
}

int RunUntraced(const Args& args, const WorkloadSpec& spec, const Env& env,
                const std::string& run_dir) {
  Prepared prep = Prepare(args, spec, env, run_dir, kSetups);
  if (prep.stack == nullptr) return 1;
  Stack& s = *prep.stack;
  SpanLog spans;
  Runner runner(s, spans);
  std::vector<Op> ops = MakeOps(spec, args.seed, env.ops);
  Phase phase =
      RunPhase(spec, s, runner, ops, env.workers, false, spans, nullptr, 0);
  const Settled end = Settle(spec, s, runner, args.seed);
  PhaseStats st = Summarize(phase, false);

  const uint64_t attempted = st.attempted + end.oracle_checked;
  const uint64_t failed_total = st.failed + end.oracle_failed;
  const uint64_t appended_entries =
      st.appends * static_cast<uint64_t>(spec.rpc_entries);
  const uint64_t txs = end.drained.C("wedge.chain.txs_mined") -
                       phase.before.C("wedge.chain.txs_mined");
  const uint64_t gas = end.drained.gas - phase.before.gas;
  const double peak_rss = PeakRssMb();
  const double setup_median = Median(prep.setup_s);
  LatencyRow app = Latency(phase.samples, OpKind::kAppend);
  LatencyRow rd = Latency(phase.samples, OpKind::kRead);
  LatencyRow rb = Latency(phase.samples, OpKind::kReadBatch);
  const double stored_ratio =
      s.log_dir.empty() || s.user_bytes == 0
          ? 0
          : static_cast<double>(DirBytes(s.log_dir)) / s.user_bytes;

  std::string setups = "[";
  for (size_t i = 0; i < prep.setup_s.size(); ++i) {
    setups += (i ? ", " : "") + Num(prep.setup_s[i]);
  }
  setups += "]";
  std::string row =
      "{\"row\": \"perfbench\", " + ProvenanceJson(args, spec, env) +
      ", \"ops\": " + std::to_string(ops.size()) +
      ", \"append_ops\": " + std::to_string(st.appends) +
      ", \"read_ops\": " + std::to_string(st.reads) +
      ", \"read_batch_ops\": " + std::to_string(st.batch_reads) +
      ", \"entries\": " + std::to_string(st.entries) +
      ", \"measured_s\": " + Num(st.wall_s) +
      ", \"setup_s\": " + Num(setup_median) + ", \"setup_runs_s\": " + setups +
      ", \"rounds\": " + st.rounds_json +
      ", \"entries_per_s\": " + Num(st.entries_per_s) +
      ", \"op_lat_p50_ms\": " + PercentileJson(st.lat_p50) +
      ", \"op_lat_p90_ms\": " + PercentileJson(st.lat_p90) +
      ", \"op_lat_p99_ms\": " + PercentileJson(st.lat_p99) +
      ", \"append_lat_p50_ms\": " + PercentileJson(app.p50) +
      ", \"append_lat_p99_ms\": " + PercentileJson(app.p99) +
      ", \"read_lat_p50_ms\": " + PercentileJson(rd.p50) +
      ", \"read_lat_p99_ms\": " + PercentileJson(rd.p99) +
      ", \"read_batch_lat_p50_ms\": " + PercentileJson(rb.p50) +
      ", \"read_batch_lat_p99_ms\": " + PercentileJson(rb.p99) +
      ", \"cpu_ms_per_kentry\": " + Num(st.cpu_ms_per_kentry) +
      ", \"peak_rss_mb\": " + Num(peak_rss) +
      ", \"peak_rss_since\": " + Quote(prep.rss_reset ? "serving" : "start") +
      ", \"gas_per_kentry\": " +
      Num(appended_entries > 0 ? gas * 1000.0 / appended_entries : 0) +
      ", \"chain_txs\": " + std::to_string(txs) +
      ", \"chain_txs_per_kentry\": " +
      Num(appended_entries > 0 ? txs * 1000.0 / appended_entries : 0) +
      ", \"blocks\": " + std::to_string(phase.blocks) +
      ", \"drain_blocks\": " + std::to_string(end.drain_blocks) +
      ", \"bytes_stored_per_user_byte\": " + Num(stored_ratio) +
      ", \"oracle_checked\": " + std::to_string(end.oracle_checked) +
      ", \"failed_ops_frac\": " +
      Num(attempted > 0 ? static_cast<double>(failed_total) / attempted : 0) +
      "}";
  std::printf("%s\n", row.c_str());
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::ofstream(args.out_dir + "/" + spec.name + "-seed" +
                std::to_string(args.seed) + ".json")
      << row << "\n";
  PrintErrors(runner);

  if (!st.lat_p90.ok) {
    std::fprintf(stderr, "perfbench: too few samples beyond p90 (%llu)\n",
                 static_cast<unsigned long long>(st.lat_p90.beyond));
  }
  return Finish(failed_total == 0, attempted, failed_total,
                {{"setup_s", setup_median, "s"},
                 {"entries_per_s", st.entries_per_s, "1/s"},
                 {"op_lat_p50_ms", st.lat_p50.value, "ms"},
                 {"op_lat_p90_ms", st.lat_p90.value, "ms"},
                 {"cpu_ms_per_kentry", st.cpu_ms_per_kentry, "ms"},
                 {"peak_rss_mb", peak_rss, "MB"}});
}

int RunTraced(const Args& args, const WorkloadSpec& spec, const Env& env,
              const std::string& run_dir) {
  Prepared prep = Prepare(args, spec, env, run_dir, 1);
  if (prep.stack == nullptr) return 1;
  Stack& s = *prep.stack;
  SpanLog spans;
  Runner runner(s, spans);
  // Every slice of the work runs untraced and then traced; the ratio of
  // the two kinds of round is the cost of tracing, everything else comes
  // from the traced rounds (spans) and the whole phase (counters).
  std::vector<Op> ops = MakeOps(spec, args.seed, env.ops);
  Recorded rec;
  Phase tr = RunPhase(spec, s, runner, ops, env.workers, true, spans, &rec,
                      args.seed << 32);
  const Settled end = Settle(spec, s, runner, args.seed);
  std::vector<Span> all = spans.Take();
  PhaseStats bst = Summarize(tr, false);
  PhaseStats st = Summarize(tr, true);

  Replays rp = RunReplays(s, rec, spans);
  std::vector<Span> replay_spans = spans.Take();
  all.insert(all.end(), replay_spans.begin(), replay_spans.end());

  const Counters& a = tr.before;
  const Counters& b = tr.after;
  const Counters& d = end.drained;
  auto span_mean = [&all](const char* name) {
    double sum = 0;
    uint64_t n = 0;
    SpanLog::Totals(all, name, &sum, &n);
    return n == 0 ? 0.0 : sum / n;
  };
  auto span_sum = [&all](const char* name) {
    double sum = 0;
    uint64_t n = 0;
    SpanLog::Totals(all, name, &sum, &n);
    return sum;
  };
  // Span figures cover the traced rounds; counter deltas cover the whole
  // phase, both kinds of round.
  auto per_traced_entry = [&st](double v) {
    return st.entries == 0 ? 0.0 : v / static_cast<double>(st.entries);
  };
  const uint64_t phase_entries = st.entries + bst.entries;
  auto per_entry = [phase_entries](double v) {
    return phase_entries == 0 ? 0.0 : v / static_cast<double>(phase_entries);
  };
  double server_sum = 0;
  uint64_t server_n = 0;
  for (const char* h :
       {"wedge.rpc.append_us", "wedge.rpc.read_us",
        "wedge.rpc.read_batch_us"}) {
    server_sum += DeltaSum(a, b, h);
    server_n += DeltaCount(a, b, h);
  }
  const double server_mean = server_n == 0 ? 0 : server_sum / server_n;
  const uint64_t appended =
      (st.appends + bst.appends) * static_cast<uint64_t>(spec.rpc_entries);
  const uint64_t txs =
      d.C("wedge.chain.txs_mined") - a.C("wedge.chain.txs_mined");
  const uint64_t hits = b.C("wedge.node.tree_cache_hits") -
                        a.C("wedge.node.tree_cache_hits");
  const uint64_t misses = b.C("wedge.node.tree_cache_misses") -
                          a.C("wedge.node.tree_cache_misses");
  uint64_t quota = 0;
  for (const char* c : {"wedge.engine.quota_rejections_inflight",
                        "wedge.engine.quota_rejections_rate",
                        "wedge.engine.quota_rejections_tenant"}) {
    quota += b.C(c) - a.C(c);
  }
  std::vector<double> late;
  uint64_t samples = 0;
  for (const Round& r : tr.rounds) {
    if (!r.traced) continue;
    for (size_t i = r.first; i < r.last; ++i) {
      const OpSample& o = tr.samples[i];
      if (!o.ok) continue;
      ++samples;
      late.push_back(o.late_us / 1000.0);
    }
  }
  const double overhead_pct =
      bst.entries_per_s > 0
          ? (bst.entries_per_s - st.entries_per_s) / bst.entries_per_s * 100
          : 0;

  std::vector<Metric> metrics = {
      {"rpc.server_us_mean", server_mean, "us"},
      {"rpc.wire_gap_us_mean", span_mean("rpc.call") - server_mean, "us"},
      {"rpc.bytes_out_per_entry",
       per_entry(b.C("wedge.rpc.bytes_out") - a.C("wedge.rpc.bytes_out")), "B"},
      {"rpc.bytes_in_per_entry",
       per_entry(b.C("wedge.rpc.bytes_in") - a.C("wedge.rpc.bytes_in")), "B"},
      {"net.codec_us_per_entry", rp.codec_us_per_entry, "us"},
      {"shard.engine_us_per_entry", rp.engine_us_per_entry, "us"},
      {"shard.quota_rejections", static_cast<double>(quota), "count"},
      {"shard.epochs_closed",
       static_cast<double>(d.C("wedge.engine.epochs_closed") -
                           a.C("wedge.engine.epochs_closed")),
       "count"},
      {"shard.epoch_leaves_mean", DeltaMean(a, d, "wedge.engine.epoch_leaves"),
       "count"},
      {"core.append_us_mean", DeltaMean(a, b, "wedge.node.append_us"), "us"},
      {"core.seal_us_mean", DeltaMean(a, b, "wedge.node.seal_us"), "us"},
      {"core.sign_us_per_entry",
       per_entry(DeltaSum(a, b, "wedge.node.sign_us")), "us"},
      {"core.read_us_mean", DeltaMean(a, b, "wedge.node.read_us"), "us"},
      {"core.tree_cache_hit_ratio",
       hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses),
       "ratio"},
      {"merkle.build_us_per_entry", rp.build_us_per_entry, "us"},
      {"merkle.multiproof_us_per_entry", rp.multiproof_us_per_entry, "us"},
      {"crypto.req_verify_us_per_entry", rp.req_verify_us_per_entry, "us"},
      {"crypto.sign_many_us_per_entry", rp.sign_many_us_per_entry, "us"},
      {"storage.commit_batch_mean",
       DeltaMean(a, b, "wedge.store.group_commit_batch"), "count"},
      {"storage.commit_wait_us_mean",
       DeltaMean(a, b, "wedge.store.group_commit_wait_us"), "us"},
      {"storage.sync_us_mean",
       DeltaMean(a, b, "wedge.store.group_commit_sync_us"), "us"},
      {"storage.read_us_mean", rp.store_read_us_mean, "us"},
      {"storage.seals",
       static_cast<double>(d.C("wedge.store.seals") - a.C("wedge.store.seals")),
       "count"},
      {"chain.advance_ms_mean", span_mean("chain.advance") / 1000.0, "ms"},
      {"chain.txs_per_kentry", appended == 0 ? 0.0 : txs * 1000.0 / appended,
       "count"},
      {"chain.gas_per_tx",
       txs == 0 ? 0.0 : static_cast<double>(d.gas - a.gas) / txs, "gas"},
      {"client.verify_us_per_entry",
       per_traced_entry(span_sum("client.verify")), "us"},
      {"client.gen_late_ms_p99", PercentileOf(late, 0.99).value, "ms"},
      {"client.samples", static_cast<double>(samples), "count"},
      {"telemetry.trace_overhead_pct", overhead_pct, "%"},
  };

  const uint64_t attempted =
      st.attempted + bst.attempted + end.oracle_checked;
  const uint64_t failed_total = st.failed + bst.failed + end.oracle_failed;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem =
      args.out_dir + "/" + spec.name + "-seed" + std::to_string(args.seed);
  SpanLog::WriteJsonl(all, stem + "-spans.jsonl");
  std::string row = "{\"row\": \"perfbench-traced\", " +
                    ProvenanceJson(args, spec, env) +
                    ", \"ops\": " + std::to_string(ops.size()) +
                    ", \"entries\": " + std::to_string(phase_entries) +
                    ", \"untraced_entries_per_s\": " + Num(bst.entries_per_s) +
                    ", \"traced_entries_per_s\": " + Num(st.entries_per_s) +
                    ", \"trace_overhead_pct\": " + Num(overhead_pct) +
                    ", \"spans\": " + std::to_string(all.size()) +
                    ", \"failed\": " + std::to_string(failed_total) +
                    ", \"per_layer\": " + MetricsJson(metrics) + "}";
  std::ofstream(stem + "-per_layer.json") << row << "\n";
  std::printf("%s\n", row.c_str());
  PrintErrors(runner);
  return Finish(failed_total == 0, attempted, failed_total, metrics);
}

unsigned CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|durable_mixed|audit_read "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--out-dir DIR] [--commit SHA]\n"
               "       perfbench --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(v.c_str());
    } else if (flag == "--trace") {
      args.trace = v == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else if (flag == "--commit") {
      args.commit = v;
    } else {
      return Usage();
    }
  }
  const int selftest_failures = PercentileSelfTest();
  if (args.selftest || selftest_failures != 0) {
    std::printf("percentile self-test: %d failure(s)\n", selftest_failures);
    return selftest_failures == 0 ? 0 : 1;
  }
  std::optional<WorkloadSpec> spec;
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == args.workload) spec = w;
  }
  if (!spec.has_value() || args.seconds < 1) return Usage();

  Env env;
  env.nproc = CpuCount();
  env.connections = 1;
  env.driver = spec->blocks_per_k > 0 ? 1 : 0;
  env.workers = env.nproc > env.connections + env.driver + 1
                    ? env.nproc - env.connections - env.driver
                    : 1;
  env.ops = static_cast<size_t>(
      std::max(1.0, std::round(spec->ops_per_second * args.seconds)));

  const std::string run_dir = args.out_dir + "/run-" +
                              std::to_string(getpid()) + "-" + spec->name;
  int rc = args.trace ? RunTraced(args, *spec, env, run_dir)
                      : RunUntraced(args, *spec, env, run_dir);
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#ifndef WEDGEBLOCK_TOOLS_CHAOS_HARNESS_H_
#define WEDGEBLOCK_TOOLS_CHAOS_HARNESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/fault_transport.h"
#include "shard/fleet_router.h"
#include "shard/sharded_engine.h"

namespace wedge {

/// One spawned `wedgeblockd` process.
struct DaemonProcess {
  pid_t pid = -1;
  int out_fd = -1;          ///< Read end of the child's stdout pipe.
  uint16_t port = 0;        ///< Scraped from "LISTENING <port>".
  uint16_t admin_port = 0;  ///< Scraped from "ADMIN <port>".
  /// Stdout up to both lines (e.g. the "RECOVERED ..." line a --recover
  /// start prints before it listens).
  std::string startup_output;
};

/// Forks and execs `args` (args[0] is the daemon binary; the args must
/// include `--admin-port`), then waits up to `timeout` for the daemon to
/// print "LISTENING <port>" and "ADMIN <port>". A daemon that exits or
/// times out first is killed and reaped, and the call fails.
Result<DaemonProcess> SpawnDaemon(const std::vector<std::string>& args,
                                  Micros timeout);
/// Sends `sig` (SIGKILL = crash, SIGTERM = graceful drain), reaps the
/// process and closes its pipe. Keeps `port`, so a restart can reuse it.
void StopDaemon(DaemonProcess& daemon, int sig);

/// A chaos fleet: N `wedgeblockd` shard processes, each a single-shard
/// forest-mode engine (`--forest --log-dir ...`) over real TCP.
/// Together they form the PR-5 sharded topology split across OS
/// processes: tenants map to processes via the client-side
/// consistent-hash ring (FleetRouter), stage 2 runs through each
/// process's own journaled epoch aggregator, and a SIGKILL'd process can
/// be restarted over its log directory with `--recover`.
struct ChaosFleetOptions {
  std::string daemon_binary;  ///< Path to the wedgeblockd executable.
  std::string work_dir;       ///< Scratch root; per-proc log dirs below it.
  uint32_t num_procs = 3;
  int64_t mine_ms = 25;       ///< Sim-chain block interval per process.
  uint32_t epoch_blocks = 4;  ///< Blocks per forest epoch.
  uint32_t batch = 4;         ///< Stage-1 Merkle batch size.
  bool fsync = false;         ///< SIGKILL survives the page cache either way.
  /// Shard store implementation passed through as `--store`.
  StoreBackend store = StoreBackend::kFile;
  /// Segment backend: seal every N positions (default tiny, so even the
  /// short scenario workload crosses seal boundaries and the SIGKILL +
  /// recovery exercise both sealed segments and the WAL tail).
  uint64_t segment_positions = 4;
  /// How long to wait for a spawned daemon to print "LISTENING <port>".
  Micros spawn_timeout = 60 * kMicrosPerSecond;
};

/// Spawns and supervises the fleet. Every mutator is synchronous:
/// Start() returns once the daemon accepts connections, Kill() once the
/// process is reaped. The destructor SIGKILLs anything still alive.
class ChaosFleet {
 public:
  explicit ChaosFleet(ChaosFleetOptions options);
  ~ChaosFleet();

  ChaosFleet(const ChaosFleet&) = delete;
  ChaosFleet& operator=(const ChaosFleet&) = delete;

  Status StartAll();
  /// (Re)starts process `i`. With `recover` the daemon replays its
  /// aggregator journal and resubmits unconfirmed epochs before serving.
  /// A restart reuses the port scraped at first launch, so clients
  /// redial transparently.
  Status Start(uint32_t i, bool recover);
  /// Sends `sig` (SIGKILL = crash, SIGTERM = graceful drain) and reaps.
  Status Kill(uint32_t i, int sig);
  bool Alive(uint32_t i);

  uint16_t port(uint32_t i) const { return procs_[i].daemon.port; }
  /// Ephemeral admin (observability) port of process `i` — every daemon
  /// is spawned with `--admin-port 0` and the scraped port is refreshed
  /// on each (re)start. 0 while the process is down.
  uint16_t admin_port(uint32_t i) const {
    return procs_[i].daemon.admin_port;
  }
  /// "host:port", the key FaultyTransport partitions are scoped by.
  std::string EndpointKey(uint32_t i) const;
  std::vector<FleetEndpoint> Endpoints() const;
  /// Scrapes /metrics.json from every live process's admin endpoint and
  /// writes one JSONL file at `path`: a {"kind": "scrape_target"} header
  /// line per process followed by its raw metric lines. Dead or
  /// unresponsive processes get an up=false header. This is the
  /// post-mortem a failed audit leaves behind.
  Status DumpFleetSnapshot(const std::string& path);
  /// The transport/proof address every process signs with (the fleet
  /// shares one engine key seed).
  const Address& engine_address() const { return engine_address_; }
  uint32_t size() const { return static_cast<uint32_t>(procs_.size()); }

 private:
  struct Proc {
    /// `daemon.port` is 0 until the first scrape and stable afterwards;
    /// the admin port is ephemeral and rescraped on every spawn.
    DaemonProcess daemon;
    std::string log_dir;
  };

  Status Spawn(Proc& proc, bool recover);

  ChaosFleetOptions options_;
  Address engine_address_;
  std::vector<Proc> procs_;
};

/// One client-acked entry — the durability obligation the audit checks.
struct AckedEntry {
  TenantId tenant = 0;
  uint64_t log_id = 0;
  uint32_t offset = 0;
  /// The acked leaf bytes (serialized AppendRequest): what a re-read
  /// after recovery must return byte-for-byte.
  Bytes entry;
};

struct ChaosWorkloadStats {
  uint64_t batches_attempted = 0;
  uint64_t batches_acked = 0;
  uint64_t batches_failed = 0;  ///< Typed failures; never enter the ledger.
  uint64_t entries_acked = 0;
};

/// Appends `batches` batches of `entries_per_batch` seeded random
/// entries, round-robin across tenants 0..tenants-1 (publisher key seed
/// 0x9A00 + tenant, sequence counters in `seqs`). Each response is
/// stage-1 verified against `engine` before its entry is recorded in
/// `ledger`: only entries the client would treat as acked count.
ChaosWorkloadStats RunChaosWorkload(FleetRouter& router,
                                    const Address& engine, uint32_t tenants,
                                    int batches, int entries_per_batch,
                                    int value_bytes, Rng& rng,
                                    std::vector<uint64_t>& seqs,
                                    std::vector<AckedEntry>* ledger);

struct ChaosAuditReport {
  uint64_t acked = 0;       ///< Ledger size.
  uint64_t readable = 0;    ///< ReadOne succeeded post-chaos.
  uint64_t stage1_ok = 0;   ///< Fresh response verified + payload matches.
  uint64_t proof_ok = 0;    ///< Distinct (tenant, log) forest proofs OK.
  uint64_t proof_total = 0; ///< Distinct (tenant, log) pairs audited.
  uint64_t lost = 0;        ///< Acked entries that failed any check.
  Micros audit_micros = 0;
  bool zero_loss() const { return lost == 0 && proof_ok == proof_total; }
};

/// Two-level audit of every acked entry: (1) ReadOne returns it and the
/// fresh Stage1Response verifies with the original key/value; (2) for
/// every distinct (tenant, log) a forest AggregationProof verifies
/// against the engine address. Polls with retries until `timeout` —
/// recovered processes need a few epochs to resubmit journaled roots.
ChaosAuditReport AuditAckedEntries(FleetRouter& router, const Address& engine,
                                   const std::vector<AckedEntry>& ledger,
                                   Micros timeout);

/// Seed-derived fault schedule. Pure: the same (seed, procs) always
/// yields the same victims and timings, which is what makes a chaos run
/// reproducible; wall-clock interleaving still varies run to run, but
/// the zero-loss guarantee must hold under every interleaving.
struct ChaosSchedule {
  uint32_t kill_victim = 0;       ///< SIGKILL mid-epoch, later --recover.
  uint32_t partition_victim = 0;  ///< Timed client<->process partition.
  uint32_t restart_victim = 0;    ///< Graceful SIGTERM restart (aggregator).
  Micros partition_micros = 0;    ///< How long the partition stays up.
};
ChaosSchedule MakeChaosSchedule(uint64_t seed, uint32_t procs);

struct ChaosRunOptions {
  ChaosFleetOptions fleet;
  uint64_t seed = 0xC4A05;
  uint32_t tenants = 6;
  int batches_per_round = 8;
  int entries_per_batch = 4;
  int value_bytes = 64;
  Micros audit_timeout = 45 * kMicrosPerSecond;
};

struct ChaosRunReport {
  ChaosSchedule schedule;
  ChaosWorkloadStats workload;
  ChaosAuditReport audit;
  /// Acked entries per fleet process (ring position of their tenants) —
  /// proves the SIGKILL victim actually held obligations.
  std::vector<uint64_t> acked_per_shard;
  /// Crash restart (--recover) to every acked entry auditable.
  Micros recovery_micros = 0;
  uint64_t client_retries = 0;
  uint64_t breaker_trips = 0;
  uint64_t fast_fails = 0;
  /// Where the failed-audit fleet snapshot was written (empty when the
  /// audit passed or the dump itself failed).
  std::string snapshot_path;
};

/// The scripted scenario the acceptance gate names: healthy warm-up,
/// SIGKILL one process mid-epoch, a timed partition of a second, a
/// graceful restart of a third, recovery of the crashed process with
/// --recover, a final healthy round, then the full two-level audit.
/// Requires fleet.num_procs >= 3.
Result<ChaosRunReport> RunChaosScenario(const ChaosRunOptions& options);

}  // namespace wedge

#endif  // WEDGEBLOCK_TOOLS_CHAOS_HARNESS_H_

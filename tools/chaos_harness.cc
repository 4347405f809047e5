#include "tools/chaos_harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "net/http_client.h"

namespace wedge {
namespace {

Status MakeDir(const std::string& path) {
  if (mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return Status::Internal("mkdir " + path + ": " + std::strerror(errno));
}

}  // namespace

Result<DaemonProcess> SpawnDaemon(const std::vector<std::string>& args,
                                  Micros timeout) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Child: stdout -> pipe, then exec the daemon.
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);  // exec failed.
  }
  close(fds[1]);
  DaemonProcess daemon;
  daemon.pid = pid;
  daemon.out_fd = fds[0];

  // Scrape "LISTENING <port>" (printed after recovery, before serving)
  // and "ADMIN <port>" (printed right after it).
  std::string& scraped = daemon.startup_output;
  Micros deadline = RealClock::Global()->NowMicros() + timeout;
  while (true) {
    size_t at = scraped.find("LISTENING ");
    size_t admin_at = scraped.find("ADMIN ");
    if (at != std::string::npos && admin_at != std::string::npos) {
      size_t eol = scraped.find('\n', at);
      size_t admin_eol = scraped.find('\n', admin_at);
      if (eol != std::string::npos && admin_eol != std::string::npos) {
        long port = std::strtol(scraped.c_str() + at + 10, nullptr, 10);
        long admin = std::strtol(scraped.c_str() + admin_at + 6, nullptr, 10);
        if (port <= 0 || port > 65535 || admin <= 0 || admin > 65535) {
          StopDaemon(daemon, SIGKILL);
          return Status::Internal("daemon printed a bad port");
        }
        daemon.port = static_cast<uint16_t>(port);
        daemon.admin_port = static_cast<uint16_t>(admin);
        return daemon;
      }
    }
    Micros now = RealClock::Global()->NowMicros();
    if (now >= deadline) {
      StopDaemon(daemon, SIGKILL);
      return Status::Timeout("daemon never printed LISTENING");
    }
    pollfd pfd{daemon.out_fd, POLLIN, 0};
    int timeout_ms = static_cast<int>((deadline - now) / kMicrosPerMilli);
    if (poll(&pfd, 1, std::max(timeout_ms, 1)) <= 0) continue;
    char buf[512];
    ssize_t n = read(daemon.out_fd, buf, sizeof(buf));
    if (n <= 0) {
      // Daemon died before listening (port clash, bad flag, ...).
      StopDaemon(daemon, SIGKILL);
      return Status::Unavailable("daemon exited during startup: " + scraped);
    }
    scraped.append(buf, static_cast<size_t>(n));
  }
}

void StopDaemon(DaemonProcess& daemon, int sig) {
  if (daemon.pid > 0) {
    kill(daemon.pid, sig);
    int status = 0;
    waitpid(daemon.pid, &status, 0);
  }
  daemon.pid = -1;
  daemon.admin_port = 0;
  if (daemon.out_fd >= 0) {
    close(daemon.out_fd);
    daemon.out_fd = -1;
  }
}

ChaosFleet::ChaosFleet(ChaosFleetOptions options)
    : options_(std::move(options)),
      // Every process signs with the deployment's default engine key, so
      // one pinned address verifies proofs from the whole fleet.
      engine_address_(
          KeyPair::FromSeed(ShardedDeploymentConfig{}.engine_key_seed)
              .address()) {
  procs_.resize(options_.num_procs);
  for (uint32_t i = 0; i < options_.num_procs; ++i) {
    procs_[i].log_dir = options_.work_dir + "/proc-" + std::to_string(i);
  }
}

ChaosFleet::~ChaosFleet() {
  for (uint32_t i = 0; i < size(); ++i) {
    if (procs_[i].daemon.pid > 0) (void)Kill(i, SIGKILL);
  }
}

Status ChaosFleet::StartAll() {
  WEDGE_RETURN_IF_ERROR(MakeDir(options_.work_dir));
  for (uint32_t i = 0; i < size(); ++i) {
    WEDGE_RETURN_IF_ERROR(MakeDir(procs_[i].log_dir));
    WEDGE_RETURN_IF_ERROR(Start(i, /*recover=*/false));
  }
  return Status::Ok();
}

Status ChaosFleet::Start(uint32_t i, bool recover) {
  if (i >= size()) return Status::InvalidArgument("no such process");
  if (procs_[i].daemon.pid > 0) {
    return Status::FailedPrecondition("already running");
  }
  return Spawn(procs_[i], recover);
}

Status ChaosFleet::Spawn(Proc& proc, bool recover) {
  std::vector<std::string> args = {
      options_.daemon_binary,
      "--forest",
      "--log-dir", proc.log_dir,
      "--batch", std::to_string(options_.batch),
      "--epoch-blocks", std::to_string(options_.epoch_blocks),
      "--mine-ms", std::to_string(options_.mine_ms),
      "--node-threads", "1",
      "--workers", "1",
      // A restart must land on the port clients already dialed.
      "--port", std::to_string(proc.daemon.port),
      // Observability endpoint on an ephemeral port (scraped below);
      // a restart may land anywhere, fleetmon re-resolves per round.
      "--admin-port", "0",
  };
  args.push_back("--store");
  args.push_back(std::string(StoreBackendName(options_.store)));
  if (options_.store == StoreBackend::kSegment &&
      options_.segment_positions > 0) {
    args.push_back("--segment-positions");
    args.push_back(std::to_string(options_.segment_positions));
  }
  if (options_.fsync) args.push_back("--fsync");
  if (recover) args.push_back("--recover");
  WEDGE_ASSIGN_OR_RETURN(proc.daemon,
                         SpawnDaemon(args, options_.spawn_timeout));
  return Status::Ok();
}

Status ChaosFleet::Kill(uint32_t i, int sig) {
  if (i >= size()) return Status::InvalidArgument("no such process");
  Proc& proc = procs_[i];
  if (proc.daemon.pid <= 0) return Status::FailedPrecondition("not running");
  StopDaemon(proc.daemon, sig);
  return Status::Ok();
}

bool ChaosFleet::Alive(uint32_t i) {
  if (i >= size() || procs_[i].daemon.pid <= 0) return false;
  int status = 0;
  pid_t r = waitpid(procs_[i].daemon.pid, &status, WNOHANG);
  if (r == 0) return true;
  procs_[i].daemon.pid = -1;  // Reaped: it died behind our back.
  return false;
}

std::string ChaosFleet::EndpointKey(uint32_t i) const {
  return "127.0.0.1:" + std::to_string(procs_[i].daemon.port);
}

std::vector<FleetEndpoint> ChaosFleet::Endpoints() const {
  std::vector<FleetEndpoint> out;
  out.reserve(procs_.size());
  for (const Proc& proc : procs_) {
    out.push_back(FleetEndpoint{"127.0.0.1", proc.daemon.port});
  }
  return out;
}

Status ChaosFleet::DumpFleetSnapshot(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot write " + path + ": " +
                            std::strerror(errno));
  }
  for (uint32_t i = 0; i < size(); ++i) {
    bool up = false;
    std::string body;
    if (Alive(i) && admin_port(i) != 0) {
      auto resp = HttpGet("127.0.0.1", admin_port(i), "/metrics.json",
                          3 * kMicrosPerSecond);
      if (resp.ok() && resp->status == 200) {
        up = true;
        body = std::move(resp->body);
      }
    }
    std::fprintf(f,
                 "{\"kind\": \"scrape_target\", \"proc\": %u, \"port\": %u, "
                 "\"admin_port\": %u, \"up\": %s}\n",
                 i, port(i), admin_port(i),
                 up ? "true" : "false");
    if (up) {
      std::fwrite(body.data(), 1, body.size(), f);
      if (!body.empty() && body.back() != '\n') std::fputc('\n', f);
    }
  }
  std::fclose(f);
  return Status::Ok();
}

ChaosWorkloadStats RunChaosWorkload(FleetRouter& router,
                                    const Address& engine, uint32_t tenants,
                                    int batches, int entries_per_batch,
                                    int value_bytes, Rng& rng,
                                    std::vector<uint64_t>& seqs,
                                    std::vector<AckedEntry>* ledger) {
  ChaosWorkloadStats stats;
  std::vector<KeyPair> publishers;
  publishers.reserve(tenants);
  for (uint32_t t = 0; t < tenants; ++t) {
    publishers.push_back(KeyPair::FromSeed(0x9A00 + t));
  }
  if (seqs.size() < tenants) seqs.resize(tenants, 0);

  for (int b = 0; b < batches; ++b) {
    uint32_t tenant = static_cast<uint32_t>(b) % tenants;
    std::vector<AppendRequest> requests;
    requests.reserve(entries_per_batch);
    for (int e = 0; e < entries_per_batch; ++e) {
      requests.push_back(AppendRequest::Make(
          publishers[tenant], seqs[tenant]++, ToBytes(rng.NextString(8)),
          rng.NextBytes(static_cast<size_t>(value_bytes))));
    }
    ++stats.batches_attempted;
    auto responses = router.Append(tenant, requests);
    if (!responses.ok()) {
      ++stats.batches_failed;
      continue;
    }
    ++stats.batches_acked;
    for (const Stage1Response& response : *responses) {
      // Only an ack a real client would accept counts as an obligation.
      if (!response.Verify(engine)) continue;
      ++stats.entries_acked;
      if (ledger != nullptr) {
        ledger->push_back(AckedEntry{tenant, response.index.log_id,
                                     response.index.offset,
                                     response.entry.get()});
      }
    }
  }
  return stats;
}

ChaosAuditReport AuditAckedEntries(FleetRouter& router, const Address& engine,
                                   const std::vector<AckedEntry>& ledger,
                                   Micros timeout) {
  ChaosAuditReport report;
  report.acked = ledger.size();
  Micros started = RealClock::Global()->NowMicros();
  Micros deadline = started + timeout;

  for (const AckedEntry& acked : ledger) {
    bool ok = false;
    while (RealClock::Global()->NowMicros() < deadline) {
      auto read = router.ReadOne(
          acked.tenant, EntryIndex{acked.log_id, acked.offset});
      if (read.ok()) {
        ++report.readable;
        if (read->Verify(engine) && read->entry.get() == acked.entry) {
          ++report.stage1_ok;
          ok = true;
        }
        break;  // A wrong payload will not improve with retries.
      }
      // kUnavailable / circuit-open while the process recovers: retry.
      usleep(100 * 1000);
    }
    if (!ok) ++report.lost;
  }

  // Level two: one forest proof per distinct (tenant, log).
  std::map<std::pair<TenantId, uint64_t>, bool> logs;
  for (const AckedEntry& acked : ledger) {
    logs.emplace(std::make_pair(acked.tenant, acked.log_id), false);
  }
  report.proof_total = logs.size();
  for (auto& [key, done] : logs) {
    while (!done && RealClock::Global()->NowMicros() < deadline) {
      auto proof = router.FetchAggregationProof(key.first, key.second);
      if (proof.ok()) {
        done = proof->log_id == key.second && proof->Verify(engine);
        break;  // A bad proof is a verdict, not a transient.
      }
      // NotFound until the recovered aggregator closes/resubmits the
      // epoch; kUnavailable while the breaker is still reprobing.
      usleep(100 * 1000);
    }
    if (done) ++report.proof_ok;
  }
  report.audit_micros = RealClock::Global()->NowMicros() - started;
  return report;
}

ChaosSchedule MakeChaosSchedule(uint64_t seed, uint32_t procs) {
  ChaosSchedule schedule;
  Rng rng(seed ^ 0xC4A055EEDull);
  schedule.kill_victim = static_cast<uint32_t>(rng.Uniform(procs));
  schedule.partition_victim =
      (schedule.kill_victim + 1 + static_cast<uint32_t>(
                                      rng.Uniform(procs > 1 ? procs - 1 : 1))) %
      procs;
  do {
    schedule.restart_victim = static_cast<uint32_t>(rng.Uniform(procs));
  } while (procs >= 3 && (schedule.restart_victim == schedule.kill_victim ||
                          schedule.restart_victim ==
                              schedule.partition_victim));
  schedule.partition_micros =
      (300 + rng.Uniform(400)) * kMicrosPerMilli;
  return schedule;
}

Result<ChaosRunReport> RunChaosScenario(const ChaosRunOptions& options) {
  if (options.fleet.num_procs < 3) {
    return Status::InvalidArgument("scenario needs >= 3 processes");
  }
  ChaosRunReport report;
  report.schedule = MakeChaosSchedule(options.seed, options.fleet.num_procs);
  const ChaosSchedule& schedule = report.schedule;

  ChaosFleet fleet(options.fleet);
  WEDGE_RETURN_IF_ERROR(fleet.StartAll());

  // The fault layer is a pure partition switch here (no random drops):
  // the scripted schedule is the randomness, derived from the seed.
  auto faults = std::make_shared<FaultyTransport>(FaultSpec{});
  FleetRouterConfig router_config;
  router_config.endpoints = fleet.Endpoints();
  router_config.client.rpc_timeout = 2 * kMicrosPerSecond;
  router_config.client.faults = faults;
  router_config.client.retry_jitter_seed = options.seed;
  FleetRouter router(KeyPair::FromSeed(0xC11E), fleet.engine_address(),
                     router_config);
  WEDGE_RETURN_IF_ERROR(router.Connect());

  Rng rng(options.seed);
  std::vector<uint64_t> seqs(options.tenants, 0);
  std::vector<AckedEntry> ledger;
  auto run_round = [&] {
    ChaosWorkloadStats stats = RunChaosWorkload(
        router, fleet.engine_address(), options.tenants,
        options.batches_per_round, options.entries_per_batch,
        options.value_bytes, rng, seqs, &ledger);
    report.workload.batches_attempted += stats.batches_attempted;
    report.workload.batches_acked += stats.batches_acked;
    report.workload.batches_failed += stats.batches_failed;
    report.workload.entries_acked += stats.entries_acked;
  };

  // Round 1: healthy warm-up. Entries land mid-epoch by construction —
  // the kill below does not wait for an epoch boundary.
  run_round();

  // Fault 1: SIGKILL one process mid-epoch. Its tenants' appends fail
  // typed from here; everything already acked is the audit's business.
  WEDGE_RETURN_IF_ERROR(fleet.Kill(schedule.kill_victim, SIGKILL));
  run_round();

  // Fault 2: timed partition of a second process (client-side drops, the
  // process itself keeps mining and closing epochs).
  faults->Partition(fleet.EndpointKey(schedule.partition_victim));
  Micros partition_started = RealClock::Global()->NowMicros();
  run_round();
  Micros partition_elapsed =
      RealClock::Global()->NowMicros() - partition_started;
  if (partition_elapsed < schedule.partition_micros) {
    usleep(static_cast<useconds_t>(schedule.partition_micros -
                                   partition_elapsed));
  }
  faults->Heal(fleet.EndpointKey(schedule.partition_victim));

  // Fault 3: graceful restart of a third process (the "aggregator
  // restart": SIGTERM drains in-flight replies, --recover replays the
  // journal; on the fresh sim chain every journaled epoch resubmits).
  WEDGE_RETURN_IF_ERROR(fleet.Kill(schedule.restart_victim, SIGTERM));
  WEDGE_RETURN_IF_ERROR(fleet.Start(schedule.restart_victim,
                                    /*recover=*/true));

  // Recovery: restart the crashed process over its log directory.
  Micros recover_started = RealClock::Global()->NowMicros();
  WEDGE_RETURN_IF_ERROR(fleet.Start(schedule.kill_victim, /*recover=*/true));

  // Round 4: the whole fleet must serve again (breakers reprobe).
  run_round();

  report.acked_per_shard.assign(options.fleet.num_procs, 0);
  for (const AckedEntry& acked : ledger) {
    ++report.acked_per_shard[router.ShardFor(acked.tenant)];
  }
  report.audit = AuditAckedEntries(router, fleet.engine_address(), ledger,
                                   options.audit_timeout);
  if (!report.audit.zero_loss()) {
    // Post-mortem: freeze the fleet's metrics before tearing it down so
    // a failed audit leaves per-process counters (ingest totals, error
    // responses, aggregator progress) next to the work dir's logs.
    std::string snapshot = options.fleet.work_dir + "/fleet_snapshot.jsonl";
    if (fleet.DumpFleetSnapshot(snapshot).ok()) {
      report.snapshot_path = snapshot;
    }
  }
  report.recovery_micros =
      RealClock::Global()->NowMicros() - recover_started;
  report.client_retries = router.retries();
  report.breaker_trips = router.breaker_trips();
  report.fast_fails = router.fast_fails();
  router.Close();
  return report;
}

}  // namespace wedge

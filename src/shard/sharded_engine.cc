#include "shard/sharded_engine.h"

#include "storage/log_store.h"
#include "storage/segstore/segment_store.h"

namespace wedge {

ShardedLogEngine::ShardedLogEngine(const ShardedEngineConfig& config,
                                   KeyPair engine_key, Telemetry* telemetry)
    : config_(config),
      key_(std::move(engine_key)),
      router_(config.num_shards, config.router_vnodes),
      telemetry_(telemetry) {
  if (telemetry_ == nullptr) {
    owned_telemetry_ = std::make_unique<Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
}

Result<std::unique_ptr<ShardedLogEngine>> ShardedLogEngine::Create(
    const ShardedEngineConfig& config, KeyPair engine_key,
    std::vector<std::unique_ptr<LogStore>> stores, Blockchain* chain,
    const Address& root_record_address, Telemetry* telemetry,
    std::unique_ptr<AggregatorJournal> journal) {
  if (config.num_shards == 0 || config.num_shards > 256) {
    return Status::InvalidArgument("num_shards must be in [1, 256]");
  }
  if (journal != nullptr && !config.forest_stage2) {
    return Status::InvalidArgument(
        "the aggregator journal is meaningless without forest_stage2");
  }
  if (!config.forest_stage2 && config.num_shards != 1) {
    return Status::InvalidArgument(
        "classic per-shard stage-2 (forest_stage2=false) is only the "
        "degenerate single-shard configuration");
  }
  if (!stores.empty() && stores.size() != config.num_shards) {
    return Status::InvalidArgument("store count != num_shards");
  }
  if (config.authenticate_tenants && !config.node.verify_client_signatures) {
    return Status::InvalidArgument(
        "authenticate_tenants binds tenant ids to publisher keys, which "
        "is meaningless without verify_client_signatures");
  }

  std::unique_ptr<ShardedLogEngine> e(
      new ShardedLogEngine(config, std::move(engine_key), telemetry));
  e->admission_ = std::make_unique<AdmissionController>(
      config.quota,
      chain != nullptr ? static_cast<const Clock*>(chain->clock())
                       : RealClock::Global(),
      &e->telemetry_->metrics);

  for (uint32_t i = 0; i < config.num_shards; ++i) {
    OffchainNodeConfig node_config = config.node;
    // Every shard signs with the same engine key, so the shard identity
    // must live inside the signed stage-1 statement — otherwise two
    // shards' dense log-id namespaces collide and honest signatures can
    // be replayed across shards as fake "equivocation" evidence.
    node_config.shard_id = i;
    Blockchain* shard_chain = chain;
    if (config.forest_stage2) {
      // Forest mode: the aggregator owns stage 2; shards never submit.
      node_config.auto_stage2 = false;
      shard_chain = nullptr;
    }
    std::unique_ptr<LogStore> store =
        stores.empty() ? std::make_unique<MemoryLogStore>()
                       : std::move(stores[i]);
    e->shards_.push_back(std::make_unique<OffchainNode>(
        node_config, e->key_, std::move(store), shard_chain,
        root_record_address, e->telemetry_));

    std::string prefix = "wedge.shard." + std::to_string(i) + ".";
    e->shard_counters_.push_back(ShardCounters{
        e->telemetry_->metrics.GetCounter(prefix + "appends"),
        e->telemetry_->metrics.GetCounter(prefix + "entries"),
        e->telemetry_->metrics.GetCounter(prefix + "reads"),
    });
  }

  if (config.forest_stage2) {
    std::vector<OffchainNode*> shard_ptrs;
    for (auto& s : e->shards_) shard_ptrs.push_back(s.get());
    e->aggregator_ = std::make_unique<EpochRootAggregator>(
        std::move(shard_ptrs), e->key_, chain, root_record_address,
        e->telemetry_);
    if (journal != nullptr) {
      e->journal_ = std::move(journal);
      WEDGE_RETURN_IF_ERROR(e->aggregator_->AttachJournal(e->journal_.get()));
    }
  }
  return e;
}

Result<ShardedLogEngine::RecoveryReport> ShardedLogEngine::Recover() {
  RecoveryReport report;

  // Storage-tier reconciliation happened when each shard's store was
  // opened (segment backend: O(segments) trailer reads + WAL-tail
  // replay, stray .tmp cleanup); fold what it found into the one report
  // so a single Recover() call accounts for every layer — segment store,
  // stage-2 journal, on-chain roots.
  for (auto& shard : shards_) {
    if (auto* seg = dynamic_cast<SegmentLogStore*>(&shard->store())) {
      const SegmentLogStore::RecoveryInfo& info = seg->recovery();
      report.store_segments += info.segments;
      report.store_wal_positions += info.wal_positions;
      report.store_wal_truncated_bytes += info.wal_truncated_bytes;
      report.store_tmp_files_removed += info.tmp_files_removed;
    }
  }

  if (aggregator_ == nullptr) {
    // Per-batch stage 2: every sealed position the chain has not
    // recorded is re-journaled on its shard, whose submitter resubmits it.
    for (auto& shard : shards_) {
      WEDGE_ASSIGN_OR_RETURN(uint64_t requeued, shard->Recover());
      report.restaged_roots += requeued;
    }
  } else {
    report.journaled_epochs = aggregator_->epochs_closed();
    // Shard-tail reconciliation: the file stores already replayed every
    // sealed (hence acked) batch; anything past the journal's per-shard
    // cursors was sealed but never epoch-assigned, so stage it now and
    // close it into fresh epochs (journaled, then submitted).
    aggregator_->PollShards();
    report.restaged_roots = aggregator_->staged_count();
    while (aggregator_->staged_count() > 0) {
      WEDGE_RETURN_IF_ERROR(aggregator_->CloseEpoch().status());
      ++report.recovered_epochs;
    }
    // Chain reconciliation for everything replayed from the journal.
    WEDGE_RETURN_IF_ERROR(aggregator_->RecoverEpochs(
        &report.resubmitted_epochs, &report.confirmed_epochs));
  }

  Counter* restaged =
      telemetry_->metrics.GetCounter("wedge.engine.recover_restaged");
  Counter* resubmits =
      telemetry_->metrics.GetCounter("wedge.engine.recover_resubmits");
  restaged->Add(report.restaged_roots);
  resubmits->Add(report.resubmitted_epochs);
  return report;
}

Result<std::vector<Stage1Response>> ShardedLogEngine::Append(
    TenantId tenant, std::vector<AppendRequest> requests) {
  if (config_.authenticate_tenants) {
    // Before any quota is charged: the claimed tenant must be the one
    // derived from the publisher key of every request. The shard then
    // verifies those publishers' signatures, so a spoofer would need the
    // victim's key — checked here, a mismatched id can neither spend a
    // victim's budget nor register junk tenants.
    for (const AppendRequest& req : requests) {
      if (PublisherTenant(req.publisher) != tenant) {
        return Status::PermissionDenied(
            "append under tenant " + std::to_string(tenant) +
            " carries a request from publisher " + req.publisher.ToHex() +
            " (tenant " + std::to_string(PublisherTenant(req.publisher)) +
            ")");
      }
    }
  }
  WEDGE_RETURN_IF_ERROR(admission_->AdmitAppend(tenant, requests.size()));
  uint32_t s = router_.ShardFor(tenant);
  size_t entries = requests.size();
  auto result = shards_[s]->Append(std::move(requests));
  // Refund rate tokens for entries the shard dropped (forged signatures,
  // whole-call failure): junk submitted under a tenant's name must not
  // drain the budget of appends that never landed.
  size_t appended = result.ok() ? result.value().size() : 0;
  admission_->EndAppend(tenant, entries - appended);
  if (result.ok()) {
    shard_counters_[s].appends->Add(1);
    shard_counters_[s].entries->Add(appended);
  }
  return result;
}

Result<Stage1Response> ShardedLogEngine::ReadOne(TenantId tenant,
                                                 const EntryIndex& index) {
  uint32_t s = router_.ShardFor(tenant);
  auto result = shards_[s]->ReadOne(index);
  if (result.ok()) shard_counters_[s].reads->Add(1);
  return result;
}

Result<BatchReadResponse> ShardedLogEngine::ReadBatch(
    TenantId tenant, uint64_t log_id, std::vector<uint32_t> offsets) {
  uint32_t s = router_.ShardFor(tenant);
  auto result = shards_[s]->ReadBatch(log_id, std::move(offsets));
  if (result.ok()) shard_counters_[s].reads->Add(1);
  return result;
}

Result<AggregationProof> ShardedLogEngine::ProveAggregation(
    TenantId tenant, uint64_t log_id) {
  if (aggregator_ == nullptr) {
    return Status::FailedPrecondition(
        "aggregation proofs need forest_stage2");
  }
  return aggregator_->Prove(router_.ShardFor(tenant), log_id);
}

void ShardedLogEngine::Tick() {
  ++ticks_;
  if (aggregator_ == nullptr) {
    for (auto& shard : shards_) shard->Stage2Tick();
    return;
  }
  aggregator_->PollShards();
  uint32_t every = config_.epoch_ticks == 0 ? 1 : config_.epoch_ticks;
  if (ticks_ % every == 0) {
    // NotFound just means an empty epoch — no transaction to waste.
    (void)aggregator_->CloseEpoch();
  }
  aggregator_->Tick();
}

Result<TxId> ShardedLogEngine::AggregateNow() {
  if (aggregator_ == nullptr) {
    return Status::FailedPrecondition(
        "aggregation needs forest_stage2");
  }
  for (auto& shard : shards_) {
    // Seal whatever is staged so the poll below sees it; an empty stage
    // is not an error here.
    (void)shard->FlushStagedBatch();
  }
  aggregator_->PollShards();
  return aggregator_->CloseEpoch();
}

Status ShardedLogEngine::RetireTenant(TenantId tenant) {
  OffchainNode& shard = *shards_[router_.ShardFor(tenant)];
  auto* seg = dynamic_cast<SegmentLogStore*>(&shard.store());
  if (seg == nullptr) {
    return Status::FailedPrecondition(
        "tenant retirement needs the segment store backend");
  }
  return seg->RetireTenant(tenant);
}

Result<uint64_t> ShardedLogEngine::CompactStorage() {
  uint64_t reclaimed = 0;
  for (auto& shard : shards_) {
    auto* seg = dynamic_cast<SegmentLogStore*>(&shard->store());
    if (seg == nullptr) continue;
    WEDGE_ASSIGN_OR_RETURN(SegmentLogStore::CompactionStats stats,
                           seg->Compact());
    reclaimed += stats.bytes_reclaimed;
  }
  return reclaimed;
}

Result<std::unique_ptr<ShardedDeployment>> ShardedDeployment::Create(
    const ShardedDeploymentConfig& config, uint64_t publisher_seed) {
  std::unique_ptr<ShardedDeployment> d(new ShardedDeployment());
  d->config_ = config;
  d->publisher_seed_ = publisher_seed;
  d->telemetry_ = std::make_unique<Telemetry>(&d->clock_);
  d->chain_ = std::make_unique<Blockchain>(config.chain, &d->clock_,
                                           d->telemetry_.get());

  KeyPair engine_key = KeyPair::FromSeed(config.engine_key_seed);
  KeyPair publisher_key = KeyPair::FromSeed(publisher_seed);
  d->chain_->Fund(engine_key.address(), config.engine_funding);
  d->chain_->Fund(publisher_key.address(), config.client_funding);

  WEDGE_ASSIGN_OR_RETURN(
      d->root_record_address_,
      d->chain_->Deploy(
          engine_key.address(),
          std::make_unique<RootRecordContract>(engine_key.address())));
  WEDGE_ASSIGN_OR_RETURN(
      d->punishment_address_,
      d->chain_->Deploy(
          engine_key.address(),
          std::make_unique<PunishmentContract>(
              publisher_key.address(), engine_key.address(),
              d->root_record_address_,
              d->clock_.NowSeconds() + config.escrow_lock_seconds,
              config.omission_grace_seconds),
          config.escrow));

  std::vector<std::unique_ptr<LogStore>> stores;
  std::unique_ptr<AggregatorJournal> journal;
  if (!config.log_dir.empty()) {
    StoreBackendOptions store_options;
    store_options.fsync = config.log_fsync;
    store_options.segment_positions = config.store_segment_positions;
    store_options.metrics = &d->telemetry_->metrics;
    for (uint32_t i = 0; i < config.engine.num_shards; ++i) {
      const std::string base =
          config.log_dir + "/shard-" + std::to_string(i);
      const std::string path =
          config.store_backend == StoreBackend::kSegment ? base + ".seg"
                                                         : base + ".log";
      WEDGE_ASSIGN_OR_RETURN(
          auto store, OpenLogStore(config.store_backend, path, store_options));
      stores.push_back(std::move(store));
    }
    if (config.engine.forest_stage2) {
      AggregatorJournal::Options journal_options;
      journal_options.fsync_on_append = config.log_fsync;
      WEDGE_ASSIGN_OR_RETURN(
          journal, AggregatorJournal::Open(
                       config.log_dir + "/aggregator.journal",
                       journal_options));
    }
  }
  WEDGE_ASSIGN_OR_RETURN(
      d->engine_,
      ShardedLogEngine::Create(config.engine, engine_key, std::move(stores),
                               d->chain_.get(), d->root_record_address_,
                               d->telemetry_.get(), std::move(journal)));
  return d;
}

PublisherClient ShardedDeployment::MakePublisher(TenantId tenant) {
  KeyPair key = KeyPair::FromSeed(publisher_seed_);
  PublisherClient publisher(
      std::move(key), &engine_->shard(engine_->ShardFor(tenant)),
      chain_.get(), root_record_address_, punishment_address_);
  publisher.set_omission_grace_seconds(config_.omission_grace_seconds);
  return publisher;
}

UserClient ShardedDeployment::MakeUser(TenantId tenant, uint64_t seed) {
  KeyPair key = KeyPair::FromSeed(seed);
  chain_->Fund(key.address(), config_.client_funding);
  return UserClient(std::move(key),
                    &engine_->shard(engine_->ShardFor(tenant)),
                    chain_.get(), root_record_address_);
}

void ShardedDeployment::AdvanceBlocks(int count) {
  for (int i = 0; i < count; ++i) {
    clock_.AdvanceSeconds(config_.chain.block_interval_seconds);
    chain_->PumpUntilNow();
    engine_->Tick();
  }
}

}  // namespace wedge

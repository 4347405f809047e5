// Invariant tests for the segmented storage engine
// (storage/segstore/): WAL torn-tail truncation, crash windows inside
// the seal sequence, double-recovery idempotence, group-commit
// visibility, and tenant GC preserving live entries byte-identically
// with every proof still verifying. The FileLogStore fault-injection
// tests (typed IoError, no acked-then-lost window) ride along because
// they pin the same contract on the flat backend.

#include "storage/segstore/segment_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <thread>

#include "common/random.h"
#include "core/data_model.h"
#include "core/rpc_codec.h"
#include "merkle/merkle_tree.h"
#include "shard/sharded_engine.h"
#include "storage/backend.h"

namespace wedge {
namespace {

/// A fresh scratch directory for one test, removed with everything in
/// it when the guard goes out of scope.
class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(std::filesystem::temp_directory_path() /
              (std::string("wedge_segstore_") + tag + "_" +
               std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

LogPosition MakePosition(uint64_t id, size_t entries, uint64_t seed = 7) {
  Rng rng(seed + id);
  LogPosition pos;
  pos.log_id = id;
  for (size_t i = 0; i < entries; ++i) {
    pos.data_list.push_back(rng.NextBytes(40));
  }
  pos.mroot = MerkleTree::Build(pos.data_list)->Root();
  return pos;
}

/// A position whose every entry is a serialized AppendRequest signed by
/// `publisher` — the shape OffchainNode stores, and the only shape the
/// GC owner attribution recognizes.
LogPosition MakeOwnedPosition(uint64_t id, const KeyPair& publisher,
                              uint64_t* seq, size_t entries = 3) {
  LogPosition pos;
  pos.log_id = id;
  for (size_t i = 0; i < entries; ++i) {
    AppendRequest req =
        AppendRequest::Make(publisher, (*seq)++, ToBytes("k"),
                            ToBytes("value-" + std::to_string(id)));
    pos.data_list.push_back(req.Serialize());
  }
  pos.mroot = MerkleTree::Build(pos.data_list)->Root();
  return pos;
}

SegmentLogStore::Options SmallSegments(uint32_t positions = 4) {
  SegmentLogStore::Options options;
  options.segment_positions = positions;
  return options;
}

std::unique_ptr<SegmentLogStore> OpenOrDie(const std::string& dir,
                                           const SegmentLogStore::Options& o) {
  auto store = SegmentLogStore::Open(dir, o);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? std::move(store).value() : nullptr;
}

TEST(SegmentStoreTest, AppendGetScanAcrossSealBoundaries) {
  TempDir dir_guard("basic");
  const std::string& dir = dir_guard.path();
  auto store = OpenOrDie(dir, SmallSegments());
  for (uint64_t i = 0; i < 11; ++i) {
    ASSERT_TRUE(store->Append(MakePosition(i, 3)).ok());
  }
  // 11 positions at 4/segment: two sealed segments + a 3-position WAL.
  EXPECT_EQ(store->Size(), 11u);
  EXPECT_EQ(store->SegmentCount(), 2u);
  for (uint64_t i = 0; i < 11; ++i) {
    auto got = store->Get(i);
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    LogPosition want = MakePosition(i, 3);
    EXPECT_EQ(got->data_list, want.data_list);
    EXPECT_EQ(got->mroot, want.mroot);
    EXPECT_EQ(store->GetRoot(i).value(), want.mroot);
    EXPECT_EQ(store->GetEntryCount(i).value(), 3u);
  }
  auto entry = store->GetEntry(EntryIndex{5, 2});
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value(), MakePosition(5, 3).data_list[2]);

  std::vector<uint64_t> seen;
  ASSERT_TRUE(store
                  ->Scan(2, 9,
                         [&](const LogPosition& p) {
                           seen.push_back(p.log_id);
                           return true;
                         })
                  .ok());
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen.front(), 2u);
  EXPECT_EQ(seen.back(), 9u);

  EXPECT_FALSE(store->Get(11).ok());
  EXPECT_FALSE(store->Append(MakePosition(13, 2)).ok());  // Gap.
}

TEST(SegmentStoreTest, ReopenRecoversSegmentsAndWalTail) {
  TempDir dir_guard("reopen");
  const std::string& dir = dir_guard.path();
  {
    auto store = OpenOrDie(dir, SmallSegments());
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
  }
  auto reopened = OpenOrDie(dir, SmallSegments());
  const auto& info = reopened->recovery();
  EXPECT_EQ(info.segments, 2u);
  EXPECT_EQ(info.sealed_positions, 8u);
  EXPECT_EQ(info.wal_positions, 2u);
  EXPECT_EQ(info.wal_skipped, 0u);
  EXPECT_EQ(info.wal_truncated_bytes, 0u);
  EXPECT_EQ(reopened->Size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(reopened->Get(i)->mroot, MakePosition(i, 2).mroot) << i;
  }
  // The recovered store keeps appending where it left off.
  ASSERT_TRUE(reopened->Append(MakePosition(10, 2)).ok());
  EXPECT_EQ(reopened->Size(), 11u);
}

TEST(SegmentStoreTest, TruncatesTornWalTail) {
  TempDir dir_guard("torn");
  const std::string& dir = dir_guard.path();
  {
    auto store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
  }
  std::string wal = dir + "/wal.log";
  auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 10);

  auto reopened = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  EXPECT_EQ(reopened->Size(), 4u);  // Torn record 4 dropped.
  EXPECT_GT(reopened->recovery().wal_truncated_bytes, 0u);
  // The tail is reusable: a replacement append for id 4 lands and a
  // fresh replay sees no remnant of the torn record.
  LogPosition replacement = MakePosition(4, 2, /*seed=*/99);
  ASSERT_TRUE(reopened->Append(replacement).ok());
  reopened.reset();
  auto final_store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  EXPECT_EQ(final_store->Size(), 5u);
  EXPECT_EQ(final_store->Get(4)->data_list, replacement.data_list);
  EXPECT_EQ(final_store->recovery().wal_truncated_bytes, 0u);
}

TEST(SegmentStoreTest, CrashBeforeSegmentRenameLeavesWalAuthoritative) {
  TempDir dir_guard("crash_tmp");
  const std::string& dir = dir_guard.path();
  {
    SegmentLogStore::Options options = SmallSegments();
    options.crash_point = SegmentLogStore::CrashPoint::kSealAfterTempWrite;
    auto store = OpenOrDie(dir, options);
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
    // The 4th append crosses the seal threshold; the simulated crash
    // leaves seg-000000.seg.tmp on disk, never renamed, and poisons the
    // store the way a dead process stops answering.
    EXPECT_FALSE(store->Append(MakePosition(3, 2)).ok());
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/seg-000000.seg.tmp"));

  auto reopened = OpenOrDie(dir, SmallSegments());
  const auto& info = reopened->recovery();
  EXPECT_EQ(info.tmp_files_removed, 1u);
  EXPECT_EQ(info.segments, 0u);  // The un-renamed segment never existed.
  EXPECT_EQ(info.wal_positions, 4u);  // The WAL still held everything.
  EXPECT_EQ(reopened->Size(), 4u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/seg-000000.seg.tmp"));
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(reopened->Get(i)->mroot, MakePosition(i, 2).mroot) << i;
  }
}

TEST(SegmentStoreTest, CrashBetweenSealAndWalTruncateDeduplicates) {
  TempDir dir_guard("crash_wal");
  const std::string& dir = dir_guard.path();
  {
    SegmentLogStore::Options options = SmallSegments();
    options.crash_point = SegmentLogStore::CrashPoint::kSealBeforeWalTruncate;
    auto store = OpenOrDie(dir, options);
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
    EXPECT_FALSE(store->Append(MakePosition(3, 2)).ok());
  }
  // The segment landed but the WAL still holds ids 0..3.
  EXPECT_TRUE(std::filesystem::exists(dir + "/seg-000000.seg"));
  EXPECT_GT(std::filesystem::file_size(dir + "/wal.log"), 0u);

  auto reopened = OpenOrDie(dir, SmallSegments());
  const auto& info = reopened->recovery();
  EXPECT_EQ(info.segments, 1u);
  EXPECT_EQ(info.sealed_positions, 4u);
  EXPECT_EQ(info.wal_skipped, 4u);  // Every WAL record was already sealed.
  EXPECT_EQ(info.wal_positions, 0u);
  EXPECT_EQ(reopened->Size(), 4u);  // No duplicates.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(reopened->Get(i)->mroot, MakePosition(i, 2).mroot) << i;
  }
  ASSERT_TRUE(reopened->Append(MakePosition(4, 2)).ok());
  EXPECT_EQ(reopened->Size(), 5u);
}

TEST(SegmentStoreTest, DoubleRecoveryIsIdempotent) {
  TempDir dir_guard("double");
  const std::string& dir = dir_guard.path();
  {
    SegmentLogStore::Options options = SmallSegments();
    options.crash_point = SegmentLogStore::CrashPoint::kSealBeforeWalTruncate;
    auto store = OpenOrDie(dir, options);
    for (uint64_t i = 0; i < 4; ++i) {
      (void)store->Append(MakePosition(i, 2));
    }
  }
  // First recovery repairs (skips sealed WAL records, rewrites the WAL);
  // the second finds a clean directory and nothing to repair.
  { OpenOrDie(dir, SmallSegments()); }
  auto second = OpenOrDie(dir, SmallSegments());
  const auto& info = second->recovery();
  EXPECT_EQ(info.wal_skipped, 0u);
  EXPECT_EQ(info.wal_truncated_bytes, 0u);
  EXPECT_EQ(info.tmp_files_removed, 0u);
  EXPECT_EQ(second->Size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(second->Get(i)->mroot, MakePosition(i, 2).mroot) << i;
  }
}

TEST(SegmentStoreTest, PreparedButUnsyncedPositionsAreInvisible) {
  TempDir dir_guard("visibility");
  const std::string& dir = dir_guard.path();
  auto store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  auto token = store->AppendPrepare(MakePosition(0, 2));
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  // Prepared ≠ durable: nothing downstream may see the position until
  // WaitDurable returns — a crash here must be able to revoke it.
  EXPECT_EQ(store->Size(), 0u);
  EXPECT_FALSE(store->Get(0).ok());
  ASSERT_TRUE(store->WaitDurable(*token).ok());
  EXPECT_EQ(store->Size(), 1u);
  EXPECT_TRUE(store->Get(0).ok());
}

TEST(SegmentStoreTest, GroupCommitCoalescesConcurrentAppenders) {
  TempDir dir_guard("group");
  const std::string& dir = dir_guard.path();
  MetricsRegistry metrics;
  SegmentLogStore::Options options = SmallSegments(/*positions=*/1024);
  options.metrics = &metrics;
  auto store = OpenOrDie(dir, options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::mutex ticket_mu;
  uint64_t next_id = 0;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t token;
        {
          // Mirrors the engine's seal ticket: prepares are serialized,
          // durability waits overlap and coalesce.
          std::lock_guard<std::mutex> lock(ticket_mu);
          auto prepared = store->AppendPrepare(MakePosition(next_id, 2));
          if (!prepared.ok()) {
            failures.fetch_add(1);
            continue;
          }
          ++next_id;
          token = *prepared;
        }
        if (!store->WaitDurable(token).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store->Size(), uint64_t{kThreads * kPerThread});

  MetricsSnapshot snap = metrics.Snapshot();
  const HistogramSnapshot* batch =
      snap.FindHistogram("wedge.store.group_commit_batch");
  ASSERT_NE(batch, nullptr);
  // Coalescing happened: fewer syncs than appends, i.e. some sync
  // covered more than one append.
  EXPECT_LT(batch->count, uint64_t{kThreads * kPerThread});
  EXPECT_GT(batch->count, 0u);
}

TEST(SegmentStoreTest, OwnerAttributionMatchesPublisherTenant) {
  KeyPair publisher = KeyPair::FromSeed(0xABCD);
  uint64_t seq = 0;
  LogPosition pos = MakeOwnedPosition(0, publisher, &seq);
  // The GC owner derived from raw leaf bytes must agree with the
  // admission-control identity derived from the key, or RetireTenant
  // would drop the wrong tenant's data.
  EXPECT_EQ(PositionOwnerTenant(pos), PublisherTenant(publisher.address()));
  // Mixed or unattributable positions are never GC-eligible.
  LogPosition anon = MakePosition(1, 2);
  EXPECT_EQ(PositionOwnerTenant(anon), kMixedOwnerTenant);
}

TEST(SegmentStoreTest, CompactionDropsRetiredAndPreservesLiveBytes) {
  TempDir dir_guard("gc");
  const std::string& dir = dir_guard.path();
  KeyPair pub_a = KeyPair::FromSeed(0xA);
  KeyPair pub_b = KeyPair::FromSeed(0xB);
  uint64_t tenant_a = PublisherTenant(pub_a.address());
  uint64_t tenant_b = PublisherTenant(pub_b.address());
  uint64_t seq_a = 0, seq_b = 0;

  auto store = OpenOrDie(dir, SmallSegments(/*positions=*/2));
  // Interleave owners across three sealed segments + no WAL tail.
  std::vector<LogPosition> originals;
  for (uint64_t i = 0; i < 6; ++i) {
    LogPosition pos = i % 2 == 0 ? MakeOwnedPosition(i, pub_a, &seq_a)
                                 : MakeOwnedPosition(i, pub_b, &seq_b);
    originals.push_back(pos);
    ASSERT_TRUE(store->Append(pos).ok());
  }
  ASSERT_EQ(store->SegmentCount(), 3u);

  ASSERT_TRUE(store->RetireTenant(tenant_a).ok());
  auto stats = store->Compact();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->segments_rewritten, 3u);
  EXPECT_EQ(stats->positions_dropped, 3u);
  EXPECT_GT(stats->bytes_reclaimed, 0u);

  for (uint64_t i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      // Retired: payload gone, but the position still answers for
      // proofs — log-id density, root, and entry count survive.
      auto got = store->Get(i);
      EXPECT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), Code::kNotFound);
      EXPECT_EQ(store->GetRoot(i).value(), originals[i].mroot);
      EXPECT_EQ(store->GetEntryCount(i).value(), 3u);
    } else {
      // Live: byte-identical to what was acked.
      auto got = store->Get(i);
      ASSERT_TRUE(got.ok()) << i;
      EXPECT_EQ(got->data_list, originals[i].data_list);
      EXPECT_EQ(got->mroot, originals[i].mroot);
      // Stage-1 material still verifies: rebuilt tree root matches and
      // the leaves deserialize back to signature-valid requests.
      EXPECT_EQ(MerkleTree::Build(got->data_list)->Root(), got->mroot);
      for (const SharedBytes& leaf : got->data_list) {
        auto req = AppendRequest::Deserialize(leaf);
        ASSERT_TRUE(req.ok());
        EXPECT_TRUE(req->VerifySignature());
      }
    }
  }
  // Scan skips GC'd positions instead of failing.
  std::vector<uint64_t> seen;
  ASSERT_TRUE(store
                  ->Scan(0, 5,
                         [&](const LogPosition& p) {
                           seen.push_back(p.log_id);
                           return true;
                         })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 3, 5}));

  // A second pass finds nothing left to reclaim.
  auto again = store->Compact();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->segments_rewritten, 0u);

  // The retired set and tombstones survive a restart.
  (void)tenant_b;
  store.reset();
  auto reopened = OpenOrDie(dir, SmallSegments(/*positions=*/2));
  EXPECT_EQ(reopened->RetiredTenants().count(tenant_a), 1u);
  EXPECT_FALSE(reopened->Get(0).ok());
  EXPECT_EQ(reopened->GetRoot(0).value(), originals[0].mroot);
  EXPECT_EQ(reopened->Get(1)->data_list, originals[1].data_list);
}

TEST(SegmentStoreTest, RejectsMixedOwnerRetirement) {
  TempDir dir_guard("gc_mixed");
  const std::string& dir = dir_guard.path();
  auto store = OpenOrDie(dir, SmallSegments());
  EXPECT_FALSE(store->RetireTenant(kMixedOwnerTenant).ok());
}

// ---------------------------------------------------------------------
// Engine-level GC: proofs over retired neighbors keep verifying.

TEST(SegmentStoreEngineTest, CompactionKeepsLiveProofsVerifying) {
  TempDir dir_guard("engine_gc");
  const std::string& dir = dir_guard.path();
  std::filesystem::create_directories(dir);
  KeyPair pub_a = KeyPair::FromSeed(0x1111);
  KeyPair pub_b = KeyPair::FromSeed(0x2222);
  // Wire tenant id == authenticated owner id, so the engine's routed
  // RetireTenant names the same tenant the store's GC attribution sees.
  TenantId tenant_a = PublisherTenant(pub_a.address());
  TenantId tenant_b = PublisherTenant(pub_b.address());

  ShardedDeploymentConfig config;
  config.engine.num_shards = 2;
  config.engine.node.batch_size = 4;
  config.engine.node.worker_threads = 1;
  config.log_dir = dir;
  config.store_backend = StoreBackend::kSegment;
  config.store_segment_positions = 2;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ShardedLogEngine& e = (*d)->engine();

  auto append = [&](TenantId tenant, const KeyPair& key, uint64_t* seq) {
    std::vector<AppendRequest> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(AppendRequest::Make(key, (*seq)++, ToBytes("k"),
                                          ToBytes("v")));
    }
    auto r = e.Append(tenant, std::move(batch));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::vector<Stage1Response>{};
  };

  uint64_t seq_a = 0, seq_b = 0;
  std::vector<Stage1Response> kept;
  for (int round = 0; round < 3; ++round) {
    append(tenant_a, pub_a, &seq_a);
    auto r = append(tenant_b, pub_b, &seq_b);
    ASSERT_FALSE(r.empty());
    kept.push_back(r.front());
  }
  (*d)->AdvanceBlocks(2);  // Close + mine the forest epoch.

  ASSERT_TRUE(e.RetireTenant(tenant_a).ok());
  auto reclaimed = e.CompactStorage();
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();

  // Every live ack still reads back and passes both proof levels.
  for (const Stage1Response& r : kept) {
    auto read = e.ReadOne(tenant_b, r.index);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->entry, r.entry);
    EXPECT_TRUE(read->Verify(e.address()));
    auto agg = e.ProveAggregation(tenant_b, r.index.log_id);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    PublisherClient client = (*d)->MakePublisher(tenant_b);
    EXPECT_TRUE(client.VerifyAggregation(*read, *agg));
  }
  // Retiring a tenant on the file backend is a typed precondition error.
  TempDir file_dir_guard("engine_gc_file");
  const std::string& file_dir = file_dir_guard.path();
  std::filesystem::create_directories(file_dir);
  ShardedDeploymentConfig file_config = config;
  file_config.log_dir = file_dir;
  file_config.store_backend = StoreBackend::kFile;
  auto file_d = ShardedDeployment::Create(file_config);
  ASSERT_TRUE(file_d.ok());
  EXPECT_EQ((*file_d)->engine().RetireTenant(tenant_a).code(),
            Code::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// FileLogStore error-path audit: typed IoError, no acked-then-lost.

TEST(FileStoreFaultTest, FullDiskAppendFailsTypedAndLosesNothingAcked) {
  TempDir path_guard("enospc");
  const std::string& path = path_guard.path();
  FileLogStore::Options options;
  options.fail_after_bytes = 2000;  // Simulated device capacity.
  auto store = FileLogStore::Open(path, options);
  ASSERT_TRUE(store.ok());

  uint64_t acked = 0;
  Status failure = Status::Ok();
  for (uint64_t i = 0; i < 100; ++i) {
    Status s = (*store)->Append(MakePosition(i, 4));
    if (!s.ok()) {
      failure = s;
      break;
    }
    ++acked;
  }
  // The device filled: the failing append is a typed, retryable
  // IoError (not Corruption, not a silent success).
  ASSERT_FALSE(failure.ok());
  EXPECT_EQ(failure.code(), Code::kIoError);
  ASSERT_GT(acked, 0u);
  // The failed append was rolled back: the store still serves exactly
  // the acked prefix and no torn record follows it.
  EXPECT_EQ((*store)->Size(), acked);
  EXPECT_FALSE((*store)->Get(acked).ok());
  store->reset();

  // An independent replay agrees — nothing acked was lost, nothing
  // beyond the acked prefix survived.
  auto replay = FileLogStore::Open(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ((*replay)->Size(), acked);
  for (uint64_t i = 0; i < acked; ++i) {
    EXPECT_EQ((*replay)->Get(i)->mroot, MakePosition(i, 4).mroot) << i;
  }
}

TEST(FileStoreFaultTest, FsyncOnAppendFaultIsAlsoTyped) {
  TempDir path_guard("enospc_sync");
  const std::string& path = path_guard.path();
  FileLogStore::Options options;
  options.fail_after_bytes = 600;
  options.fsync_on_append = true;
  auto store = FileLogStore::Open(path, options);
  ASSERT_TRUE(store.ok());
  Status failure = Status::Ok();
  for (uint64_t i = 0; i < 50 && failure.ok(); ++i) {
    failure = (*store)->Append(MakePosition(i, 4));
  }
  ASSERT_FALSE(failure.ok());
  EXPECT_EQ(failure.code(), Code::kIoError);
}

}  // namespace
}  // namespace wedge

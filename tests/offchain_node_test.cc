#include "core/offchain_node.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/wedgeblock.h"

namespace wedge {
namespace {

std::vector<std::pair<Bytes, Bytes>> Workload(int n, size_t value_size = 32) {
  Rng rng(n);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < n; ++i) {
    kvs.emplace_back(ToBytes("k" + std::to_string(i)),
                     rng.NextBytes(value_size));
  }
  return kvs;
}

TEST(AppendRequestTest, SignAndVerify) {
  KeyPair key = KeyPair::FromSeed(1);
  AppendRequest req =
      AppendRequest::Make(key, 7, ToBytes("key"), ToBytes("value"));
  EXPECT_EQ(req.publisher, key.address());
  EXPECT_EQ(req.sequence, 7u);
  EXPECT_TRUE(req.VerifySignature());

  // Any field tamper breaks the signature.
  AppendRequest bad = req;
  bad.sequence = 8;
  EXPECT_FALSE(bad.VerifySignature());
  bad = req;
  bad.value[0] ^= 1;
  EXPECT_FALSE(bad.VerifySignature());
  bad = req;
  bad.publisher = KeyPair::FromSeed(2).address();
  EXPECT_FALSE(bad.VerifySignature());
}

TEST(AppendRequestTest, SerializationRoundTrip) {
  KeyPair key = KeyPair::FromSeed(3);
  AppendRequest req =
      AppendRequest::Make(key, 42, ToBytes("k"), ToBytes("v"));
  auto back = AppendRequest::Deserialize(req.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->publisher, req.publisher);
  EXPECT_EQ(back->sequence, req.sequence);
  EXPECT_EQ(back->key, req.key);
  EXPECT_EQ(back->value, req.value);
  EXPECT_TRUE(back->VerifySignature());
  EXPECT_FALSE(AppendRequest::Deserialize(Bytes{1, 2, 3}).ok());
}

class OffchainNodeTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Deployment> Make(uint32_t batch_size,
                                          bool auto_stage2 = true) {
    DeploymentConfig config;
    config.node.batch_size = batch_size;
    config.node.worker_threads = 2;
    config.node.auto_stage2 = auto_stage2;
    auto d = Deployment::Create(config);
    EXPECT_TRUE(d.ok());
    return std::move(d).value();
  }
};

TEST_F(OffchainNodeTest, AppendReturnsVerifiableResponses) {
  auto d = Make(4);
  auto& pub = d->publisher();
  auto responses = pub.Publish(pub.MakeRequests(Workload(10)));
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses->size(), 10u);
  // 10 requests with batch size 4 -> positions 0,1,2 (4+4+2).
  EXPECT_EQ(d->node().LogPositions(), 3u);
  for (size_t i = 0; i < responses->size(); ++i) {
    const Stage1Response& r = (*responses)[i];
    EXPECT_TRUE(r.Verify(d->node().address()));
    EXPECT_EQ(r.index.log_id, i / 4);
    EXPECT_EQ(r.index.offset, i % 4);
    // The leaf round-trips to the original request.
    auto req = AppendRequest::Deserialize(r.entry);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req->sequence, i);
  }
}

TEST_F(OffchainNodeTest, ResponsesWithinBatchShareRoot) {
  auto d = Make(8);
  auto& pub = d->publisher();
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  for (const auto& r : *responses) {
    EXPECT_EQ(r.proof.mroot, responses->front().proof.mroot);
    EXPECT_EQ(r.proof.log_id, 0u);
  }
}

TEST_F(OffchainNodeTest, RejectsEmptyAndBadSignatures) {
  auto d = Make(4);
  EXPECT_FALSE(d->node().Append({}).ok());

  KeyPair key = KeyPair::FromSeed(9);
  AppendRequest good = AppendRequest::Make(key, 0, ToBytes("k"), ToBytes("v"));
  AppendRequest bad = good;
  bad.value.push_back(0xFF);  // Signature now invalid.
  auto responses = d->node().Append({good, bad});
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ(responses->size(), 1u);  // Only the valid one accepted.
  EXPECT_EQ(d->node().stats().invalid_signatures_rejected, 1u);

  auto all_bad = d->node().Append({bad});
  EXPECT_FALSE(all_bad.ok());
}

TEST_F(OffchainNodeTest, Stage2CommitsDigests) {
  auto d = Make(4);
  auto& pub = d->publisher();
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ(d->node().stats().stage2_txs_submitted, 2u);

  // Before mining: not committed.
  auto check = pub.CheckBlockchainCommit(responses->front());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kNotYetCommitted);

  d->AdvanceBlocks(2);
  check = pub.CheckBlockchainCommit(responses->front());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
  check = pub.CheckBlockchainCommit(responses->back());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
}

TEST_F(OffchainNodeTest, ManualStage2Batching) {
  auto d = Make(4, /*auto_stage2=*/false);
  auto& pub = d->publisher();
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(12))).ok());
  EXPECT_EQ(d->node().PendingDigests(), 3u);
  EXPECT_EQ(d->node().stats().stage2_txs_submitted, 0u);

  // One transaction carries all three digests (grouped lazy commit).
  auto tx = d->node().CommitPendingDigests();
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(d->node().PendingDigests(), 0u);
  auto receipt = d->chain().WaitForReceipt(tx.value());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);

  // Nothing left to commit.
  EXPECT_EQ(d->node().CommitPendingDigests().status().code(), Code::kNotFound);
}

TEST_F(OffchainNodeTest, StreamingPathSealsOnBatchBoundary) {
  auto d = Make(4);
  KeyPair key = KeyPair::FromSeed(11);
  std::vector<std::vector<Stage1Response>> delivered;
  d->node().SetResponseCallback(
      [&](std::vector<Stage1Response>&& batch) {
        delivered.push_back(std::move(batch));
      });
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(d->node()
                    .SubmitAppend(AppendRequest::Make(
                        key, i, ToBytes("k"), ToBytes("v")))
                    .ok());
  }
  EXPECT_EQ(delivered.size(), 1u);  // One full batch of 4 sealed.
  EXPECT_EQ(d->node().StagedRequests(), 2u);
  auto flushed = d->node().FlushStagedBatch();
  ASSERT_TRUE(flushed.ok());
  // With a callback set, the sealed responses have exactly one owner: the
  // callback. The returned vector is empty (no second copy is made).
  EXPECT_TRUE(flushed->empty());
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1].size(), 2u);
  EXPECT_EQ(d->node().StagedRequests(), 0u);
  EXPECT_EQ(d->node().FlushStagedBatch().status().code(), Code::kNotFound);
}

TEST_F(OffchainNodeTest, ReadReturnsFreshVerifiableResponse) {
  auto d = Make(4);
  auto& pub = d->publisher();
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  d->AdvanceBlocks(2);

  auto read = d->node().ReadOne(EntryIndex{1, 2});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Verify(d->node().address()));
  auto req = AppendRequest::Deserialize(read->entry);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->sequence, 6u);  // Position 1, offset 2 = 6th request.

  EXPECT_FALSE(d->node().ReadOne(EntryIndex{5, 0}).ok());
  EXPECT_FALSE(d->node().ReadOne(EntryIndex{0, 9}).ok());
}

TEST_F(OffchainNodeTest, BatchReadAndScan) {
  auto d = Make(4);
  auto& pub = d->publisher();
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(12))).ok());

  auto many = d->node().Read({{0, 1}, {1, 3}, {2, 0}});
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many->size(), 3u);
  for (const auto& r : *many) EXPECT_TRUE(r.Verify(d->node().address()));

  auto scan = d->node().Scan(0, 2);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 12u);
  for (const auto& r : *scan) EXPECT_TRUE(r.Verify(d->node().address()));
  EXPECT_GE(d->node().stats().reads_served, 15u);
}

TEST_F(OffchainNodeTest, TreeCacheEvictionStillServesReads) {
  DeploymentConfig config;
  config.node.batch_size = 2;
  config.node.worker_threads = 1;
  config.node.tree_cache_capacity = 1;  // Evict aggressively.
  auto d = Deployment::Create(config);
  ASSERT_TRUE(d.ok());
  auto& pub = (*d)->publisher();
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  // Position 0's tree was evicted; the node must rebuild it.
  auto read = (*d)->node().ReadOne(EntryIndex{0, 1});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Verify((*d)->node().address()));
}

TEST_F(OffchainNodeTest, UserClientVerifiedReads) {
  auto d = Make(4);
  auto& pub = d->publisher();
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  UserClient user = d->MakeUser(77);

  // Stage-1-only read works immediately.
  auto r1 = user.ReadVerified(EntryIndex{0, 0});
  ASSERT_TRUE(r1.ok());
  // Blockchain-committed read requires stage 2 to land.
  EXPECT_FALSE(user.ReadVerified(EntryIndex{0, 0}, true).ok());
  d->AdvanceBlocks(2);
  EXPECT_TRUE(user.ReadVerified(EntryIndex{0, 0}, true).ok());

  auto many = user.ReadManyVerified({{0, 1}, {1, 1}}, true);
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many->size(), 2u);
}

TEST_F(OffchainNodeTest, AuditorReportsCleanLog) {
  auto d = Make(4);
  auto& pub = d->publisher();
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(12))).ok());
  d->AdvanceBlocks(2);
  AuditorClient auditor = d->MakeAuditor(88);
  auto report = auditor.Audit(0, 2);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_checked, 12u);
  EXPECT_TRUE(report->Clean());
  EXPECT_EQ(report->not_yet_committed, 0u);
}

TEST_F(OffchainNodeTest, AuditorDetectsTamperedLog) {
  auto d = Make(4);
  auto& pub = d->publisher();
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  d->AdvanceBlocks(2);
  d->node().set_byzantine_mode(ByzantineMode::kTamperReadData);
  AuditorClient auditor = d->MakeAuditor(88);
  auto report = auditor.Audit(0, 1);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->Clean());
  // Forged responses verify at stage 1 but mismatch on-chain.
  EXPECT_EQ(report->stage1_failures, 0u);
  EXPECT_EQ(report->onchain_mismatches, report->entries_checked);
}

TEST_F(OffchainNodeTest, Stage1ResponseSerializationRoundTrip) {
  auto d = Make(4);
  auto& pub = d->publisher();
  auto responses = pub.Publish(pub.MakeRequests(Workload(4)));
  ASSERT_TRUE(responses.ok());
  const Stage1Response& r = responses->front();
  auto back = Stage1Response::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Verify(d->node().address()));
  EXPECT_EQ(back->entry, r.entry);
  EXPECT_EQ(back->proof.mroot, r.proof.mroot);
  EXPECT_FALSE(Stage1Response::Deserialize(Bytes(3, 1)).ok());
}

TEST_F(OffchainNodeTest, VerifyRejectsCrossIndexResponses) {
  auto d = Make(4);
  auto& pub = d->publisher();
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  // Swap the index of a response: stage-1 verification must fail.
  Stage1Response mixed = (*responses)[0];
  mixed.index = (*responses)[5].index;
  EXPECT_FALSE(mixed.Verify(d->node().address()));
}

TEST_F(OffchainNodeTest, ZeroAddressNeverVerifiesAGarbageSignature) {
  // A failed recovery yields the zero address, so checking against it
  // must fail even when everything but the signature is genuine.
  EcdsaSignature garbage;
  garbage.r = U256::Zero();
  garbage.s = U256::One();
  auto d = Make(4);
  auto& pub = d->publisher();
  auto responses = pub.Publish(pub.MakeRequests(Workload(4)));
  ASSERT_TRUE(responses.ok());
  Stage1Response r = responses->front();
  r.offchain_signature = garbage;
  EXPECT_FALSE(r.Verify(Address::Zero()));

  auto batch = d->node().ReadBatch(0);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->Verify(d->node().address()));
  batch->offchain_signature = garbage;
  EXPECT_FALSE(batch->Verify(Address::Zero()));

  AppendRequest req =
      AppendRequest::Make(KeyPair::FromSeed(1), 1, ToBytes("k"), ToBytes("v"));
  req.publisher = Address::Zero();
  req.signature = garbage;
  EXPECT_FALSE(req.VerifySignature());
}

TEST_F(OffchainNodeTest, DigestsSurviveStage2SubmitFailure) {
  // Regression: a failed chain Submit used to drain the pending digests
  // and lose the roots for good. They must stay journaled for retry.
  SimClock clock(0);
  Blockchain chain(ChainConfig{}, &clock);
  KeyPair node_key = KeyPair::FromSeed(5);
  chain.Fund(node_key.address(), EthToWei(10));

  OffchainNodeConfig config;
  config.batch_size = 2;
  config.worker_threads = 2;
  config.auto_stage2 = false;
  // No contract at the target address: every Submit fails with NotFound.
  Address bogus_target = KeyPair::FromSeed(99).address();
  OffchainNode node(config, node_key, std::make_unique<MemoryLogStore>(),
                    &chain, bogus_target);

  KeyPair client = KeyPair::FromSeed(6);
  std::vector<AppendRequest> requests;
  for (uint64_t i = 0; i < 2; ++i) {
    requests.push_back(
        AppendRequest::Make(client, i, ToBytes("k"), ToBytes("v")));
  }
  ASSERT_TRUE(node.Append(requests).ok());
  ASSERT_EQ(node.PendingDigests(), 1u);

  auto tx = node.CommitPendingDigests();
  EXPECT_FALSE(tx.ok());
  // The digest survives the failure and a later commit can retry it.
  EXPECT_EQ(node.PendingDigests(), 1u);
  EXPECT_EQ(node.UncommittedDigests(), 1u);
  EXPECT_EQ(node.stats().stage2_txs_submitted, 0u);
}

TEST_F(OffchainNodeTest, OrderingPreservedAcrossStage2) {
  // The order committed off-chain equals the order committed on-chain:
  // entries' positions never change once stage-1 responses are issued
  // (the gaming use case's requirement, §2.3).
  auto d = Make(4);
  auto& pub = d->publisher();
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  d->AdvanceBlocks(2);
  for (const auto& r : *responses) {
    // Re-read every entry by its index; contents must match and still
    // verify against the now blockchain-committed root.
    auto read = d->node().ReadOne(r.index);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->entry, r.entry);
    auto check = pub.CheckBlockchainCommit(read.value());
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
  }
}

}  // namespace
}  // namespace wedge

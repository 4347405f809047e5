#include "crypto/ecdsa.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "crypto/ec_backend.h"

namespace wedge {
namespace {

TEST(AddressTest, HexRoundTrip) {
  KeyPair kp = KeyPair::FromSeed(1);
  std::string hex = kp.address().ToHex();
  EXPECT_EQ(hex.size(), 42u);
  EXPECT_EQ(hex.substr(0, 2), "0x");
  auto back = Address::FromHex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), kp.address());
}

TEST(AddressTest, ZeroAddress) {
  EXPECT_TRUE(Address::Zero().IsZero());
  EXPECT_FALSE(KeyPair::FromSeed(1).address().IsZero());
  EXPECT_FALSE(Address::FromHex("0x1234").ok());  // Wrong length.
}

TEST(KeyPairTest, DeterministicFromSeed) {
  KeyPair a = KeyPair::FromSeed(7);
  KeyPair b = KeyPair::FromSeed(7);
  EXPECT_EQ(a.private_key(), b.private_key());
  EXPECT_EQ(a.address(), b.address());
  KeyPair c = KeyPair::FromSeed(8);
  EXPECT_NE(a.address(), c.address());
}

TEST(KeyPairTest, RejectsInvalidSecrets) {
  EXPECT_FALSE(KeyPair::FromPrivateKey(U256::Zero()).ok());
  EXPECT_FALSE(KeyPair::FromPrivateKey(secp256k1::GroupOrder()).ok());
  EXPECT_TRUE(KeyPair::FromPrivateKey(U256::One()).ok());
}

TEST(KeyPairTest, PublicKeyMatchesPrivate) {
  KeyPair kp = KeyPair::FromSeed(3);
  EXPECT_EQ(kp.public_key(), secp256k1::ScalarMulBase(kp.private_key()));
  EXPECT_TRUE(secp256k1::IsOnCurve(kp.public_key()));
}

TEST(EcdsaTest, SignVerifyRoundTrip) {
  KeyPair kp = KeyPair::FromSeed(42);
  Hash256 h = Sha256::Digest("wedgeblock log entry");
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  EXPECT_TRUE(EcdsaVerify(kp.public_key(), h, sig));
}

TEST(EcdsaTest, VerifyFailsOnWrongMessage) {
  KeyPair kp = KeyPair::FromSeed(42);
  Hash256 h = Sha256::Digest("message one");
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  EXPECT_FALSE(EcdsaVerify(kp.public_key(), Sha256::Digest("message two"), sig));
}

TEST(EcdsaTest, VerifyFailsOnWrongKey) {
  KeyPair signer = KeyPair::FromSeed(1);
  KeyPair other = KeyPair::FromSeed(2);
  Hash256 h = Sha256::Digest("payload");
  EcdsaSignature sig = EcdsaSign(signer.private_key(), h);
  EXPECT_FALSE(EcdsaVerify(other.public_key(), h, sig));
}

TEST(EcdsaTest, VerifyFailsOnTamperedSignature) {
  KeyPair kp = KeyPair::FromSeed(5);
  Hash256 h = Sha256::Digest("payload");
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  EcdsaSignature bad = sig;
  bad.s = secp256k1::FnAdd(bad.s, U256::One());
  EXPECT_FALSE(EcdsaVerify(kp.public_key(), h, bad));
  bad = sig;
  bad.r = secp256k1::FnAdd(bad.r, U256::One());
  EXPECT_FALSE(EcdsaVerify(kp.public_key(), h, bad));
}

TEST(EcdsaTest, RejectsDegenerateSignatures) {
  KeyPair kp = KeyPair::FromSeed(5);
  Hash256 h = Sha256::Digest("payload");
  EcdsaSignature zero;
  zero.r = U256::Zero();
  zero.s = U256::One();
  EXPECT_FALSE(EcdsaVerify(kp.public_key(), h, zero));
  zero.r = U256::One();
  zero.s = U256::Zero();
  EXPECT_FALSE(EcdsaVerify(kp.public_key(), h, zero));
  zero.r = secp256k1::GroupOrder();  // Out of range.
  zero.s = U256::One();
  EXPECT_FALSE(EcdsaVerify(kp.public_key(), h, zero));
}

TEST(EcdsaTest, DeterministicNonces) {
  // RFC 6979: same key + message => identical signature.
  KeyPair kp = KeyPair::FromSeed(9);
  Hash256 h = Sha256::Digest("deterministic");
  EXPECT_EQ(EcdsaSign(kp.private_key(), h), EcdsaSign(kp.private_key(), h));
  // Different message => different r.
  EcdsaSignature other = EcdsaSign(kp.private_key(), Sha256::Digest("x"));
  EXPECT_NE(EcdsaSign(kp.private_key(), h).r, other.r);
}

TEST(EcdsaTest, LowSNormalization) {
  // All produced signatures have s <= n/2 (Ethereum malleability rule).
  U256 half_n = secp256k1::GroupOrder().Shr(1);
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    KeyPair kp = KeyPair::FromSeed(rng.Next());
    Hash256 h = Sha256::Digest(rng.NextString(20));
    EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
    EXPECT_LE(sig.s, half_n);
  }
}

TEST(EcdsaTest, Rfc6979KnownVector) {
  // Well-known secp256k1 RFC 6979 vector: key = 1, message
  // "Satoshi Nakamoto", SHA-256 digest.
  auto kp = KeyPair::FromPrivateKey(U256::One());
  ASSERT_TRUE(kp.ok());
  Hash256 h = Sha256::Digest("Satoshi Nakamoto");
  EcdsaSignature sig = EcdsaSign(kp->private_key(), h);
  EXPECT_EQ(sig.r.ToHex(),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8");
  EXPECT_EQ(sig.s.ToHex(),
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5");
}

TEST(EcdsaTest, RecoverReturnsSignerKey) {
  Rng rng(33);
  for (int i = 0; i < 8; ++i) {
    KeyPair kp = KeyPair::FromSeed(rng.Next());
    Hash256 h = Sha256::Digest(rng.NextString(40));
    EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
    auto rec = EcdsaRecover(h, sig);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value(), kp.public_key());
    EXPECT_EQ(RecoverSigner(h, sig), kp.address());
  }
}

TEST(EcdsaTest, RecoverWrongMessageGivesDifferentSigner) {
  KeyPair kp = KeyPair::FromSeed(77);
  Hash256 h = Sha256::Digest("original");
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  Address recovered = RecoverSigner(Sha256::Digest("forged"), sig);
  EXPECT_NE(recovered, kp.address());
}

TEST(EcdsaTest, RecoverRejectsBadSignature) {
  EcdsaSignature sig;
  sig.r = U256::Zero();
  sig.s = U256::One();
  Hash256 h = Sha256::Digest("x");
  EXPECT_FALSE(EcdsaRecover(h, sig).ok());
  EXPECT_TRUE(RecoverSigner(h, sig).IsZero());
}

TEST(EcdsaTest, SignatureSerializationRoundTrip) {
  KeyPair kp = KeyPair::FromSeed(123);
  Hash256 h = Sha256::Digest("serialize me");
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  Bytes wire = sig.Serialize();
  EXPECT_EQ(wire.size(), 65u);
  auto back = EcdsaSignature::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), sig);
  EXPECT_FALSE(EcdsaSignature::Deserialize(Bytes(64, 0)).ok());
  wire[64] = 9;  // Invalid recovery id.
  EXPECT_FALSE(EcdsaSignature::Deserialize(wire).ok());
}

// Property sweep across many seeds: sign → verify → recover.
class EcdsaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcdsaPropertyTest, SignVerifyRecover) {
  KeyPair kp = KeyPair::FromSeed(GetParam());
  Rng rng(GetParam() ^ 0x5eed);
  Hash256 h = Sha256::Digest(rng.NextString(32));
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  EXPECT_TRUE(EcdsaVerify(kp.public_key(), h, sig));
  EXPECT_EQ(RecoverSigner(h, sig), kp.address());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdsaPropertyTest,
                         ::testing::Values(1, 2, 3, 10, 99, 1234, 99999,
                                           0xdeadbeefULL));

TEST(VerifySignerTest, ManyThreadsManyKeysPastCapacity) {
  // More signers than the known-signer cache holds, checked from several
  // threads at once: every genuine signature must pass and every forged
  // one fail while keys are promoted, hit and evicted concurrently.
  using secp256k1::EcBackend;
  const EcBackend previous = secp256k1::ActiveEcBackend();
  if (!secp256k1::SetEcBackendForTest(EcBackend::kFast)) {
    GTEST_SKIP() << "fast backend compiled out";
  }
  ResetSignerCacheForTest();
  const size_t keys = kSignerCacheCapacity + 72;
  struct Signed {
    Address address;
    Hash256 hash;
    EcdsaSignature sig;
    Hash256 forged_hash;
  };
  std::vector<Signed> corpus;
  for (size_t k = 0; k < keys; ++k) {
    KeyPair kp = KeyPair::FromSeed(0x7A5A0000 + k);
    Signed s;
    s.address = kp.address();
    s.hash = Sha256::Digest("tsan " + std::to_string(k));
    s.sig = EcdsaSign(kp.private_key(), s.hash);
    s.forged_hash = Sha256::Digest("forged " + std::to_string(k));
    corpus.push_back(s);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < keys; ++i) {
          const Signed& s = corpus[(i * (t + 1) + round * 31) % keys];
          if (!VerifySigner(s.address, s.hash, s.sig)) ++wrong;
          if (i % 8 == 0 && VerifySigner(s.address, s.forged_hash, s.sig)) {
            ++wrong;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  SignerCacheStats stats = GetSignerCacheStats();
  EXPECT_EQ(stats.size, kSignerCacheCapacity);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.promotions, stats.size + stats.evictions);
  ResetSignerCacheForTest();
  secp256k1::SetEcBackendForTest(previous);
}

}  // namespace
}  // namespace wedge

// Cross-backend equivalence suite for the secp256k1 fast path: every
// table/wNAF/GLV shortcut must be point-identical to the naive
// double-and-add reference, and the batch ECDSA APIs byte-identical to
// their scalar counterparts (RFC 6979 pins every nonce, so equality is
// exact, not statistical), and the known-signer check VerifySigner
// exactly equal to RecoverSigner-and-compare, on the cache's miss and
// hit paths alike. Runs regardless of which backend the
// dispatcher picked; check.sh reruns it with WEDGE_EC_BACKEND=reference
// and CI also builds with -DWEDGE_DISABLE_ECPRECOMP=ON.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/ec_backend.h"
#include "crypto/ecdsa.h"
#include "crypto/secp256k1.h"

namespace wedge {
namespace secp256k1 {
namespace {

/// Pins the fast backend for a test body when it is compiled in;
/// restores the previous backend on destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(EcBackend backend)
      : previous_(ActiveEcBackend()),
        active_(SetEcBackendForTest(backend)) {}
  ~ScopedBackend() { SetEcBackendForTest(previous_); }
  bool active() const { return active_; }

 private:
  EcBackend previous_;
  bool active_;
};

std::vector<U256> SeededCorpus(size_t count, uint64_t seed) {
  const U256& n = GroupOrder();
  std::vector<U256> out;
  out.reserve(count + 16);
  // Edge cases first: identity-adjacent scalars, order boundaries, and
  // values exercising the mod-n reduction documented on ScalarMul.
  out.push_back(U256::Zero());
  out.push_back(U256::One());
  out.push_back(U256(2));
  out.push_back(n - U256::One());   // n - 1
  out.push_back(n);                 // == 0 after reduction
  out.push_back(n + U256::One());   // == 1 after reduction
  out.push_back(U256::One().Shl(255));  // 2^255
  out.push_back(U256::Max());       // 2^256 - 1
  out.push_back(U256::One().Shl(128));  // GLV split boundary region
  out.push_back(n.Shr(1));
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()));
  }
  return out;
}

TEST(EcEquivTest, ScalarMulBaseMatchesReferenceAcrossCorpus) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  // 10k scalars: the comb covers every window/digit combination many
  // times over, and the edge cases pin reduction semantics.
  for (const U256& k : SeededCorpus(10000, 0xEC0FFEE)) {
    ASSERT_EQ(ScalarMulBase(k), reference::ScalarMulBase(k))
        << "k = " << k.ToHex();
  }
}

TEST(EcEquivTest, ScalarMulMatchesReference) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  AffinePoint p = reference::ScalarMulBase(U256(0xABCDEF));
  for (const U256& k : SeededCorpus(300, 0xBEEF)) {
    ASSERT_EQ(ScalarMul(p, k), reference::ScalarMul(p, k))
        << "k = " << k.ToHex();
  }
  // Infinity in, infinity out.
  EXPECT_TRUE(ScalarMul(AffinePoint::Infinity(), U256(7)).infinity);
}

TEST(EcEquivTest, ScalarMulReducesScalarModN) {
  // Documented on ScalarMul: k is ALWAYS reduced mod n first.
  AffinePoint p = ScalarMulBase(U256(0x1234));
  EXPECT_EQ(ScalarMul(p, GroupOrder() + U256(5)), ScalarMul(p, U256(5)));
  EXPECT_TRUE(ScalarMul(p, GroupOrder()).infinity);
  EXPECT_EQ(ScalarMulBase(GroupOrder() + U256(5)), ScalarMulBase(U256(5)));
}

TEST(EcEquivTest, DoubleScalarMulBaseMatchesReference) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  AffinePoint p = reference::ScalarMulBase(U256(0x5EED));
  std::vector<U256> corpus = SeededCorpus(200, 0xD00D);
  for (size_t i = 0; i + 1 < corpus.size(); i += 2) {
    const U256& u1 = corpus[i];
    const U256& u2 = corpus[i + 1];
    ASSERT_EQ(DoubleScalarMulBase(u1, p, u2),
              reference::DoubleScalarMulBase(u1, p, u2))
        << "u1 = " << u1.ToHex() << " u2 = " << u2.ToHex();
  }
}

TEST(EcEquivTest, GlvSplitReassemblesAndIsHalfWidth) {
  const U256& lambda = internal::GlvLambda();
  for (const U256& k : SeededCorpus(2000, 0x617F)) {
    U256 k1, k2;
    bool neg1 = false, neg2 = false;
    internal::SplitScalarGlv(k, &k1, &neg1, &k2, &neg2);
    // Magnitudes are genuinely half-width.
    EXPECT_LE(k1.BitLength(), 132) << "k = " << k.ToHex();
    EXPECT_LE(k2.BitLength(), 132) << "k = " << k.ToHex();
    // (±k1) + (±k2)*lambda == k (mod n).
    U256 t1 = neg1 ? FnSub(U256::Zero(), k1) : k1;
    U256 t2 = neg2 ? FnSub(U256::Zero(), k2) : k2;
    EXPECT_EQ(FnAdd(t1, FnMul(t2, lambda)), FnReduce(k))
        << "k = " << k.ToHex();
  }
}

TEST(EcEquivTest, GlvEndomorphismActsAsLambda) {
  // phi(P) = (beta*x, y) must equal lambda*P — the identity the verify
  // loop's phi-table relies on.
  AffinePoint p = ScalarMulBase(U256(0xFEED));
  AffinePoint phi;
  phi.x = FpMul(p.x, internal::GlvBeta());
  phi.y = p.y;
  phi.infinity = false;
  EXPECT_TRUE(IsOnCurve(phi));
  EXPECT_EQ(phi, ScalarMul(p, internal::GlvLambda()));
}

TEST(EcEquivTest, ScalarMulBaseManyMatchesSingles) {
  std::vector<U256> ks = SeededCorpus(500, 0xBA7C4);
  std::vector<AffinePoint> batch(ks.size());
  ScalarMulBaseMany(ks.data(), ks.size(), batch.data());
  for (size_t i = 0; i < ks.size(); ++i) {
    ASSERT_EQ(batch[i], ScalarMulBase(ks[i])) << "i = " << i;
  }
}

TEST(EcEquivDeathTest, ZeroInversionAborts) {
  // FnInv/FpInv on zero is always a caller bug: the contract is a hard
  // abort, never a garbage inverse.
  EXPECT_DEATH(FpInv(U256::Zero()), "zero input");
  EXPECT_DEATH(FnInv(U256::Zero()), "zero input");
  EXPECT_DEATH(FnInv(GroupOrder()), "zero input");
  U256 xs[2] = {U256(3), U256::Zero()};
  U256 out[2];
  EXPECT_DEATH(FpInvMany(xs, 2, out), "zero input");
}

/// Inversion inputs for modulus m: the named edge values, every power of
/// two, odd values shifted up by long runs of zero bits, and seeded
/// random values of full, half and one-word width plus one value in
/// [m, 2^256) per draw. Values == 0 mod m are left out: they abort by
/// contract.
std::vector<U256> InversionCorpus(const U256& m, size_t count,
                                  uint64_t seed) {
  const U256& p = FieldPrime();
  const U256& n = GroupOrder();
  std::vector<U256> raw = {U256::One(),        U256(2),
                           U256(3),            p - U256::One(),
                           n - U256::One(),    m - U256(2),
                           m.Shr(1),           m + U256::One(),
                           m + U256(2),        U256::Max(),
                           U256::Max() - m};
  for (int k = 0; k < 256; ++k) raw.push_back(U256::One().Shl(k));
  const U256 room = U256::Zero() - m;  // 2^256 - m
  Rng rng(seed);
  // The divsteps loop consumes a run of zero low bits of g in one shift
  // and stops it at the 62-step budget with a sentinel bit; runs of 56
  // to 250 zeros cross that budget at every offset.
  for (int shift = 56; shift <= 250; ++shift) {
    U256 odd(rng.Next() | 1, rng.Next(), rng.Next(), rng.Next());
    raw.push_back(odd.Shl(shift));
  }
  for (size_t i = 0; i < count; ++i) {
    U256 x(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    raw.push_back(x);
    raw.push_back(U256(rng.Next(), rng.Next(), 0, 0));
    raw.push_back(U256(rng.Next()));
    raw.push_back(m + U256::Mod(x, room));  // >= m: reduced first.
  }
  std::vector<U256> out;
  for (const U256& x : raw) {
    if (!U256::Mod(x, m).IsZero()) out.push_back(x);
  }
  return out;
}

/// Checks inv(x) for every corpus value against the definition (in
/// [0, m) and x * inv == 1 with the independent field multiplier), and
/// against u256's generic Fermat InvMod on the named edges and every
/// 16th value after them. Then checks the batch form, plain and aliased.
template <typename InvFn, typename MulFn, typename InvManyFn>
void CheckInversion(const U256& m, InvFn inv, MulFn mul, InvManyFn inv_many,
                    uint64_t seed) {
  std::vector<U256> corpus = InversionCorpus(m, 600, seed);
  std::vector<U256> want(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const U256& x = corpus[i];
    want[i] = inv(x);
    ASSERT_LT(want[i], m) << "x = " << x.ToHex();
    ASSERT_EQ(mul(U256::Mod(x, m), want[i]), U256::One())
        << "x = " << x.ToHex();
    if (i < 11 || i % 16 == 0) {
      ASSERT_EQ(want[i], InvMod(U256::Mod(x, m), m)) << "x = " << x.ToHex();
    }
  }
  std::vector<U256> batch(corpus.size());
  inv_many(corpus.data(), corpus.size(), batch.data());
  EXPECT_EQ(batch, want);
  std::vector<U256> aliased = corpus;
  inv_many(aliased.data(), aliased.size(), aliased.data());
  EXPECT_EQ(aliased, want);
  // Short batches from corpus[7] = m + 1, an input >= m.
  for (size_t len : {1, 2, 3}) {
    std::vector<U256> head(corpus.begin() + 7, corpus.begin() + 7 + len);
    std::vector<U256> out(len);
    inv_many(head.data(), len, out.data());
    EXPECT_EQ(out,
              std::vector<U256>(want.begin() + 7, want.begin() + 7 + len));
  }
}

TEST(EcEquivTest, FpInvMatchesFermatOracle) {
  CheckInversion(FieldPrime(), &FpInv, &FpMul, &FpInvMany, 0x1F0F);
}

TEST(EcEquivTest, FnInvMatchesFermatOracle) {
  CheckInversion(GroupOrder(), &FnInv, &FnMul, &FnInvMany, 0x1F0E);
}

TEST(EcEquivDeathTest, BatchInversionOfModulusMultipleAborts) {
  // Nonzero as a 256-bit value, zero mod the modulus: the product check
  // catches it at any position in the batch.
  U256 xs[3] = {U256(3), FieldPrime(), U256(5)};
  U256 out[3];
  EXPECT_DEATH(FpInvMany(xs, 3, out), "zero input");
  U256 ns[1] = {GroupOrder()};
  EXPECT_DEATH(FnInvMany(ns, 1, out), "zero input");
}

TEST(EcEquivTest, FpSqrtMatchesEulerCriterion) {
  const U256& p = FieldPrime();
  const U256 euler_exp = (p - U256::One()).Shr(1);
  const U256 root_exp = (p - U256(3)).Shr(2) + U256::One();  // (p+1)/4
  Rng rng(0x5A7);
  std::vector<U256> inputs = {U256::Zero(), U256::One(), U256(2), U256(3),
                              U256(7),      p - U256::One(), p,
                              p + U256(4),  U256::Max()};
  for (int i = 0; i < 400; ++i) {
    U256 x(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    inputs.push_back(x);
    U256 sq = FpSqr(x);
    inputs.push_back(sq);  // A residue.
    // -1 is a non-residue (p = 3 mod 4), so -x^2 is one too.
    inputs.push_back(FpSub(U256::Zero(), sq));
  }
  int residues = 0, non_residues = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const U256& a = inputs[i];
    U256 reduced = U256::Mod(a, p);
    auto root = FpSqrt(a);
    if (root.ok()) {
      ++residues;
      ASSERT_LT(root.value(), p);
      ASSERT_EQ(FpSqr(root.value()), reduced) << "a = " << a.ToHex();
    } else {
      ++non_residues;
      ASSERT_EQ(root.status().code(), Code::kVerification);
    }
    if (i < 9 || i % 16 == 0) {
      // Euler's criterion decides; a^((p+1)/4) pins which of the two
      // roots comes back.
      bool is_residue = reduced.IsZero() ||
                        PowMod(reduced, euler_exp, p) == U256::One();
      ASSERT_EQ(root.ok(), is_residue) << "a = " << a.ToHex();
      if (is_residue) {
        ASSERT_EQ(root.value(), PowMod(reduced, root_exp, p));
      }
    }
  }
  EXPECT_GT(residues, 400);
  EXPECT_GT(non_residues, 400);
}

TEST(EcEquivTest, LiftXGivesBothParities) {
  const U256& p = FieldPrime();
  Rng rng(0x11F7);
  int missing = 0;
  for (int i = 0; i < 200; ++i) {
    AffinePoint pt = ScalarMulBase(U256(rng.Next(), rng.Next(), 0, 0));
    auto even = LiftX(pt.x, false);
    auto odd = LiftX(pt.x, true);
    ASSERT_TRUE(even.ok() && odd.ok());
    EXPECT_FALSE(even.value().y.Bit(0));
    EXPECT_TRUE(odd.value().y.Bit(0));
    EXPECT_TRUE(IsOnCurve(even.value()) && IsOnCurve(odd.value()));
    EXPECT_EQ(FpAdd(even.value().y, odd.value().y), U256::Zero());
    EXPECT_EQ(pt.y.Bit(0) ? odd.value() : even.value(), pt);
    // An x with no point on the curve fails for both parities.
    U256 x(rng.Next(), rng.Next(), rng.Next(), rng.Next() >> 1);
    if (!LiftX(x, false).ok()) {
      ++missing;
      EXPECT_EQ(LiftX(x, true).status().code(), Code::kVerification);
    }
  }
  EXPECT_GT(missing, 50);
  EXPECT_FALSE(LiftX(p, false).ok());
}

TEST(EcEquivTest, SignManyByteIdenticalToSingles) {
  KeyPair kp = KeyPair::FromSeed(77);
  std::vector<Hash256> hashes;
  Rng rng(0x51671);
  for (int i = 0; i < 512; ++i) {
    Hash256 h;
    for (auto& b : h) b = static_cast<uint8_t>(rng.Next());
    hashes.push_back(h);
  }
  std::vector<EcdsaSignature> batch =
      EcdsaSignMany(kp.private_key(), hashes);
  ASSERT_EQ(batch.size(), hashes.size());
  for (size_t i = 0; i < hashes.size(); ++i) {
    EcdsaSignature single = EcdsaSign(kp.private_key(), hashes[i]);
    ASSERT_EQ(batch[i].Serialize(), single.Serialize()) << "i = " << i;
  }
}

TEST(EcEquivTest, SignManyMatchesAcrossBackends) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  KeyPair kp = KeyPair::FromSeed(99);
  std::vector<Hash256> hashes;
  for (int i = 0; i < 32; ++i) {
    Hash256 h{};
    h[0] = static_cast<uint8_t>(i);
    h[31] = 0xA5;
    hashes.push_back(h);
  }
  std::vector<EcdsaSignature> fast_sigs =
      EcdsaSignMany(kp.private_key(), hashes);
  {
    ScopedBackend ref(EcBackend::kReference);
    std::vector<EcdsaSignature> ref_sigs =
        EcdsaSignMany(kp.private_key(), hashes);
    for (size_t i = 0; i < hashes.size(); ++i) {
      ASSERT_EQ(fast_sigs[i].Serialize(), ref_sigs[i].Serialize())
          << "i = " << i;
    }
  }
}

TEST(EcEquivTest, RecoverConsistentAcrossBackends) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  KeyPair kp = KeyPair::FromSeed(321);
  Hash256 h{};
  h[5] = 0x42;
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  auto fast_pub = EcdsaRecover(h, sig);
  ASSERT_TRUE(fast_pub.ok());
  {
    ScopedBackend ref(EcBackend::kReference);
    auto ref_pub = EcdsaRecover(h, sig);
    ASSERT_TRUE(ref_pub.ok());
    EXPECT_EQ(fast_pub.value(), ref_pub.value());
  }
  EXPECT_EQ(fast_pub.value(), kp.public_key());
}

TEST(EcEquivTest, DoubleScalarMulBaseKeyedMatchesReference) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  std::vector<U256> corpus = SeededCorpus(60, 0xC0B);
  for (uint64_t seed : {1, 2, 3}) {
    AffinePoint q = KeyPair::FromSeed(seed).public_key();
    KeyTable table = BuildKeyTable(q);
    for (size_t i = 0; i < corpus.size(); ++i) {
      const U256& u1 = corpus[i];
      const U256& u2 = corpus[(i * 7 + 3) % corpus.size()];
      EXPECT_EQ(DoubleScalarMulBaseKeyed(u1, table, u2),
                reference::DoubleScalarMulBase(u1, q, u2))
          << "seed " << seed << " i " << i;
    }
    // Zero scalars on either side.
    EXPECT_EQ(DoubleScalarMulBaseKeyed(U256::Zero(), table, U256::One()), q);
    EXPECT_EQ(DoubleScalarMulBaseKeyed(U256::One(), table, U256::Zero()),
              Generator());
  }
}

/// The contract VerifySigner must meet exactly.
bool RecoverMatches(const Address& expected, const Hash256& h,
                    const EcdsaSignature& sig) {
  return !expected.IsZero() && RecoverSigner(h, sig) == expected;
}

struct SignerCase {
  Address expected;
  Hash256 hash;
  EcdsaSignature sig;
};

/// Valid signatures from a few keys, each with the mutations a forger
/// or a corrupted frame could produce.
std::vector<SignerCase> SignerCorpus(uint64_t seed, int keys, int msgs) {
  const U256& n = GroupOrder();
  std::vector<SignerCase> out;
  Rng rng(seed);
  for (int k = 0; k < keys; ++k) {
    KeyPair kp = KeyPair::FromSeed(seed * 100 + k);
    Address other = KeyPair::FromSeed(seed * 100 + k + 50).address();
    for (int i = 0; i < msgs; ++i) {
      Hash256 h = Sha256::Digest(rng.NextBytes(32));
      EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
      const Address& a = kp.address();
      auto add = [&](EcdsaSignature m) { out.push_back({a, h, m}); };
      add(sig);
      EcdsaSignature m = sig;
      m.recovery_id ^= 1;
      add(m);
      m = sig;
      m.recovery_id ^= 2;
      add(m);
      m = sig;
      m.s = n - sig.s;
      add(m);
      m.recovery_id ^= 1;  // The high-s twin: still recovers the key.
      add(m);
      m = sig;
      m.r = sig.r + U256::One();
      add(m);
      m.r = sig.r - U256::One();
      add(m);
      Hash256 wrong = h;
      wrong[0] ^= 1;
      out.push_back({a, wrong, sig});
      out.push_back({other, h, sig});
      out.push_back({Address::Zero(), h, sig});
    }
  }
  return out;
}

/// A valid signature whose R has x = n + r >= n (recovery id bit 1):
/// picks the smallest r with n + r on the curve, then recovers the one
/// key Q for which (r, s, recid) is a valid signature on h.
SignerCase OverflowXCase(uint8_t parity) {
  const U256& n = GroupOrder();
  U256 r = U256::One();
  while (!LiftX(n + r, parity != 0).ok()) r = r + U256::One();
  SignerCase c;
  c.hash = Sha256::Digest("x >= n");
  c.sig.r = r;
  c.sig.s = U256(0x1234567);
  c.sig.recovery_id = static_cast<uint8_t>(2 | parity);
  auto q = EcdsaRecover(c.hash, c.sig);
  EXPECT_TRUE(q.ok());
  c.expected = AddressFromPublicKey(q.value());
  return c;
}

/// Runs every case `passes` times against a fresh cache, so later passes
/// take the cache-hit path for each key; returns the mismatch count.
int CountSignerMismatches(const std::vector<SignerCase>& cases, int passes) {
  ResetSignerCacheForTest();
  int mismatches = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < cases.size(); ++i) {
      const SignerCase& c = cases[i];
      bool want = RecoverMatches(c.expected, c.hash, c.sig);
      bool got = VerifySigner(c.expected, c.hash, c.sig);
      if (want != got) {
        ++mismatches;
        ADD_FAILURE() << "pass " << pass << " case " << i << ": want "
                      << want << " got " << got;
      }
    }
  }
  return mismatches;
}

TEST(EcEquivTest, VerifySignerMatchesRecoverSignerOnBothBackends) {
  std::vector<SignerCase> cases = SignerCorpus(0x51D, 4, 6);
  for (uint8_t parity : {0, 1}) {
    SignerCase c = OverflowXCase(parity);
    ASSERT_TRUE(RecoverMatches(c.expected, c.hash, c.sig));
    cases.push_back(c);
    c.sig.recovery_id &= 1;  // Same r, but x = r: another point, key.
    ASSERT_FALSE(RecoverMatches(c.expected, c.hash, c.sig));
    cases.push_back(c);
  }
  for (EcBackend backend : {EcBackend::kFast, EcBackend::kReference}) {
    ScopedBackend pinned(backend);
    if (!pinned.active()) continue;
    EXPECT_EQ(CountSignerMismatches(cases, 3), 0) << EcBackendName(backend);
    if (backend == EcBackend::kFast) {
      SignerCacheStats stats = GetSignerCacheStats();
      EXPECT_EQ(stats.size, 6u);  // 4 corpus keys + 2 overflow-x keys.
      EXPECT_GT(stats.hits, 0u);
    }
  }
  // And under whatever backend the environment picked.
  EXPECT_EQ(CountSignerMismatches(cases, 2), 0);
}

TEST(EcEquivTest, SignatureDecoderMutantsFailTypedOrMatchRecover) {
  // Seeded byte-mutants of valid 65-byte signatures, truncations and
  // extensions, and signatures with r or s at 0 or >= n. Each must fail
  // to decode with a typed error, or else VerifySigner must agree with
  // RecoverSigner-and-compare with the signer cache cold and warm. The
  // range checks must keep every out-of-range scalar away from FnInv's
  // zero-input abort, which would kill this test.
  const U256& n = GroupOrder();
  struct Base {
    Address addr;
    Hash256 hash;
    Bytes wire;
  };
  std::vector<Base> bases;
  for (uint64_t k = 0; k < 2; ++k) {
    KeyPair kp = KeyPair::FromSeed(0x4D07 + k);
    for (int i = 0; i < 4; ++i) {
      Hash256 h = Sha256::Digest("mutant " + std::to_string(k * 10 + i));
      bases.push_back({kp.address(), h, EcdsaSign(kp.private_key(), h)
                                            .Serialize()});
    }
  }
  struct Mutant {
    const Base* base;
    Bytes wire;
  };
  std::vector<Mutant> mutants;
  Rng rng(0xB17F11B);
  for (int i = 0; i < 500; ++i) {
    const Base& b = bases[rng.Uniform(bases.size())];
    Bytes wire = b.wire;
    int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(wire.size());
      switch (rng.Uniform(3)) {
        case 0: wire[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8)); break;
        case 1: wire[pos] = static_cast<uint8_t>(rng.Next()); break;
        default: wire[pos] = rng.Bernoulli(0.5) ? 0x00 : 0xFF; break;
      }
    }
    mutants.push_back({&b, wire});
  }
  for (size_t len = 0; len < 65; len += 8) {
    mutants.push_back({&bases[0], Bytes(bases[0].wire.begin(),
                                        bases[0].wire.begin() + len)});
  }
  mutants.push_back({&bases[0], Bytes(bases[0].wire.begin(),
                                      bases[0].wire.end() - 1)});
  for (size_t extra : {1, 2, 65}) {
    Bytes wire = bases[1].wire;
    Bytes tail = rng.NextBytes(extra);
    wire.insert(wire.end(), tail.begin(), tail.end());
    mutants.push_back({&bases[1], wire});
  }
  const U256 bad_scalars[] = {U256::Zero(), n, n + U256::One(), U256::Max()};
  size_t range_first = mutants.size();
  for (const Base& b : bases) {
    EcdsaSignature sig = EcdsaSignature::Deserialize(b.wire).value();
    for (const U256& bad : bad_scalars) {
      EcdsaSignature m = sig;
      m.r = bad;
      mutants.push_back({&b, m.Serialize()});
      m = sig;
      m.s = bad;
      mutants.push_back({&b, m.Serialize()});
    }
  }

  auto check = [&](bool warm) {
    int decoded = 0;
    for (size_t i = 0; i < mutants.size(); ++i) {
      const Mutant& mu = mutants[i];
      auto sig = EcdsaSignature::Deserialize(mu.wire);
      if (!sig.ok()) {
        EXPECT_EQ(sig.status().code(), Code::kInvalidArgument) << "i = " << i;
        EXPECT_TRUE(mu.wire.size() != 65 || mu.wire[64] > 3) << "i = " << i;
        continue;
      }
      ++decoded;
      if (!warm) ResetSignerCacheForTest();
      const Address& addr = mu.base->addr;
      bool want = RecoverSigner(mu.base->hash, sig.value()) == addr;
      EXPECT_EQ(VerifySigner(addr, mu.base->hash, sig.value()), want)
          << (warm ? "warm" : "cold") << " i = " << i;
      if (i >= range_first) {
        EXPECT_FALSE(want) << "i = " << i;
      }
    }
    return decoded;
  };
  int cold_decoded = check(/*warm=*/false);
  ResetSignerCacheForTest();
  for (const Base& b : bases) {
    for (int i = 0; i < kSignerPromoteAfter; ++i) {
      ASSERT_TRUE(VerifySigner(
          b.addr, b.hash, EcdsaSignature::Deserialize(b.wire).value()));
    }
  }
  const SignerCacheStats before = GetSignerCacheStats();
  int warm_decoded = check(/*warm=*/true);
  EXPECT_EQ(cold_decoded, warm_decoded);
  EXPECT_GT(warm_decoded, 200);
  if (ActiveEcBackend() == EcBackend::kFast) {
    // Every warm check was answered from the cached tables.
    SignerCacheStats after = GetSignerCacheStats();
    EXPECT_EQ(after.size, 2u);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.hits - before.hits, static_cast<uint64_t>(warm_decoded));
  }
}

TEST(EcEquivTest, SignerCacheMissPromoteHitEvict) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  ResetSignerCacheForTest();
  auto signed_by = [](uint64_t seed) {
    KeyPair kp = KeyPair::FromSeed(0xCAC4E000 + seed);
    Hash256 h = Sha256::Digest("cache " + std::to_string(seed));
    return SignerCase{kp.address(), h, EcdsaSign(kp.private_key(), h)};
  };
  auto verify = [](const SignerCase& c) {
    return VerifySigner(c.expected, c.hash, c.sig);
  };

  // Miss: the first success recovers and only remembers the key.
  SignerCase first = signed_by(0);
  ASSERT_TRUE(verify(first));
  SignerCacheStats s = GetSignerCacheStats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.promotions, 0u);
  EXPECT_EQ(s.size, 0u);
  // A failed check is not a recovery of the key and promotes nothing.
  SignerCase forged = first;
  forged.hash[0] ^= 1;
  EXPECT_FALSE(verify(forged));
  EXPECT_EQ(GetSignerCacheStats().misses, 1u);
  // Promote on the second success.
  ASSERT_TRUE(verify(first));
  s = GetSignerCacheStats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(s.size, 1u);
  // Hit: accepted and rejected from the table, no recovery.
  EXPECT_TRUE(verify(first));
  EXPECT_FALSE(verify(forged));
  s = GetSignerCacheStats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);

  // Fill the cache: capacity - 1 more keys, each promoted.
  std::vector<SignerCase> keys;
  for (size_t i = 1; i < kSignerCacheCapacity; ++i) {
    keys.push_back(signed_by(i));
    ASSERT_TRUE(verify(keys.back()));
    ASSERT_TRUE(verify(keys.back()));
  }
  s = GetSignerCacheStats();
  EXPECT_EQ(s.size, kSignerCacheCapacity);
  EXPECT_EQ(s.evictions, 0u);
  // Touch every key but keys[0], so keys[0] is least recently used.
  ASSERT_TRUE(verify(first));
  for (size_t i = 1; i < keys.size(); ++i) ASSERT_TRUE(verify(keys[i]));
  // One more key is promoted past capacity: the LRU key is evicted.
  SignerCase extra = signed_by(kSignerCacheCapacity);
  ASSERT_TRUE(verify(extra));
  ASSERT_TRUE(verify(extra));
  s = GetSignerCacheStats();
  EXPECT_EQ(s.size, kSignerCacheCapacity);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.promotions, kSignerCacheCapacity + 1);
  const uint64_t hits = s.hits;
  EXPECT_TRUE(verify(extra));
  EXPECT_TRUE(verify(first));
  EXPECT_EQ(GetSignerCacheStats().hits, hits + 2);
  // The evicted key recovers again, and a full cache evicts at most once
  // per kSignerMissesPerEviction misses: its re-promotion waits.
  const uint64_t misses = GetSignerCacheStats().misses;
  ASSERT_TRUE(verify(keys[0]));
  ASSERT_TRUE(verify(keys[0]));
  s = GetSignerCacheStats();
  EXPECT_EQ(s.misses, misses + 2);
  EXPECT_EQ(s.evictions, 1u);
  for (uint64_t i = 0; i < kSignerMissesPerEviction; ++i) {
    ASSERT_TRUE(verify(signed_by(1000 + i)));
  }
  ASSERT_TRUE(verify(keys[0]));
  s = GetSignerCacheStats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.size, kSignerCacheCapacity);
  EXPECT_TRUE(verify(keys[0]));
  EXPECT_EQ(GetSignerCacheStats().hits, s.hits + 1);
}

}  // namespace
}  // namespace secp256k1
}  // namespace wedge

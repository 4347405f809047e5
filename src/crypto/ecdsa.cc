#include "crypto/ecdsa.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "crypto/ec_backend.h"
#include "crypto/hmac_sha256.h"
#include "crypto/keccak256.h"

namespace wedge {

using secp256k1::AffinePoint;

Result<Address> Address::FromHex(std::string_view hex) {
  WEDGE_ASSIGN_OR_RETURN(Bytes raw, HexDecode(hex));
  if (raw.size() != 20) {
    return Status::InvalidArgument("address must be 20 bytes");
  }
  Address a;
  std::memcpy(a.bytes.data(), raw.data(), 20);
  return a;
}

bool Address::IsZero() const {
  for (uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

std::string Address::ToHex() const {
  return "0x" + HexEncode(bytes.data(), bytes.size());
}

size_t AddressHasher::operator()(const Address& a) const {
  // The address is itself a hash suffix; fold 8 bytes.
  uint64_t v;
  std::memcpy(&v, a.bytes.data(), sizeof(v));
  return static_cast<size_t>(v);
}

Bytes EcdsaSignature::Serialize() const {
  Bytes out;
  out.reserve(65);
  Append(out, r.ToBytesBE());
  Append(out, s.ToBytesBE());
  out.push_back(recovery_id);
  return out;
}

Result<EcdsaSignature> EcdsaSignature::Deserialize(const Bytes& b) {
  if (b.size() != 65) {
    return Status::InvalidArgument("signature must be 65 bytes");
  }
  Bytes rb(b.begin(), b.begin() + 32);
  Bytes sb(b.begin() + 32, b.begin() + 64);
  EcdsaSignature sig;
  WEDGE_ASSIGN_OR_RETURN(sig.r, U256::FromBytesBE(rb));
  WEDGE_ASSIGN_OR_RETURN(sig.s, U256::FromBytesBE(sb));
  sig.recovery_id = b[64];
  if (sig.recovery_id > 3) {
    return Status::InvalidArgument("recovery id out of range");
  }
  return sig;
}

Result<KeyPair> KeyPair::FromPrivateKey(const U256& secret) {
  if (secret.IsZero() || secret >= secp256k1::GroupOrder()) {
    return Status::InvalidArgument("private key out of range");
  }
  KeyPair kp;
  kp.private_key_ = secret;
  kp.public_key_ = secp256k1::ScalarMulBase(secret);
  kp.address_ = AddressFromPublicKey(kp.public_key_);
  return kp;
}

KeyPair KeyPair::FromSeed(uint64_t seed) {
  // Hash the seed until a valid scalar appears (overwhelmingly the first try).
  Bytes material;
  PutU64(material, seed);
  PutString(material, "wedgeblock-key-seed");
  for (;;) {
    Hash256 h = Sha256::Digest(material);
    U256 candidate = U256::FromHash(h);
    auto kp = FromPrivateKey(candidate);
    if (kp.ok()) return std::move(kp).value();
    material = HashToBytes(h);
  }
}

Address AddressFromPublicKey(const AffinePoint& pub) {
  // Ethereum: keccak256(X || Y)[12..32].
  Bytes encoded;
  Append(encoded, pub.x.ToBytesBE());
  Append(encoded, pub.y.ToBytesBE());
  Hash256 h = Keccak256::Digest(encoded);
  Address a;
  std::memcpy(a.bytes.data(), h.data() + 12, 20);
  return a;
}

namespace {

/// RFC 6979 deterministic nonce derivation (HMAC-SHA256 variant).
U256 DeriveNonce(const U256& private_key, const Hash256& msg_hash) {
  const U256& n = secp256k1::GroupOrder();
  Bytes x = private_key.ToBytesBE();
  Bytes h1(msg_hash.begin(), msg_hash.end());

  Bytes v(32, 0x01);
  Bytes k(32, 0x00);
  Bytes zero{0x00};
  Bytes one{0x01};

  Hash256 t = HmacSha256(k, {&v, &zero, &x, &h1});
  k = HashToBytes(t);
  v = HashToBytes(HmacSha256(k, v));
  t = HmacSha256(k, {&v, &one, &x, &h1});
  k = HashToBytes(t);
  v = HashToBytes(HmacSha256(k, v));

  for (;;) {
    v = HashToBytes(HmacSha256(k, v));
    Hash256 vh;
    std::memcpy(vh.data(), v.data(), 32);
    U256 candidate = U256::FromHash(vh);
    if (!candidate.IsZero() && candidate < n) return candidate;
    t = HmacSha256(k, {&v, &zero});
    k = HashToBytes(t);
    v = HashToBytes(HmacSha256(k, v));
  }
}

}  // namespace

EcdsaSignature EcdsaSign(const U256& private_key, const Hash256& msg_hash) {
  using namespace secp256k1;  // NOLINT(build/namespaces)
  const U256& n = GroupOrder();
  U256 z = FnReduce(U256::FromHash(msg_hash));

  U256 k = DeriveNonce(private_key, msg_hash);
  for (;;) {
    AffinePoint rp = ScalarMulBase(k);
    U256 r = FnReduce(rp.x);
    if (r.IsZero()) {
      k = FnAdd(k, U256::One());
      continue;
    }
    U256 kinv = FnInv(k);
    U256 s = FnMul(kinv, FnAdd(z, FnMul(r, private_key)));
    if (s.IsZero()) {
      k = FnAdd(k, U256::One());
      continue;
    }
    uint8_t recid = (rp.y.Bit(0) ? 1 : 0) | (rp.x >= n ? 2 : 0);
    // Enforce low-s (Ethereum malleability rule); flipping s mirrors R's y.
    U256 half_n = n.Shr(1);
    if (s > half_n) {
      s = n - s;
      recid ^= 1;
    }
    EcdsaSignature sig;
    sig.r = r;
    sig.s = s;
    sig.recovery_id = recid;
    return sig;
  }
}

void EcdsaSignMany(const U256& private_key, const Hash256* hashes, size_t n,
                   EcdsaSignature* out) {
  using namespace secp256k1;  // NOLINT(build/namespaces)
  if (n == 0) return;
  const U256& order = GroupOrder();
  const U256 half_n = order.Shr(1);

  std::vector<U256> ks(n);
  for (size_t i = 0; i < n; ++i) ks[i] = DeriveNonce(private_key, hashes[i]);

  // One batch-normalized pass for every k*G, one simultaneous inversion
  // for every nonce — the two per-signature field inversions the scalar
  // path pays become ~6 multiplications each.
  std::vector<AffinePoint> rps(n);
  ScalarMulBaseMany(ks.data(), n, rps.data());
  std::vector<U256> kinvs(n);
  FnInvMany(ks.data(), n, kinvs.data());

  for (size_t i = 0; i < n; ++i) {
    U256 r = FnReduce(rps[i].x);
    U256 z = FnReduce(U256::FromHash(hashes[i]));
    U256 s = FnMul(kinvs[i], FnAdd(z, FnMul(r, private_key)));
    if (r.IsZero() || s.IsZero()) {
      // Nonce retry needed (probability ~2^-256): the scalar path owns
      // the k+1 loop and stays byte-identical by construction.
      out[i] = EcdsaSign(private_key, hashes[i]);
      continue;
    }
    uint8_t recid = (rps[i].y.Bit(0) ? 1 : 0) | (rps[i].x >= order ? 2 : 0);
    if (s > half_n) {
      s = order - s;
      recid ^= 1;
    }
    out[i].r = r;
    out[i].s = s;
    out[i].recovery_id = recid;
  }
}

std::vector<EcdsaSignature> EcdsaSignMany(const U256& private_key,
                                          const std::vector<Hash256>& hashes) {
  std::vector<EcdsaSignature> out(hashes.size());
  EcdsaSignMany(private_key, hashes.data(), hashes.size(), out.data());
  return out;
}

bool EcdsaVerify(const AffinePoint& public_key, const Hash256& msg_hash,
                 const EcdsaSignature& sig) {
  using namespace secp256k1;  // NOLINT(build/namespaces)
  const U256& n = GroupOrder();
  if (sig.r.IsZero() || sig.s.IsZero()) return false;
  if (sig.r >= n || sig.s >= n) return false;
  if (public_key.infinity || !IsOnCurve(public_key)) return false;

  U256 z = FnReduce(U256::FromHash(msg_hash));
  U256 sinv = FnInv(sig.s);
  U256 u1 = FnMul(z, sinv);
  U256 u2 = FnMul(sig.r, sinv);
  AffinePoint p = DoubleScalarMulBase(u1, public_key, u2);
  if (p.infinity) return false;
  return FnReduce(p.x) == sig.r;
}

Result<AffinePoint> EcdsaRecover(const Hash256& msg_hash,
                                 const EcdsaSignature& sig) {
  using namespace secp256k1;  // NOLINT(build/namespaces)
  const U256& n = GroupOrder();
  if (sig.r.IsZero() || sig.s.IsZero() || sig.r >= n || sig.s >= n) {
    return Status::Verification("signature scalars out of range");
  }
  // Reconstruct R from r and the recovery id.
  U256 x = sig.r;
  if (sig.recovery_id & 2) {
    bool overflow = U256::AddWithCarry(sig.r, n, &x);
    if (overflow || x >= FieldPrime()) {
      return Status::Verification("invalid recovery id for r");
    }
  }
  WEDGE_ASSIGN_OR_RETURN(AffinePoint rp, LiftX(x, (sig.recovery_id & 1) != 0));

  // Q = r^{-1} (s*R - z*G).
  U256 z = FnReduce(U256::FromHash(msg_hash));
  U256 rinv = FnInv(sig.r);
  U256 u1 = FnMul(FnSub(U256::Zero(), z), rinv);  // -z/r
  U256 u2 = FnMul(sig.s, rinv);                   // s/r
  AffinePoint q = DoubleScalarMulBase(u1, rp, u2);
  if (q.infinity) {
    return Status::Verification("recovered point at infinity");
  }
  return q;
}

Address RecoverSigner(const Hash256& msg_hash, const EcdsaSignature& sig) {
  auto pub = EcdsaRecover(msg_hash, sig);
  if (!pub.ok()) return Address::Zero();
  return AddressFromPublicKey(pub.value());
}

namespace {

using secp256k1::KeyTable;

struct CachedSigner {
  KeyTable table;
  /// The cache's miss count at insertion or at the latest hit: the LRU
  /// clock. Hits only store when it moved, so a hot key's line stays
  /// shared between reader threads.
  mutable std::atomic<uint64_t> last_use{0};
};

/// Address -> (public key, key table) for repeat signers. Lookups take a
/// shared lock; the miss path's bookkeeping takes the exclusive one, and
/// tables are built outside any lock. Entries are shared_ptrs so an
/// eviction never frees a table a concurrent check is still reading.
class SignerCache {
 public:
  std::shared_ptr<const CachedSigner> Find(const Address& a) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(a);
    if (it == entries_.end()) return nullptr;
    if (it->second->last_use.load(std::memory_order_relaxed) != misses_) {
      it->second->last_use.store(misses_, std::memory_order_relaxed);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Records a successful full recovery of `q` for address `a`; on the
  /// key's kSignerPromoteAfter-th one, builds and inserts its table.
  void OnRecovered(const Address& a, const secp256k1::AffinePoint& q) {
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      ++misses_;
      if (entries_.count(a) != 0) return;
      if (candidates_.size() >= kCandidateCapacity &&
          candidates_.count(a) == 0) {
        candidates_.clear();
      }
      int& seen = candidates_[a];
      if (++seen < kSignerPromoteAfter || !HasRoomLocked()) return;
      candidates_.erase(a);
    }
    auto entry = std::make_shared<CachedSigner>();
    entry->table = secp256k1::BuildKeyTable(q);
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (entries_.count(a) != 0 || !HasRoomLocked()) return;
    if (entries_.size() >= kSignerCacheCapacity) {
      auto victim = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second->last_use.load(std::memory_order_relaxed) <
            victim->second->last_use.load(std::memory_order_relaxed)) {
          victim = it;
        }
      }
      entries_.erase(victim);
      ++evictions_;
      last_eviction_miss_ = misses_;
    }
    entry->last_use.store(misses_, std::memory_order_relaxed);
    entries_.emplace(a, std::move(entry));
    ++promotions_;
  }

  SignerCacheStats Stats() {
    std::shared_lock<std::shared_mutex> lock(mu_);
    SignerCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_;
    s.promotions = promotions_;
    s.evictions = evictions_;
    s.size = entries_.size();
    return s;
  }

  void Reset() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    entries_.clear();
    candidates_.clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_ = promotions_ = evictions_ = last_eviction_miss_ = 0;
  }

 private:
  /// Seen-once keys tracked for promotion; cleared wholesale when full.
  static constexpr size_t kCandidateCapacity = 1024;

  /// A full cache makes room only when kSignerMissesPerEviction misses
  /// have passed since the last eviction, so a signer population larger
  /// than the cache costs at most one table build per that many misses.
  bool HasRoomLocked() const {
    return entries_.size() < kSignerCacheCapacity ||
           misses_ - last_eviction_miss_ >= kSignerMissesPerEviction;
  }

  std::shared_mutex mu_;
  std::unordered_map<Address, std::shared_ptr<CachedSigner>, AddressHasher>
      entries_;
  std::unordered_map<Address, int, AddressHasher> candidates_;
  std::atomic<uint64_t> hits_{0};
  uint64_t misses_ = 0;
  uint64_t promotions_ = 0;
  uint64_t evictions_ = 0;
  uint64_t last_eviction_miss_ = 0;
};

SignerCache& GlobalSignerCache() {
  static auto* cache = new SignerCache();
  return *cache;
}

/// The cache-hit check: R' = (z/s)*G + (r/s)*Q must be the point
/// ecrecover lifts from (r, recovery_id); then recovery returns Q.
bool VerifyWithTable(const KeyTable& table, const Hash256& msg_hash,
                     const EcdsaSignature& sig) {
  using namespace secp256k1;  // NOLINT(build/namespaces)
  const U256& n = GroupOrder();
  if (sig.r.IsZero() || sig.s.IsZero() || sig.r >= n || sig.s >= n) {
    return false;
  }
  U256 z = FnReduce(U256::FromHash(msg_hash));
  U256 sinv = FnInv(sig.s);
  AffinePoint rp =
      DoubleScalarMulBaseKeyed(FnMul(z, sinv), table, FnMul(sig.r, sinv));
  if (rp.infinity) return false;
  return FnReduce(rp.x) == sig.r &&
         (rp.x >= n) == ((sig.recovery_id & 2) != 0) &&
         rp.y.Bit(0) == ((sig.recovery_id & 1) != 0);
}

}  // namespace

bool VerifySigner(const Address& expected, const Hash256& msg_hash,
                  const EcdsaSignature& sig) {
  if (expected.IsZero()) return false;
  if (secp256k1::ActiveEcBackend() == secp256k1::EcBackend::kReference) {
    return RecoverSigner(msg_hash, sig) == expected;
  }
  SignerCache& cache = GlobalSignerCache();
  if (auto signer = cache.Find(expected)) {
    return VerifyWithTable(signer->table, msg_hash, sig);
  }
  auto pub = EcdsaRecover(msg_hash, sig);
  if (!pub.ok() || AddressFromPublicKey(pub.value()) != expected) {
    return false;
  }
  cache.OnRecovered(expected, pub.value());
  return true;
}

SignerCacheStats GetSignerCacheStats() { return GlobalSignerCache().Stats(); }

void ResetSignerCacheForTest() { GlobalSignerCache().Reset(); }

}  // namespace wedge

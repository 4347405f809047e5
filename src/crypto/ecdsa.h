#ifndef WEDGEBLOCK_CRYPTO_ECDSA_H_
#define WEDGEBLOCK_CRYPTO_ECDSA_H_

#include <array>
#include <string>
#include <vector>

#include "crypto/secp256k1.h"
#include "crypto/sha256.h"

namespace wedge {

/// 20-byte Ethereum-style account address (last 20 bytes of the Keccak-256
/// hash of the uncompressed public key).
struct Address {
  std::array<uint8_t, 20> bytes{};

  static Address Zero() { return Address{}; }
  static Result<Address> FromHex(std::string_view hex);

  bool IsZero() const;
  std::string ToHex() const;  ///< "0x"-prefixed lowercase hex.
  Bytes ToBytes() const { return Bytes(bytes.begin(), bytes.end()); }

  bool operator==(const Address& o) const { return bytes == o.bytes; }
  bool operator!=(const Address& o) const { return bytes != o.bytes; }
  bool operator<(const Address& o) const { return bytes < o.bytes; }
};

/// Hash functor so Address can key unordered_map.
struct AddressHasher {
  size_t operator()(const Address& a) const;
};

/// An ECDSA signature over secp256k1 with an Ethereum-style recovery id,
/// allowing the signer's address to be recovered from (hash, signature) —
/// the on-chain `recoverSigner` primitive used by the Punishment contract.
struct EcdsaSignature {
  U256 r;
  U256 s;
  uint8_t recovery_id = 0;  ///< 0..3 (y parity | x overflow).

  /// 65-byte wire encoding: R(32) || S(32) || recovery_id(1).
  Bytes Serialize() const;
  static Result<EcdsaSignature> Deserialize(const Bytes& b);

  bool operator==(const EcdsaSignature& o) const {
    return r == o.r && s == o.s && recovery_id == o.recovery_id;
  }
};

/// A secp256k1 key pair plus the derived address.
class KeyPair {
 public:
  /// Derives a key pair from a 32-byte secret. Fails when the secret is 0
  /// or >= the group order.
  static Result<KeyPair> FromPrivateKey(const U256& secret);

  /// Deterministic test/workload key derivation from a seed.
  static KeyPair FromSeed(uint64_t seed);

  const U256& private_key() const { return private_key_; }
  const secp256k1::AffinePoint& public_key() const { return public_key_; }
  const Address& address() const { return address_; }

 private:
  KeyPair() = default;
  U256 private_key_;
  secp256k1::AffinePoint public_key_;
  Address address_;
};

/// Derives the Ethereum-style address of a public key.
Address AddressFromPublicKey(const secp256k1::AffinePoint& pub);

/// Signs a 32-byte message hash with an RFC 6979 deterministic nonce.
/// Produces a low-s signature (Ethereum malleability rule).
EcdsaSignature EcdsaSign(const U256& private_key, const Hash256& msg_hash);

/// Verifies a signature against a public key.
bool EcdsaVerify(const secp256k1::AffinePoint& public_key,
                 const Hash256& msg_hash, const EcdsaSignature& sig);

/// Batch signing, mirroring the Sha256Many shape: out[i] is
/// byte-identical to EcdsaSign(private_key, hashes[i]) (RFC 6979 pins
/// every nonce, so this is exactly testable). Amortizes the expensive
/// per-signature inversions across the batch: one Montgomery
/// simultaneous inversion for all nonces and one for all k*G
/// normalizations, instead of two field inversions per signature. The
/// astronomically rare r == 0 / s == 0 retry falls back to the per-call
/// path for that entry.
void EcdsaSignMany(const U256& private_key, const Hash256* hashes, size_t n,
                   EcdsaSignature* out);
std::vector<EcdsaSignature> EcdsaSignMany(const U256& private_key,
                                          const std::vector<Hash256>& hashes);

/// Recovers the signing public key from (hash, signature). This mirrors
/// Ethereum's ecrecover precompile.
Result<secp256k1::AffinePoint> EcdsaRecover(const Hash256& msg_hash,
                                            const EcdsaSignature& sig);

/// Convenience: recovers the signer's address, or Address::Zero on failure.
Address RecoverSigner(const Hash256& msg_hash, const EcdsaSignature& sig);

/// Known-signer check: exactly `!expected.IsZero() &&
/// RecoverSigner(msg_hash, sig) == expected`, computed faster. A
/// process-wide cache keeps the public key and a precomputed table for
/// each repeat signer, so a hit verifies u1*G + u2*Q with no doublings
/// and no square root (see DESIGN.md "Hot path & crypto acceleration").
/// The hot-path response and request checks use this; the contracts keep
/// RecoverSigner, which models the on-chain ecrecover precompile.
bool VerifySigner(const Address& expected, const Hash256& msg_hash,
                  const EcdsaSignature& sig);

/// Known-signer cache bounds: at most kSignerCacheCapacity keys hold a
/// table; a key gets one on its kSignerPromoteAfter-th successful
/// recovery; a full cache evicts its least recently used key at most
/// once per kSignerMissesPerEviction recoveries.
inline constexpr size_t kSignerCacheCapacity = 128;
inline constexpr int kSignerPromoteAfter = 2;
inline constexpr uint64_t kSignerMissesPerEviction = 64;

/// Counters of the known-signer cache, for tests.
struct SignerCacheStats {
  uint64_t hits = 0;        ///< Checks answered from a cached table.
  uint64_t misses = 0;      ///< Accepted checks that ran a full recovery.
  uint64_t promotions = 0;  ///< Tables built and inserted.
  uint64_t evictions = 0;
  size_t size = 0;          ///< Keys currently cached.
};
SignerCacheStats GetSignerCacheStats();
/// Empties the cache and zeroes its counters (test setup only).
void ResetSignerCacheForTest();

}  // namespace wedge

#endif  // WEDGEBLOCK_CRYPTO_ECDSA_H_

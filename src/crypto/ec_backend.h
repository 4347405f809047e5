#ifndef WEDGEBLOCK_CRYPTO_EC_BACKEND_H_
#define WEDGEBLOCK_CRYPTO_EC_BACKEND_H_

#include <string_view>

// Runtime-dispatched secp256k1 scalar-multiplication backends. Every
// point multiplication — stage-1 signing, client verification, ecrecover
// — routes through one of two implementations selected once at startup:
//
//   kFast       precomputed 8-bit comb tables for G, wNAF variable-base
//               multiplication, GLV-endomorphism Shamir verification, and
//               per-key comb tables for known signers (VerifySigner)
//   kReference  naive double-and-add with no precomputation (the
//               equivalence oracle and the forced-slow CI configuration)
//
// Selection: kFast unless `WEDGE_DISABLE_ECPRECOMP` (CMake option at
// build time, or a non-"0" environment variable at run time) forces the
// reference path; the environment variable
// `WEDGE_EC_BACKEND=reference|fast` pins a specific backend (matching
// the `WEDGE_SHA256_BACKEND` pattern). Both backends are point- and
// byte-identical (enforced by tests/ec_equiv_test.cc across a seeded
// 10k-scalar corpus).

namespace wedge {
namespace secp256k1 {

enum class EcBackend { kReference, kFast };

/// The backend every scalar multiplication currently routes to.
EcBackend ActiveEcBackend();

/// Human-readable backend name ("reference", "fast").
std::string_view EcBackendName(EcBackend backend);

/// True when the backend is compiled in (kFast is absent only under
/// -DWEDGE_DISABLE_ECPRECOMP=ON).
bool EcBackendSupported(EcBackend backend);

/// Test hook: re-points the dispatcher at `backend`. Returns false (and
/// changes nothing) when unsupported. Not thread-safe — call only from
/// single-threaded test setup, and restore the original backend after.
bool SetEcBackendForTest(EcBackend backend);

}  // namespace secp256k1
}  // namespace wedge

#endif  // WEDGEBLOCK_CRYPTO_EC_BACKEND_H_

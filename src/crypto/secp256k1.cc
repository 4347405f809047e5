#include "crypto/secp256k1.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "crypto/ec_backend.h"

namespace wedge {
namespace secp256k1 {

namespace {

using uint128 = unsigned __int128;

// p = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE FFFFFC2F
constexpr U256 kP(0xFFFFFFFEFFFFFC2FULL, 0xFFFFFFFFFFFFFFFFULL,
                  0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL);
// 2^256 - p = 2^32 + 977 = 0x1000003D1.
constexpr U256 kCp(0x00000001000003D1ULL, 0, 0, 0);
// n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141
constexpr U256 kN(0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                  0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL);
// 2^256 - n = 0x14551231950B75FC4402DA1732FC9BEBF.
constexpr U256 kCn(0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 0x1ULL, 0);

constexpr U256 kGx(0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL,
                   0x55A06295CE870B07ULL, 0x79BE667EF9DCBBACULL);
constexpr U256 kGy(0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL,
                   0x5DA4FBFC0E1108A8ULL, 0x483ADA7726A3C465ULL);

constexpr U256 kCurveB(7);

// --- GLV endomorphism constants ---
// lambda^3 = 1 (mod n); phi(x, y) = (beta*x, y) satisfies phi(P) =
// lambda*P for every curve point. The lattice constants below implement
// the decomposition k = k1 + k2*lambda with |k1|, |k2| < ~2^128
// (Guide to ECC alg. 3.74; same values as libsecp256k1).
constexpr U256 kLambda(0xDF02967C1B23BD72ULL, 0x122E22EA20816678ULL,
                       0xA5261C028812645AULL, 0x5363AD4CC05C30E0ULL);
constexpr U256 kBeta(0xC1396C28719501EEULL, 0x9CF0497512F58995ULL,
                     0x6E64479EAC3434E9ULL, 0x7AE96A2B657C0710ULL);
// -b1 and -b2 (mod n) of the reduced lattice basis.
constexpr U256 kMinusB1(0x6F547FA90ABFE4C3ULL, 0xE4437ED6010E8828ULL, 0, 0);
constexpr U256 kMinusB2(0xD765CDA83DB1562CULL, 0x8A280AC50774346DULL,
                        0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL);
// g1 = round(2^384 * b2 / n), g2 = round(2^384 * (-b1) / n): the
// precomputed rounding divisors for the basis projection.
constexpr U256 kG1(0xE893209A45DBB031ULL, 0x3DAA8A1471E8CA7FULL,
                   0xE86C90E49284EB15ULL, 0x3086D221A7D46BCDULL);
constexpr U256 kG2(0x1571B4AE8AC47F71ULL, 0x221208AC9DF506C6ULL,
                   0x6F547FA90ABFE4C4ULL, 0xE4437ED6010E8828ULL);

[[noreturn]] void DieZeroInverse(const char* fn) {
  std::fprintf(stderr,
               "wedge/secp256k1: %s called on zero input (no inverse "
               "exists); this is a caller bug, aborting\n",
               fn);
  std::abort();
}

// --- Local inline limb arithmetic ---
// U256's general-purpose operators live in u256.cc and cost a function
// call each; the group law below executes hundreds of field ops per
// point multiplication, so the hot helpers are reimplemented here where
// -O3 can inline and fuse them.

inline int CmpInl(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limb[i] != b.limb[i]) return a.limb[i] < b.limb[i] ? -1 : 1;
  }
  return 0;
}

/// *a -= b, returning the borrow.
inline bool SubInl(U256* a, const U256& b) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    uint128 d = static_cast<uint128>(a->limb[i]) - b.limb[i] - borrow;
    a->limb[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  return borrow != 0;
}

/// *a += b, returning the carry.
inline bool AddInl(U256* a, const U256& b) {
  uint128 acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += static_cast<uint128>(a->limb[i]) + b.limb[i];
    a->limb[i] = static_cast<uint64_t>(acc);
    acc >>= 64;
  }
  return acc != 0;
}

inline U256 FpAddInl(const U256& a, const U256& b) {
  U256 r = a;
  bool over = AddInl(&r, b);
  if (over || CmpInl(r, kP) >= 0) {
    // Subtract p == add c (mod 2^256); a final carry out is exactly the
    // 2^256 wrap and is discarded.
    uint128 acc = static_cast<uint128>(r.limb[0]) + 0x1000003D1ULL;
    r.limb[0] = static_cast<uint64_t>(acc);
    uint64_t carry = static_cast<uint64_t>(acc >> 64);
    for (int i = 1; i < 4 && carry; ++i) {
      acc = static_cast<uint128>(r.limb[i]) + carry;
      r.limb[i] = static_cast<uint64_t>(acc);
      carry = static_cast<uint64_t>(acc >> 64);
    }
  }
  return r;
}

inline U256 FpSubInl(const U256& a, const U256& b) {
  U256 r = a;
  if (SubInl(&r, b)) {
    // Underflowed: add p back == subtract c from the wrapped value.
    uint128 d = static_cast<uint128>(r.limb[0]) - 0x1000003D1ULL;
    r.limb[0] = static_cast<uint64_t>(d);
    uint64_t borrow = (d >> 64) ? 1 : 0;
    for (int i = 1; i < 4 && borrow; ++i) {
      d = static_cast<uint128>(r.limb[i]) - borrow;
      r.limb[i] = static_cast<uint64_t>(d);
      borrow = (d >> 64) ? 1 : 0;
    }
  }
  return r;
}

/// Schoolbook 4x4 -> 8 limb product.
inline void Mul4x4(const U256& a, const U256& b, uint64_t w[8]) {
  for (int i = 0; i < 8; ++i) w[i] = 0;
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      uint128 acc = static_cast<uint128>(a.limb[i]) * b.limb[j] +
                    w[i + j] + carry;
      w[i + j] = static_cast<uint64_t>(acc);
      carry = static_cast<uint64_t>(acc >> 64);
    }
    w[i + 4] = carry;
  }
}

/// Dedicated Solinas fold mod p: c = 2^256 - p fits in 34 bits, so one
/// limb-times-scalar pass folds the high 256 bits and a second pass
/// folds the leftover carry limb. Much faster than the generic
/// ReduceWide loop (which re-runs a full 4x4 MulWide per fold).
inline U256 ReducePInl(const uint64_t w[8]) {
  constexpr uint64_t kC = 0x1000003D1ULL;
  uint64_t r[4];
  uint128 acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += w[i];
    acc += static_cast<uint128>(w[4 + i]) * kC;
    r[i] = static_cast<uint64_t>(acc);
    acc >>= 64;
  }
  // acc < 2^35: fold it once more.
  acc = static_cast<uint128>(static_cast<uint64_t>(acc)) * kC + r[0];
  r[0] = static_cast<uint64_t>(acc);
  acc >>= 64;
  for (int i = 1; i < 4 && acc != 0; ++i) {
    acc += r[i];
    r[i] = static_cast<uint64_t>(acc);
    acc >>= 64;
  }
  U256 out(r[0], r[1], r[2], r[3]);
  if (acc != 0) {
    // Wrapped past 2^256: 2^256 == c (mod p), and the wrapped value is
    // tiny, so adding c cannot carry again.
    AddInl(&out, kCp);
  }
  if (CmpInl(out, kP) >= 0) SubInl(&out, kP);
  return out;
}

inline U256 FpMulInl(const U256& a, const U256& b) {
  uint64_t w[8];
  Mul4x4(a, b, w);
  return ReducePInl(w);
}

inline U256 FpSqrInl(const U256& a) { return FpMulInl(a, a); }

inline U256 FpSqrNInl(U256 a, int n) {
  for (int i = 0; i < n; ++i) a = FpSqrInl(a);
  return a;
}

// --- Variable-time modular inversion: Bernstein-Yang safegcd ---
// The divsteps algorithm of "Fast constant-time gcd computation and
// modular inversion" (TCHES 2019) in its variable-time form, as in
// libsecp256k1's modinv64_var. Numbers live in signed 62-bit limbs; each
// round runs 62 divsteps on the low words only, collects them in a 2x2
// transition matrix, then applies it to (f, g) and to the cofactors
// (d, e), which are kept in (-2m, m). Variable time is acceptable here:
// verification inverts public values, and signing's nonce inversion
// keeps the timing class it had (see DESIGN.md).

using int128 = __int128;

constexpr uint64_t kM62 = ~0ULL >> 2;

/// value = sum(v[i] * 2^(62*i)); v[0..3] in [0, 2^62) once normalized,
/// v[4] carries the sign.
struct Signed62 {
  int64_t v[5];
};

/// An odd modulus in signed-62 form and its inverse mod 2^62.
struct ModInfo62 {
  Signed62 m;
  uint64_t m_inv62;
};

// p = 2^256 - 0x1000003D1 and n, with p^-1 and n^-1 mod 2^62.
constexpr ModInfo62 kP62{{{-0x1000003D1LL, 0, 0, 0, 256}},
                         0x27C7F6E22DDACACFULL};
constexpr ModInfo62 kN62{
    {{0x3FD25E8CD0364141LL, 0x2ABB739ABD2280EELL, -0x15LL, 0, 256}},
    0x34F20099AA774EC1ULL};

/// Bernstein-Yang Thm. 11.2: floor((49*256 + 80) / 17) = 742 divsteps
/// bring g to zero for any f, g < 2^256, i.e. at most 12 rounds of 62.
constexpr int kMaxDivstepRounds = 12;

/// [f g] <- t [f g] / 2^62 (and likewise for d, e, plus m multiples).
struct Trans2x2 {
  int64_t u, v, q, r;
};

Signed62 ToSigned62(const U256& a) {
  const auto& l = a.limb;
  return Signed62{{static_cast<int64_t>(l[0] & kM62),
                   static_cast<int64_t>((l[0] >> 62 | l[1] << 2) & kM62),
                   static_cast<int64_t>((l[1] >> 60 | l[2] << 4) & kM62),
                   static_cast<int64_t>((l[2] >> 58 | l[3] << 6) & kM62),
                   static_cast<int64_t>(l[3] >> 56)}};
}

/// Requires a normalized value in [0, 2^256).
U256 FromSigned62(const Signed62& a) {
  const auto a0 = static_cast<uint64_t>(a.v[0]);
  const auto a1 = static_cast<uint64_t>(a.v[1]);
  const auto a2 = static_cast<uint64_t>(a.v[2]);
  const auto a3 = static_cast<uint64_t>(a.v[3]);
  const auto a4 = static_cast<uint64_t>(a.v[4]);
  return U256(a0 | a1 << 62, a1 >> 2 | a2 << 60, a2 >> 4 | a3 << 58,
              a3 >> 6 | a4 << 56);
}

/// Runs 62 divsteps on the low 64 bits of f (odd) and g, starting from
/// eta = -delta; fills the transition matrix, scaled so that
/// t [f0 g0] = 2^62 [f g], and returns the new eta. A run of zero low
/// bits in g is consumed in one shift; a sentinel bit above position i
/// stops it at the 62-step budget.
int64_t Divsteps62Var(int64_t eta, uint64_t f0, uint64_t g0, Trans2x2* t) {
  uint64_t u = 1, v = 0, q = 0, r = 1;
  uint64_t f = f0, g = g0;
  int i = 62;
  for (;;) {
    int zeros = __builtin_ctzll(g | (~0ULL << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // f and g are both odd here: cancel low bits of g with a multiple
    // of f, no more than the steps left (i) and no more than eta + 1,
    // after which delta's sign would flip again.
    auto low_bits = [&](uint64_t cap) {
      int limit = static_cast<int>(std::min<int64_t>(eta + 1, i));
      return (~0ULL >> (64 - limit)) & cap;
    };
    uint64_t w;
    if (eta < 0) {
      // (delta, f, g) <- (-delta, g, -f), with the matrix rows alike.
      eta = -eta;
      uint64_t tmp = f;
      f = g;
      g = -tmp;
      tmp = u;
      u = q;
      q = -tmp;
      tmp = v;
      v = r;
      r = -tmp;
      // Up to 6 bits: f * (f^2 - 2) == -1/f (mod 64).
      w = (f * g * (f * f - 2)) & low_bits(63);
    } else {
      // Up to 4 bits: f + (((f + 1) & 4) << 1) == 1/f (mod 16).
      w = (-(f + (((f + 1) & 4) << 1)) * g) & low_bits(15);
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t->u = static_cast<int64_t>(u);
  t->v = static_cast<int64_t>(v);
  t->q = static_cast<int64_t>(q);
  t->r = static_cast<int64_t>(r);
  return eta;
}

/// [d e] <- (t [d e] + m [md me]) / 2^62, with md, me chosen to make the
/// division exact and to keep d, e in (-2m, m).
void UpdateDe62(Signed62* d, Signed62* e, const Trans2x2& t,
                const ModInfo62& mod) {
  const int64_t sd = d->v[4] >> 63;
  const int64_t se = e->v[4] >> 63;
  int64_t md = (t.u & sd) + (t.v & se);
  int64_t me = (t.q & sd) + (t.r & se);
  int128 cd = static_cast<int128>(t.u) * d->v[0] +
              static_cast<int128>(t.v) * e->v[0];
  int128 ce = static_cast<int128>(t.q) * d->v[0] +
              static_cast<int128>(t.r) * e->v[0];
  md -= static_cast<int64_t>(
      (mod.m_inv62 * static_cast<uint64_t>(cd) + static_cast<uint64_t>(md)) &
      kM62);
  me -= static_cast<int64_t>(
      (mod.m_inv62 * static_cast<uint64_t>(ce) + static_cast<uint64_t>(me)) &
      kM62);
  cd += static_cast<int128>(mod.m.v[0]) * md;
  ce += static_cast<int128>(mod.m.v[0]) * me;
  cd >>= 62;  // The low 62 bits are zero by the choice of md, me.
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<int128>(t.u) * d->v[i] +
          static_cast<int128>(t.v) * e->v[i];
    ce += static_cast<int128>(t.q) * d->v[i] +
          static_cast<int128>(t.r) * e->v[i];
    if (mod.m.v[i] != 0) {
      cd += static_cast<int128>(mod.m.v[i]) * md;
      ce += static_cast<int128>(mod.m.v[i]) * me;
    }
    d->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cd) & kM62);
    e->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d->v[4] = static_cast<int64_t>(cd);
  e->v[4] = static_cast<int64_t>(ce);
}

/// [f g] <- t [f g] / 2^62 over the low `len` limbs (exact by
/// construction of t).
void UpdateFg62Var(int len, Signed62* f, Signed62* g, const Trans2x2& t) {
  int128 cf = static_cast<int128>(t.u) * f->v[0] +
              static_cast<int128>(t.v) * g->v[0];
  int128 cg = static_cast<int128>(t.q) * f->v[0] +
              static_cast<int128>(t.r) * g->v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < len; ++i) {
    cf += static_cast<int128>(t.u) * f->v[i] +
          static_cast<int128>(t.v) * g->v[i];
    cg += static_cast<int128>(t.q) * f->v[i] +
          static_cast<int128>(t.r) * g->v[i];
    f->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cf) & kM62);
    g->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f->v[len - 1] = static_cast<int64_t>(cf);
  g->v[len - 1] = static_cast<int64_t>(cg);
}

/// Maps d in (-2m, m) to (sign < 0 ? -d : d) mod m in [0, m), with
/// normalized limbs.
void Normalize62(Signed62* d, int64_t sign, const ModInfo62& mod) {
  int64_t* r = d->v;
  auto carry = [r] {
    for (int i = 0; i < 4; ++i) {
      r[i + 1] += r[i] >> 62;
      r[i] &= static_cast<int64_t>(kM62);
    }
  };
  if (r[4] < 0) {
    for (int i = 0; i < 5; ++i) r[i] += mod.m.v[i];
  }
  if (sign < 0) {
    for (int i = 0; i < 5; ++i) r[i] = -r[i];
  }
  carry();
  if (r[4] < 0) {
    for (int i = 0; i < 5; ++i) r[i] += mod.m.v[i];
    carry();
  }
}

/// x^-1 mod m for 0 < x < m, m an odd prime.
U256 ModInvVar(const U256& x, const ModInfo62& mod) {
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = mod.m;
  Signed62 g = ToSigned62(x);
  int len = 5;
  int64_t eta = -1;  // eta = -delta, delta starts at 1.
  for (int round = 0; round < kMaxDivstepRounds; ++round) {
    Trans2x2 t;
    eta = Divsteps62Var(eta, static_cast<uint64_t>(f.v[0]),
                        static_cast<uint64_t>(g.v[0]), &t);
    UpdateDe62(&d, &e, t, mod);
    UpdateFg62Var(len, &f, &g, t);
    if (g.v[0] == 0) {
      int64_t any = 0;
      for (int j = 1; j < len; ++j) any |= g.v[j];
      if (any == 0) {
        // g = 0 and f = +-gcd = +-1: d holds +-x^-1.
        Normalize62(&d, f.v[len - 1], mod);
        return FromSigned62(d);
      }
    }
    // Drop the top limb once both f and g fit in one limb fewer: fold
    // its sign (0 or -1) into the limb below.
    const int64_t fn = f.v[len - 1];
    const int64_t gn = g.v[len - 1];
    if (len > 1 && (fn == 0 || fn == -1) && (gn == 0 || gn == -1)) {
      f.v[len - 2] = static_cast<int64_t>(static_cast<uint64_t>(f.v[len - 2]) |
                                          static_cast<uint64_t>(fn) << 62);
      g.v[len - 2] = static_cast<int64_t>(static_cast<uint64_t>(g.v[len - 2]) |
                                          static_cast<uint64_t>(gn) << 62);
      --len;
    }
  }
  std::fprintf(stderr,
               "wedge/secp256k1: divsteps inversion exceeded its %d-round "
               "bound; aborting\n",
               kMaxDivstepRounds);
  std::abort();
}

/// a^-1 mod m after reducing a; aborts when a == 0 (mod m).
U256 InvChecked(const U256& a, const U256& m, const ModInfo62& mod,
                const char* fn) {
  U256 r = a >= m ? U256::Mod(a, m) : a;
  if (r.IsZero()) DieZeroInverse(fn);
  return ModInvVar(r, mod);
}

/// Montgomery's simultaneous-inversion trick: one real inversion plus
/// three multiplications per element. MulFn is FpMul or FnMul. The
/// modulus is prime, so the product is zero iff some input is.
template <typename MulFn>
void InvManyImpl(const U256* xs, size_t n, U256* out, const U256& m,
                 const ModInfo62& mod, MulFn mul, const char* fn) {
  if (n == 0) return;
  std::vector<U256> prefix(n);
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = i == 0 ? xs[i] : mul(prefix[i - 1], xs[i]);
  }
  U256 inv = InvChecked(prefix[n - 1], m, mod, fn);
  for (size_t i = n; i-- > 1;) {
    U256 x = xs[i];  // Copy first: `out` may alias `xs`.
    out[i] = mul(inv, prefix[i - 1]);
    inv = mul(inv, x);
  }
  out[0] = inv;
}

/// Jacobian coordinates: (X, Y, Z) represents (X/Z^2, Y/Z^3).
struct Jacobian {
  U256 x;
  U256 y;
  U256 z;  // z == 0 marks the identity.

  bool IsInfinity() const { return z.IsZero(); }
  static Jacobian Infinity() {
    return Jacobian{U256::One(), U256::One(), U256::Zero()};
  }
};

Jacobian ToJacobian(const AffinePoint& p) {
  if (p.infinity) return Jacobian::Infinity();
  return Jacobian{p.x, p.y, U256::One()};
}

AffinePoint FromJacobian(const Jacobian& j) {
  if (j.IsInfinity()) return AffinePoint::Infinity();
  U256 zinv = FpInv(j.z);
  U256 zinv2 = FpSqr(zinv);
  U256 zinv3 = FpMul(zinv2, zinv);
  AffinePoint out;
  out.x = FpMul(j.x, zinv2);
  out.y = FpMul(j.y, zinv3);
  out.infinity = false;
  return out;
}

Jacobian JDouble(const Jacobian& p) {
  if (p.IsInfinity() || p.y.IsZero()) return Jacobian::Infinity();
  // dbl-2007-bl simplified for a = 0: 2M + 5S, small constants as
  // addition chains.
  U256 a = FpSqrInl(p.x);  // X^2
  U256 b = FpSqrInl(p.y);  // Y^2
  U256 c = FpSqrInl(b);    // Y^4
  U256 t = FpSubInl(FpSqrInl(FpAddInl(p.x, b)), FpAddInl(a, c));
  U256 d = FpAddInl(t, t);  // 2((X+B)^2 - A - C)
  U256 e = FpAddInl(FpAddInl(a, a), a);  // 3A
  U256 f = FpSqrInl(e);
  Jacobian out;
  out.x = FpSubInl(f, FpAddInl(d, d));
  U256 c2 = FpAddInl(c, c);
  U256 c8 = FpAddInl(FpAddInl(c2, c2), FpAddInl(c2, c2));
  out.y = FpSubInl(FpMulInl(e, FpSubInl(d, out.x)), c8);
  out.z = FpMulInl(FpAddInl(p.y, p.y), p.z);
  return out;
}

Jacobian JAdd(const Jacobian& p, const Jacobian& q) {
  if (p.IsInfinity()) return q;
  if (q.IsInfinity()) return p;
  // add-2007-bl: 11M + 5S.
  U256 z1z1 = FpSqrInl(p.z);
  U256 z2z2 = FpSqrInl(q.z);
  U256 u1 = FpMulInl(p.x, z2z2);
  U256 u2 = FpMulInl(q.x, z1z1);
  U256 s1 = FpMulInl(FpMulInl(p.y, q.z), z2z2);
  U256 s2 = FpMulInl(FpMulInl(q.y, p.z), z1z1);
  if (u1 == u2) {
    if (s1 == s2) return JDouble(p);
    return Jacobian::Infinity();
  }
  U256 h = FpSubInl(u2, u1);
  U256 h2 = FpAddInl(h, h);
  U256 i = FpSqrInl(h2);
  U256 j = FpMulInl(h, i);
  U256 rr = FpSubInl(s2, s1);
  U256 r = FpAddInl(rr, rr);
  U256 v = FpMulInl(u1, i);
  Jacobian out;
  out.x = FpSubInl(FpSubInl(FpSqrInl(r), j), FpAddInl(v, v));
  U256 s1j = FpMulInl(s1, j);
  out.y = FpSubInl(FpMulInl(r, FpSubInl(v, out.x)), FpAddInl(s1j, s1j));
  // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H == 2*Z1*Z2*H.
  out.z = FpMulInl(
      FpSubInl(FpSqrInl(FpAddInl(p.z, q.z)), FpAddInl(z1z1, z2z2)), h);
  return out;
}

/// Mixed addition (Z2 = 1, madd-2007-bl): 7M + 4S against JAdd's
/// 11M + 5S. The workhorse of every table-driven path — precomputed
/// tables are batch-normalized to affine exactly so this applies.
Jacobian JAddMixed(const Jacobian& p, const AffinePoint& q) {
  if (q.infinity) return p;
  if (p.IsInfinity()) return Jacobian{q.x, q.y, U256::One()};
  U256 z1z1 = FpSqrInl(p.z);
  U256 u2 = FpMulInl(q.x, z1z1);
  U256 s2 = FpMulInl(FpMulInl(q.y, p.z), z1z1);
  if (p.x == u2) {
    if (p.y == s2) return JDouble(p);
    return Jacobian::Infinity();
  }
  U256 h = FpSubInl(u2, p.x);
  U256 hh = FpSqrInl(h);
  U256 hh2 = FpAddInl(hh, hh);
  U256 i = FpAddInl(hh2, hh2);  // 4*HH
  U256 j = FpMulInl(h, i);
  U256 rr = FpSubInl(s2, p.y);
  U256 r = FpAddInl(rr, rr);
  U256 v = FpMulInl(p.x, i);
  Jacobian out;
  out.x = FpSubInl(FpSubInl(FpSqrInl(r), j), FpAddInl(v, v));
  U256 yj = FpMulInl(p.y, j);
  out.y = FpSubInl(FpMulInl(r, FpSubInl(v, out.x)), FpAddInl(yj, yj));
  out.z = FpSubInl(FpSubInl(FpSqrInl(FpAddInl(p.z, h)), z1z1), hh);
  return out;
}

AffinePoint NegateAffine(const AffinePoint& a) {
  if (a.infinity) return a;
  AffinePoint out = a;
  out.y = FpSub(U256::Zero(), a.y);
  return out;
}

/// Converts a span of Jacobian points to affine with ONE field inversion
/// (Montgomery trick over the z coordinates). Infinity entries map to
/// the affine identity.
void BatchNormalize(const Jacobian* js, size_t n, AffinePoint* out) {
  std::vector<U256> zs;
  std::vector<size_t> idx;
  zs.reserve(n);
  idx.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (js[i].IsInfinity()) {
      out[i] = AffinePoint::Infinity();
    } else {
      zs.push_back(js[i].z);
      idx.push_back(i);
    }
  }
  if (zs.empty()) return;
  FpInvMany(zs.data(), zs.size(), zs.data());
  for (size_t k = 0; k < idx.size(); ++k) {
    const Jacobian& j = js[idx[k]];
    U256 zinv2 = FpSqr(zs[k]);
    AffinePoint& o = out[idx[k]];
    o.x = FpMul(j.x, zinv2);
    o.y = FpMul(j.y, FpMul(zinv2, zs[k]));
    o.infinity = false;
  }
}

// --- Fixed-base comb table ---
// table[w * 255 + d - 1] = d * 256^w * G for w in [0, 32), d in [1, 256).
// ScalarMulBase then needs no doublings at all: one mixed add per
// non-zero byte of the scalar (<= 32). ~512 KiB, built lazily on first
// use with a single batch normalization.
constexpr int kCombWindows = 32;

const std::vector<AffinePoint>& CombTable() {
  static const auto* table = [] {
    std::vector<Jacobian> jac(static_cast<size_t>(kCombWindows) * 255);
    Jacobian base{kGx, kGy, U256::One()};
    for (int w = 0; w < kCombWindows; ++w) {
      Jacobian* row = jac.data() + static_cast<size_t>(w) * 255;
      row[0] = base;
      for (int d = 2; d <= 255; ++d) row[d - 1] = JAdd(row[d - 2], base);
      base = JAdd(row[254], base);  // 256 * previous window base.
    }
    auto* t = new std::vector<AffinePoint>(jac.size());
    BatchNormalize(jac.data(), jac.size(), t->data());
    return t;
  }();
  return *table;
}

// --- wNAF ---
// Width-w non-adjacent form: digits are zero or odd in
// (-2^(w-1), 2^(w-1)), at most one non-zero digit per w consecutive
// positions. Scratch must hold kWnafMaxLen entries.
constexpr int kWnafMaxLen = 257;

int ComputeWnaf(U256 k, int width, int8_t* naf) {
  const uint64_t mask = (1ULL << width) - 1;
  const int64_t half = 1LL << (width - 1);
  int len = 0;
  while (!k.IsZero()) {
    if ((k.limb[0] & 1) == 0) {
      // Skip the whole run of trailing zeros in one shift.
      int run = k.TrailingZeros();
      for (int i = 0; i < run; ++i) naf[len++] = 0;
      k = k.Shr(run);
    }
    int64_t digit = static_cast<int64_t>(k.limb[0] & mask);
    if (digit >= half) digit -= 1LL << width;
    if (digit >= 0) {
      k = k - U256(static_cast<uint64_t>(digit));
    } else {
      // Scalars here are < n < 2^256 - 2^129, so this add never wraps.
      k = k + U256(static_cast<uint64_t>(-digit));
    }
    naf[len++] = static_cast<int8_t>(digit);
    k = k.Shr(1);
  }
  return len;
}

/// Odd multiples {1, 3, ..., 15} * P, batch-normalized to affine — the
/// per-call table for width-5 wNAF over a variable base.
void OddMultiples15(const AffinePoint& p, AffinePoint out[8]) {
  Jacobian jac[8];
  jac[0] = ToJacobian(p);
  Jacobian twice = JDouble(jac[0]);
  for (int i = 1; i < 8; ++i) jac[i] = JAdd(jac[i - 1], twice);
  BatchNormalize(jac, 8, out);
}

/// Adds wNAF digit `d` (sign-flipped when `flip`) from a table of odd
/// multiples {1, 3, 5, ...} of some base point.
Jacobian AddWnafDigit(Jacobian acc, int d, bool flip,
                      const AffinePoint* odd_multiples) {
  if (d == 0) return acc;
  if (flip) d = -d;
  const AffinePoint& e = odd_multiples[(std::abs(d) - 1) / 2];
  return JAddMixed(acc, d > 0 ? e : NegateAffine(e));
}

// --- Fixed wNAF tables for verification ---
// Odd multiples {1..127} * G and {1..127} * 2^128 * G (width-8 wNAF):
// splitting u1 into 128-bit halves against the 2^128*G table means the
// interleaved loop only runs ~130 doublings for full-width u1.
struct VerifyTables {
  std::array<AffinePoint, 64> g;
  std::array<AffinePoint, 64> g128;
};

const VerifyTables& GetVerifyTables() {
  static const auto* tables = [] {
    std::vector<Jacobian> jac(128);
    Jacobian g{kGx, kGy, U256::One()};
    Jacobian twice = JDouble(g);
    jac[0] = g;
    for (int i = 1; i < 64; ++i) jac[i] = JAdd(jac[i - 1], twice);
    Jacobian g128 = g;
    for (int i = 0; i < 128; ++i) g128 = JDouble(g128);
    jac[64] = g128;
    twice = JDouble(g128);
    for (int i = 65; i < 128; ++i) jac[i] = JAdd(jac[i - 1], twice);
    auto* t = new VerifyTables();
    std::vector<AffinePoint> affine(128);
    BatchNormalize(jac.data(), 128, affine.data());
    std::copy(affine.begin(), affine.begin() + 64, t->g.begin());
    std::copy(affine.begin() + 64, affine.end(), t->g128.begin());
    return t;
  }();
  return *tables;
}

/// (k*g1 or k*g2) >> 384, rounded: the projection step of the GLV split.
U256 MulShift384Round(const U256& a, const U256& b) {
  U512 prod = U256::MulWide(a, b);
  U256 shifted(prod.limb[6], prod.limb[7], 0, 0);
  if (prod.limb[5] >> 63) shifted = shifted + U256::One();
  return shifted;
}

void SplitScalarGlvImpl(const U256& k_in, U256* k1, bool* neg1, U256* k2,
                        bool* neg2) {
  U256 k = FnReduce(k_in);
  U256 c1 = MulShift384Round(k, kG1);
  U256 c2 = MulShift384Round(k, kG2);
  U256 r2 = FnAdd(FnMul(c1, kMinusB1), FnMul(c2, kMinusB2));
  U256 r1 = FnSub(k, FnMul(r2, kLambda));
  *neg1 = false;
  *neg2 = false;
  // The true components are signed values of magnitude < ~2^128; a
  // residue near n is a negative component.
  if (r1.BitLength() > 132) {
    r1 = kN - r1;
    *neg1 = true;
  }
  if (r2.BitLength() > 132) {
    r2 = kN - r2;
    *neg2 = true;
  }
  *k1 = r1;
  *k2 = r2;
}

// --- Fast backend entry points ---

void FastScalarMulBaseAccum(const U256& k_reduced, Jacobian* acc) {
  const auto& table = CombTable();
  Jacobian result = Jacobian::Infinity();
  for (int w = 0; w < kCombWindows; ++w) {
    unsigned digit = static_cast<unsigned>(
        (k_reduced.limb[w / 8] >> ((w % 8) * 8)) & 0xFF);
    if (digit != 0) {
      result = JAddMixed(result, table[static_cast<size_t>(w) * 255 +
                                       digit - 1]);
    }
  }
  *acc = result;
}

AffinePoint FastScalarMulBase(const U256& k_in) {
  U256 k = FnReduce(k_in);
  if (k.IsZero()) return AffinePoint::Infinity();
  Jacobian acc;
  FastScalarMulBaseAccum(k, &acc);
  return FromJacobian(acc);
}

AffinePoint FastScalarMul(const AffinePoint& p, const U256& k_in) {
  U256 k = FnReduce(k_in);
  if (k.IsZero() || p.infinity) return AffinePoint::Infinity();
  AffinePoint odd[8];
  OddMultiples15(p, odd);
  int8_t naf[kWnafMaxLen];
  int len = ComputeWnaf(k, 5, naf);
  Jacobian acc = Jacobian::Infinity();
  for (int i = len - 1; i >= 0; --i) {
    acc = JDouble(acc);
    acc = AddWnafDigit(acc, naf[i], false, odd);
  }
  return FromJacobian(acc);
}

AffinePoint FastDoubleScalarMulBase(const U256& u1, const AffinePoint& p,
                                    const U256& u2) {
  U256 a = FnReduce(u1);
  U256 b = FnReduce(u2);
  if (p.infinity || b.IsZero()) return FastScalarMulBase(a);

  // u1 split into 128-bit halves (tables for G and 2^128*G); u2 split
  // via the GLV endomorphism into two half-width scalars against P and
  // phi(P) = (beta*x, y).
  U256 a_lo(a.limb[0], a.limb[1], 0, 0);
  U256 a_hi(a.limb[2], a.limb[3], 0, 0);
  U256 k1, k2;
  bool neg1 = false, neg2 = false;
  SplitScalarGlvImpl(b, &k1, &neg1, &k2, &neg2);

  AffinePoint p_odd[8];
  OddMultiples15(p, p_odd);
  AffinePoint phi_odd[8];
  for (int i = 0; i < 8; ++i) {
    phi_odd[i].x = FpMul(p_odd[i].x, kBeta);
    phi_odd[i].y = p_odd[i].y;
    phi_odd[i].infinity = false;
  }

  const VerifyTables& fixed = GetVerifyTables();
  int8_t naf_alo[kWnafMaxLen], naf_ahi[kWnafMaxLen];
  int8_t naf_k1[kWnafMaxLen], naf_k2[kWnafMaxLen];
  int len_alo = ComputeWnaf(a_lo, 8, naf_alo);
  int len_ahi = ComputeWnaf(a_hi, 8, naf_ahi);
  int len_k1 = ComputeWnaf(k1, 5, naf_k1);
  int len_k2 = ComputeWnaf(k2, 5, naf_k2);
  int len = std::max({len_alo, len_ahi, len_k1, len_k2});

  Jacobian acc = Jacobian::Infinity();
  for (int i = len - 1; i >= 0; --i) {
    acc = JDouble(acc);
    if (i < len_k1) acc = AddWnafDigit(acc, naf_k1[i], neg1, p_odd);
    if (i < len_k2) acc = AddWnafDigit(acc, naf_k2[i], neg2, phi_odd);
    if (i < len_ahi) {
      acc = AddWnafDigit(acc, naf_ahi[i], false, fixed.g128.data());
    }
    if (i < len_alo) {
      acc = AddWnafDigit(acc, naf_alo[i], false, fixed.g.data());
    }
  }
  return FromJacobian(acc);
}

// --- Per-key comb (KeyTable) ---
// Signed windows of kKeyCombBits bits: each digit d lies in
// [-2^(b-1), 2^(b-1)] and comb[w * kKeyCombDigits + |d| - 1] =
// |d| * 2^(b*w) * Q, negated on use. The windows cover any GLV half of
// up to 132 bits (the magnitude SplitScalarGlvImpl folds signs at) plus
// the recoding's last carry.
constexpr int kKeyCombBits = 5;
constexpr int kKeyCombDigits = 1 << (kKeyCombBits - 1);
constexpr int kKeyCombMaxBits = 132;
constexpr int kKeyCombWindows = kKeyCombMaxBits / kKeyCombBits + 1;

/// Bits [pos, pos + kKeyCombBits) of k.
inline unsigned KeyCombChunk(const U256& k, int pos) {
  int limb = pos / 64;
  int shift = pos % 64;
  uint64_t v = k.limb[limb] >> shift;
  if (shift + kKeyCombBits > 64 && limb < 3) {
    v |= k.limb[limb + 1] << (64 - shift);
  }
  return static_cast<unsigned>(v & ((1u << kKeyCombBits) - 1));
}

/// Adds k * Q (phi(Q) when `phi`, negated when `neg`) to acc from the
/// comb: one mixed addition per non-zero signed digit, no doublings.
Jacobian AddKeyComb(Jacobian acc, const U256& k, bool phi, bool neg,
                    const AffinePoint* comb) {
  unsigned carry = 0;
  for (int w = 0; w < kKeyCombWindows; ++w) {
    unsigned c = KeyCombChunk(k, w * kKeyCombBits) + carry;
    carry = c > kKeyCombDigits ? 1 : 0;
    int d = static_cast<int>(c) - (carry ? 1 << kKeyCombBits : 0);
    if (d == 0) continue;
    AffinePoint e = comb[w * kKeyCombDigits + std::abs(d) - 1];
    if (phi) e.x = FpMulInl(e.x, kBeta);
    acc = JAddMixed(acc, (d < 0) != neg ? NegateAffine(e) : e);
  }
  return acc;
}

AffinePoint FastDoubleScalarMulBaseKeyed(const U256& u1, const KeyTable& t,
                                         const U256& u2) {
  U256 k1, k2;
  bool neg1 = false, neg2 = false;
  SplitScalarGlvImpl(u2, &k1, &neg1, &k2, &neg2);
  if (k1.BitLength() > kKeyCombMaxBits || k2.BitLength() > kKeyCombMaxBits) {
    // Outside the lattice bound; never taken, but stays exact if it is.
    return FastDoubleScalarMulBase(u1, t.key, u2);
  }
  Jacobian acc = Jacobian::Infinity();
  U256 a = FnReduce(u1);
  if (!a.IsZero()) FastScalarMulBaseAccum(a, &acc);
  acc = AddKeyComb(acc, k1, false, neg1, t.comb.data());
  acc = AddKeyComb(acc, k2, true, neg2, t.comb.data());
  return FromJacobian(acc);
}

}  // namespace

const U256& FieldPrime() {
  static const U256 p = kP;
  return p;
}
const U256& GroupOrder() {
  static const U256 n = kN;
  return n;
}
const U256& FieldC() {
  static const U256 c = kCp;
  return c;
}
const U256& OrderC() {
  static const U256 c = kCn;
  return c;
}

U256 FpAdd(const U256& a, const U256& b) { return FpAddInl(a, b); }
U256 FpSub(const U256& a, const U256& b) { return FpSubInl(a, b); }

U256 FpMul(const U256& a, const U256& b) { return FpMulInl(a, b); }

U256 FpSqr(const U256& a) { return FpMulInl(a, a); }

U256 FpInv(const U256& a) { return InvChecked(a, kP, kP62, "FpInv"); }

void FpInvMany(const U256* xs, size_t n, U256* out) {
  InvManyImpl(xs, n, out, kP, kP62, &FpMul, "FpInvMany");
}

Result<U256> FpSqrt(const U256& a) {
  // p = 3 (mod 4): sqrt(a) = a^((p+1)/4) when a is a quadratic residue.
  // (p+1)/4 in binary is 223 ones, a zero, 22 ones, four zeros, 2 ones
  // and two zeros; secp256k1's addition chain builds a^(2^k - 1) for
  // k = 2, 3, 6, 9, 11, 22, 44, 88, 176, 220, 223 and slides over the
  // three blocks: 253 squarings and 13 multiplications in all.
  U256 x2 = FpMulInl(FpSqrInl(a), a);
  U256 x3 = FpMulInl(FpSqrInl(x2), a);
  U256 x6 = FpMulInl(FpSqrNInl(x3, 3), x3);
  U256 x9 = FpMulInl(FpSqrNInl(x6, 3), x3);
  U256 x11 = FpMulInl(FpSqrNInl(x9, 2), x2);
  U256 x22 = FpMulInl(FpSqrNInl(x11, 11), x11);
  U256 x44 = FpMulInl(FpSqrNInl(x22, 22), x22);
  U256 x88 = FpMulInl(FpSqrNInl(x44, 44), x44);
  U256 x176 = FpMulInl(FpSqrNInl(x88, 88), x88);
  U256 x220 = FpMulInl(FpSqrNInl(x176, 44), x44);
  U256 x223 = FpMulInl(FpSqrNInl(x220, 3), x3);
  U256 t = FpMulInl(FpSqrNInl(x223, 23), x22);
  t = FpMulInl(FpSqrNInl(t, 6), x2);
  U256 root = FpSqrNInl(t, 2);
  if (FpSqr(root) != U256::Mod(a, kP)) {
    return Status::Verification("no square root exists mod p");
  }
  return root;
}

U256 FnAdd(const U256& a, const U256& b) { return AddMod(a, b, kN); }
U256 FnSub(const U256& a, const U256& b) { return SubMod(a, b, kN); }

U256 FnMul(const U256& a, const U256& b) {
  return ReduceWide(U256::MulWide(a, b), kN, kCn);
}

U256 FnInv(const U256& a) { return InvChecked(a, kN, kN62, "FnInv"); }

void FnInvMany(const U256* xs, size_t n, U256* out) {
  InvManyImpl(xs, n, out, kN, kN62, &FnMul, "FnInvMany");
}

U256 FnReduce(const U256& a) {
  U256 r = a;
  while (r >= kN) r = r - kN;
  return r;
}

const AffinePoint& Generator() {
  static const AffinePoint g = [] {
    AffinePoint p;
    p.x = kGx;
    p.y = kGy;
    p.infinity = false;
    return p;
  }();
  return g;
}

bool IsOnCurve(const AffinePoint& p) {
  if (p.infinity) return true;
  if (p.x >= kP || p.y >= kP) return false;
  U256 lhs = FpSqr(p.y);
  U256 rhs = FpAdd(FpMul(FpSqr(p.x), p.x), kCurveB);
  return lhs == rhs;
}

AffinePoint Add(const AffinePoint& a, const AffinePoint& b) {
  return FromJacobian(JAdd(ToJacobian(a), ToJacobian(b)));
}

AffinePoint Double(const AffinePoint& a) {
  return FromJacobian(JDouble(ToJacobian(a)));
}

AffinePoint Negate(const AffinePoint& a) { return NegateAffine(a); }

namespace reference {

AffinePoint ScalarMul(const AffinePoint& p, const U256& k_in) {
  U256 k = FnReduce(k_in);
  if (k.IsZero() || p.infinity) return AffinePoint::Infinity();
  Jacobian base = ToJacobian(p);
  Jacobian result = Jacobian::Infinity();
  int bits = k.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    result = JDouble(result);
    if (k.Bit(i)) result = JAdd(result, base);
  }
  return FromJacobian(result);
}

AffinePoint ScalarMulBase(const U256& k) {
  return reference::ScalarMul(Generator(), k);
}

AffinePoint DoubleScalarMulBase(const U256& u1, const AffinePoint& p,
                                const U256& u2) {
  // Plain bit-interleaved Shamir: one shared doubling chain, adds from
  // {G, P, G+P} per bit pair.
  Jacobian g = ToJacobian(Generator());
  Jacobian q = ToJacobian(p);
  Jacobian sum = JAdd(g, q);
  Jacobian result = Jacobian::Infinity();
  U256 a = FnReduce(u1);
  U256 b = FnReduce(u2);
  int bits = std::max(a.BitLength(), b.BitLength());
  for (int i = bits - 1; i >= 0; --i) {
    result = JDouble(result);
    bool ba = a.Bit(i);
    bool bb = b.Bit(i);
    if (ba && bb) {
      result = JAdd(result, sum);
    } else if (ba) {
      result = JAdd(result, g);
    } else if (bb) {
      result = JAdd(result, q);
    }
  }
  return FromJacobian(result);
}

}  // namespace reference

namespace internal {

void SplitScalarGlv(const U256& k, U256* k1, bool* neg1, U256* k2,
                    bool* neg2) {
  SplitScalarGlvImpl(k, k1, neg1, k2, neg2);
}

const U256& GlvLambda() {
  static const U256 l = kLambda;
  return l;
}

const U256& GlvBeta() {
  static const U256 b = kBeta;
  return b;
}

}  // namespace internal

AffinePoint ScalarMul(const AffinePoint& p, const U256& k) {
  if (ActiveEcBackend() == EcBackend::kReference) {
    return reference::ScalarMul(p, k);
  }
  return FastScalarMul(p, k);
}

AffinePoint ScalarMulBase(const U256& k) {
  if (ActiveEcBackend() == EcBackend::kReference) {
    return reference::ScalarMulBase(k);
  }
  return FastScalarMulBase(k);
}

void ScalarMulBaseMany(const U256* ks, size_t n, AffinePoint* out) {
  if (n == 0) return;
  if (ActiveEcBackend() == EcBackend::kReference) {
    for (size_t i = 0; i < n; ++i) out[i] = reference::ScalarMulBase(ks[i]);
    return;
  }
  // Accumulate every product in Jacobian form, then normalize the whole
  // batch with one inversion.
  std::vector<Jacobian> accs(n, Jacobian::Infinity());
  for (size_t i = 0; i < n; ++i) {
    U256 k = FnReduce(ks[i]);
    if (!k.IsZero()) FastScalarMulBaseAccum(k, &accs[i]);
  }
  BatchNormalize(accs.data(), n, out);
}

AffinePoint DoubleScalarMulBase(const U256& u1, const AffinePoint& p,
                                const U256& u2) {
  if (ActiveEcBackend() == EcBackend::kReference) {
    return reference::DoubleScalarMulBase(u1, p, u2);
  }
  return FastDoubleScalarMulBase(u1, p, u2);
}

KeyTable BuildKeyTable(const AffinePoint& q) {
  std::vector<Jacobian> jac(static_cast<size_t>(kKeyCombWindows) *
                            kKeyCombDigits);
  Jacobian base = ToJacobian(q);
  for (int w = 0; w < kKeyCombWindows; ++w) {
    Jacobian* row = jac.data() + static_cast<size_t>(w) * kKeyCombDigits;
    row[0] = base;
    for (int d = 2; d <= kKeyCombDigits; ++d) {
      row[d - 1] = JAdd(row[d - 2], base);
    }
    base = JDouble(row[kKeyCombDigits - 1]);  // 2^kKeyCombBits * base.
  }
  KeyTable t;
  t.key = q;
  t.comb.resize(jac.size());
  BatchNormalize(jac.data(), jac.size(), t.comb.data());
  return t;
}

AffinePoint DoubleScalarMulBaseKeyed(const U256& u1, const KeyTable& table,
                                     const U256& u2) {
  if (ActiveEcBackend() == EcBackend::kReference) {
    return reference::DoubleScalarMulBase(u1, table.key, u2);
  }
  return FastDoubleScalarMulBaseKeyed(u1, table, u2);
}

Result<AffinePoint> LiftX(const U256& x, bool odd_y) {
  if (x >= kP) return Status::InvalidArgument("x not in field");
  U256 rhs = FpAdd(FpMul(FpSqr(x), x), kCurveB);
  WEDGE_ASSIGN_OR_RETURN(U256 y, FpSqrt(rhs));
  if (y.Bit(0) != odd_y) y = FpSub(U256::Zero(), y);
  AffinePoint p;
  p.x = x;
  p.y = y;
  p.infinity = false;
  return p;
}

Result<Bytes> EncodeUncompressed(const AffinePoint& p) {
  if (p.infinity) return Status::InvalidArgument("cannot encode identity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  Append(out, p.x.ToBytesBE());
  Append(out, p.y.ToBytesBE());
  return out;
}

Result<AffinePoint> DecodeUncompressed(const Bytes& b) {
  if (b.size() != 65 || b[0] != 0x04) {
    return Status::InvalidArgument("bad uncompressed point encoding");
  }
  Bytes xb(b.begin() + 1, b.begin() + 33);
  Bytes yb(b.begin() + 33, b.end());
  WEDGE_ASSIGN_OR_RETURN(U256 x, U256::FromBytesBE(xb));
  WEDGE_ASSIGN_OR_RETURN(U256 y, U256::FromBytesBE(yb));
  AffinePoint p;
  p.x = x;
  p.y = y;
  p.infinity = false;
  if (!IsOnCurve(p)) return Status::Verification("point not on curve");
  return p;
}

Result<Bytes> EncodeCompressed(const AffinePoint& p) {
  if (p.infinity) return Status::InvalidArgument("cannot encode identity");
  Bytes out;
  out.reserve(33);
  out.push_back(p.y.Bit(0) ? 0x03 : 0x02);
  Append(out, p.x.ToBytesBE());
  return out;
}

Result<AffinePoint> DecodeCompressed(const Bytes& b) {
  if (b.size() != 33 || (b[0] != 0x02 && b[0] != 0x03)) {
    return Status::InvalidArgument("bad compressed point encoding");
  }
  Bytes xb(b.begin() + 1, b.end());
  WEDGE_ASSIGN_OR_RETURN(U256 x, U256::FromBytesBE(xb));
  return LiftX(x, b[0] == 0x03);
}

}  // namespace secp256k1
}  // namespace wedge

#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>

// The Montgomery kernel multiplies 64-bit words into 128-bit products.
#if !defined(__SIZEOF_INT128__)
#error "BigNum::modexp needs unsigned __int128 (GCC or Clang, 64-bit host)"
#endif

namespace rmc::crypto {

using common::ErrorCode;
using common::Result;
using common::Status;
using common::u32;
using common::u64;
using u128 = unsigned __int128;

void fail_stop(const char* what) {
  std::fprintf(stderr, "crypto fail-stop: %s\n", what);
  std::abort();
}

namespace {

// Remainder-and-quotient by one limb: the trial divisions of
// is_probable_prime and every divisor below 2^32.
u32 divide_by_limb(std::span<const u32> u, u32 d, std::vector<u32>& q) {
  q.assign(u.size(), 0);
  u64 rem = 0;
  for (std::size_t i = u.size(); i-- > 0;) {
    const u64 cur = (rem << 32) | u[i];
    q[i] = static_cast<u32>(cur / d);
    rem = cur % d;
  }
  return static_cast<u32>(rem);
}

// Knuth, TAOCP vol. 2, §4.3.1, algorithm D, over 32-bit limbs. `v` has
// n >= 2 limbs with a nonzero top limb and `u` has at least n limbs.
// Writes the u.size() - n + 1 quotient limbs into `q` and the n remainder
// limbs into `r` (both untrimmed).
void knuth_divide(std::span<const u32> u, std::span<const u32> v,
                  std::vector<u32>& q, std::vector<u32>& r) {
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;
  // D1: normalise so the divisor's top bit is set; the dividend gains a
  // limb to hold the bits shifted out of its top.
  const int s = std::countl_zero(v[n - 1]);
  std::vector<u32> vn(n), un(u.size() + 1);
  for (std::size_t i = n - 1; i > 0; --i) {
    vn[i] = static_cast<u32>(((static_cast<u64>(v[i]) << 32) | v[i - 1]) >>
                             (32 - s));
  }
  vn[0] = v[0] << s;
  un[u.size()] = static_cast<u32>(static_cast<u64>(u[u.size() - 1]) >>
                                  (32 - s));
  for (std::size_t i = u.size() - 1; i > 0; --i) {
    un[i] = static_cast<u32>(((static_cast<u64>(u[i]) << 32) | u[i - 1]) >>
                             (32 - s));
  }
  un[0] = u[0] << s;

  q.assign(m + 1, 0);
  const u64 top = vn[n - 1], next = vn[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate the quotient limb from the top two dividend limbs, then
    // correct it with the third; afterwards qhat is exact or one too big.
    const u64 num = (static_cast<u64>(un[j + n]) << 32) | un[j + n - 1];
    u64 qhat = num / top;
    u64 rhat = num % top;
    while (qhat >> 32 || qhat * next > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += top;
      if (rhat >> 32) break;
    }
    // D4: multiply and subtract qhat * vn from un[j .. j+n].
    u64 carry = 0, borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u64 p = qhat * vn[i] + carry;
      carry = p >> 32;
      const u64 t = static_cast<u64>(un[i + j]) - static_cast<u32>(p) - borrow;
      un[i + j] = static_cast<u32>(t);
      borrow = t >> 63;
    }
    const u64 t = static_cast<u64>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<u32>(t);
    // D5/D6: the subtraction went negative, so qhat was one too big; add
    // the divisor back (the carry out of the top limb cancels the borrow).
    if (t >> 63) {
      --qhat;
      u64 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u64 sum = static_cast<u64>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<u32>(sum);
        c = sum >> 32;
      }
      un[j + n] += static_cast<u32>(c);
    }
    q[j] = static_cast<u32>(qhat);
  }
  // D8: the remainder is the low n limbs of un, unnormalised.
  r.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<u32>(
        ((static_cast<u64>(un[i + 1]) << 32) | un[i]) >> s);
  }
}

// Exponents of up to this many bits take the binary ladder; longer ones
// scan fixed 4-bit windows. The window table costs 14 products up front and
// saves about a quarter of a product per bit (the ladder multiplies on half
// the bits, the windows on 15 of every 16 four-bit windows), so it pays
// from about 53 bits of a random exponent on; the cut sits at one word.
// RSA's public exponent 65537 stays on the ladder; the CRT halves' dP and
// dQ and Miller-Rabin's d take the windows.
constexpr std::size_t kLadderMaxBits = 64;

// -m0^-1 mod 2^64 by Newton iteration (m0 odd): x = m0 is right to three
// low bits and each step doubles that, so five steps reach all 64.
u64 montgomery_m0inv(u64 m0) {
  u64 x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  return 0 - x;
}

// An odd modulus of n 64-bit words, R = 2^(64n).
struct Montgomery {
  const u64* m;
  std::size_t n;
  u64 m0inv;  // -m^-1 mod 2^64
  u64* t;     // n + 2 words of accumulator for the runtime-length kernel
};

// out = a * b * R^-1 mod m by coarsely integrated operand scanning (CIOS)
// over 64-bit words. a, b < m; out may alias a or b. One body serves every
// size: for N in 1..8 the word count is a constant, the loops unroll and
// the accumulator lives in locals; N = 0 reads the count from `mt` and
// accumulates in its scratch, so the modulus has no size cap.
template <std::size_t N>
void montgomery_mul(const Montgomery& mt, const u64* a, const u64* b,
                    u64* out) {
  const std::size_t n = N != 0 ? N : mt.n;
  u64 local[N + 2] = {};
  u64* t = N != 0 ? local : mt.t;
  std::fill(t, t + n + 2, u64{0});
#pragma GCC unroll 8
  for (std::size_t i = 0; i < n; ++i) {
    u64 c = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < n; ++j) {
      const u128 s = static_cast<u128>(a[j]) * b[i] + t[j] + c;
      t[j] = static_cast<u64>(s);
      c = static_cast<u64>(s >> 64);
    }
    u128 s = static_cast<u128>(t[n]) + c;
    t[n] = static_cast<u64>(s);
    t[n + 1] = static_cast<u64>(s >> 64);
    // Add the multiple of m that zeroes t[0], then drop that word.
    const u64 k = t[0] * mt.m0inv;
    c = static_cast<u64>((static_cast<u128>(k) * mt.m[0] + t[0]) >> 64);
#pragma GCC unroll 8
    for (std::size_t j = 1; j < n; ++j) {
      s = static_cast<u128>(k) * mt.m[j] + t[j] + c;
      t[j - 1] = static_cast<u64>(s);
      c = static_cast<u64>(s >> 64);
    }
    s = static_cast<u128>(t[n]) + c;
    t[n - 1] = static_cast<u64>(s);
    t[n] = t[n + 1] + static_cast<u64>(s >> 64);
  }
  // t < 2m: out = t - m, unless that borrows past the carry word t[n].
  // The select is a mask, not a branch the predictor would miss.
  u64 borrow = 0;
#pragma GCC unroll 8
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(t[j]) - mt.m[j] - borrow;
    out[j] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 127);
  }
  const u64 keep = 0 - static_cast<u64>(borrow > t[n]);  // t < m: keep t
#pragma GCC unroll 8
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = (out[j] & ~keep) | (t[j] & keep);
  }
}

// x = base^e mod m for e != 0. On entry pow[0, n) holds base mod m and k
// holds R^2 mod m; pow has room for 15 powers when e is longer than
// kLadderMaxBits.
template <std::size_t N>
void montgomery_power(const Montgomery& mt, const BigNum& e, u64* x, u64* k,
                      u64* pow) {
  const std::size_t n = N != 0 ? N : mt.n;
  const std::size_t bits = e.bit_length();
  montgomery_mul<N>(mt, pow, k, pow);  // base * R mod m
  if (bits <= kLadderMaxBits) {
    // Left to right from the top bit, which is set.
    std::copy(pow, pow + n, x);
    for (std::size_t i = bits - 1; i-- > 0;) {
      montgomery_mul<N>(mt, x, x, x);
      if (e.bit(i)) montgomery_mul<N>(mt, x, pow, x);
    }
  } else {
    // base^j * R mod m at pow + (j - 1) * n, for j = 1..15.
    for (std::size_t j = 1; j < 15; ++j) {
      montgomery_mul<N>(mt, pow + (j - 1) * n, pow, pow + j * n);
    }
    // Window w is exponent bits 4w..4w+3, which share one 32-bit limb.
    const std::vector<u32>& limbs = e.limbs();
    const auto window = [&limbs](std::size_t w) {
      return (limbs[w / 8] >> (4 * (w % 8))) & 0xFu;
    };
    std::size_t w = (bits + 3) / 4 - 1;
    const u32 top = window(w);
    std::copy(pow + (top - 1) * n, pow + top * n, x);
    while (w-- > 0) {
      for (int s = 0; s < 4; ++s) montgomery_mul<N>(mt, x, x, x);
      if (const u32 d = window(w)) {
        montgomery_mul<N>(mt, x, pow + (d - 1) * n, x);
      }
    }
  }
  // Out of Montgomery form: one multiply by 1.
  std::fill(k, k + n, u64{0});
  k[0] = 1;
  montgomery_mul<N>(mt, x, k, x);
}

// 32-bit limbs into 64-bit words, low limb first; an odd count leaves the
// top word half-empty. `out` is zeroed.
void pack_words(const std::vector<u32>& limbs, u64* out) {
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<u64>(limbs[i]) << (32 * (i % 2));
  }
}

}  // namespace

BigNum::BigNum(u64 value) {
  while (value) {
    limbs_.push_back(static_cast<u32>(value));
    value >>= 32;
  }
}

void BigNum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::from_bytes(std::span<const u8> be) {
  BigNum n;
  n.limbs_.assign((be.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::size_t pos = be.size() - 1 - i;  // byte significance
    n.limbs_[pos / 4] |= static_cast<u32>(be[i]) << (8 * (pos % 4));
  }
  n.trim();
  return n;
}

std::vector<u8> BigNum::to_bytes() const {
  if (is_zero()) return {0};
  std::vector<u8> out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int s = 24; s >= 0; s -= 8) {
      out.push_back(static_cast<u8>(limbs_[i] >> s));
    }
  }
  // Strip leading zeros.
  std::size_t lead = 0;
  while (lead + 1 < out.size() && out[lead] == 0) ++lead;
  out.erase(out.begin(), out.begin() + lead);
  return out;
}

Result<std::vector<u8>> BigNum::to_bytes_padded(std::size_t width) const {
  std::vector<u8> raw = to_bytes();
  if (raw.size() == 1 && raw[0] == 0) raw.clear();
  if (raw.size() > width) {
    return Status(ErrorCode::kOutOfRange, "value wider than requested pad");
  }
  std::vector<u8> out(width - raw.size(), 0);
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

Result<BigNum> BigNum::from_hex(std::string_view hex) {
  std::vector<u8> digits;  // most significant first
  digits.reserve(hex.size());
  for (char c : hex) {
    if (c >= '0' && c <= '9') digits.push_back(static_cast<u8>(c - '0'));
    else if (c >= 'a' && c <= 'f') digits.push_back(static_cast<u8>(c - 'a' + 10));
    else if (c >= 'A' && c <= 'F') digits.push_back(static_cast<u8>(c - 'A' + 10));
    else if (std::isspace(static_cast<unsigned char>(c))) continue;
    else return Status(ErrorCode::kInvalidArgument, "bad hex digit");
  }
  BigNum n;
  n.limbs_.assign((digits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    const std::size_t pos = digits.size() - 1 - i;  // nibble significance
    n.limbs_[pos / 8] |= static_cast<u32>(digits[i]) << (4 * (pos % 8));
  }
  n.trim();
  return n;
}

std::string BigNum::to_hex() const {
  if (is_zero()) return "0";
  std::string out;
  char buf[16];
  std::snprintf(buf, sizeof buf, "%x", limbs_.back());
  out += buf;
  for (std::size_t i = limbs_.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof buf, "%08x", limbs_[i]);
    out += buf;
  }
  return out;
}

std::size_t BigNum::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 32 + std::bit_width(limbs_.back());
}

bool BigNum::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::strong_ordering BigNum::operator<=>(const BigNum& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigNum BigNum::operator+(const BigNum& other) const {
  BigNum out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u64 sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_[i] = static_cast<u32>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<u32>(carry);
  out.trim();
  return out;
}

BigNum BigNum::operator-(const BigNum& other) const {
  if (*this < other) fail_stop("subtraction underflow (a - b with a < b)");
  BigNum out;
  out.limbs_.resize(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 sub = i < other.limbs_.size() ? other.limbs_[i] : 0;
    const u64 diff = static_cast<u64>(limbs_[i]) - sub - borrow;
    out.limbs_[i] = static_cast<u32>(diff);
    borrow = diff >> 63;
  }
  out.trim();
  return out;
}

BigNum BigNum::operator*(const BigNum& other) const {
  if (is_zero() || other.is_zero()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      u64 cur = static_cast<u64>(limbs_[i]) * other.limbs_[j] +
                out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u32>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + other.limbs_.size()] += static_cast<u32>(carry);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 v = static_cast<u64>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<u32>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<u32>(v >> 32);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    u64 v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<u64>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<u32>(v);
  }
  out.trim();
  return out;
}

Result<BigNum::DivMod> BigNum::divmod(const BigNum& divisor) const {
  if (divisor.is_zero()) {
    return Status(ErrorCode::kInvalidArgument, "division by zero");
  }
  DivMod dm;
  if (*this < divisor) {
    dm.remainder = *this;
    return dm;
  }
  if (divisor.limbs_.size() == 1) {
    dm.remainder = BigNum(
        divide_by_limb(limbs_, divisor.limbs_[0], dm.quotient.limbs_));
  } else {
    knuth_divide(limbs_, divisor.limbs_, dm.quotient.limbs_,
                 dm.remainder.limbs_);
    dm.remainder.trim();
  }
  dm.quotient.trim();
  return dm;
}

BigNum BigNum::mod(const BigNum& m) const {
  if (m.is_zero()) fail_stop("mod by zero");
  return std::move(divmod(m)->remainder);
}

BigNum BigNum::modexp(const BigNum& exponent, const BigNum& m) const {
  if (m.is_zero()) fail_stop("modexp by a zero modulus");
  if (!m.is_odd()) fail_stop("modexp needs an odd modulus (Montgomery form)");
  if (exponent.is_zero()) return BigNum(1).mod(m);
  const std::size_t n = (m.limbs_.size() + 1) / 2;
  const std::size_t powers = exponent.bit_length() > kLadderMaxBits ? 15 : 1;
  // Every word buffer the scan touches, allocated once.
  std::vector<u64> words((4 + powers) * n + 2, 0);
  u64* mw = words.data();  // the modulus
  u64* x = mw + n;         // the running result * R mod m
  u64* k = x + n;          // R^2 mod m, then 1
  u64* t = k + n;          // n + 2 words of accumulator
  u64* pow = t + n + 2;    // base mod m, then its powers * R mod m
  pack_words(m.limbs_, mw);
  // R = 2^(64n). One multiply by R^2 mod m moves a value into Montgomery
  // form, one multiply by 1 moves it back out.
  pack_words((BigNum(1) << (128 * n)).mod(m).limbs_, k);
  pack_words(mod(m).limbs_, pow);
  const Montgomery mt{mw, n, montgomery_m0inv(mw[0]), t};
  switch (n) {
    case 1: montgomery_power<1>(mt, exponent, x, k, pow); break;
    case 2: montgomery_power<2>(mt, exponent, x, k, pow); break;
    case 3: montgomery_power<3>(mt, exponent, x, k, pow); break;
    case 4: montgomery_power<4>(mt, exponent, x, k, pow); break;
    case 5: montgomery_power<5>(mt, exponent, x, k, pow); break;
    case 6: montgomery_power<6>(mt, exponent, x, k, pow); break;
    case 7: montgomery_power<7>(mt, exponent, x, k, pow); break;
    case 8: montgomery_power<8>(mt, exponent, x, k, pow); break;
    default: montgomery_power<0>(mt, exponent, x, k, pow); break;
  }
  BigNum result;
  result.limbs_.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    result.limbs_[2 * i] = static_cast<u32>(x[i]);
    result.limbs_[2 * i + 1] = static_cast<u32>(x[i] >> 32);
  }
  result.trim();
  return result;
}

BigNum BigNum::gcd(BigNum a, BigNum b) {
  while (!b.is_zero()) {
    BigNum r = a.mod(b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Result<BigNum> BigNum::modinverse(const BigNum& a, const BigNum& m) {
  // Extended Euclid on non-negative values, tracking signs separately.
  BigNum old_r = a.mod(m), r = m;
  BigNum old_s(1), s(0);
  bool old_s_neg = false, s_neg = false;
  while (!r.is_zero()) {
    auto dm = old_r.divmod(r);
    if (!dm.ok()) return dm.status();
    const BigNum& q = dm->quotient;
    // (old_r, r) = (r, old_r - q*r)
    BigNum new_r = dm->remainder;
    old_r = r;
    r = std::move(new_r);
    // (old_s, s) = (s, old_s - q*s) with sign tracking.
    BigNum qs = q * s;
    BigNum new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      // old_s - q*s where both share sign: may flip.
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = s;
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;
  }
  if (old_r != BigNum(1)) {
    return Status(ErrorCode::kInvalidArgument, "values not coprime");
  }
  if (old_s_neg) return m - old_s.mod(m);
  return old_s.mod(m);
}

BigNum BigNum::random_bits(std::size_t bits, common::Xorshift64& rng) {
  assert(bits > 0);
  BigNum n;
  n.limbs_.assign((bits + 31) / 32, 0);
  for (auto& l : n.limbs_) l = rng.next_u32();
  const std::size_t top_bit = (bits - 1) % 32;
  // Clear bits above the requested width; force the top bit.
  n.limbs_.back() &= (top_bit == 31) ? 0xFFFFFFFFu : ((1u << (top_bit + 1)) - 1);
  n.limbs_.back() |= (1u << top_bit);
  n.trim();
  return n;
}

BigNum BigNum::random_below(const BigNum& bound, common::Xorshift64& rng) {
  assert(!bound.is_zero());
  const std::size_t bits = bound.bit_length();
  while (true) {
    BigNum n;
    n.limbs_.assign((bits + 31) / 32, 0);
    for (auto& l : n.limbs_) l = rng.next_u32();
    const std::size_t excess = n.limbs_.size() * 32 - bits;
    if (excess && !n.limbs_.empty()) {
      n.limbs_.back() >>= excess;
    }
    n.trim();
    if (n < bound) return n;
  }
}

bool BigNum::is_probable_prime(const BigNum& n, common::Xorshift64& rng,
                               int rounds) {
  if (n < BigNum(2)) return false;
  for (u64 p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                29ull, 31ull, 37ull}) {
    const BigNum bp(p);
    if (n == bp) return true;
    if (n.mod(bp).is_zero()) return false;
  }
  // n - 1 = d * 2^r
  const BigNum n_minus_1 = n - BigNum(1);
  BigNum d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  for (int round = 0; round < rounds; ++round) {
    const BigNum a = BigNum(2) + random_below(n - BigNum(4), rng);
    BigNum x = a.modexp(d, n);
    if (x == BigNum(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = (x * x).mod(n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigNum BigNum::generate_prime(std::size_t bits, common::Xorshift64& rng) {
  // An odd candidate is prime with probability about 2 / ln 2^bits, so
  // about 0.35 * bits are drawn on average. 64 * bits fail only when no
  // prime has this width (bits < 2) or the primality test is broken.
  for (std::size_t i = 0; i < 64 * bits; ++i) {
    BigNum candidate = random_bits(bits, rng);
    if (!candidate.is_odd()) candidate = candidate + BigNum(1);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
  fail_stop("generate_prime found no prime in 64 * bits candidates");
}

}  // namespace rmc::crypto

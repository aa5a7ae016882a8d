#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace rmc::crypto {

using common::ErrorCode;
using common::Result;
using common::Status;
using common::u32;
using common::u64;

namespace {

// Precondition violations stop the program in every build type. An assert
// would vanish under NDEBUG (the Release benches) and leave a wrapped or
// meaningless value to flow on.
[[noreturn]] void fail_stop(const char* what) {
  std::fprintf(stderr, "BigNum precondition violated: %s\n", what);
  std::abort();
}

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

// -m[0]^-1 mod 2^32 by Newton iteration (m[0] odd): each step doubles the
// number of correct low bits, and x = m0 is already right to three.
u32 montgomery_m0inv(u32 m0) {
  u32 x = m0;
  for (int i = 0; i < 4; ++i) x *= 2 - m0 * x;
  return 0u - x;
}

// out = a * b * 2^(-32n) mod m by coarsely integrated operand scanning
// (CIOS). a, b < m; t is n + 2 limbs of scratch; out may alias a or b.
void montgomery_mul(const u32* a, const u32* b, const u32* m, std::size_t n,
                    u32 m0inv, u32* t, u32* out) {
  std::fill(t, t + n + 2, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    u64 c = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u64 s = static_cast<u64>(a[j]) * b[i] + t[j] + c;
      t[j] = static_cast<u32>(s);
      c = s >> 32;
    }
    u64 s = static_cast<u64>(t[n]) + c;
    t[n] = static_cast<u32>(s);
    t[n + 1] = static_cast<u32>(s >> 32);
    // Add the multiple of m that zeroes t[0], then drop that limb.
    const u32 k = t[0] * m0inv;
    c = (static_cast<u64>(k) * m[0] + t[0]) >> 32;
    for (std::size_t j = 1; j < n; ++j) {
      s = static_cast<u64>(k) * m[j] + t[j] + c;
      t[j - 1] = static_cast<u32>(s);
      c = s >> 32;
    }
    s = static_cast<u64>(t[n]) + c;
    t[n - 1] = static_cast<u32>(s);
    t[n] = t[n + 1] + static_cast<u32>(s >> 32);
  }
  // t < 2m: one conditional subtraction brings it below m.
  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u64 d = static_cast<u64>(t[i]) - m[i] - borrow;
      t[i] = static_cast<u32>(d);
      borrow = d >> 63;
    }
  }
  std::copy(t, t + n, out);
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
  const std::size_t n = m.limbs_.size();
  const u32 m0inv = montgomery_m0inv(m.limbs_[0]);
  // R = 2^(32n). One multiply by R^2 mod m moves a value into Montgomery
  // form, one multiply by 1 moves it back out.
  const BigNum base = mod(m);
  const BigNum r2 = (BigNum(1) << (64 * n)).mod(m);
  // Every limb buffer the ladder touches, allocated once.
  std::vector<u32> scratch(4 * n + 2, 0);
  u32* b = scratch.data();  // base, then base * R mod m
  u32* x = b + n;           // 1, then the running result * R mod m
  u32* k = x + n;           // R^2 mod m, then 1
  u32* t = k + n;           // n + 2 limbs of product accumulator
  std::copy(base.limbs_.begin(), base.limbs_.end(), b);
  std::copy(r2.limbs_.begin(), r2.limbs_.end(), k);
  x[0] = 1;
  const u32* mod_limbs = m.limbs_.data();
  montgomery_mul(b, k, mod_limbs, n, m0inv, t, b);
  montgomery_mul(x, k, mod_limbs, n, m0inv, t, x);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    montgomery_mul(x, x, mod_limbs, n, m0inv, t, x);
    if (exponent.bit(i)) montgomery_mul(x, b, mod_limbs, n, m0inv, t, x);
  }
  std::fill(k, k + n, 0u);
  k[0] = 1;
  montgomery_mul(x, k, mod_limbs, n, m0inv, t, x);
  BigNum result;
  result.limbs_.assign(x, x + n);
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
  while (true) {
    BigNum candidate = random_bits(bits, rng);
    if (!candidate.is_odd()) candidate = candidate + BigNum(1);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace rmc::crypto

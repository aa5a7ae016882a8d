#include "bignum_reference.h"

#include <vector>

namespace rmc::crypto::reference {

using common::u64;

BigNum::DivMod divmod(const BigNum& a, const BigNum& divisor) {
  BigNum::DivMod dm;
  if (a < divisor) {
    dm.remainder = a;
    return dm;
  }
  const std::size_t shift = a.bit_length() - divisor.bit_length();
  BigNum rem = a;
  BigNum den = divisor << shift;
  std::vector<bool> qbits(shift + 1, false);
  for (std::size_t i = shift + 1; i-- > 0;) {
    if (rem >= den) {
      rem = rem - den;
      qbits[i] = true;
    }
    den = den >> 1;
  }
  // Assemble the quotient a 32-bit word at a time, most significant first.
  BigNum q;
  for (std::size_t word = (qbits.size() + 31) / 32; word-- > 0;) {
    u64 bits = 0;
    for (std::size_t b = 0; b < 32 && word * 32 + b < qbits.size(); ++b) {
      if (qbits[word * 32 + b]) bits |= u64{1} << b;
    }
    q = (q << 32) + BigNum(bits);
  }
  dm.quotient = std::move(q);
  dm.remainder = std::move(rem);
  return dm;
}

BigNum mod(const BigNum& a, const BigNum& m) {
  return divmod(a, m).remainder;
}

BigNum mul(const BigNum& a, const BigNum& b) {
  BigNum out;
  for (std::size_t i = b.bit_length(); i-- > 0;) {
    out = out << 1;
    if (b.bit(i)) out = out + a;
  }
  return out;
}

BigNum modexp(const BigNum& base, const BigNum& exponent, const BigNum& m) {
  const BigNum b = mod(base, m);
  BigNum result = mod(BigNum(1), m);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    result = mod(result * result, m);
    if (exponent.bit(i)) result = mod(result * b, m);
  }
  return result;
}

}  // namespace rmc::crypto::reference

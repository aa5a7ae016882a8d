// Bit-serial reference arithmetic for crypto::BigNum: the binary long
// division and square-and-multiply modexp that BigNum shipped before its
// word-level kernels (Knuth D, Montgomery). Slow, since every shifted bit
// allocates, but simple enough to check by eye, so the differential tests
// in test_crypto.cc hold the fast kernels to it. It uses only BigNum
// operations the word-level rewrite left as they were: compare, +, -,
// shifts, bit access and the u64 constructor. Linked into tests only.
#pragma once

#include "crypto/bignum.h"

namespace rmc::crypto::reference {

/// Quotient and remainder by binary long division. divisor != 0.
BigNum::DivMod divmod(const BigNum& a, const BigNum& divisor);
BigNum mod(const BigNum& a, const BigNum& m);
/// Shift-and-add product, one bit of `b` per step.
BigNum mul(const BigNum& a, const BigNum& b);
/// (base ^ exponent) mod m, square-and-multiply over mod(). Any m != 0,
/// even ones included.
BigNum modexp(const BigNum& base, const BigNum& exponent, const BigNum& m);

}  // namespace rmc::crypto::reference

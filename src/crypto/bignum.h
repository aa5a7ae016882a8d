// Arbitrary-precision unsigned integers — the "difficult-to-port bignum
// package" of the paper (§2). The embedded port abandoned RSA because of it;
// we implement it so the Unix-side issl build has the full RSA key exchange,
// and so E6 can price what the port gave up.
//
// Representation: little-endian vector of 32-bit limbs, no leading zero
// limbs (zero is an empty vector). Multiplication and division work a limb
// at a time: schoolbook multiply and Knuth's algorithm D (with a one-limb
// fast path). modexp packs limb pairs into 64-bit words and runs one
// Montgomery (CIOS) kernel over them, compiled for each word count from 1
// to 8 (moduli up to 512 bits, accumulator in registers) and once for a
// run-time count with no size cap. Exponents up to 64 bits take the binary
// ladder; longer ones scan fixed 4-bit windows over a 15-entry table. All
// of it runs in one word buffer allocated per call.
// Precondition violations (subtraction underflow, a zero or even modulus)
// stop the program with a message in every build type.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/prng.h"
#include "common/status.h"

namespace rmc::crypto {

using common::u8;

class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(common::u64 value);

  /// Big-endian byte import/export (network order, as key material travels).
  static BigNum from_bytes(std::span<const u8> be_bytes);
  std::vector<u8> to_bytes() const;
  /// Fixed-width export, left-padded with zeros; fails if the value needs
  /// more than `width` bytes.
  common::Result<std::vector<u8>> to_bytes_padded(std::size_t width) const;

  static common::Result<BigNum> from_hex(std::string_view hex);
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  std::strong_ordering operator<=>(const BigNum& other) const;
  bool operator==(const BigNum& other) const = default;

  BigNum operator+(const BigNum& other) const;
  /// Subtraction requires *this >= other (fail-stop otherwise).
  BigNum operator-(const BigNum& other) const;
  BigNum operator*(const BigNum& other) const;
  BigNum operator<<(std::size_t bits) const;
  BigNum operator>>(std::size_t bits) const;

  struct DivMod;
  /// Fails on division by zero.
  common::Result<DivMod> divmod(const BigNum& divisor) const;
  BigNum mod(const BigNum& m) const;  // fail-stop when m == 0

  /// (this ^ exponent) mod m by Montgomery multiplication. m must be odd
  /// (fail-stop otherwise, m == 0 included); every RSA modulus, prime
  /// factor and Miller-Rabin candidate is.
  BigNum modexp(const BigNum& exponent, const BigNum& m) const;

  static BigNum gcd(BigNum a, BigNum b);
  /// Modular inverse via extended Euclid; fails when gcd(a, m) != 1.
  static common::Result<BigNum> modinverse(const BigNum& a, const BigNum& m);

  /// Uniform random value with exactly `bits` bits (top bit set).
  static BigNum random_bits(std::size_t bits, common::Xorshift64& rng);
  /// Uniform in [0, bound).
  static BigNum random_below(const BigNum& bound, common::Xorshift64& rng);

  /// Miller-Rabin with `rounds` random bases.
  static bool is_probable_prime(const BigNum& n, common::Xorshift64& rng,
                                int rounds = 20);
  /// Random probable prime with exactly `bits` bits. Fail-stops after
  /// 64 * bits candidates.
  static BigNum generate_prime(std::size_t bits, common::Xorshift64& rng);

  const std::vector<common::u32>& limbs() const { return limbs_; }

 private:
  void trim();
  std::vector<common::u32> limbs_;
};

struct BigNum::DivMod {
  BigNum quotient;
  BigNum remainder;
};

/// Prints "crypto fail-stop: <what>" to stderr and aborts, in every build
/// type: for a violated precondition or a search past its bound, where an
/// assert would vanish under NDEBUG and let a meaningless value flow on.
[[noreturn]] void fail_stop(const char* what);

}  // namespace rmc::crypto

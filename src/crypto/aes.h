// AES (Rijndael) — the cipher the paper ports (§2: "issl ... uses the RSA and
// AES cipher algorithms"; the embedded port keeps AES-128 only).
//
// Two independent implementations:
//  * `Aes` — the byte-oriented reference implementation (FIPS-197 structure:
//    SubBytes/ShiftRows/MixColumns/AddRoundKey). This is the "C port" shape,
//    and the model for dc/aes.dc.
//  * `AesFast` — the 32-bit T-table implementation typical of tuned C on
//    workstations, both directions: Te tables for encryption, Td tables and
//    the equivalent-inverse-cipher key schedule for decryption. Used by the
//    host-side issl build and by E8's primitive comparison; differential
//    tests hold it to `Aes`.
//
// Both support 128/192/256-bit keys (the paper: "issl supports key lengths of
// 128, 192, or 256 bits"); the embedded port pins 128 (see issl/config).
// S-boxes and Te/Td tables are derived at startup from GF(2^8) arithmetic
// rather than transcribed constants; FIPS-197 known-answer tests pin
// correctness.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "common/bytes.h"
#include "common/status.h"

namespace rmc::crypto {

using common::u32;
using common::u8;

inline constexpr std::size_t kAesBlockBytes = 16;

enum class AesKeySize : unsigned {
  k128 = 16,
  k192 = 24,
  k256 = 32,
};

/// GF(2^8) helpers (exposed for tests and for the hand-assembly generator).
u8 gf_mul(u8 a, u8 b);
u8 aes_sbox(u8 x);
u8 aes_inv_sbox(u8 x);

/// Byte-oriented reference AES.
class Aes {
 public:
  /// Default-constructed instances hold an empty schedule and must not be
  /// used; obtain working instances from create().
  Aes() = default;

  /// Expands the key schedule. Fails on a key length that is not 16/24/32.
  static common::Result<Aes> create(std::span<const u8> key);

  void encrypt_block(std::span<const u8> in, std::span<u8> out) const;
  void decrypt_block(std::span<const u8> in, std::span<u8> out) const;

  unsigned rounds() const { return rounds_; }

 private:
  void expand_key(std::span<const u8> key);

  std::array<u8, 16 * 15> round_keys_{};  // up to Nr=14 -> 15 round keys
  unsigned rounds_ = 0;
};

/// T-table AES: four table lookups per output column and round, in both
/// directions. Independent of `Aes` (its own word-wise key schedule), so the
/// two check each other.
class AesFast {
 public:
  /// Expands both key schedules. Fails on a key length that is not
  /// 16/24/32.
  static common::Result<AesFast> create(std::span<const u8> key);

  void encrypt_block(std::span<const u8> in, std::span<u8> out) const;
  void decrypt_block(std::span<const u8> in, std::span<u8> out) const;

 private:
  AesFast() = default;

  // Round keys as big-endian words. dec_keys_ is the equivalent inverse
  // cipher's schedule: enc_keys_ reversed by round, InvMixColumns applied
  // to the inner rounds.
  std::array<u32, 4 * 15> enc_keys_{};
  std::array<u32, 4 * 15> dec_keys_{};
  unsigned rounds_ = 0;
};

}  // namespace rmc::crypto

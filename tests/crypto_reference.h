// Reference SHA-1, HMAC-SHA1 and PRF: the code crypto/sha1.cc shipped before
// its unrolled compression, one-step padding and keyed HMAC state. An
// 80-word message schedule, a per-round branch on the round group, padding
// fed one byte at a time, and an HMAC that rebuilds both pad blocks on every
// call. Its update() buffers byte by byte, so block boundaries cannot
// matter to it. Slow but plain, so the differential tests in test_crypto.cc
// (and the record-MAC check in test_issl.cc) hold the product code to it.
// Linked into tests only.
#pragma once

#include <array>
#include <span>

#include "common/bytes.h"

namespace rmc::crypto::reference {

using common::u8;

/// Incremental SHA-1 (FIPS 180-1).
class Sha1 {
 public:
  Sha1() { reset(); }

  void reset();
  void update(std::span<const u8> data);
  std::array<u8, 20> finish();

  static std::array<u8, 20> digest(std::span<const u8> data);

 private:
  void process_block(const u8* block);

  std::array<common::u32, 5> h_{};
  std::array<u8, 64> buffer_{};
  std::size_t buffered_ = 0;
  common::u64 total_bytes_ = 0;
};

/// HMAC-SHA1 (RFC 2104).
std::array<u8, 20> hmac_sha1(std::span<const u8> key,
                             std::span<const u8> message);

/// Counter-mode HMAC-SHA1 expansion: block i is HMAC(secret, i || label ||
/// seed), as crypto::prf_sha1 documents.
void prf_sha1(std::span<const u8> secret, std::span<const u8> label,
              std::span<const u8> seed, std::span<u8> out);

}  // namespace rmc::crypto::reference

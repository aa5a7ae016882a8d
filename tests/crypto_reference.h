// Reference SHA-1, HMAC-SHA1 and PRF: the code crypto/sha1.cc shipped before
// its unrolled compression, one-step padding and keyed HMAC state. An
// 80-word message schedule, a per-round branch on the round group, padding
// fed one byte at a time, and an HMAC that rebuilds both pad blocks on every
// call. Its update() buffers byte by byte, so block boundaries cannot
// matter to it. Slow but plain, so the differential tests in test_crypto.cc
// (and the record-MAC check in test_issl.cc) hold the product code to it.
//
// Reference block modes: PKCS#7 and the vector-returning CBC and ECB that
// crypto/modes.{h,cc} shipped before records were sealed in place. Each
// step builds a fresh vector, so a record composed from them
// (cbc_encrypt(pkcs7_pad(plaintext || MAC))) is the plain statement of the
// wire format the in-place codec must reproduce.
// Linked into tests only.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"

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

/// PKCS#7: pad to a multiple of `block` (always appends 1..block bytes).
std::vector<u8> pkcs7_pad(std::span<const u8> data, std::size_t block);

/// Strip PKCS#7 padding; fails on malformed padding (wrong length byte or
/// inconsistent fill).
common::Result<std::vector<u8>> pkcs7_unpad(std::span<const u8> data,
                                            std::size_t block);

/// CBC encrypt with explicit IV; input length must be a block multiple.
/// Cipher may be Aes or AesFast.
template <typename Cipher>
std::vector<u8> cbc_encrypt(const Cipher& cipher, std::span<const u8> iv,
                            std::span<const u8> plaintext) {
  std::vector<u8> out(plaintext.size());
  u8 chain[kAesBlockBytes];
  for (std::size_t i = 0; i < kAesBlockBytes; ++i) chain[i] = iv[i];
  for (std::size_t off = 0; off + kAesBlockBytes <= plaintext.size();
       off += kAesBlockBytes) {
    u8 block[kAesBlockBytes];
    for (std::size_t i = 0; i < kAesBlockBytes; ++i) {
      block[i] = static_cast<u8>(plaintext[off + i] ^ chain[i]);
    }
    cipher.encrypt_block(block, std::span<u8>(out).subspan(off));
    for (std::size_t i = 0; i < kAesBlockBytes; ++i) chain[i] = out[off + i];
  }
  return out;
}

template <typename Cipher>
std::vector<u8> cbc_decrypt(const Cipher& cipher, std::span<const u8> iv,
                            std::span<const u8> ciphertext) {
  std::vector<u8> out(ciphertext.size());
  u8 chain[kAesBlockBytes];
  for (std::size_t i = 0; i < kAesBlockBytes; ++i) chain[i] = iv[i];
  for (std::size_t off = 0; off + kAesBlockBytes <= ciphertext.size();
       off += kAesBlockBytes) {
    u8 block[kAesBlockBytes];
    cipher.decrypt_block(ciphertext.subspan(off), block);
    for (std::size_t i = 0; i < kAesBlockBytes; ++i) {
      out[off + i] = static_cast<u8>(block[i] ^ chain[i]);
      chain[i] = ciphertext[off + i];
    }
  }
  return out;
}

/// ECB over whole buffers (length must be a block multiple).
template <typename Cipher>
std::vector<u8> ecb_encrypt(const Cipher& cipher, std::span<const u8> data) {
  std::vector<u8> out(data.size());
  for (std::size_t off = 0; off + kAesBlockBytes <= data.size();
       off += kAesBlockBytes) {
    cipher.encrypt_block(data.subspan(off), std::span<u8>(out).subspan(off));
  }
  return out;
}

}  // namespace rmc::crypto::reference

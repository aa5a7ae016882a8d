// CBC, the block-cipher mode of the issl record layer and the crypto
// engine, over caller-owned buffers: a record is sealed in place inside
// its wire vector and opened straight into its payload vector, so the mode
// itself allocates nothing. Padding is the record layer's business
// (issl/record.cc). Tests hold this CBC to the plain vector-returning one
// in tests/crypto_reference.h.
#pragma once

#include <algorithm>
#include <span>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace rmc::crypto {

/// CBC-encrypt `in` into `out` under `iv`. Both have the same length, a
/// multiple of the block size, and may be the same buffer (in place).
/// Cipher may be Aes or AesFast.
template <typename Cipher>
void cbc_encrypt(const Cipher& cipher, std::span<const u8> iv,
                 std::span<const u8> in, std::span<u8> out) {
  const u8* chain = iv.data();
  for (std::size_t off = 0; off + kAesBlockBytes <= in.size();
       off += kAesBlockBytes) {
    u8 block[kAesBlockBytes];
    for (std::size_t i = 0; i < kAesBlockBytes; ++i) {
      block[i] = static_cast<u8>(in[off + i] ^ chain[i]);
    }
    cipher.encrypt_block(block, out.subspan(off, kAesBlockBytes));
    chain = out.data() + off;
  }
}

/// CBC-decrypt `in` into `out` under `iv`; same contract as cbc_encrypt.
template <typename Cipher>
void cbc_decrypt(const Cipher& cipher, std::span<const u8> iv,
                 std::span<const u8> in, std::span<u8> out) {
  u8 chain[kAesBlockBytes];
  std::copy_n(iv.data(), kAesBlockBytes, chain);
  for (std::size_t off = 0; off + kAesBlockBytes <= in.size();
       off += kAesBlockBytes) {
    u8 block[kAesBlockBytes];
    cipher.decrypt_block(in.subspan(off, kAesBlockBytes), block);
    for (std::size_t i = 0; i < kAesBlockBytes; ++i) {
      const u8 next = in[off + i];  // read before an in-place write
      out[off + i] = static_cast<u8>(block[i] ^ chain[i]);
      chain[i] = next;
    }
  }
}

}  // namespace rmc::crypto

// SHA-1 and HMAC-SHA1 — the integrity primitives of the issl record layer
// and the PRF used for session-key derivation (SSL 3.0 / TLS 1.0 vintage,
// matching the paper's 2002-era protocol stack).
#pragma once

#include <array>
#include <span>

#include "common/bytes.h"

namespace rmc::crypto {

using common::u8;

inline constexpr std::size_t kSha1DigestBytes = 20;

/// SHA-1 compressions in the digest of a `message_bytes` message: the
/// message plus its 9-byte minimum padding, in 64-byte blocks.
constexpr common::u64 sha1_blocks(std::size_t message_bytes) {
  return (message_bytes + 9 + 63) / 64;
}

/// SHA-1 compressions in one HMAC-SHA1 (RFC 2104) from the raw key: the
/// ipad block and the padded message, then the opad block and the inner
/// digest. Board cost models count this, not HmacSha1Key's host shortcut.
constexpr common::u64 hmac_sha1_blocks(std::size_t message_bytes) {
  return 1 + sha1_blocks(message_bytes) + 2;
}

/// Incremental SHA-1 (FIPS 180-1). The compression is fully unrolled over a
/// rolling 16-word message schedule; tests hold it to a plain 80-word
/// reference.
class Sha1 {
 public:
  Sha1() { reset(); }

  void reset();
  void update(std::span<const u8> data);
  std::array<u8, kSha1DigestBytes> finish();

  /// One-shot convenience.
  static std::array<u8, kSha1DigestBytes> digest(std::span<const u8> data);

 private:
  void process_block(const u8* block);

  std::array<common::u32, 5> h_{};
  std::array<u8, 64> buffer_{};
  std::size_t buffered_ = 0;
  common::u64 total_bytes_ = 0;
};

/// An HMAC-SHA1 key (RFC 2104) with its two pad blocks already absorbed:
/// the SHA-1 states after the ipad block (K ^ 0x36..) and after the opad
/// block (K ^ 0x5C..). A MAC then costs the message's compressions plus two
/// (inner and outer finish), not plus four, and a message can arrive in
/// several updates:
///
///   Sha1 h = key.begin();
///   h.update(header);
///   h.update(body);
///   auto tag = key.finish(h);  // == hmac_sha1(raw_key, header || body)
class HmacSha1Key {
 public:
  /// Keys longer than one block are hashed first, as RFC 2104 requires.
  explicit HmacSha1Key(std::span<const u8> key);

  /// A copy of the inner state, ready for the message.
  Sha1 begin() const { return inner_; }
  /// Completes the inner hash begun by begin() and returns the MAC; `inner`
  /// is reset.
  std::array<u8, kSha1DigestBytes> finish(Sha1& inner) const;
  /// begin(), one update of `message`, finish().
  std::array<u8, kSha1DigestBytes> mac(std::span<const u8> message) const;

 private:
  Sha1 inner_;
  Sha1 outer_;
};

/// HMAC-SHA1 (RFC 2104) in one call; builds an HmacSha1Key each time.
std::array<u8, kSha1DigestBytes> hmac_sha1(std::span<const u8> key,
                                           std::span<const u8> message);

/// Key-derivation PRF: expands (secret, label, seed) into `out.size()` bytes
/// by counter-mode HMAC-SHA1, the shape of the SSLv3/TLS key-block
/// expansion: block i is HMAC(secret, i || label || seed), i a one-byte
/// counter from 0. Both issl endpoints must call it with identical inputs.
void prf_sha1(std::span<const u8> secret, std::span<const u8> label,
              std::span<const u8> seed, std::span<u8> out);

}  // namespace rmc::crypto

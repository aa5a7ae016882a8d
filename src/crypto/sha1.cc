#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace rmc::crypto {

using common::rotl32;
using common::u32;
using common::u64;

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffered_ = 0;
  total_bytes_ = 0;
}

namespace {

// Round I of the compression. The five working variables rotate roles each
// round (a <- t, b <- a, c <- rotl(b, 30), d <- c, e <- d); indexing them by
// I mod 5 instead of moving them leaves each round two writes. The schedule
// keeps only its last 16 words: w[I mod 16] holds word I once computed.
// Every branch is on the template parameter, so the unrolled rounds carry
// none.
template <int I>
inline void sha1_round(u32 (&v)[5], u32 (&w)[16]) {
  const u32 a = v[(80 - I) % 5];
  u32& b = v[(81 - I) % 5];
  const u32 c = v[(82 - I) % 5];
  const u32 d = v[(83 - I) % 5];
  u32& e = v[(84 - I) % 5];
  if constexpr (I >= 16) {
    w[I % 16] = rotl32(w[(I + 13) % 16] ^ w[(I + 8) % 16] ^ w[(I + 2) % 16] ^
                           w[I % 16],
                       1);
  }
  if constexpr (I < 20) {
    e += (d ^ (b & (c ^ d))) + 0x5A827999u;
  } else if constexpr (I < 40) {
    e += (b ^ c ^ d) + 0x6ED9EBA1u;
  } else if constexpr (I < 60) {
    e += ((b & c) | (d & (b | c))) + 0x8F1BBCDCu;
  } else {
    e += (b ^ c ^ d) + 0xCA62C1D6u;
  }
  e += rotl32(a, 5) + w[I % 16];
  b = rotl32(b, 30);
}

template <int... I>
inline void sha1_rounds(u32 (&v)[5], u32 (&w)[16],
                        std::integer_sequence<int, I...>) {
  (sha1_round<I>(v, w), ...);
}

}  // namespace

void Sha1::process_block(const u8* block) {
  u32 w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = common::load32be(std::span<const u8>(block + i * 4, 4));
  }
  u32 v[5] = {h_[0], h_[1], h_[2], h_[3], h_[4]};
  sha1_rounds(v, w, std::make_integer_sequence<int, 80>{});
  for (int i = 0; i < 5; ++i) h_[i] += v[i];
}

void Sha1::update(std::span<const u8> data) {
  if (data.empty()) return;  // an empty span may carry a null data()
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off += take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

std::array<u8, kSha1DigestBytes> Sha1::finish() {
  // 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length: one
  // update of 9..72 bytes ends exactly on a block boundary.
  const u64 bit_len = total_bytes_ * 8;
  std::array<u8, 72> pad{};
  pad[0] = 0x80;
  const std::size_t len_at = (buffered_ < 56 ? 56 : 120) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[len_at + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  update(std::span<const u8>(pad.data(), len_at + 8));
  std::array<u8, kSha1DigestBytes> out{};
  for (int i = 0; i < 5; ++i) {
    common::store32be(std::span<u8>(out.data() + i * 4, 4), h_[i]);
  }
  reset();
  return out;
}

std::array<u8, kSha1DigestBytes> Sha1::digest(std::span<const u8> data) {
  Sha1 s;
  s.update(data);
  return s.finish();
}

HmacSha1Key::HmacSha1Key(std::span<const u8> key) {
  std::array<u8, 64> k{};
  if (key.size() > 64) {
    const auto d = Sha1::digest(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<u8, 64> pad;
  for (int i = 0; i < 64; ++i) pad[i] = static_cast<u8>(k[i] ^ 0x36);
  inner_.update(pad);
  for (int i = 0; i < 64; ++i) pad[i] = static_cast<u8>(k[i] ^ 0x5C);
  outer_.update(pad);
}

std::array<u8, kSha1DigestBytes> HmacSha1Key::finish(Sha1& inner) const {
  const auto inner_digest = inner.finish();
  Sha1 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

std::array<u8, kSha1DigestBytes> HmacSha1Key::mac(
    std::span<const u8> message) const {
  Sha1 inner = begin();
  inner.update(message);
  return finish(inner);
}

std::array<u8, kSha1DigestBytes> hmac_sha1(std::span<const u8> key,
                                           std::span<const u8> message) {
  return HmacSha1Key(key).mac(message);
}

void prf_sha1(std::span<const u8> secret, std::span<const u8> label,
              std::span<const u8> seed, std::span<u8> out) {
  const HmacSha1Key key(secret);
  std::size_t produced = 0;
  u8 counter = 0;
  while (produced < out.size()) {
    // Block i is HMAC(secret, i || label || seed).
    Sha1 inner = key.begin();
    inner.update(std::span<const u8>(&counter, 1));
    inner.update(label);
    inner.update(seed);
    const auto block = key.finish(inner);
    ++counter;
    const std::size_t take = std::min(block.size(), out.size() - produced);
    std::memcpy(out.data() + produced, block.data(), take);
    produced += take;
  }
}

}  // namespace rmc::crypto

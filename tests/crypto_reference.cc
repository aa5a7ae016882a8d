#include "crypto_reference.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace rmc::crypto::reference {

using common::rotl32;
using common::u32;
using common::u64;

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha1::process_block(const u8* block) {
  u32 w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = common::load32be(std::span<const u8>(block + i * 4, 4));
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  u32 a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    u32 f, k;
    if (i < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const u32 tmp = rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::update(std::span<const u8> data) {
  total_bytes_ += data.size();
  for (const u8 byte : data) {
    buffer_[buffered_++] = byte;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
}

std::array<u8, 20> Sha1::finish() {
  const u64 bit_len = total_bytes_ * 8;
  const u8 one = 0x80;
  update(std::span<const u8>(&one, 1));
  const u8 zero = 0x00;
  while (buffered_ != 56) update(std::span<const u8>(&zero, 1));
  u8 len[8];
  for (int i = 0; i < 8; ++i) {
    len[i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  update(len);
  std::array<u8, 20> out{};
  for (int i = 0; i < 5; ++i) {
    common::store32be(std::span<u8>(out.data() + i * 4, 4), h_[i]);
  }
  reset();
  return out;
}

std::array<u8, 20> Sha1::digest(std::span<const u8> data) {
  Sha1 s;
  s.update(data);
  return s.finish();
}

std::array<u8, 20> hmac_sha1(std::span<const u8> key,
                             std::span<const u8> message) {
  std::array<u8, 64> k{};
  if (key.size() > 64) {
    const auto d = Sha1::digest(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<u8, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<u8>(k[i] ^ 0x36);
    opad[i] = static_cast<u8>(k[i] ^ 0x5C);
  }
  Sha1 inner;
  inner.update(ipad);
  inner.update(message);
  const auto inner_digest = inner.finish();
  Sha1 outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finish();
}

void prf_sha1(std::span<const u8> secret, std::span<const u8> label,
              std::span<const u8> seed, std::span<u8> out) {
  std::size_t produced = 0;
  u8 counter = 0;
  while (produced < out.size()) {
    std::vector<u8> msg;
    msg.push_back(counter++);
    msg.insert(msg.end(), label.begin(), label.end());
    msg.insert(msg.end(), seed.begin(), seed.end());
    const auto block = hmac_sha1(secret, msg);
    const std::size_t take = std::min(block.size(), out.size() - produced);
    std::copy(block.begin(), block.begin() + static_cast<long>(take),
              out.begin() + static_cast<long>(produced));
    produced += take;
  }
}

std::vector<u8> pkcs7_pad(std::span<const u8> data, std::size_t block) {
  const std::size_t pad = block - (data.size() % block);
  std::vector<u8> out(data.begin(), data.end());
  out.insert(out.end(), pad, static_cast<u8>(pad));
  return out;
}

common::Result<std::vector<u8>> pkcs7_unpad(std::span<const u8> data,
                                            std::size_t block) {
  using common::ErrorCode;
  using common::Status;
  if (data.empty() || data.size() % block != 0) {
    return Status(ErrorCode::kDataLoss, "bad padded length");
  }
  const u8 pad = data.back();
  if (pad == 0 || pad > block) {
    return Status(ErrorCode::kDataLoss, "bad padding byte");
  }
  for (std::size_t i = data.size() - pad; i < data.size(); ++i) {
    if (data[i] != pad) {
      return Status(ErrorCode::kDataLoss, "inconsistent padding");
    }
  }
  return std::vector<u8>(data.begin(), data.end() - pad);
}

}  // namespace rmc::crypto::reference

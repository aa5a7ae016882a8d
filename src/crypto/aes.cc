#include "crypto/aes.h"

#include <cassert>

namespace rmc::crypto {

using common::ErrorCode;
using common::Result;
using common::Status;

// ---------------------------------------------------------------------------
// GF(2^8) arithmetic and derived tables
// ---------------------------------------------------------------------------

u8 gf_mul(u8 a, u8 b) {
  u8 p = 0;
  while (b) {
    if (b & 1) p ^= a;
    const bool hi = (a & 0x80) != 0;
    a = static_cast<u8>(a << 1);
    if (hi) a ^= 0x1B;  // x^8 + x^4 + x^3 + x + 1
    b >>= 1;
  }
  return p;
}

namespace {

struct Tables {
  std::array<u8, 256> sbox;
  std::array<u8, 256> inv_sbox;
  std::array<u32, 256> te0, te1, te2, te3;
  std::array<u32, 256> td0, td1, td2, td3;

  Tables() {
    // Multiplicative inverse via log/antilog over generator 3.
    std::array<u8, 256> alog{}, log{};
    u8 x = 1;
    for (int i = 0; i < 255; ++i) {
      alog[i] = x;
      log[x] = static_cast<u8>(i);
      x = static_cast<u8>(x ^ gf_mul(x, 2));  // multiply by 3
    }
    auto inverse = [&](u8 v) -> u8 {
      if (v == 0) return 0;
      return alog[(255 - log[v]) % 255];
    };
    for (int i = 0; i < 256; ++i) {
      const u8 inv = inverse(static_cast<u8>(i));
      u8 s = inv;
      s = static_cast<u8>(s ^ common::rotl8(inv, 1) ^ common::rotl8(inv, 2) ^
                          common::rotl8(inv, 3) ^ common::rotl8(inv, 4) ^
                          0x63);
      sbox[i] = s;
      inv_sbox[s] = static_cast<u8>(i);
    }
    for (int i = 0; i < 256; ++i) {
      const u8 s = sbox[i];
      const u32 t = (static_cast<u32>(gf_mul(s, 2)) << 24) |
                    (static_cast<u32>(s) << 16) | (static_cast<u32>(s) << 8) |
                    gf_mul(s, 3);
      te0[i] = t;
      te1[i] = common::rotr32(t, 8);
      te2[i] = common::rotr32(t, 16);
      te3[i] = common::rotr32(t, 24);
      // Td0[x] is column InvMixColumns(InvSubBytes(x), 0, 0, 0).
      const u8 is = inv_sbox[i];
      const u32 d = (static_cast<u32>(gf_mul(is, 14)) << 24) |
                    (static_cast<u32>(gf_mul(is, 9)) << 16) |
                    (static_cast<u32>(gf_mul(is, 13)) << 8) | gf_mul(is, 11);
      td0[i] = d;
      td1[i] = common::rotr32(d, 8);
      td2[i] = common::rotr32(d, 16);
      td3[i] = common::rotr32(d, 24);
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

constexpr unsigned rounds_for(std::size_t key_len) {
  return static_cast<unsigned>(key_len / 4 + 6);
}

Status check_key_size(std::size_t key_len) {
  if (key_len == 16 || key_len == 24 || key_len == 32) return Status::ok();
  return Status(ErrorCode::kInvalidArgument,
                "AES key must be 16/24/32 bytes, got " +
                    std::to_string(key_len));
}

}  // namespace

u8 aes_sbox(u8 x) { return tables().sbox[x]; }
u8 aes_inv_sbox(u8 x) { return tables().inv_sbox[x]; }

// ---------------------------------------------------------------------------
// Reference implementation
// ---------------------------------------------------------------------------

Result<Aes> Aes::create(std::span<const u8> key) {
  if (auto st = check_key_size(key.size()); !st.is_ok()) return st;
  Aes aes;
  aes.rounds_ = rounds_for(key.size());
  aes.expand_key(key);
  return aes;
}

void Aes::expand_key(std::span<const u8> key) {
  const unsigned nk = static_cast<unsigned>(key.size() / 4);
  const unsigned total_words = 4 * (rounds_ + 1);
  auto& t = tables();
  // Words stored directly into round_keys_ bytes (column-major order).
  for (unsigned i = 0; i < nk * 4; ++i) round_keys_[i] = key[i];
  u8 rcon = 0x01;
  for (unsigned i = nk; i < total_words; ++i) {
    u8 w[4] = {round_keys_[(i - 1) * 4 + 0], round_keys_[(i - 1) * 4 + 1],
               round_keys_[(i - 1) * 4 + 2], round_keys_[(i - 1) * 4 + 3]};
    if (i % nk == 0) {
      const u8 tmp = w[0];  // RotWord
      w[0] = static_cast<u8>(t.sbox[w[1]] ^ rcon);
      w[1] = t.sbox[w[2]];
      w[2] = t.sbox[w[3]];
      w[3] = t.sbox[tmp];
      rcon = gf_mul(rcon, 2);
    } else if (nk > 6 && i % nk == 4) {
      for (auto& b : w) b = t.sbox[b];
    }
    for (unsigned j = 0; j < 4; ++j) {
      round_keys_[i * 4 + j] =
          static_cast<u8>(round_keys_[(i - nk) * 4 + j] ^ w[j]);
    }
  }
}

void Aes::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  assert(in.size() >= kAesBlockBytes && out.size() >= kAesBlockBytes);
  auto& t = tables();
  u8 st[16];
  for (int i = 0; i < 16; ++i) st[i] = static_cast<u8>(in[i] ^ round_keys_[i]);

  for (unsigned round = 1; round <= rounds_; ++round) {
    // SubBytes + ShiftRows combined.
    u8 tmp[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        tmp[4 * c + r] = t.sbox[st[4 * ((c + r) % 4) + r]];
      }
    }
    if (round < rounds_) {
      // MixColumns.
      for (int c = 0; c < 4; ++c) {
        const u8 a0 = tmp[4 * c], a1 = tmp[4 * c + 1], a2 = tmp[4 * c + 2],
                 a3 = tmp[4 * c + 3];
        st[4 * c + 0] = static_cast<u8>(gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3);
        st[4 * c + 1] = static_cast<u8>(a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3);
        st[4 * c + 2] = static_cast<u8>(a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3));
        st[4 * c + 3] = static_cast<u8>(gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2));
      }
    } else {
      for (int i = 0; i < 16; ++i) st[i] = tmp[i];
    }
    for (int i = 0; i < 16; ++i) st[i] ^= round_keys_[16 * round + i];
  }
  for (int i = 0; i < 16; ++i) out[i] = st[i];
}

void Aes::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  assert(in.size() >= kAesBlockBytes && out.size() >= kAesBlockBytes);
  auto& t = tables();
  u8 st[16];
  for (int i = 0; i < 16; ++i) {
    st[i] = static_cast<u8>(in[i] ^ round_keys_[16 * rounds_ + i]);
  }
  for (unsigned round = rounds_; round >= 1; --round) {
    // InvShiftRows + InvSubBytes.
    u8 tmp[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        tmp[4 * ((c + r) % 4) + r] = t.inv_sbox[st[4 * c + r]];
      }
    }
    for (int i = 0; i < 16; ++i) {
      st[i] = static_cast<u8>(tmp[i] ^ round_keys_[16 * (round - 1) + i]);
    }
    if (round > 1) {
      // InvMixColumns.
      for (int c = 0; c < 4; ++c) {
        const u8 a0 = st[4 * c], a1 = st[4 * c + 1], a2 = st[4 * c + 2],
                 a3 = st[4 * c + 3];
        st[4 * c + 0] = static_cast<u8>(gf_mul(a0, 14) ^ gf_mul(a1, 11) ^
                                        gf_mul(a2, 13) ^ gf_mul(a3, 9));
        st[4 * c + 1] = static_cast<u8>(gf_mul(a0, 9) ^ gf_mul(a1, 14) ^
                                        gf_mul(a2, 11) ^ gf_mul(a3, 13));
        st[4 * c + 2] = static_cast<u8>(gf_mul(a0, 13) ^ gf_mul(a1, 9) ^
                                        gf_mul(a2, 14) ^ gf_mul(a3, 11));
        st[4 * c + 3] = static_cast<u8>(gf_mul(a0, 11) ^ gf_mul(a1, 13) ^
                                        gf_mul(a2, 9) ^ gf_mul(a3, 14));
      }
    }
  }
  for (int i = 0; i < 16; ++i) out[i] = st[i];
}

// ---------------------------------------------------------------------------
// T-table implementation
// ---------------------------------------------------------------------------

Result<AesFast> AesFast::create(std::span<const u8> key) {
  if (auto st = check_key_size(key.size()); !st.is_ok()) return st;
  AesFast fast;
  fast.rounds_ = rounds_for(key.size());
  const unsigned nk = static_cast<unsigned>(key.size() / 4);
  const unsigned total_words = 4 * (fast.rounds_ + 1);
  auto& t = tables();
  auto sub_word = [&](u32 w) {
    return static_cast<u32>(t.sbox[w >> 24]) << 24 |
           static_cast<u32>(t.sbox[(w >> 16) & 0xFF]) << 16 |
           static_cast<u32>(t.sbox[(w >> 8) & 0xFF]) << 8 |
           static_cast<u32>(t.sbox[w & 0xFF]);
  };
  u32* ek = fast.enc_keys_.data();
  for (unsigned i = 0; i < nk; ++i) {
    ek[i] = common::load32be(key.subspan(4 * i, 4));
  }
  u8 rcon = 0x01;
  for (unsigned i = nk; i < total_words; ++i) {
    u32 word = ek[i - 1];
    if (i % nk == 0) {
      word = sub_word(common::rotl32(word, 8)) ^ static_cast<u32>(rcon) << 24;
      rcon = gf_mul(rcon, 2);
    } else if (nk > 6 && i % nk == 4) {
      word = sub_word(word);
    }
    ek[i] = ek[i - nk] ^ word;
  }
  // Equivalent inverse cipher (FIPS-197 5.3.5): the encryption round keys
  // in reverse order, InvMixColumns applied to every inner one. Td[sbox[b]]
  // is InvMixColumns of a lone byte b, so four lookups transform a word.
  u32* dk = fast.dec_keys_.data();
  for (unsigned r = 0; r <= fast.rounds_; ++r) {
    for (unsigned j = 0; j < 4; ++j) {
      const u32 w = ek[4 * (fast.rounds_ - r) + j];
      dk[4 * r + j] =
          (r == 0 || r == fast.rounds_)
              ? w
              : t.td0[t.sbox[w >> 24]] ^ t.td1[t.sbox[(w >> 16) & 0xFF]] ^
                    t.td2[t.sbox[(w >> 8) & 0xFF]] ^ t.td3[t.sbox[w & 0xFF]];
    }
  }
  return fast;
}

void AesFast::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  assert(in.size() >= kAesBlockBytes && out.size() >= kAesBlockBytes);
  auto& t = tables();
  const u32* rk = enc_keys_.data();
  u32 s0 = common::load32be(in.subspan(0, 4)) ^ rk[0];
  u32 s1 = common::load32be(in.subspan(4, 4)) ^ rk[1];
  u32 s2 = common::load32be(in.subspan(8, 4)) ^ rk[2];
  u32 s3 = common::load32be(in.subspan(12, 4)) ^ rk[3];

  for (unsigned round = 1; round < rounds_; ++round) {
    rk += 4;
    const u32 t0 = t.te0[s0 >> 24] ^ t.te1[(s1 >> 16) & 0xFF] ^
                   t.te2[(s2 >> 8) & 0xFF] ^ t.te3[s3 & 0xFF] ^ rk[0];
    const u32 t1 = t.te0[s1 >> 24] ^ t.te1[(s2 >> 16) & 0xFF] ^
                   t.te2[(s3 >> 8) & 0xFF] ^ t.te3[s0 & 0xFF] ^ rk[1];
    const u32 t2 = t.te0[s2 >> 24] ^ t.te1[(s3 >> 16) & 0xFF] ^
                   t.te2[(s0 >> 8) & 0xFF] ^ t.te3[s1 & 0xFF] ^ rk[2];
    const u32 t3 = t.te0[s3 >> 24] ^ t.te1[(s0 >> 16) & 0xFF] ^
                   t.te2[(s1 >> 8) & 0xFF] ^ t.te3[s2 & 0xFF] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  auto final_word = [&](u32 a, u32 b, u32 c, u32 d, u32 k) {
    return (static_cast<u32>(t.sbox[a >> 24]) << 24 |
            static_cast<u32>(t.sbox[(b >> 16) & 0xFF]) << 16 |
            static_cast<u32>(t.sbox[(c >> 8) & 0xFF]) << 8 |
            static_cast<u32>(t.sbox[d & 0xFF])) ^
           k;
  };
  common::store32be(out.subspan(0, 4), final_word(s0, s1, s2, s3, rk[0]));
  common::store32be(out.subspan(4, 4), final_word(s1, s2, s3, s0, rk[1]));
  common::store32be(out.subspan(8, 4), final_word(s2, s3, s0, s1, rk[2]));
  common::store32be(out.subspan(12, 4), final_word(s3, s0, s1, s2, rk[3]));
}

void AesFast::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  assert(in.size() >= kAesBlockBytes && out.size() >= kAesBlockBytes);
  auto& t = tables();
  const u32* rk = dec_keys_.data();
  u32 s0 = common::load32be(in.subspan(0, 4)) ^ rk[0];
  u32 s1 = common::load32be(in.subspan(4, 4)) ^ rk[1];
  u32 s2 = common::load32be(in.subspan(8, 4)) ^ rk[2];
  u32 s3 = common::load32be(in.subspan(12, 4)) ^ rk[3];

  // InvShiftRows moves row r right by r, so column c's byte r comes from
  // column c - r: the mirror of encrypt's (c + r).
  for (unsigned round = 1; round < rounds_; ++round) {
    rk += 4;
    const u32 t0 = t.td0[s0 >> 24] ^ t.td1[(s3 >> 16) & 0xFF] ^
                   t.td2[(s2 >> 8) & 0xFF] ^ t.td3[s1 & 0xFF] ^ rk[0];
    const u32 t1 = t.td0[s1 >> 24] ^ t.td1[(s0 >> 16) & 0xFF] ^
                   t.td2[(s3 >> 8) & 0xFF] ^ t.td3[s2 & 0xFF] ^ rk[1];
    const u32 t2 = t.td0[s2 >> 24] ^ t.td1[(s1 >> 16) & 0xFF] ^
                   t.td2[(s0 >> 8) & 0xFF] ^ t.td3[s3 & 0xFF] ^ rk[2];
    const u32 t3 = t.td0[s3 >> 24] ^ t.td1[(s2 >> 16) & 0xFF] ^
                   t.td2[(s1 >> 8) & 0xFF] ^ t.td3[s0 & 0xFF] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  auto final_word = [&](u32 a, u32 b, u32 c, u32 d, u32 k) {
    return (static_cast<u32>(t.inv_sbox[a >> 24]) << 24 |
            static_cast<u32>(t.inv_sbox[(b >> 16) & 0xFF]) << 16 |
            static_cast<u32>(t.inv_sbox[(c >> 8) & 0xFF]) << 8 |
            static_cast<u32>(t.inv_sbox[d & 0xFF])) ^
           k;
  };
  common::store32be(out.subspan(0, 4), final_word(s0, s3, s2, s1, rk[0]));
  common::store32be(out.subspan(4, 4), final_word(s1, s0, s3, s2, rk[1]));
  common::store32be(out.subspan(8, 4), final_word(s2, s1, s0, s3, rk[2]));
  common::store32be(out.subspan(12, 4), final_word(s3, s2, s1, s0, rk[3]));
}

}  // namespace rmc::crypto

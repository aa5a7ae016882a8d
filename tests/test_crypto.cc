// Crypto tests: FIPS-197 known answers for AES (all key sizes, both
// implementations, both directions) and the T-table AES held to the
// byte-oriented one, RFC 3174 / RFC 2202 vectors for SHA-1 / HMAC-SHA1 and
// SHA-1, HMAC and PRF held to the plain reference in crypto_reference.h,
// property tests for modes and bignum, the word-level bignum kernels held to
// the bit-serial reference, fail-stop preconditions, and RSA round trips,
// pinned keys and the CRT private operation.
#include <gtest/gtest.h>

#include "bignum_reference.h"
#include "crypto_reference.h"
#include "common/bytes.h"
#include "common/prng.h"
#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/modes.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"

namespace rmc::crypto {
namespace {

using common::from_hex;
using common::to_hex;
using common::u32;
using common::u64;
using common::u8;
namespace ref = reference;

// ---------------------------------------------------------------------------
// GF(2^8) / S-box
// ---------------------------------------------------------------------------

TEST(Gf, MultiplicationKnownValues) {
  EXPECT_EQ(gf_mul(0x57, 0x83), 0xC1);  // FIPS-197 example
  EXPECT_EQ(gf_mul(0x57, 0x13), 0xFE);
  EXPECT_EQ(gf_mul(0x01, 0xAB), 0xAB);
  EXPECT_EQ(gf_mul(0x00, 0xAB), 0x00);
}

TEST(Gf, MultiplicationCommutesAndDistributes) {
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; b += 11) {
      EXPECT_EQ(gf_mul(static_cast<u8>(a), static_cast<u8>(b)),
                gf_mul(static_cast<u8>(b), static_cast<u8>(a)));
      const u8 c = 0x35;
      EXPECT_EQ(gf_mul(static_cast<u8>(a), static_cast<u8>(b ^ c)),
                gf_mul(static_cast<u8>(a), static_cast<u8>(b)) ^
                    gf_mul(static_cast<u8>(a), c));
    }
  }
}

TEST(Sbox, KnownEntries) {
  EXPECT_EQ(aes_sbox(0x00), 0x63);
  EXPECT_EQ(aes_sbox(0x01), 0x7C);
  EXPECT_EQ(aes_sbox(0x53), 0xED);
  EXPECT_EQ(aes_sbox(0xFF), 0x16);
}

TEST(Sbox, InverseIsInverse) {
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(aes_inv_sbox(aes_sbox(static_cast<u8>(i))), i);
  }
}

TEST(Sbox, IsPermutation) {
  std::array<bool, 256> seen{};
  for (int i = 0; i < 256; ++i) seen[aes_sbox(static_cast<u8>(i))] = true;
  for (bool b : seen) EXPECT_TRUE(b);
}

// ---------------------------------------------------------------------------
// AES known-answer tests (FIPS-197 Appendix C)
// ---------------------------------------------------------------------------

struct AesKat {
  const char* name;
  const char* key;
  const char* plain;
  const char* cipher;
};

// Print a case by name. gtest's default dumps the struct's bytes, which are
// string addresses that move with ASLR, so the test names ctest discovers
// would change from one build to the next.
void PrintTo(const AesKat& kat, std::ostream* os) { *os << kat.name; }

class AesKnownAnswer : public ::testing::TestWithParam<AesKat> {};

TEST_P(AesKnownAnswer, ReferenceEncryptDecrypt) {
  const auto& kat = GetParam();
  auto aes = Aes::create(from_hex(kat.key));
  ASSERT_TRUE(aes.ok());
  std::array<u8, 16> out{};
  aes->encrypt_block(from_hex(kat.plain), out);
  EXPECT_EQ(to_hex(out), kat.cipher);
  std::array<u8, 16> back{};
  aes->decrypt_block(out, back);
  EXPECT_EQ(to_hex(back), kat.plain);
}

TEST_P(AesKnownAnswer, FastMatchesReference) {
  const auto& kat = GetParam();
  auto fast = AesFast::create(from_hex(kat.key));
  ASSERT_TRUE(fast.ok());
  std::array<u8, 16> out{};
  fast->encrypt_block(from_hex(kat.plain), out);
  EXPECT_EQ(to_hex(out), kat.cipher);
  std::array<u8, 16> back{};
  fast->decrypt_block(out, back);
  EXPECT_EQ(to_hex(back), kat.plain);
}

INSTANTIATE_TEST_SUITE_P(
    Fips197, AesKnownAnswer,
    ::testing::Values(
        AesKat{"AES128_C1", "000102030405060708090a0b0c0d0e0f",
               "00112233445566778899aabbccddeeff",
               "69c4e0d86a7b0430d8cdb78070b4c55a"},
        AesKat{"AES192_C2",
               "000102030405060708090a0b0c0d0e0f1011121314151617",
               "00112233445566778899aabbccddeeff",
               "dda97ca4864cdfe06eaf70a0ec0d7191"},
        AesKat{"AES256_C3",
               "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1"
               "d1e1f",
               "00112233445566778899aabbccddeeff",
               "8ea2b7ca516745bfeafc49904b496089"},
        // FIPS-197 Appendix B worked example.
        AesKat{"AES128_B", "2b7e151628aed2a6abf7158809cf4f3c",
               "3243f6a8885a308d313198a2e0370734",
               "3925841d02dc09fbdc118597196a0b32"}));

TEST(Aes, RejectsBadKeyLength) {
  std::vector<u8> key(15, 0);
  EXPECT_FALSE(Aes::create(key).ok());
  EXPECT_FALSE(AesFast::create(key).ok());
}

TEST(Aes, FastAgreesWithReferenceOnRandomInputs) {
  // 1,000 random blocks per key size under 20 keys each. Decrypting a random
  // block (not only a ciphertext) compares the two inverse ciphers as maps.
  common::Xorshift64 rng(42);
  for (const std::size_t key_len : {16, 24, 32}) {
    for (int k = 0; k < 20; ++k) {
      std::vector<u8> key(key_len);
      rng.fill(key);
      auto ref = Aes::create(key);
      auto fast = AesFast::create(key);
      ASSERT_TRUE(ref.ok() && fast.ok());
      for (int block = 0; block < 50; ++block) {
        std::array<u8, 16> in{}, a{}, b{}, back{};
        rng.fill(in);
        ref->encrypt_block(in, a);
        fast->encrypt_block(in, b);
        ASSERT_EQ(a, b) << key_len << "-byte key " << k << ", encrypt";
        ref->decrypt_block(in, a);
        fast->decrypt_block(in, b);
        ASSERT_EQ(a, b) << key_len << "-byte key " << k << ", decrypt";
        fast->encrypt_block(b, back);
        ASSERT_EQ(back, in) << key_len << "-byte key " << k << ", round trip";
      }
    }
  }
}

TEST(Aes, EncryptDecryptRoundTripProperty) {
  common::Xorshift64 rng(7);
  std::vector<u8> key(16);
  rng.fill(key);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.ok());
  for (int trial = 0; trial < 100; ++trial) {
    std::array<u8, 16> pt{}, ct{}, back{};
    rng.fill(pt);
    aes->encrypt_block(pt, ct);
    aes->decrypt_block(ct, back);
    EXPECT_EQ(pt, back);
    EXPECT_NE(pt, ct);  // identity would be a catastrophic bug
  }
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

// The PKCS#7 and ECB cases exercise the test oracle in crypto_reference.h
// (the record layer pads in place, and nothing ships ECB); the CBC cases
// hold the product's span CBC to the oracle's vector CBC.

TEST(Modes, Pkcs7PadAlwaysAddsBytes) {
  for (std::size_t n = 0; n <= 48; ++n) {
    std::vector<u8> data(n, 0xAA);
    const auto padded = ref::pkcs7_pad(data, 16);
    EXPECT_EQ(padded.size() % 16, 0u);
    EXPECT_GT(padded.size(), data.size());
    auto back = ref::pkcs7_unpad(padded, 16);
    ASSERT_TRUE(back.ok()) << n;
    EXPECT_EQ(*back, data);
  }
}

TEST(Modes, Pkcs7UnpadRejectsTampering) {
  std::vector<u8> data(10, 0x42);
  auto padded = ref::pkcs7_pad(data, 16);
  padded.back() = 0;  // invalid pad byte
  EXPECT_FALSE(ref::pkcs7_unpad(padded, 16).ok());
  padded.back() = 17;  // > block
  EXPECT_FALSE(ref::pkcs7_unpad(padded, 16).ok());
  padded.back() = 6;
  padded[padded.size() - 3] ^= 0xFF;  // inconsistent fill
  EXPECT_FALSE(ref::pkcs7_unpad(padded, 16).ok());
  EXPECT_FALSE(ref::pkcs7_unpad(std::vector<u8>{}, 16).ok());
  EXPECT_FALSE(ref::pkcs7_unpad(std::vector<u8>(15, 1), 16).ok());
}

TEST(Modes, CbcRoundTripAndChaining) {
  common::Xorshift64 rng(3);
  std::vector<u8> key(16), iv(16);
  rng.fill(key);
  rng.fill(iv);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.ok());
  std::vector<u8> pt(64);
  rng.fill(pt);
  std::vector<u8> ct(pt.size()), back(pt.size());
  cbc_encrypt(*aes, iv, pt, ct);
  cbc_decrypt(*aes, iv, ct, back);
  EXPECT_EQ(back, pt);
  // Identical plaintext blocks must encrypt differently under CBC.
  std::vector<u8> repeated(32, 0x55);
  cbc_encrypt(*aes, iv, repeated, repeated);  // in place
  EXPECT_NE(std::vector<u8>(repeated.begin(), repeated.begin() + 16),
            std::vector<u8>(repeated.begin() + 16, repeated.end()));
}

TEST(Modes, CbcInteroperatesBetweenFastAndReference) {
  common::Xorshift64 rng(5);
  for (const std::size_t key_len : {16, 24, 32}) {
    std::vector<u8> key(key_len), iv(16), pt(16 * 37);
    rng.fill(key);
    rng.fill(iv);
    rng.fill(pt);
    auto plain = Aes::create(key);
    auto fast = AesFast::create(key);
    ASSERT_TRUE(plain.ok() && fast.ok());
    const auto want = ref::cbc_encrypt(*plain, iv, pt);
    std::vector<u8> ct(pt.size());
    cbc_encrypt(*fast, iv, pt, ct);
    EXPECT_EQ(ct, want) << key_len;
    std::vector<u8> in_place = pt;
    cbc_encrypt(*fast, iv, in_place, in_place);
    EXPECT_EQ(in_place, want) << key_len;
    EXPECT_EQ(ref::cbc_decrypt(*plain, iv, ct), pt) << key_len;
    std::vector<u8> back(ct.size());
    cbc_decrypt(*fast, iv, ct, back);
    EXPECT_EQ(back, pt) << key_len;
    cbc_decrypt(*fast, iv, in_place, in_place);
    EXPECT_EQ(in_place, pt) << key_len;
  }
}

TEST(Modes, CbcIvChangesCiphertext) {
  std::vector<u8> key(16, 1), iv1(16, 2), iv2(16, 3), pt(32, 4);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.ok());
  std::vector<u8> ct1(pt.size()), ct2(pt.size());
  cbc_encrypt(*aes, iv1, pt, ct1);
  cbc_encrypt(*aes, iv2, pt, ct2);
  EXPECT_NE(ct1, ct2);
}

TEST(Modes, EcbLeaksEqualBlocks) {
  // Documents *why* the record layer uses CBC.
  std::vector<u8> key(16, 9), pt(32, 0x77);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.ok());
  const auto ct = ref::ecb_encrypt(*aes, pt);
  EXPECT_EQ(std::vector<u8>(ct.begin(), ct.begin() + 16),
            std::vector<u8>(ct.begin() + 16, ct.end()));
}

// ---------------------------------------------------------------------------
// SHA-1 / HMAC (RFC 3174, RFC 2202)
// ---------------------------------------------------------------------------

std::string sha1_hex(std::string_view msg) {
  const auto d = Sha1::digest(std::span<const u8>(
      reinterpret_cast<const u8*>(msg.data()), msg.size()));
  return to_hex(d);
}

TEST(Sha1, Rfc3174Vectors) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnop"
                     "q"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs) {
  Sha1 s;
  std::vector<u8> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(to_hex(s.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  common::Xorshift64 rng(11);
  std::vector<u8> data(777);
  rng.fill(data);
  Sha1 s;
  // Feed in awkward chunk sizes across the 64-byte boundary.
  std::size_t off = 0;
  const std::size_t sizes[] = {1, 63, 64, 65, 100, 484};
  for (std::size_t sz : sizes) {
    s.update(std::span<const u8>(data.data() + off, sz));
    off += sz;
  }
  ASSERT_EQ(off, data.size());
  EXPECT_EQ(s.finish(), Sha1::digest(data));
}

TEST(Hmac, Rfc2202Vectors) {
  {
    std::vector<u8> key(20, 0x0b);
    const std::string msg = "Hi There";
    EXPECT_EQ(to_hex(hmac_sha1(key, std::span<const u8>(
                                        reinterpret_cast<const u8*>(msg.data()),
                                        msg.size()))),
              "b617318655057264e28bc0b6fb378c8ef146be00");
  }
  {
    const std::string key = "Jefe";
    const std::string msg = "what do ya want for nothing?";
    EXPECT_EQ(
        to_hex(hmac_sha1(
            std::span<const u8>(reinterpret_cast<const u8*>(key.data()),
                                key.size()),
            std::span<const u8>(reinterpret_cast<const u8*>(msg.data()),
                                msg.size()))),
        "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  }
  {
    std::vector<u8> key(80, 0xaa);  // key longer than block -> hashed
    const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key "
                            "First";
    EXPECT_EQ(to_hex(hmac_sha1(key, std::span<const u8>(
                                        reinterpret_cast<const u8*>(msg.data()),
                                        msg.size()))),
              "aa4ae5e15272d00e95705637ce8a3b55ed402112");
  }
}

TEST(Prf, DeterministicAndLengthExact) {
  std::vector<u8> secret(16, 1), label{'k', 'b'}, seed(32, 2);
  std::vector<u8> out1(100), out2(100);
  prf_sha1(secret, label, seed, out1);
  prf_sha1(secret, label, seed, out2);
  EXPECT_EQ(out1, out2);
  std::vector<u8> out3(100);
  seed[0] ^= 1;
  prf_sha1(secret, label, seed, out3);
  EXPECT_NE(out1, out3);
}

TEST(Prf, PrefixConsistency) {
  // Asking for fewer bytes must give a prefix of asking for more.
  std::vector<u8> secret(16, 7), label{'x'}, seed(8, 9);
  std::vector<u8> small(25), large(80);
  prf_sha1(secret, label, seed, small);
  prf_sha1(secret, label, seed, large);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), large.begin()));
}

// ---------------------------------------------------------------------------
// SHA-1 / HMAC / PRF against the reference (crypto_reference.h)
// ---------------------------------------------------------------------------

TEST(Sha1Differential, EveryLengthTo320WholeAndChunked) {
  // Lengths 0-320 put the message end at every offset of a block, both
  // sides of the 55/56-byte padding boundary, over one to six blocks.
  common::Xorshift64 rng(21);
  std::vector<u8> data(320);
  rng.fill(data);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const u8> msg(data.data(), len);
    const auto want = ref::Sha1::digest(msg);
    EXPECT_EQ(Sha1::digest(msg), want) << "whole, " << len << " B";
    Sha1 s;
    for (std::size_t off = 0; off < len;) {
      const std::size_t n = std::min<std::size_t>(len - off,
                                                   1 + rng.next_below(100));
      s.update(msg.subspan(off, n));
      off += n;
    }
    EXPECT_EQ(s.finish(), want) << "seeded chunks, " << len << " B";
  }
}

TEST(HmacDifferential, KeysTo130BytesMessagesTo200Bytes) {
  // Keys cross the 64-byte block (hashed first above it); messages are fed
  // whole, through the one-call hmac_sha1, and in two updates.
  common::Xorshift64 rng(22);
  std::vector<u8> key(130), msg(200);
  rng.fill(key);
  rng.fill(msg);
  for (std::size_t klen = 0; klen <= key.size(); ++klen) {
    const std::span<const u8> k(key.data(), klen);
    const HmacSha1Key keyed(k);
    for (std::size_t mlen = 0; mlen <= msg.size(); ++mlen) {
      const std::span<const u8> m(msg.data(), mlen);
      const auto want = ref::hmac_sha1(k, m);
      ASSERT_EQ(keyed.mac(m), want) << klen << " B key, " << mlen << " B msg";
      ASSERT_EQ(hmac_sha1(k, m), want) << klen << " B key, " << mlen << " B";
      Sha1 inner = keyed.begin();
      inner.update(m.first(mlen / 3));
      inner.update(m.subspan(mlen / 3));
      ASSERT_EQ(keyed.finish(inner), want)
          << klen << " B key, " << mlen << " B msg in two updates";
    }
  }
}

TEST(PrfDifferential, OutputLengths1To100) {
  common::Xorshift64 rng(23);
  std::vector<u8> secret(48), seed(64);
  rng.fill(secret);
  rng.fill(seed);
  const std::vector<u8> label{'k', 'e', 'y', ' ', 'b', 'l', 'o', 'c', 'k'};
  for (std::size_t n = 1; n <= 100; ++n) {
    std::vector<u8> got(n), want(n);
    prf_sha1(secret, label, seed, got);
    ref::prf_sha1(secret, label, seed, want);
    EXPECT_EQ(got, want) << n << " B";
  }
  // Empty label and seed: the message is the counter byte alone.
  std::vector<u8> got(45), want(45);
  prf_sha1(secret, {}, {}, got);
  ref::prf_sha1(secret, {}, {}, want);
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// BigNum
// ---------------------------------------------------------------------------

TEST(BigNumTest, ConstructionAndHex) {
  EXPECT_EQ(BigNum(0).to_hex(), "0");
  EXPECT_EQ(BigNum(0xDEADBEEFull).to_hex(), "deadbeef");
  EXPECT_EQ(BigNum(0x1122334455667788ull).to_hex(), "1122334455667788");
  auto n = BigNum::from_hex("ffeeddccbbaa99887766554433221100");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->to_hex(), "ffeeddccbbaa99887766554433221100");
}

TEST(BigNumTest, BytesRoundTrip) {
  const std::vector<u8> bytes = {0x01, 0x02, 0x03, 0x04, 0x05};
  const BigNum n = BigNum::from_bytes(bytes);
  EXPECT_EQ(n.to_bytes(), bytes);
  auto padded = n.to_bytes_padded(8);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->size(), 8u);
  EXPECT_EQ((*padded)[0], 0);
  EXPECT_EQ((*padded)[3], 0x01);
  EXPECT_FALSE(n.to_bytes_padded(3).ok());
}

TEST(BigNumTest, ArithmeticIdentities) {
  common::Xorshift64 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const BigNum a = BigNum::random_bits(96, rng);
    const BigNum b = BigNum::random_bits(64, rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * BigNum(1), a);
    EXPECT_EQ(a * BigNum(0), BigNum(0));
    auto dm = (a * b + a).divmod(b);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient, a + a.divmod(b)->quotient);
  }
}

TEST(BigNumTest, DivModInvariant) {
  common::Xorshift64 rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const BigNum a = BigNum::random_bits(128, rng);
    const BigNum b = BigNum::random_bits(40 + trial % 60, rng);
    auto dm = a.divmod(b);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient * b + dm->remainder, a);
    EXPECT_TRUE(dm->remainder < b);
  }
}

TEST(BigNumTest, DivisionByZeroFails) {
  EXPECT_FALSE(BigNum(5).divmod(BigNum(0)).ok());
}

TEST(BigNumTest, Shifts) {
  const BigNum one(1);
  EXPECT_EQ((one << 100).bit_length(), 101u);
  EXPECT_EQ((one << 100) >> 100, one);
  const BigNum v(0xABCDu);
  EXPECT_EQ((v << 4).to_hex(), "abcd0");
  EXPECT_EQ((v >> 4).to_hex(), "abc");
}

TEST(BigNumTest, ModExpSmallKnown) {
  // 4^13 mod 497 = 445 (classic example)
  EXPECT_EQ(BigNum(4).modexp(BigNum(13), BigNum(497)), BigNum(445));
  // Fermat: a^(p-1) = 1 mod p
  const BigNum p(1000003);
  EXPECT_EQ(BigNum(12345).modexp(p - BigNum(1), p), BigNum(1));
}

TEST(BigNumTest, ModInverse) {
  common::Xorshift64 rng(17);
  const BigNum m = BigNum::generate_prime(64, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const BigNum a = BigNum(2) + BigNum::random_below(m - BigNum(3), rng);
    auto inv = BigNum::modinverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ((a * *inv).mod(m), BigNum(1));
  }
}

TEST(BigNumTest, ModInverseFailsWhenNotCoprime) {
  EXPECT_FALSE(BigNum::modinverse(BigNum(6), BigNum(9)).ok());
}

TEST(BigNumTest, PrimalityKnownValues) {
  common::Xorshift64 rng(23);
  EXPECT_TRUE(BigNum::is_probable_prime(BigNum(2), rng));
  EXPECT_TRUE(BigNum::is_probable_prime(BigNum(65537), rng));
  EXPECT_TRUE(BigNum::is_probable_prime(BigNum(1000003), rng));
  EXPECT_FALSE(BigNum::is_probable_prime(BigNum(1), rng));
  EXPECT_FALSE(BigNum::is_probable_prime(BigNum(1000001), rng));  // 101*9901
  EXPECT_FALSE(BigNum::is_probable_prime(BigNum(561), rng));  // Carmichael
}

TEST(BigNumTest, GeneratePrimeHasRequestedWidth) {
  common::Xorshift64 rng(31);
  const BigNum p = BigNum::generate_prime(80, rng);
  EXPECT_EQ(p.bit_length(), 80u);
  EXPECT_TRUE(p.is_odd());
}

// ---------------------------------------------------------------------------
// BigNum kernels vs the bit-serial reference (tests/bignum_reference.h)
// ---------------------------------------------------------------------------

BigNum hex(std::string_view h) { return BigNum::from_hex(h).value(); }

// An operand of exactly `bits` bits. Half the draws are uniform. The other
// half build every limb from the values where carries, borrows and the
// Knuth-D quotient estimate go wrong: 0, 1, 0x7FFFFFFF, 0x80000000,
// 0xFFFFFFFE and 0xFFFFFFFF.
BigNum operand(std::size_t bits, common::Xorshift64& rng) {
  if (rng.next() & 1) return BigNum::random_bits(bits, rng);
  static constexpr u32 kEdges[] = {0,          1,          0x7FFFFFFF,
                                   0x80000000, 0xFFFFFFFE, 0xFFFFFFFF};
  const std::size_t limbs = (bits + 31) / 32;
  const std::size_t top_bits = bits - 32 * (limbs - 1);
  const u64 top_mask = (u64{1} << top_bits) - 1;
  BigNum out((kEdges[rng.next_below(6)] & top_mask) |
             (u64{1} << (top_bits - 1)));
  for (std::size_t i = 1; i < limbs; ++i) {
    out = (out << 32) + BigNum(kEdges[rng.next_below(6)]);
  }
  return out;
}

void expect_divmod_matches_reference(const BigNum& a, const BigNum& m) {
  SCOPED_TRACE("a=" + a.to_hex() + " m=" + m.to_hex());
  const auto dm = a.divmod(m);
  ASSERT_TRUE(dm.ok());
  const auto want = ref::divmod(a, m);
  EXPECT_EQ(dm->quotient, want.quotient);
  EXPECT_EQ(dm->remainder, want.remainder);
  EXPECT_EQ(a.mod(m), want.remainder);
}

class BigNumDifferential : public ::testing::TestWithParam<int> {};

// 8 shards x 250 = 2,000 seeded operand pairs of 1..1,100 bits; sharded so
// ctest runs them in parallel.
TEST_P(BigNumDifferential, KernelsAgreeWithBitSerialReference) {
  common::Xorshift64 rng(0xB16B00B5ull + static_cast<u64>(GetParam()));
  for (int i = 0; i < 250; ++i) {
    const BigNum a = operand(1 + rng.next_below(1100), rng);
    const BigNum b = operand(1 + rng.next_below(1100), rng);
    const BigNum m = operand(1 + rng.next_below(1100), rng);
    const BigNum e = operand(1 + rng.next_below(24), rng);
    SCOPED_TRACE("pair " + std::to_string(i));
    const BigNum product = a * b;
    ASSERT_EQ(product, ref::mul(a, b));
    expect_divmod_matches_reference(a, b);
    // The product over a third operand gives quotients of up to 69 limbs.
    expect_divmod_matches_reference(product, m);
    const BigNum odd = m.is_odd() ? m : m + BigNum(1);
    ASSERT_EQ(a.modexp(e, odd), ref::modexp(a, e, odd))
        << "a=" << a.to_hex() << " e=" << e.to_hex() << " m=" << odd.to_hex();
  }
}

// An odd modulus of `limbs` 32-bit limbs under `top`: its top 64-bit word,
// or, for an odd limb count, the half-empty top word's low 32 bits.
BigNum modulus_under(u64 top, std::size_t limbs, common::Xorshift64& rng) {
  const std::size_t lower = limbs % 2 ? limbs - 1 : limbs - 2;
  BigNum m = BigNum(limbs % 2 ? top & 0xFFFFFFFF : top) << (32 * lower);
  m = m + BigNum::random_below(BigNum(1) << (32 * lower), rng);
  return m.is_odd() ? m : m + BigNum(1);
}

void expect_modexp_matches_reference(const BigNum& a, const BigNum& e,
                                     const BigNum& m) {
  EXPECT_EQ(a.modexp(e, m), ref::modexp(a, e, m))
      << "a=" << a.to_hex() << " e=" << e.to_hex() << " m=" << m.to_hex();
}

// modexp runs a 64-bit Montgomery kernel unrolled per word count up to 8
// and a runtime-length one above that. Shard p holds the unrolled kernel at
// p + 1 words to the bit-serial reference; shards 0-3 also take the runtime
// kernel at 9, 12, 17 and 65 words (65 words overruns any fixed 64-word
// accumulator, which ASan would report). Each count is reached from an odd
// 32-bit limb count (a half-empty top word) and an even one (a full one).
// Top words of all ones make the product overflow into the carry word and
// take the final subtraction; 0x8000...0001 sits just above R/2. Exponents
// lie on both sides of the 64-bit cut between the binary ladder and the
// 4-bit windows, and each modulus takes one full-width exponent in turn:
// uniform, all-ones, a power of two and m - 1.
TEST_P(BigNumDifferential, ModExpAtEveryWordCountAgreesWithReference) {
  common::Xorshift64 rng(0x40D3ull + static_cast<u64>(GetParam()));
  const BigNum one(1);
  const std::size_t words = static_cast<std::size_t>(GetParam()) + 1;
  std::size_t turn = 0;
  for (const std::size_t limbs : {2 * words - 1, 2 * words}) {
    const std::size_t bits = 32 * limbs;
    for (const u64 top : {~u64{0}, u64{0x8000000000000001}}) {
      const BigNum m = modulus_under(top, limbs, rng);
      SCOPED_TRACE("limbs " + std::to_string(limbs));
      const BigNum operands[] = {m - one, BigNum::random_below(m, rng),
                                 BigNum::random_bits(bits + 40, rng)};
      const BigNum ladder[] = {BigNum(65537), one << 63, (one << 64) - one};
      const BigNum full_width[] = {BigNum::random_bits(bits, rng),
                                   (one << bits) - one, one << (bits - 1),
                                   m - one};
      for (const BigNum& e :
           {ladder[turn % 3], one << 64, full_width[turn % 4]}) {
        expect_modexp_matches_reference(operands[turn % 3], e, m);
      }
      ++turn;
    }
  }
  constexpr std::size_t kRuntimeWords[] = {9, 12, 17, 65};
  if (GetParam() >= 4) return;
  const std::size_t runtime_words = kRuntimeWords[GetParam()];
  for (const std::size_t limbs : {2 * runtime_words - 1, 2 * runtime_words}) {
    const BigNum m = modulus_under(~u64{0}, limbs, rng);
    SCOPED_TRACE("runtime-length, limbs " + std::to_string(limbs));
    const BigNum a = BigNum::random_below(m, rng);
    // At 65 words the reference spends about 5 ms per exponent bit in an
    // optimised build and several times that under the sanitizers, so the
    // widest modulus keeps to the 17 bits of 65537.
    expect_modexp_matches_reference(
        a, runtime_words < 64 ? (one << 64) + one : BigNum(65537), m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, BigNumDifferential, ::testing::Range(0, 8));

TEST(BigNumEdges, LimbBoundaryValuesAgreeWithReference) {
  const std::vector<BigNum> moduli = {
      hex("1"), hex("2"), hex("3"), hex("ffffffff"), hex("100000000"),
      hex("100000001"),
      // Top limb 0x80000000 and 0xFFFFFFFF: Knuth D's normalising shift is
      // zero, so the divisor is used as is.
      hex("8000000000000001"), hex("800000000000000000000000"),
      hex("80000000ffffffff00000001"), hex("ffffffffffffffff"),
      hex("ffffffff00000000ffffffff"),
      hex("ffffffffffffffffffffffffffffffffffffffff"),
      // One bit into a new limb, and a second limb of zero.
      hex("1ffffffff"), hex("10000000000000001"),
      hex("1" + std::string(256, '0') + "1")};
  for (const BigNum& m : moduli) {
    const BigNum m_minus_1 = m - BigNum(1);
    const BigNum ones = (BigNum(1) << (m.bit_length() + 64)) - BigNum(1);
    const std::vector<BigNum> values = {
        BigNum(0), BigNum(1), m_minus_1, m, m + BigNum(1), m + m_minus_1,
        m + m, m * m - BigNum(1), m * m, (m << 32) - BigNum(1), ones};
    for (const BigNum& a : values) {
      expect_divmod_matches_reference(a, m);
      if (!m.is_odd()) continue;
      for (const BigNum& e : {BigNum(0), BigNum(1), BigNum(2), BigNum(65537),
                              m_minus_1}) {
        EXPECT_EQ(a.modexp(e, m), ref::modexp(a, e, m))
            << "a=" << a.to_hex() << " e=" << e.to_hex()
            << " m=" << m.to_hex();
      }
    }
  }
}

TEST(BigNumEdges, CarriesAndBorrowsCrossLimbs) {
  for (std::size_t limbs = 1; limbs <= 9; ++limbs) {
    const BigNum pow = BigNum(1) << (32 * limbs);
    const BigNum ones = pow - BigNum(1);
    EXPECT_EQ(ones + BigNum(1), pow);
    EXPECT_EQ(pow - ones, BigNum(1));
    EXPECT_EQ((ones + ones) - ones, ones);
    EXPECT_EQ(ones * ones, ref::mul(ones, ones));
    EXPECT_EQ(ones * ones, pow * pow - pow - pow + BigNum(1));
    EXPECT_EQ(ones.bit_length(), 32 * limbs);
    EXPECT_EQ(pow.bit_length(), 32 * limbs + 1);
  }
}

TEST(BigNumEdges, KnuthAddBackCasesAgreeWithReference) {
  // Dividends whose trial quotient digit survives the two-limb correction
  // yet is one too big, so algorithm D must add the divisor back (step D6).
  // Among uniform operands that happens with probability about 2^-31 per
  // quotient limb, so random tests would never reach it.
  const std::pair<const char*, const char*> cases[] = {
      {"00007fff000080000000000000000000", "000080000000000000000001"},
      {"00008000000000000000fffe00000000", "00008000000000000000ffff"},
      {"8000000000000000fffffffe00000000", "8000000000000000ffffffff"},
      {"7fffffff800000000000000000000000", "800000000000000000000001"},
      {"800000000000000000000003", "200000000000000000000001"},
  };
  for (const auto& [u, v] : cases) {
    const BigNum a = hex(u), m = hex(v);
    expect_divmod_matches_reference(a, m);
    const auto dm = a.divmod(m);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient * m + dm->remainder, a);
  }
}

TEST(BigNumTest, FromBytesAndHexPackLimbs) {
  common::Xorshift64 rng(44);
  for (std::size_t len = 0; len <= 40; ++len) {
    std::vector<u8> be(len);
    rng.fill(be);
    // The byte-at-a-time definition, through operations the packing
    // rewrite did not touch.
    BigNum want;
    for (u8 b : be) want = (want << 8) + BigNum(b);
    EXPECT_EQ(BigNum::from_bytes(be), want);
    EXPECT_EQ(hex(len ? to_hex(be) : "0"), want);
  }
  EXPECT_EQ(hex(" 1 2\n34 "), BigNum(0x1234));
  EXPECT_EQ(hex("000000000000000000ABCDEF"), BigNum(0xABCDEF));
  EXPECT_FALSE(BigNum::from_hex("12g4").ok());
}

// Death tests run the statement in a child; the check must fire the same in
// Release (NDEBUG) as in Debug.
TEST(BigNumDeathTest, SubtractionUnderflowStops) {
  EXPECT_DEATH((void)(BigNum(1) - BigNum(2)), "subtraction underflow");
  EXPECT_DEATH((void)((BigNum(1) << 64) - (BigNum(1) << 65)),
               "subtraction underflow");
}

TEST(BigNumDeathTest, ModByZeroStops) {
  EXPECT_DEATH((void)BigNum(5).mod(BigNum(0)), "mod by zero");
}

TEST(BigNumDeathTest, ModExpByZeroModulusStops) {
  EXPECT_DEATH((void)BigNum(5).modexp(BigNum(3), BigNum(0)), "zero modulus");
}

TEST(BigNumDeathTest, ModExpByEvenModulusStops) {
  EXPECT_DEATH((void)BigNum(5).modexp(BigNum(3), BigNum(10)), "odd modulus");
  EXPECT_DEATH((void)BigNum(5).modexp(BigNum(3), BigNum(1) << 100),
               "odd modulus");
}

// Key generation gives up at its bound instead of drawing forever: the only
// 1-bit candidate is 1, and 4-bit keys draw p = q = 3 every round.
TEST(BigNumDeathTest, GeneratePrimeWithNoPrimeOfThatWidthStops) {
  common::Xorshift64 rng(1);
  EXPECT_DEATH((void)BigNum::generate_prime(1, rng), "found no prime");
}

TEST(BigNumDeathTest, RsaGenerateWithNoKeyOfThatWidthStops) {
  common::Xorshift64 rng(1);
  EXPECT_DEATH((void)rsa_generate(4, rng), "found no key pair");
}

// ---------------------------------------------------------------------------
// RSA
// ---------------------------------------------------------------------------

TEST(Rsa, EncryptDecryptRoundTrip) {
  common::Xorshift64 rng(101);
  const RsaKeyPair kp = rsa_generate(256, rng);
  const std::vector<u8> msg = {'s', 'e', 's', 's', 'i', 'o', 'n', 'k'};
  auto ct = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(ct.ok()) << ct.status().to_string();
  EXPECT_EQ(ct->size(), kp.pub.modulus_bytes());
  auto pt = rsa_decrypt(kp.priv, *ct);
  ASSERT_TRUE(pt.ok()) << pt.status().to_string();
  EXPECT_EQ(*pt, msg);
}

TEST(Rsa, PaddingIsRandomized) {
  common::Xorshift64 rng(102);
  const RsaKeyPair kp = rsa_generate(256, rng);
  const std::vector<u8> msg = {1, 2, 3};
  auto c1 = rsa_encrypt(kp.pub, msg, rng);
  auto c2 = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(*c1, *c2);
}

TEST(Rsa, RejectsOversizeMessage) {
  common::Xorshift64 rng(103);
  const RsaKeyPair kp = rsa_generate(256, rng);
  std::vector<u8> msg(kp.pub.modulus_bytes() - 10, 0x41);
  EXPECT_FALSE(rsa_encrypt(kp.pub, msg, rng).ok());
}

TEST(Rsa, WrongKeyFailsCleanly) {
  common::Xorshift64 rng(104);
  const RsaKeyPair kp1 = rsa_generate(256, rng);
  const RsaKeyPair kp2 = rsa_generate(256, rng);
  const std::vector<u8> msg = {9, 9, 9};
  auto ct = rsa_encrypt(kp1.pub, msg, rng);
  ASSERT_TRUE(ct.ok());
  auto pt = rsa_decrypt(kp2.priv, *ct);
  // Either explicit padding failure or garbage != msg; both acceptable,
  // but it must not crash and must not return the plaintext.
  if (pt.ok()) {
    EXPECT_NE(*pt, msg);
  }
}

TEST(Rsa, TamperedCiphertextRejectedOrGarbage) {
  common::Xorshift64 rng(105);
  const RsaKeyPair kp = rsa_generate(256, rng);
  const std::vector<u8> msg = {7, 7, 7, 7};
  auto ct = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(ct.ok());
  (*ct)[5] ^= 0x80;
  auto pt = rsa_decrypt(kp.priv, *ct);
  if (pt.ok()) {
    EXPECT_NE(*pt, msg);
  }
}

// rsa_generate output recorded from the bit-serial BigNum that preceded
// the word-level kernels. `next` is the PRNG's next draw after generation,
// so the pin covers how many values key generation consumed, not only what
// it produced: every seeded artifact downstream depends on both.
struct PinnedKey {
  u64 seed;
  std::size_t bits;
  const char* n;
  const char* d;
  u64 next;
};

constexpr PinnedKey kPinnedKeys[] = {
    {1, 256, "753022c30d05820fa19fd98660b08b9f19400ec518aa31ee3bcdf22ba67d1f0b",
     "2652af8b89de9b41f1610d09dce4df439bfe34240d58d8a8a75eace0ad049a01",
     14412644477054272666ull},
    {1, 512,
     "79f6bcd4dbf85f81862dc7ecb71fad445c5d280790b9631a2169c95dbdc3aeea7000c64a"
     "edbf06482480f7a8b1d2d238e09521ac951a9a823b10cce7d2a7923f",
     "4915400bf11000f2d55b838c662336295b8b7adc25ade1239c580e90fc9050b4551a8b26"
     "57f25dec198e36879464655cc3991f5b03066224247201db6d07c581",
     3423216047283116374ull},
    {1, 768,
     "957d47de39b2ce85d47f472d8ee557ada65ef20f6d3414cb739e6ddb10cb749f1a4b5694"
     "56685004aa5eb0a51cadfae480a3ed250e187199c8653d014ad66934e8046ef1bb60fbfb"
     "d22785b0601895736c67e0f52f4c1302d950f97f61fb1459",
     "1d3cdd9b9749639f454a878f5f8d77b29d01a0f267777241c0a151f730b7ba5d8bf50440"
     "0b0e67e821b2577653bfab7c4d2acbf9e4cce4701d0b8c354ec5f1d2b801fdf7c532d8cc"
     "9110b8513e990bca420cd194fa56fdb1f36e44aa9bf6f189",
     3300802705385776275ull},
    {2, 256, "895eb953e73e87441047583ff80beec103110a2e41726ad216191374e5c1137d",
     "66c390fade7c1d6ee28aaccf35fd9f3e698947c629406c268495ab1a3372e3b5",
     13508120609189352305ull},
    {2, 512,
     "c856945846552c72b034aa4d0b349e055c28505e1aa0a22db60702f5e9e7d8aa05e2ad81"
     "5c301b7ce0e45d5852faf6089964bb86890863404d31ba292aca2189",
     "341d1189c501f306028030acc9f56e05c6eb55bca500942f7fe2630ac545e23e21fc5bbc"
     "438d802b0dbd4b9a90fa324ea2f9d76cfceec0ffb842e6f23f896181",
     8483041857025135245ull},
    {2, 768,
     "937ab6035ccc35f727710d5fb74bd4bc9d70b770faf184309e64630fc524955f41bc995d"
     "0aa55d9d8e3661825e5354842351d87860ffbc671615029bb23b60b9e4d7f4a12973c9e9"
     "31bc72d1ff5ce1924fd16780f68dcbe833b62ca1abd54991",
     "69e951375ef844b526fd1866a9c2ea973dd5c9d7784fe3e7ea881b6022eb1fde95ddf4a1"
     "8dd8ae3f4cf71ed5ba19cbf22dec59d2d3355957f34f08487c0bdc4ba16914f72961f245"
     "ae06c045d8c31b2fcca27e6d3be0729aa3b6a7265761e401",
     16414578848537572340ull},
    {3, 256, "8a1e442941cf32face4857d0efad94a0bd8fafa39d5760b3ad2d4b00ff61a6b1",
     "821ca50560b37a48ff0ef37b266e94f5b6b329432f847906254b6973788f3d09",
     11402827437177565937ull},
    {3, 512,
     "6069968cda04509df05282128e99fa328fa111fe4fb26f9725dab794c7009a9431ec5d8b"
     "b843ea6058a51168dff570044c6ee3d4a014b02eadb89169a498a0e5",
     "4d38c54913e698dba7fdae094706b58b81d7351e489f5719ed4bfdf6c05e0f70dfcf3caa"
     "ecdabf61ee21ce80a8cc0d3feb3a39df1b3aa7a9800d45ff9bd40b81",
     2746844002812194323ull},
    {3, 768,
     "93a069ff16999040dadf2c79f67e436db3e67f6810912bf53fc877dfd55ce24044641e72"
     "fa6b1e2eb8fde0804786b8476f4ade80d3a867d305e793bf7fafe0cb9dcfaf8a96bfc488"
     "8e5050123aec006064e8c7b6a96fa9273608cf51766a5701",
     "8f5ccd12e843a10f1a7e7896c885bdbd9f634c7f26f79414cb2847219bf663d1bd98ece9"
     "03bf5ac44cea5f46b42f646c9f52d2fe46f8e0119ed7268206d70012fa3955f95b6f1023"
     "e00faa8a7b9f8eeba22f7311001e4cf373d62f757b95c401",
     6748388428902590724ull},
};

TEST(Rsa, KeyGenerationReproducesPinnedKeys) {
  for (const PinnedKey& pin : kPinnedKeys) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed) + ", " +
                 std::to_string(pin.bits) + " bits");
    common::Xorshift64 rng(pin.seed);
    const RsaKeyPair kp = rsa_generate(pin.bits, rng);
    EXPECT_EQ(kp.pub.n.to_hex(), pin.n);
    EXPECT_EQ(kp.priv.d.to_hex(), pin.d);
    EXPECT_EQ(rng.next(), pin.next);
    // The CRT form describes the same key.
    const RsaPrivateKey& k = kp.priv;
    EXPECT_EQ(k.p * k.q, k.n);
    EXPECT_EQ(k.dP, k.d.mod(k.p - BigNum(1)));
    EXPECT_EQ(k.dQ, k.d.mod(k.q - BigNum(1)));
    EXPECT_EQ((k.qInv * k.q).mod(k.p), BigNum(1));
  }
}

TEST(Rsa, CrtPrivateOperationMatchesReference) {
  common::Xorshift64 rng(0xC47);
  for (int i = 0; i < 64; ++i) {
    const std::size_t bits = 96 + 32 * static_cast<std::size_t>(i % 6);
    const RsaKeyPair kp = rsa_generate(bits, rng);
    SCOPED_TRACE("key " + std::to_string(i) + ": n=" + kp.pub.n.to_hex());
    const BigNum& n = kp.pub.n;
    // The extremes of [0, n) plus one uniform ciphertext per key.
    for (const BigNum& c : {BigNum(0), BigNum(1), n - BigNum(1),
                            BigNum::random_below(n, rng)}) {
      const auto m = rsa_private(kp.priv, c);
      ASSERT_TRUE(m.ok()) << m.status().to_string();
      EXPECT_EQ(*m, ref::modexp(c, kp.priv.d, n)) << "c=" << c.to_hex();
      EXPECT_EQ(m->modexp(kp.pub.e, n), c);
    }
  }
}

TEST(Rsa, PrivateOperationRejectsOutOfRangeAndKeysWithoutCrtForm) {
  common::Xorshift64 rng(106);
  const RsaKeyPair kp = rsa_generate(256, rng);
  EXPECT_EQ(rsa_private(kp.priv, kp.pub.n).status().code(),
            common::ErrorCode::kInvalidArgument);
  const RsaPrivateKey bare{kp.priv.n, kp.priv.d, {}, {}, {}, {}, {}};
  EXPECT_EQ(rsa_private(bare, BigNum(2)).status().code(),
            common::ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace rmc::crypto

#include "crypto/rsa.h"

namespace rmc::crypto {

using common::ErrorCode;
using common::Result;
using common::Status;

RsaKeyPair rsa_generate(std::size_t bits, common::Xorshift64& rng) {
  const BigNum e(65537);
  // A round is redrawn only when p == q or e divides p - 1 or q - 1, about
  // 1 in 33,000 rounds at real widths. 64 rounds fail only when this width
  // has no such key (4 bits: p = q = 3) or the arithmetic is broken.
  for (int round = 0; round < 64; ++round) {
    const BigNum p = BigNum::generate_prime(bits / 2, rng);
    const BigNum q = BigNum::generate_prime(bits - bits / 2, rng);
    if (p == q) continue;
    const BigNum n = p * q;
    const BigNum phi = (p - BigNum(1)) * (q - BigNum(1));
    if (BigNum::gcd(e, phi) != BigNum(1)) continue;
    auto d = BigNum::modinverse(e, phi);
    if (!d.ok()) continue;
    auto q_inv = BigNum::modinverse(q, p);
    if (!q_inv.ok()) continue;
    RsaKeyPair kp;
    kp.pub = RsaPublicKey{n, e};
    kp.priv = RsaPrivateKey{n, *d, p, q, d->mod(p - BigNum(1)),
                            d->mod(q - BigNum(1)), *q_inv};
    return kp;
  }
  fail_stop("rsa_generate found no key pair in 64 rounds");
}

Result<std::vector<u8>> rsa_encrypt(const RsaPublicKey& key,
                                    std::span<const u8> message,
                                    common::Xorshift64& rng) {
  const std::size_t k = key.modulus_bytes();
  if (message.size() + 11 > k) {
    return Status(ErrorCode::kInvalidArgument, "message too long for modulus");
  }
  // EB = 00 || 02 || nonzero-random-pad || 00 || message
  std::vector<u8> eb;
  eb.reserve(k);
  eb.push_back(0x00);
  eb.push_back(0x02);
  const std::size_t pad_len = k - 3 - message.size();
  for (std::size_t i = 0; i < pad_len; ++i) {
    u8 b = 0;
    while (b == 0) b = rng.next_u8();
    eb.push_back(b);
  }
  eb.push_back(0x00);
  eb.insert(eb.end(), message.begin(), message.end());

  const BigNum m = BigNum::from_bytes(eb);
  const BigNum c = m.modexp(key.e, key.n);
  return c.to_bytes_padded(k);
}

Result<BigNum> rsa_private(const RsaPrivateKey& key, const BigNum& c) {
  if (c >= key.n) {
    return Status(ErrorCode::kInvalidArgument, "ciphertext out of range");
  }
  if (key.p.is_zero() || key.q.is_zero()) {
    return Status(ErrorCode::kFailedPrecondition, "private key lacks CRT form");
  }
  // Two half-size ladders, recombined by Garner's formula:
  // m = m2 + q * (qInv * (m1 - m2) mod p).
  const BigNum m1 = c.modexp(key.dP, key.p);
  const BigNum m2 = c.modexp(key.dQ, key.q);
  const BigNum m2p = m2.mod(key.p);
  const BigNum diff = m1 >= m2p ? m1 - m2p : m1 + key.p - m2p;
  return m2 + key.q * (key.qInv * diff).mod(key.p);
}

Result<std::vector<u8>> rsa_decrypt(const RsaPrivateKey& key,
                                    std::span<const u8> ciphertext) {
  const std::size_t k = key.modulus_bytes();
  if (ciphertext.size() != k) {
    return Status(ErrorCode::kInvalidArgument, "ciphertext length mismatch");
  }
  auto m = rsa_private(key, BigNum::from_bytes(ciphertext));
  if (!m.ok()) return m.status();
  auto eb_r = m->to_bytes_padded(k);
  if (!eb_r.ok()) return eb_r.status();
  const std::vector<u8>& eb = *eb_r;
  if (eb.size() < 11 || eb[0] != 0x00 || eb[1] != 0x02) {
    return Status(ErrorCode::kDataLoss, "bad PKCS#1 block type");
  }
  std::size_t sep = 2;
  while (sep < eb.size() && eb[sep] != 0x00) ++sep;
  if (sep < 10 || sep == eb.size()) {
    return Status(ErrorCode::kDataLoss, "bad PKCS#1 padding");
  }
  return std::vector<u8>(eb.begin() + sep + 1, eb.end());
}

}  // namespace rmc::crypto

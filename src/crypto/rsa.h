// RSA key exchange — present in the original issl, dropped from the embedded
// port ("we only ported the AES cipher ... the RSA algorithm uses a
// difficult-to-port bignum package", paper §2). The Unix-side issl build
// uses this; the embedded issl configuration compiles it out (see
// issl/config.h) exactly as the port did.
#pragma once

#include <vector>

#include "common/prng.h"
#include "common/status.h"
#include "crypto/bignum.h"

namespace rmc::crypto {

struct RsaPublicKey {
  BigNum n;  // modulus
  BigNum e;  // public exponent
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

struct RsaPrivateKey {
  BigNum n;
  BigNum d;  // private exponent (prices the board's modexp, see issl)
  // CRT form of d: the private operation runs two half-size ladders,
  // m1 = c^dP mod p and m2 = c^dQ mod q, and recombines them (Garner).
  BigNum p, q;   // prime factors, n = p * q
  BigNum dP;     // d mod (p - 1)
  BigNum dQ;     // d mod (q - 1)
  BigNum qInv;   // q^-1 mod p
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generate a key pair with a modulus of roughly `bits` bits (e = 65537).
/// Intended for tests/benches (<= 1024 bits); not hardened key generation.
RsaKeyPair rsa_generate(std::size_t bits, common::Xorshift64& rng);

/// PKCS#1 v1.5-style type-2 encryption: message must be at most
/// modulus_bytes - 11. Output is exactly modulus_bytes long.
common::Result<std::vector<u8>> rsa_encrypt(const RsaPublicKey& key,
                                            std::span<const u8> message,
                                            common::Xorshift64& rng);

/// The raw private operation c^d mod n, computed by CRT from the key's
/// p, q, dP, dQ and qInv. Fails when c >= n or the key lacks its CRT form.
common::Result<BigNum> rsa_private(const RsaPrivateKey& key, const BigNum& c);

/// Inverse of rsa_encrypt; fails on bad padding (wrong key / corrupt data).
common::Result<std::vector<u8>> rsa_decrypt(const RsaPrivateKey& key,
                                            std::span<const u8> ciphertext);

}  // namespace rmc::crypto

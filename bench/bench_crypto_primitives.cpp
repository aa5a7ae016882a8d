// E8 (supporting) — host-side primitive costs, google-benchmark.
//
// The workstation-side numbers behind the system: reference vs T-table AES
// (the optimization gap *tuned C* buys on a 32-bit host, for contrast with
// E1's 8-bit story; T-table decryption too, which every record open runs),
// SHA-1/HMAC, the record layer, and the bignum/RSA operations whose cost got
// RSA dropped from the port.
#include <benchmark/benchmark.h>

#include "common/prng.h"
#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/modes.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "issl/record.h"

using namespace rmc;
using common::u8;

namespace {

std::vector<u8> random_bytes(std::size_t n, common::u64 seed) {
  common::Xorshift64 rng(seed);
  std::vector<u8> v(n);
  rng.fill(v);
  return v;
}

void BM_AesReferenceEncrypt(benchmark::State& state) {
  const auto key = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  auto aes = crypto::Aes::create(key);
  std::array<u8, 16> pt{}, ct{};
  for (auto _ : state) {
    aes->encrypt_block(pt, ct);
    benchmark::DoNotOptimize(ct);
    pt[0] = ct[0];  // chain to defeat dead-code elimination
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesReferenceEncrypt)->Arg(16)->Arg(24)->Arg(32);

void BM_AesFastEncrypt(benchmark::State& state) {
  const auto key = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  auto aes = crypto::AesFast::create(key);
  std::array<u8, 16> pt{}, ct{};
  for (auto _ : state) {
    aes->encrypt_block(pt, ct);
    benchmark::DoNotOptimize(ct);
    pt[0] = ct[0];
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesFastEncrypt)->Arg(16)->Arg(24)->Arg(32);

void BM_AesFastDecrypt(benchmark::State& state) {
  const auto key = random_bytes(static_cast<std::size_t>(state.range(0)), 20);
  auto aes = crypto::AesFast::create(key);
  std::array<u8, 16> ct{}, pt{};
  for (auto _ : state) {
    aes->decrypt_block(ct, pt);
    benchmark::DoNotOptimize(pt);
    ct[0] = pt[0];
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesFastDecrypt)->Arg(16)->Arg(24)->Arg(32);

void BM_AesKeyExpansion(benchmark::State& state) {
  auto key = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto aes = crypto::Aes::create(key);
    benchmark::DoNotOptimize(aes);
    key[0] ^= 1;
  }
}
BENCHMARK(BM_AesKeyExpansion)->Arg(16)->Arg(32);

void BM_CbcEncrypt(benchmark::State& state) {
  const auto key = random_bytes(16, 4);
  const auto iv = random_bytes(16, 5);
  auto aes = crypto::AesFast::create(key);
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 6);
  std::vector<u8> ct(data.size());
  for (auto _ : state) {
    crypto::cbc_encrypt(*aes, iv, data, ct);
    benchmark::DoNotOptimize(ct.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CbcEncrypt)->Arg(256)->Arg(4096);

void BM_Sha1(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    auto d = crypto::Sha1::digest(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha1(benchmark::State& state) {
  const auto key = random_bytes(20, 8);
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    auto d = crypto::hmac_sha1(key, data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha1)->Arg(64)->Arg(1024);

void BM_RecordSealOpen(benchmark::State& state) {
  common::Xorshift64 rng(10);
  issl::RecordCodec sender(rng), receiver(rng);
  issl::DirectionKeys k1, k2;
  k1.aes_key = random_bytes(16, 11);
  k2.aes_key = random_bytes(16, 12);
  (void)sender.activate_keys(k1, k2);
  (void)receiver.activate_keys(k2, k1);
  const auto payload =
      random_bytes(static_cast<std::size_t>(state.range(0)), 13);
  for (auto _ : state) {
    auto wire = sender.seal(issl::RecordType::kApplicationData, payload);
    (void)receiver.feed(*wire);
    auto rec = receiver.pop();
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordSealOpen)->Arg(64)->Arg(1024)->Arg(8192);

void BM_BigNumMul(benchmark::State& state) {
  common::Xorshift64 rng(14);
  const auto a = crypto::BigNum::random_bits(
      static_cast<std::size_t>(state.range(0)), rng);
  const auto b = crypto::BigNum::random_bits(
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto c = a * b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BigNumMul)->Arg(256)->Arg(512)->Arg(1024);

void BM_BigNumModExp(benchmark::State& state) {
  common::Xorshift64 rng(15);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const auto base = crypto::BigNum::random_bits(bits, rng);
  const auto exp = crypto::BigNum::random_bits(17, rng);  // e ~ 65537 size
  // Odd, like every modulus RSA and Miller-Rabin hand to modexp (and as
  // its Montgomery form requires).
  auto mod = crypto::BigNum::random_bits(bits, rng);
  if (!mod.is_odd()) mod = mod + crypto::BigNum(1);
  for (auto _ : state) {
    auto r = base.modexp(exp, mod);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BigNumModExp)->Arg(256)->Arg(512);

void BM_RsaEncrypt(benchmark::State& state) {
  common::Xorshift64 rng(16);
  const auto kp =
      crypto::rsa_generate(static_cast<std::size_t>(state.range(0)), rng);
  const auto msg = random_bytes(8, 17);
  for (auto _ : state) {
    auto ct = crypto::rsa_encrypt(kp.pub, msg, rng);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_RsaEncrypt)->Arg(256)->Arg(512);

void BM_RsaDecrypt(benchmark::State& state) {
  common::Xorshift64 rng(18);
  const auto kp =
      crypto::rsa_generate(static_cast<std::size_t>(state.range(0)), rng);
  const auto msg = random_bytes(8, 19);
  const auto ct = crypto::rsa_encrypt(kp.pub, msg, rng);
  for (auto _ : state) {
    auto pt = crypto::rsa_decrypt(kp.priv, *ct);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_RsaDecrypt)->Arg(256)->Arg(512);

// The CRT private operation on a fresh ciphertext each iteration, as a
// server meets them. BM_RsaDecrypt repeats one ciphertext, so the branch
// predictor can learn its whole pass; the timed draw is one random_below.
void BM_RsaPrivate(benchmark::State& state) {
  common::Xorshift64 rng(21);
  const auto kp =
      crypto::rsa_generate(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto m = crypto::rsa_private(kp.priv,
                                 crypto::BigNum::random_below(kp.pub.n, rng));
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_RsaPrivate)->Arg(256)->Arg(512);

}  // namespace

BENCHMARK_MAIN();

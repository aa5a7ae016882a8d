// Cross-validation of the paper's two AES implementations (E1's subjects):
//
//   asm/aes_hand.asm  (hand-optimized Rabbit assembly)
//   dc/aes.dc         (MiniDynC "direct C port", several knob settings)
//
// against the host C++ reference (itself pinned by FIPS-197 vectors in
// test_crypto.cc). Three independently-written implementations must agree
// byte-for-byte, which pins the CPU simulator, assembler, and compiler in
// one shot. Also asserts the performance *ordering* the paper reports, and
// runs every real image (the hand assembly and six dcc builds) under both
// dispatch modes, with and without a CycleProfiler attached.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/prng.h"
#include "crypto/aes.h"
#include "services/aes_port.h"
#include "telemetry/profiler.h"

namespace rmc::services {
namespace {

using common::from_hex;
using common::to_hex;
using common::u64;
using common::u8;

AesOnBoard make(AesImpl impl, const dcc::CodegenOptions& opts = {}) {
  auto ab = AesOnBoard::create_from_repo(impl, RMC_REPO_ROOT, opts);
  EXPECT_TRUE(ab.ok()) << ab.status().to_string();
  return std::move(*ab);
}

void expect_fips_vector(AesOnBoard& aes) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  ASSERT_TRUE(aes.set_key(key).ok());
  std::array<u8, 16> ct{};
  auto cycles = aes.encrypt(pt, ct);
  ASSERT_TRUE(cycles.ok()) << cycles.status().to_string();
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesPort, HandAssemblyMatchesFips197) {
  auto aes = make(AesImpl::kHandAssembly);
  expect_fips_vector(aes);
}

TEST(AesPort, CompiledCDebugBuildMatchesFips197) {
  auto aes = make(AesImpl::kCompiledC, dcc::CodegenOptions::debug_defaults());
  expect_fips_vector(aes);
}

TEST(AesPort, CompiledCOptimizedBuildMatchesFips197) {
  auto aes =
      make(AesImpl::kCompiledC, dcc::CodegenOptions::all_optimizations());
  expect_fips_vector(aes);
}

TEST(AesPort, AllThreeImplementationsAgreeOnRandomKeys) {
  auto hand = make(AesImpl::kHandAssembly);
  auto compiled = make(AesImpl::kCompiledC,
                       dcc::CodegenOptions::all_optimizations());
  common::Xorshift64 rng(2003);  // DATE 2003
  for (int trial = 0; trial < 8; ++trial) {
    std::array<u8, 16> key{}, pt{}, host_ct{}, hand_ct{}, c_ct{};
    rng.fill(key);
    rng.fill(pt);
    auto host = crypto::Aes::create(key);
    ASSERT_TRUE(host.ok());
    host->encrypt_block(pt, host_ct);
    ASSERT_TRUE(hand.set_key(key).ok());
    ASSERT_TRUE(hand.encrypt(pt, hand_ct).ok());
    ASSERT_TRUE(compiled.set_key(key).ok());
    ASSERT_TRUE(compiled.encrypt(pt, c_ct).ok());
    EXPECT_EQ(to_hex(hand_ct), to_hex(host_ct)) << "trial " << trial;
    EXPECT_EQ(to_hex(c_ct), to_hex(host_ct)) << "trial " << trial;
  }
}

TEST(AesPort, RekeyingChangesCiphertext) {
  auto hand = make(AesImpl::kHandAssembly);
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  std::array<u8, 16> ct1{}, ct2{};
  ASSERT_TRUE(hand.set_key(from_hex("000102030405060708090a0b0c0d0e0f")).ok());
  ASSERT_TRUE(hand.encrypt(pt, ct1).ok());
  ASSERT_TRUE(hand.set_key(from_hex("ffeeddccbbaa99887766554433221100")).ok());
  ASSERT_TRUE(hand.encrypt(pt, ct2).ok());
  EXPECT_NE(to_hex(ct1), to_hex(ct2));
}

// ---------------------------------------------------------------------------
// The paper's performance ordering (exact factors are measured in bench/)
// ---------------------------------------------------------------------------

u64 encrypt_cycles(AesOnBoard& aes) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto pt = from_hex("3243f6a8885a308d313198a2e0370734");
  EXPECT_TRUE(aes.set_key(key).ok());
  std::array<u8, 16> ct{};
  auto cycles = aes.encrypt(pt, ct);
  EXPECT_TRUE(cycles.ok());
  return cycles.ok() ? *cycles : 0;
}

TEST(AesPort, AssemblyAtLeastAnOrderOfMagnitudeFasterThanDebugC) {
  auto hand = make(AesImpl::kHandAssembly);
  auto compiled = make(AesImpl::kCompiledC,
                       dcc::CodegenOptions::debug_defaults());
  const u64 hand_cycles = encrypt_cycles(hand);
  const u64 c_cycles = encrypt_cycles(compiled);
  EXPECT_GE(c_cycles, 10 * hand_cycles)
      << "hand=" << hand_cycles << " c=" << c_cycles;
}

TEST(AesPort, OptimizedCStillMuchSlowerThanAssembly) {
  // §6: "this only improved run time by perhaps 20%" — optimization does not
  // close the gap.
  auto hand = make(AesImpl::kHandAssembly);
  auto optimized = make(AesImpl::kCompiledC,
                        dcc::CodegenOptions::all_optimizations());
  const u64 hand_cycles = encrypt_cycles(hand);
  const u64 c_cycles = encrypt_cycles(optimized);
  EXPECT_GE(c_cycles, 5 * hand_cycles)
      << "hand=" << hand_cycles << " c=" << c_cycles;
}

TEST(AesPort, OptimizationKnobsImproveButModestly) {
  auto debug_build = make(AesImpl::kCompiledC,
                          dcc::CodegenOptions::debug_defaults());
  auto opt_build = make(AesImpl::kCompiledC,
                        dcc::CodegenOptions::all_optimizations());
  const u64 debug_cycles = encrypt_cycles(debug_build);
  const u64 opt_cycles = encrypt_cycles(opt_build);
  EXPECT_LT(opt_cycles, debug_cycles);
  // The knobs must not magically fix the compiled code (paper: ~20%; we
  // allow up to 60% improvement before calling the model broken).
  EXPECT_GT(opt_cycles, debug_cycles * 2 / 5)
      << "debug=" << debug_cycles << " opt=" << opt_cycles;
}

TEST(AesPort, DebugBuildTrapsFireDuringEncrypt) {
  auto compiled = make(AesImpl::kCompiledC,
                       dcc::CodegenOptions::debug_defaults());
  const u64 before = compiled.debug_traps();
  encrypt_cycles(compiled);
  EXPECT_GT(compiled.debug_traps(), before);

  auto nodebug = make(AesImpl::kCompiledC,
                      dcc::CodegenOptions::all_optimizations());
  encrypt_cycles(nodebug);
  EXPECT_EQ(nodebug.debug_traps(), 0u);
}

TEST(AesPort, ImageSizesReported) {
  auto hand = make(AesImpl::kHandAssembly);
  auto compiled = make(AesImpl::kCompiledC,
                       dcc::CodegenOptions::debug_defaults());
  EXPECT_GT(hand.image_bytes(), 200u);
  EXPECT_GT(compiled.image_bytes(), 200u);
}

// create() resolves every entry point and buffer up front, so an image
// without aes_encrypt fails there rather than on the first block.
TEST(AesPort, MissingSymbolFailsCreate) {
  const std::string source = R"(
        org 65c0h
key_buf: ds 16
in_buf:  ds 16
out_buf: ds 16
        org 0100h
aes_init:
        ret
aes_set_key:
        ret
)";
  auto ab = AesOnBoard::create(AesImpl::kHandAssembly, source);
  ASSERT_FALSE(ab.ok());
  EXPECT_EQ(ab.status().code(), common::ErrorCode::kNotFound);
  EXPECT_NE(ab.status().to_string().find("aes_encrypt"), std::string::npos)
      << ab.status().to_string();
}

TEST(AesPort, ErrorsOnBadBufferSizes) {
  auto hand = make(AesImpl::kHandAssembly);
  std::array<u8, 8> short_key{};
  EXPECT_FALSE(hand.set_key(short_key).ok());
  std::array<u8, 16> in{};
  std::array<u8, 8> out{};
  EXPECT_FALSE(hand.encrypt(in, out).ok());
}

// ---------------------------------------------------------------------------
// The real images under both dispatch modes
// ---------------------------------------------------------------------------

struct ImageCase {
  const char* name;
  AesImpl impl;
  dcc::CodegenOptions opts;
};

// gtest would print the case as its raw bytes (the name pointer and the
// padding), which change from one process to the next and so renamed the
// listed tests on every build.
void PrintTo(const ImageCase& c, std::ostream* os) { *os << c.name; }

// The hand assembly, E1's debug C port and E2's five dcc settings.
std::vector<ImageCase> image_cases() {
  const dcc::CodegenOptions base = dcc::CodegenOptions::debug_defaults();
  dcc::CodegenOptions root = base;
  root.xmem_tables = false;
  dcc::CodegenOptions unroll = base;
  unroll.unroll_loops = true;
  dcc::CodegenOptions nodebug = base;
  nodebug.debug_hooks = false;
  dcc::CodegenOptions fold = base;
  fold.fold_constants = true;
  fold.peephole = true;
  return {{"hand_assembly", AesImpl::kHandAssembly, {}},
          {"c_debug", AesImpl::kCompiledC, base},
          {"root_memory", AesImpl::kCompiledC, root},
          {"unroll", AesImpl::kCompiledC, unroll},
          {"nodebug", AesImpl::kCompiledC, nodebug},
          {"fold_peephole", AesImpl::kCompiledC, fold},
          {"all", AesImpl::kCompiledC,
           dcc::CodegenOptions::all_optimizations()}};
}

/// Per-region {cycles, steps} of one profiler phase, keyed by region name.
using PhaseProfile = std::map<std::string, std::pair<u64, u64>>;

struct ImageRun {
  std::vector<std::string> ciphertexts;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 debug_traps = 0;
  PhaseProfile keyexp;
  PhaseProfile encrypt;
};

PhaseProfile phase_profile(const telemetry::CycleProfiler& prof,
                           const std::string& phase) {
  PhaseProfile out;
  for (const telemetry::ProfileEntry& e : prof.flat(phase)) {
    out[e.name] = {e.cycles, e.steps};
  }
  return out;
}

/// Three seeded keys, three blocks each, on one board running `mode`, with
/// `prof` (if any) attached before aes_init and switched between a key
/// expansion and an encryption phase as in E2. Every ciphertext is checked
/// against the host AES.
ImageRun run_image(const ImageCase& c, rabbit::DispatchMode mode,
                   telemetry::CycleProfiler* prof) {
  ImageRun run;
  auto aes = AesOnBoard::create_from_repo(
      c.impl, RMC_REPO_ROOT, c.opts,
      [&](rabbit::Board& b, const rabbit::Image& img) {
        b.cpu().set_dispatch(mode);
        if (prof != nullptr) prof->attach(b.cpu(), img);
      });
  EXPECT_TRUE(aes.ok()) << aes.status().to_string();
  if (!aes.ok()) return run;
  common::Xorshift64 rng(2003);
  for (int k = 0; k < 3; ++k) {
    std::array<u8, 16> key{};
    rng.fill(key);
    auto host = crypto::Aes::create(key);
    EXPECT_TRUE(host.ok());
    if (prof != nullptr) prof->set_phase("keyexp");
    EXPECT_TRUE(aes->set_key(key).ok());
    if (prof != nullptr) prof->set_phase("encrypt");
    for (int i = 0; i < 3; ++i) {
      std::array<u8, 16> pt{}, ct{}, host_ct{};
      rng.fill(pt);
      EXPECT_TRUE(aes->encrypt(pt, ct).ok());
      host->encrypt_block(pt, host_ct);
      EXPECT_EQ(to_hex(ct), to_hex(host_ct)) << "key " << k << " block " << i;
      run.ciphertexts.push_back(to_hex(ct));
    }
  }
  const rabbit::Cpu& cpu = aes->board().cpu();
  run.cycles = cpu.cycles();
  run.instructions = cpu.instructions_retired();
  run.debug_traps = cpu.debug_traps();
  if (prof != nullptr) {
    EXPECT_EQ(prof->total_cycles(), run.cycles);
    run.keyexp = phase_profile(*prof, "keyexp");
    run.encrypt = phase_profile(*prof, "encrypt");
  }
  return run;
}

void expect_same_run(const ImageRun& fast, const ImageRun& legacy) {
  EXPECT_EQ(fast.ciphertexts, legacy.ciphertexts);
  EXPECT_EQ(fast.cycles, legacy.cycles);
  EXPECT_EQ(fast.instructions, legacy.instructions);
  EXPECT_EQ(fast.debug_traps, legacy.debug_traps);
  EXPECT_EQ(fast.keyexp, legacy.keyexp);
  EXPECT_EQ(fast.encrypt, legacy.encrypt);
}

class ImageDispatch : public ::testing::TestWithParam<ImageCase> {};

// The unobserved fast loop against the legacy step().
TEST_P(ImageDispatch, FastMatchesLegacy) {
  const ImageRun fast = run_image(GetParam(), rabbit::DispatchMode::kFast,
                                  nullptr);
  const ImageRun legacy = run_image(GetParam(),
                                    rabbit::DispatchMode::kLegacy, nullptr);
  EXPECT_EQ(fast.ciphertexts.size(), 9u);
  expect_same_run(fast, legacy);
}

// The observed fast loop (StepSink attribution) against the legacy step():
// identical per-region cycle and step totals in both phases.
TEST_P(ImageDispatch, ProfiledFastMatchesLegacy) {
  telemetry::CycleProfiler fast_prof, legacy_prof;
  const ImageRun fast = run_image(GetParam(), rabbit::DispatchMode::kFast,
                                  &fast_prof);
  const ImageRun legacy = run_image(GetParam(),
                                    rabbit::DispatchMode::kLegacy,
                                    &legacy_prof);
  EXPECT_FALSE(fast.encrypt.empty());
  expect_same_run(fast, legacy);
}

INSTANTIATE_TEST_SUITE_P(
    RealImages, ImageDispatch, ::testing::ValuesIn(image_cases()),
    [](const ::testing::TestParamInfo<ImageCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rmc::services

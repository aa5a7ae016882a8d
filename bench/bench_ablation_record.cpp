// Ablation — where the secure path's cycles actually go on this device.
//
// DESIGN.md commits the record layer to AES-CBC + HMAC-SHA1 and the E5 cost
// model to measured kernel costs; this bench ablates that composition:
// for each record size, the per-record cycle budget is decomposed into
//   cipher      AES-CBC over payload || MAC, padded
//   mac         HMAC-SHA1 over seq||type||payload
//   key sched   amortized per-record share of the session key expansion
// under both kernel generations (direct C port vs hand assembly, both
// measured on the simulated board; asm SHA-1 scaled by the measured E1
// ratio, see bench/soak.h). The block counts are what a RecordCodec counts
// sealing one record of each size. The output answers two design
// questions: (1) is MAC-then-encrypt affordable once AES is in assembly?
// (2) which kernel should the *next* porting hour go to?
#include <array>
#include <cstdio>
#include <vector>

#include "soak.h"

using namespace rmc;
using bench::BoardKernels;
using common::u64;
using common::u8;

namespace {

constexpr std::size_t kPayloads[] = {16, 64, 256, 1024, 4096};

void decompose(const char* title, const char* key, const BoardKernels& k,
               std::span<const issl::RecordWork> work,
               bench::JsonReport& report) {
  std::printf("-- %s: AES block %llu cyc, SHA-1 block %llu cyc, key sched "
              "%llu cyc --\n",
              title, static_cast<unsigned long long>(k.aes_block),
              static_cast<unsigned long long>(k.sha_block),
              static_cast<unsigned long long>(k.key_sched));
  std::printf("%10s %12s %12s %12s %8s %8s %10s\n", "payload B", "cipher cyc",
              "mac cyc", "total cyc", "cipher%", "mac%", "ms @30MHz");
  const int kRecordsPerSession = 64;  // amortization base for key schedule
  for (std::size_t i = 0; i < work.size(); ++i) {
    const std::size_t payload = kPayloads[i];
    const u64 cipher = work[i].aes_blocks * k.aes_block;
    const u64 mac = work[i].sha1_blocks * k.sha_block;
    const u64 total = cipher + mac + k.key_sched / kRecordsPerSession;
    std::printf("%10zu %12llu %12llu %12llu %7.0f%% %7.0f%% %10.2f\n",
                payload, static_cast<unsigned long long>(cipher),
                static_cast<unsigned long long>(mac),
                static_cast<unsigned long long>(total),
                100.0 * cipher / total, 100.0 * mac / total,
                total / 30'000.0);
    const std::string row =
        std::string(key) + ".payload_" + std::to_string(payload);
    report.result(row + ".cipher_cycles", cipher);
    report.result(row + ".mac_cycles", mac);
    report.result(row + ".total_cycles", total);
  }
  report.result(std::string(key) + ".aes_block_cycles", k.aes_block);
  report.result(std::string(key) + ".sha_block_cycles", k.sha_block);
  report.result(std::string(key) + ".key_sched_cycles", k.key_sched);
  std::puts("");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);

  std::puts("==================================================================");
  std::puts("Ablation: per-record cycle decomposition of the issl secure path");
  std::puts("==================================================================\n");

  const std::array<u8, 16> zeros{};  // key and block
  const BoardKernels c_port = bench::measure_board_kernels(
      services::AesImpl::kCompiledC, zeros, zeros);
  const BoardKernels asm_all = bench::measure_board_kernels(
      services::AesImpl::kHandAssembly, zeros, zeros);

  // One record of each size, sealed by a keyed codec: the work it counts.
  common::Xorshift64 rng(1);
  issl::RecordCodec codec(rng);
  issl::DirectionKeys keys;
  keys.aes_key.assign(16, 0);
  bench::require(codec.activate_keys(keys, keys), "activate_keys");
  std::vector<issl::RecordWork> work;
  for (const std::size_t payload : kPayloads) {
    const issl::RecordWork before = codec.work();
    bench::require(codec.seal(issl::RecordType::kApplicationData,
                              std::vector<u8>(payload)).status(),
                   "seal");
    work.push_back({0, codec.work().aes_blocks - before.aes_blocks,
                    codec.work().sha1_blocks - before.sha1_blocks});
  }

  bench::JsonReport report("ABLATION");
  decompose("direct C port (every kernel compiled)", "c_port", c_port, work,
            report);
  decompose("assembly treatment (kernels at the measured E1 ratio)", "asm",
            asm_all, work, report);

  std::puts("reading:");
  std::puts(" * in the C port, cipher and MAC split the bill -- porting only");
  std::puts("   one kernel to assembly cannot buy more than ~2x;");
  std::puts(" * after the assembly treatment the split persists at ~1/20th");
  std::puts("   the cost: MAC-then-encrypt stays affordable, and the next");
  std::puts("   optimization hour should go to whichever kernel dominates");
  std::puts("   the row sizes your workload actually sends.");

  report.write(args);
  return 0;
}

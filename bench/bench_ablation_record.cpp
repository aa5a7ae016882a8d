// Ablation — where the secure path's cycles actually go on this device.
//
// DESIGN.md commits the record layer to AES-CBC + HMAC-SHA1 and the E5 cost
// model to measured kernel costs; this bench ablates that composition:
// for each record size, the per-record cycle budget is decomposed into
//   cipher      AES-CBC over padded payload (+IV block)
//   mac         HMAC-SHA1 over seq||type||payload (4 + payload/64 blocks)
//   key sched   amortized per-record share of the session key expansion
// under both kernel generations (direct C port vs hand assembly, both
// measured on the simulated board; asm SHA-1 scaled by the measured E1
// ratio, see bench/soak.h). The output answers two design
// questions: (1) is MAC-then-encrypt affordable once AES is in assembly?
// (2) which kernel should the *next* porting hour go to?
#include <array>
#include <cstdio>

#include "soak.h"

using namespace rmc;
using bench::BoardKernels;
using common::u64;
using common::u8;

namespace {

void decompose(const char* title, const char* key, const BoardKernels& k,
               bench::JsonReport& report) {
  std::printf("-- %s: AES block %llu cyc, SHA-1 block %llu cyc, key sched "
              "%llu cyc --\n",
              title, static_cast<unsigned long long>(k.aes_block),
              static_cast<unsigned long long>(k.sha_block),
              static_cast<unsigned long long>(k.key_sched));
  std::printf("%10s %12s %12s %12s %8s %8s %10s\n", "payload B", "cipher cyc",
              "mac cyc", "total cyc", "cipher%", "mac%", "ms @30MHz");
  const int kRecordsPerSession = 64;  // amortization base for key schedule
  for (const std::size_t payload : {16u, 64u, 256u, 1024u, 4096u}) {
    // CBC blocks: payload + 20 B MAC, PKCS7 padded, + 1 IV block.
    const u64 cbc_blocks = (payload + 20) / 16 + 1 + 1;
    // HMAC blocks: 2 fixed (ipad/opad passes) + message blocks + padding.
    const u64 mac_blocks = 4 + (payload + 9 + 63) / 64;
    const u64 cipher = cbc_blocks * k.aes_block;
    const u64 mac = mac_blocks * k.sha_block;
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

  bench::JsonReport report("ABLATION");
  decompose("direct C port (every kernel compiled)", "c_port", c_port,
            report);
  decompose("assembly treatment (kernels at the measured E1 ratio)", "asm",
            asm_all, report);

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

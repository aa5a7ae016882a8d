// E14 — the paper's question, re-run at today's frontier.
//
// §6 showed hand assembly beating the C port by an order of magnitude and
// the paper stopped there: on a 2003 microcontroller those were the only
// two places crypto could live. The CryptoSRAM / security-processor
// literature (PAPERS.md) gives the modern third answer — a dedicated
// offload engine — so this bench extends E1's asm-vs-C table with an
// "engine" column (the simulated CryptoCell peripheral behind the
// dynk::CryptoDev driver) and then re-measures E5's "SSL costs an order of
// magnitude" claim with the offload in place.
//
// Three parts:
//   1. primitive costs: AES key setup + per-block and HMAC per-64B, for the
//      C port and asm treatment (measured on the simulated board, as in
//      E1/E5) and for the engine (measured through the driver as CPU stall
//      cycles, descriptor + DMA overhead included);
//   2. record-layer gate: the same issl session run under Backend::kC,
//      kAsm, and kEngine must put byte-identical records on the wire and
//      deliver identical plaintexts; the engine must cost >= 5x less per
//      record than the C backend; kEngine on a board with no engine must
//      fall back to kC with — again — identical bytes. FAILING ANY OF
//      THESE EXITS NONZERO.
//   3. the E5 table with the engine column: secure-vs-plain throughput when
//      record crypto is (modeled as) offloaded — does the redirector
//      finally become network-bound?
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "dynk/cryptodev.h"
#include "issl/issl.h"
#include "soak.h"

using namespace rmc;
using common::u64;
using common::u8;

namespace {

using bench::BoardKernels;
using bench::bytes_of;

// ---------------------------------------------------------------------------
// Part 1: primitive costs
// ---------------------------------------------------------------------------

// Engine costs, measured through the driver: CPU stall cycles per op,
// descriptor fetch + DMA + poll-quantum rounding all included — the honest
// "what does the CPU see" number, not the datasheet figure.
BoardKernels measure_engine(rabbit::CryptoCellTiming timing) {
  rabbit::Board board;
  board.attach_cryptocell(timing);
  dynk::CryptoDev dev(board.io(), board.mem());
  if (!dev.available()) {
    std::puts("engine did not answer its probe");
    std::exit(1);
  }
  const std::vector<u8> key(16, 0x42);
  const std::vector<u8> iv(16, 0x17);
  auto stall = [&] { return dev.stall_cycles_total(); };

  // Key load: first op carries the slot load, a repeat op does not.
  u64 before = stall();
  (void)dev.aes_cbc(true, key, iv, std::vector<u8>(16, 1));
  const u64 first_op = stall() - before;
  before = stall();
  (void)dev.aes_cbc(true, key, iv, std::vector<u8>(16, 1));
  const u64 one_block_op = stall() - before;

  BoardKernels cost;
  cost.key_sched = first_op - one_block_op;
  // Marginal block cost over a 33-block op (amortizes descriptor + poll
  // rounding out of the per-block figure).
  before = stall();
  (void)dev.aes_cbc(true, key, iv, std::vector<u8>(33 * 16, 2));
  const u64 big_op = stall() - before;
  cost.aes_block = (big_op - one_block_op) / 32;

  const std::vector<u8> mac_key(20, 0x33);
  before = stall();
  (void)dev.hmac_sha1(mac_key, std::vector<u8>(64, 3));
  const u64 hmac_small = stall() - before;
  before = stall();
  (void)dev.hmac_sha1(mac_key, std::vector<u8>(33 * 64, 4));
  cost.sha_block = (stall() - before - hmac_small) / 32;
  if (cost.sha_block == 0) cost.sha_block = 1;
  return cost;
}

// ---------------------------------------------------------------------------
// Part 2: record-layer identity + speed gate
// ---------------------------------------------------------------------------

// Two byte queues with wire capture: endpoint A writes into `a2b` (captured),
// reads from `b2a`, and vice versa.
struct DuplexPipe {
  struct End final : public issl::ByteStream {
    std::vector<u8>* out;
    std::vector<u8>* in;
    std::vector<u8>* capture;
    common::Result<std::size_t> write(std::span<const u8> data) override {
      out->insert(out->end(), data.begin(), data.end());
      capture->insert(capture->end(), data.begin(), data.end());
      return data.size();
    }
    common::Result<std::size_t> read(std::span<u8> dst) override {
      if (in->empty()) {
        return common::Status(common::ErrorCode::kUnavailable, "empty");
      }
      const std::size_t n = std::min(dst.size(), in->size());
      std::copy(in->begin(), in->begin() + static_cast<long>(n), dst.begin());
      in->erase(in->begin(), in->begin() + static_cast<long>(n));
      return n;
    }
    bool open() const override { return true; }
    void close() override {}
  };

  std::vector<u8> a2b, b2a, wire_a2b, wire_b2a;
  End a{}, b{};
  DuplexPipe() {
    a.out = &a2b; a.in = &b2a; a.capture = &wire_a2b;
    b.out = &b2a; b.in = &a2b; b.capture = &wire_b2a;
  }
};

struct SessionRun {
  bool ok = false;
  bool client_fallback = false;
  std::vector<u8> wire_c2s, wire_s2c;  // every byte each side emitted
  std::vector<u8> echoed;              // plaintext the client got back
  u64 client_record_cycles = 0;
  u64 server_record_cycles = 0;
};

// One full client<->server exchange over in-memory pipes: handshake, then
// `records` application records of `payload` bytes each, echoed by the
// server. Deterministic: fixed seeds, no network, no timers.
SessionRun run_session(issl::Backend backend, issl::RecordEngine* engine,
                       int records, std::size_t payload) {
  DuplexPipe pipe;
  common::Xorshift64 client_rng(0xE14C);
  common::Xorshift64 server_rng(0xE145);
  issl::Config cfg = issl::Config::embedded_port();
  cfg.backend = backend;
  cfg.engine = engine;
  const auto psk = bytes_of("e14-offload");

  auto client = issl::issl_bind_client(pipe.a, cfg, client_rng, psk);
  issl::ServerIdentity id;
  id.psk = psk;
  auto server = issl::issl_bind_server(pipe.b, cfg, server_rng, std::move(id));

  SessionRun run;
  for (int i = 0; i < 200 && !(client.established() && server.established());
       ++i) {
    (void)client.pump();
    (void)server.pump();
    if (client.failed() || server.failed()) return run;
  }
  if (!client.established() || !server.established()) return run;

  std::vector<u8> msg(payload);
  common::Xorshift64 fill(7);
  for (int r = 0; r < records; ++r) {
    fill.fill(msg);
    if (!client.write(msg).ok()) return run;
    std::vector<u8> got;
    for (int i = 0; i < 50 && got.size() < msg.size(); ++i) {
      (void)server.pump();
      auto rd = server.read();
      if (rd.ok()) got.insert(got.end(), rd->begin(), rd->end());
    }
    if (!server.write(got).ok()) return run;
    for (int i = 0; i < 50; ++i) {
      (void)client.pump();
      auto rd = client.read();
      if (rd.ok()) run.echoed.insert(run.echoed.end(), rd->begin(), rd->end());
    }
  }
  run.ok = true;
  run.client_fallback = client.engine_fallback();
  run.wire_c2s = pipe.wire_a2b;
  run.wire_s2c = pipe.wire_b2a;
  run.client_record_cycles = client.record_cost_cycles();
  run.server_record_cycles = server.record_cost_cycles();
  return run;
}

bool gate_fail(bench::JsonReport& report, const char* what) {
  std::printf("GATE FAIL: %s\n", what);
  report.result("gate.pass", false);
  report.result("gate.fail_reason", what);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const int kConns = static_cast<int>(args.flag_int("conns", 3));
  const int kRecords = static_cast<int>(args.flag_int("records", 8));
  const std::string kBackend = args.flag_str("backend", "all");
  if (kBackend != "all" && kBackend != "c" && kBackend != "asm" &&
      kBackend != "engine") {
    std::fprintf(stderr, "--backend must be all|c|asm|engine\n");
    return 2;
  }

  std::puts("=================================================================");
  std::puts("E14: crypto offload engine vs the paper's asm-vs-C answer");
  std::puts("    (ROADMAP item 3: re-run the question at today's frontier)");
  std::puts("=================================================================\n");

  bench::JsonReport report("E14");

  // --- Part 1: primitive table (E1 + engine column) -----------------------
  // Software costs, measured exactly as E5 measures them, on E1's inputs.
  common::Xorshift64 rng(1);
  std::array<u8, 16> key{}, block{};
  rng.fill(key);
  rng.fill(block);
  const BoardKernels c_cost = bench::measure_board_kernels(
      services::AesImpl::kCompiledC, key, block);
  const BoardKernels asm_cost = bench::measure_board_kernels(
      services::AesImpl::kHandAssembly, key, block);
  const BoardKernels eng_cost = measure_engine({});

  std::printf("%-22s %14s %14s %14s\n", "cycles", "C port", "asm", "engine");
  std::printf("%-22s %14llu %14llu %14llu\n", "AES key setup",
              static_cast<unsigned long long>(c_cost.key_sched),
              static_cast<unsigned long long>(asm_cost.key_sched),
              static_cast<unsigned long long>(eng_cost.key_sched));
  std::printf("%-22s %14llu %14llu %14llu\n", "AES block (16 B)",
              static_cast<unsigned long long>(c_cost.aes_block),
              static_cast<unsigned long long>(asm_cost.aes_block),
              static_cast<unsigned long long>(eng_cost.aes_block));
  std::printf("%-22s %14llu %14llu %14llu\n\n", "SHA-1 block (64 B)",
              static_cast<unsigned long long>(c_cost.sha_block),
              static_cast<unsigned long long>(asm_cost.sha_block),
              static_cast<unsigned long long>(eng_cost.sha_block));
  std::printf("engine speedup: %llux over asm, %llux over the C port "
              "(per AES block)\n\n",
              static_cast<unsigned long long>(asm_cost.aes_block /
                                              eng_cost.aes_block),
              static_cast<unsigned long long>(c_cost.aes_block /
                                              eng_cost.aes_block));

  report.result("c.keysetup_cycles", c_cost.key_sched);
  report.result("c.aes_block_cycles", c_cost.aes_block);
  report.result("c.sha1_block_cycles", c_cost.sha_block);
  report.result("asm.keysetup_cycles", asm_cost.key_sched);
  report.result("asm.aes_block_cycles", asm_cost.aes_block);
  report.result("asm.sha1_block_cycles", asm_cost.sha_block);
  report.result("engine.keyload_cycles", eng_cost.key_sched);
  report.result("engine.aes_block_cycles", eng_cost.aes_block);
  report.result("engine.sha1_block_cycles", eng_cost.sha_block);

  // --- Part 2: record-layer identity + speed gate -------------------------
  // One engine, shared by the client and server sessions (as the board's
  // two redirector directions would share it).
  rabbit::Board engine_board;
  engine_board.attach_cryptocell({});
  dynk::CryptoDev dev(engine_board.io(), engine_board.mem());

  const std::size_t kGatePayload = 1024;
  const auto run_c =
      run_session(issl::Backend::kC, nullptr, kRecords, kGatePayload);
  const auto run_asm =
      run_session(issl::Backend::kAsm, nullptr, kRecords, kGatePayload);
  const auto run_eng =
      run_session(issl::Backend::kEngine, &dev, kRecords, kGatePayload);
  // A session *configured* for the engine on a board without one must fall
  // back to software and still interoperate bit-for-bit.
  rabbit::Board stock_board;  // no attach_cryptocell: probe reads 0xFF
  dynk::CryptoDev absent(stock_board.io(), stock_board.mem());
  const auto run_fb =
      run_session(issl::Backend::kEngine, &absent, kRecords, kGatePayload);

  bool pass = true;
  if (!run_c.ok || !run_asm.ok || !run_eng.ok || !run_fb.ok) {
    pass = gate_fail(report, "a session failed to complete");
  } else if (run_eng.wire_c2s != run_c.wire_c2s ||
             run_eng.wire_s2c != run_c.wire_s2c ||
             run_asm.wire_c2s != run_c.wire_c2s) {
    pass = gate_fail(report, "wire bytes differ across backends");
  } else if (run_eng.echoed != run_c.echoed ||
             run_eng.echoed.size() !=
                 static_cast<std::size_t>(kRecords) * kGatePayload) {
    pass = gate_fail(report, "plaintexts differ across backends");
  } else if (!run_fb.client_fallback ||
             run_fb.wire_c2s != run_c.wire_c2s ||
             run_fb.wire_s2c != run_c.wire_s2c) {
    pass = gate_fail(report, "absent-engine fallback not clean");
  } else if (run_eng.client_record_cycles * 5 > run_c.client_record_cycles) {
    pass = gate_fail(report, "engine backend not >=5x faster than C");
  }

  if (pass) {
    report.result("gate.pass", true);
    std::printf("gate: %d x %zu B records -- wire identical across "
                "c/asm/engine,\n      fallback clean, engine %llux cheaper "
                "per record than C\n\n",
                kRecords, kGatePayload,
                static_cast<unsigned long long>(
                    run_c.client_record_cycles /
                    run_eng.client_record_cycles));
  }
  report.result("gate.records", static_cast<u64>(kRecords));
  report.result("gate.payload_bytes", static_cast<u64>(kGatePayload));
  report.result("gate.c_record_cycles", run_c.client_record_cycles);
  report.result("gate.asm_record_cycles", run_asm.client_record_cycles);
  report.result("gate.engine_record_cycles", run_eng.client_record_cycles);
  report.result("gate.engine_server_record_cycles",
                run_eng.server_record_cycles);
  report.result("gate.fallback_used_c", run_fb.client_fallback);

  // --- Part 3: E5 with the engine column ----------------------------------
  const bench::CipherCost eng_cipher = bench::cipher_cost(eng_cost);
  report.result("engine.cycles_per_byte", eng_cipher.cycles_per_byte);
  report.result("engine.handshake_cycles", eng_cipher.handshake_cycles);

  struct Column {
    std::string name;  // JSON key suffix
    const char* header;
    bool want;
    bench::CipherCost cost;
  };
  const Column columns[] = {
      {"c", "C B/s", kBackend == "all" || kBackend == "c",
       bench::cipher_cost(c_cost)},
      {"asm", "asm B/s", kBackend == "all" || kBackend == "asm",
       bench::cipher_cost(asm_cost)},
      {"engine", "engine B/s", kBackend == "all" || kBackend == "engine",
       eng_cipher},
  };
  const bool want_eng = columns[2].want;

  std::printf("%10s %12s", "payload B", "plain B/s");
  for (const Column& col : columns) {
    if (col.want) std::printf(" %12s %6s", col.header, "slow");
  }
  std::printf("\n");

  double engine_bulk_slowdown = 0;
  for (const std::size_t payload : {64u, 512u, 4096u, 16384u}) {
    const bench::EchoRun plain =
        bench::serve(0xE14, "e14", false, {}, kConns, payload);
    const std::string row = "payload_" + std::to_string(payload);
    report.result(row + ".plain_bytes_per_s", plain.bytes_per_second());
    std::printf("%10zu %12.0f", payload, plain.bytes_per_second());
    for (const Column& col : columns) {
      if (!col.want) continue;
      const bench::EchoRun r =
          bench::serve(0xE14, "e14", true, col.cost, kConns, payload);
      const double slow = plain.bytes_per_second() / r.bytes_per_second();
      report.result(row + ".secure_" + col.name + "_bytes_per_s",
                    r.bytes_per_second());
      report.result(row + ".slowdown_" + col.name, slow);
      std::printf(" %12.0f %5.1fx", r.bytes_per_second(), slow);
      if (col.name == "engine" && payload == 16384u) {
        engine_bulk_slowdown = slow;
      }
    }
    std::printf("\n");
  }

  if (want_eng) {
    std::printf("\nwith record crypto offloaded the secure redirector runs "
                "within %.1fx of\nplaintext even at bulk sizes: the service "
                "is network/CPU-bound on TCP and\nforwarding, not on "
                "ciphering. The 2003 question 'C or assembly?' had the\n"
                "2023 answer 'neither' -- the same conclusion CryptoSRAM "
                "reaches from the\nmemory side.\n",
                engine_bulk_slowdown);
    report.result("engine_bulk_slowdown", engine_bulk_slowdown);
  }

  report.write(args);
  return pass ? 0 : 1;
}

// E14 — the engine record gate.
//
// §6 showed hand assembly beating the C port by an order of magnitude; the
// modern third answer is a dedicated offload engine (the simulated
// CryptoCell behind the dynk::CryptoDev driver; E5 gives its kernel costs
// and throughput column). This bench holds the record layer to it: the same
// issl session run in software, on the engine, and configured for an engine
// the board does not have must
//   * put byte-identical records on the wire in both directions and deliver
//     identical plaintexts,
//   * fall back to software cleanly when the engine is absent, and
//   * cost >= 5x fewer board cycles per record on the engine than in the C
//     port.
// The software side is priced from the codec's own work count at kernel
// costs measured on the board (E1's inputs, as E5 uses them); the engine
// side is each endpoint's own CryptoDev stall cycles. FAILING ANY CHECK
// EXITS NONZERO.
#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "issl/issl.h"
#include "soak.h"

using namespace rmc;
using common::u64;
using common::u8;

namespace {

using bench::bytes_of;

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
  bool client_uses_engine = false;
  bool client_fallback = false;
  std::vector<u8> wire_c2s, wire_s2c;  // every byte each side emitted
  std::vector<u8> echoed;              // plaintext the client got back
  issl::RecordWork client_work;
};

// One full client<->server exchange over in-memory pipes: handshake, then
// `records` application records of `payload` bytes each, echoed by the
// server. Deterministic: fixed seeds, no network, no timers.
SessionRun run_session(issl::RecordEngine* client_engine,
                       issl::RecordEngine* server_engine, int records,
                       std::size_t payload) {
  DuplexPipe pipe;
  common::Xorshift64 client_rng(0xE14C);
  common::Xorshift64 server_rng(0xE145);
  issl::Config client_cfg = issl::Config::embedded_port();
  client_cfg.engine = client_engine;
  issl::Config server_cfg = issl::Config::embedded_port();
  server_cfg.engine = server_engine;
  const auto psk = bytes_of("e14-offload");

  auto client = issl::issl_bind_client(pipe.a, client_cfg, client_rng, psk);
  issl::ServerIdentity id;
  id.psk = psk;
  auto server =
      issl::issl_bind_server(pipe.b, server_cfg, server_rng, std::move(id));

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
  run.client_uses_engine = client.uses_engine();
  run.client_fallback = client.engine_fallback();
  run.wire_c2s = pipe.wire_a2b;
  run.wire_s2c = pipe.wire_b2a;
  run.client_work = client.record_work();
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
  const int kRecords = static_cast<int>(args.flag_int("records", 8));

  std::puts("=================================================================");
  std::puts("E14: the engine record gate (wire identity, fallback, >=5x)");
  std::puts("=================================================================\n");

  bench::JsonReport report("E14");

  // E1's inputs, as E5 measures them.
  common::Xorshift64 rng(1);
  std::array<u8, 16> key{}, block{};
  rng.fill(key);
  rng.fill(block);
  const bench::BoardKernels c_kernels =
      bench::measure_board_kernels(services::AesImpl::kCompiledC, key, block);
  const bench::BoardKernels asm_kernels = bench::measure_board_kernels(
      services::AesImpl::kHandAssembly, key, block);

  const std::size_t kGatePayload = 1024;
  const auto run_sw = run_session(nullptr, nullptr, kRecords, kGatePayload);
  // Each endpoint gets its own board and engine, so each side's stall
  // cycles are its own.
  rabbit::Board client_board, server_board;
  client_board.attach_cryptocell();
  server_board.attach_cryptocell();
  dynk::CryptoDev client_dev(client_board.io(), client_board.mem());
  dynk::CryptoDev server_dev(server_board.io(), server_board.mem());
  const auto run_eng =
      run_session(&client_dev, &server_dev, kRecords, kGatePayload);
  // A session *configured* for the engine on a board without one must fall
  // back to software and still interoperate bit-for-bit.
  rabbit::Board stock_board;  // no attach_cryptocell: probe reads 0xFF
  dynk::CryptoDev absent(stock_board.io(), stock_board.mem());
  const auto run_fb = run_session(&absent, &absent, kRecords, kGatePayload);

  const u64 c_record_cycles = bench::price(run_sw.client_work, c_kernels);
  const u64 asm_record_cycles = bench::price(run_sw.client_work, asm_kernels);
  const u64 engine_record_cycles = client_dev.stall_cycles_total();

  bool pass = true;
  if (!run_sw.ok || !run_eng.ok || !run_fb.ok) {
    pass = gate_fail(report, "a session failed to complete");
  } else if (!run_eng.client_uses_engine) {
    pass = gate_fail(report, "the engine session ran in software");
  } else if (run_eng.wire_c2s != run_sw.wire_c2s ||
             run_eng.wire_s2c != run_sw.wire_s2c) {
    pass = gate_fail(report, "wire bytes differ between engine and software");
  } else if (run_eng.echoed != run_sw.echoed ||
             run_eng.echoed.size() !=
                 static_cast<std::size_t>(kRecords) * kGatePayload) {
    pass = gate_fail(report, "plaintexts differ between engine and software");
  } else if (!run_fb.client_fallback || run_fb.wire_c2s != run_sw.wire_c2s ||
             run_fb.wire_s2c != run_sw.wire_s2c) {
    pass = gate_fail(report, "absent-engine fallback not clean");
  } else if (engine_record_cycles * 5 > c_record_cycles) {
    pass = gate_fail(report, "engine not >=5x cheaper than the C port");
  }

  const issl::RecordWork& work = run_sw.client_work;
  std::printf("%d x %zu B records echoed; client record crypto: C port %llu "
              "cycles,\nasm %llu, engine %llu\n",
              kRecords, kGatePayload,
              static_cast<unsigned long long>(c_record_cycles),
              static_cast<unsigned long long>(asm_record_cycles),
              static_cast<unsigned long long>(engine_record_cycles));
  if (pass) {
    report.result("gate.pass", true);
    std::printf("gate: wire identical between engine and software, fallback "
                "clean,\n      engine %llux cheaper per record than C\n",
                static_cast<unsigned long long>(c_record_cycles /
                                                engine_record_cycles));
  }
  report.result("gate.records", static_cast<u64>(kRecords));
  report.result("gate.payload_bytes", static_cast<u64>(kGatePayload));
  report.result("gate.key_schedules", work.key_schedules);
  report.result("gate.aes_blocks", work.aes_blocks);
  report.result("gate.sha1_blocks", work.sha1_blocks);
  report.result("gate.c_record_cycles", c_record_cycles);
  report.result("gate.asm_record_cycles", asm_record_cycles);
  report.result("gate.engine_record_cycles", engine_record_cycles);
  report.result("gate.engine_server_record_cycles",
                server_dev.stall_cycles_total());
  report.result("gate.engine_fallback", run_fb.client_fallback);

  report.write(args);
  return pass ? 0 : 1;
}

// Shared soak harness for the redirector benches (DESIGN.md §4): the
// board/backend/client world, the chunked-echo client, the on-board and
// engine kernel costs and E5's sequential echo loop. Each bench keeps its
// own main loop, scenarios, seeds and gates; only code that several benches
// used to copy from each other lives here.
#pragma once

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "dcc/codegen.h"
#include "dynk/cryptodev.h"
#include "rabbit/board.h"
#include "services/aes_port.h"
#include "services/redirector.h"

namespace rmc::bench {

using common::u8;

/// The world's addresses: the board (redirector) is host 1, the plaintext
/// echo backend host 2, the clients host 3.
inline constexpr net::IpAddr kBoardIp = 1;
inline constexpr net::IpAddr kBackendIp = 2;
inline constexpr net::IpAddr kClientIp = 3;
inline constexpr net::Port kListenPort = 4433;
inline constexpr net::Port kBackendPort = 8000;

inline std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

/// Exits nonzero naming `what` when a setup step fails: a bench that
/// carried on would report zero goodput or zero cycles instead of an error.
inline void require(const common::Status& s, const char* what) {
  if (s.is_ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, s.to_string().c_str());
  std::exit(1);
}

/// A secure redirector on the board's listen port, forwarding to the echo
/// backend, with Figure 3's three handler slots.
inline services::RedirectorConfig redirector_config(std::string_view psk) {
  services::RedirectorConfig cfg;
  cfg.listen_port = kListenPort;
  cfg.backend_ip = kBackendIp;
  cfg.backend_port = kBackendPort;
  cfg.psk = bytes_of(psk);
  cfg.handler_slots = 3;
  return cfg;
}

/// The medium, the backend and client hosts, and a running echo backend.
/// The board's stack is not here: a bare RmcRedirector needs one, and a
/// ServiceBoard builds its own per boot.
struct EchoWorld {
  net::SimNet medium;
  net::TcpStack backend_host{medium, kBackendIp};
  net::TcpStack client_host{medium, kClientIp};
  services::EchoBackend backend{backend_host, kBackendPort};

  explicit EchoWorld(u64 seed) : medium(seed) {
    require(backend.start(), "echo backend start");
  }
  // The medium keeps the hosts' addresses.
  EchoWorld(const EchoWorld&) = delete;
  EchoWorld& operator=(const EchoWorld&) = delete;
};

/// A secure client that echoes `payload` through the redirector `chunk`
/// bytes at a time, sending the next chunk only after the previous one
/// echoed back. One corrupted record then costs the session its remaining
/// chunks instead of silently deciding the whole run.
class ChunkedEcho {
 public:
  enum class State { kLive, kDone, kFailed };

  ChunkedEcho(net::TcpStack& host, const issl::Config& tls,
              std::string_view psk, u64 seed, std::span<const u8> payload,
              std::size_t chunk)
      : client_(std::make_unique<services::Client>(
            host, kBoardIp, kListenPort, true, tls, bytes_of(psk), seed)),
        payload_(payload),
        chunk_(chunk) {}

  services::Client& client() { return *client_; }

  /// Connect and queue the first chunk.
  void start() {
    (void)client_->start();
    send_first();
  }
  /// Reconnect, offering the ticket the last handshake earned, and start
  /// the payload over.
  void restart() {
    (void)client_->reconnect();
    send_first();
  }

  /// Drive one step. kDone (the whole payload echoed) closes the
  /// connection; kFailed means it died first.
  State poll() {
    const bool alive = client_->poll();
    const std::size_t got = client_->received().size();
    if (got >= payload_.size()) {
      client_->close();
      return State::kDone;
    }
    if (!alive || client_->failed()) return State::kFailed;
    if (got >= sent_ && sent_ < payload_.size()) {
      const std::size_t n = std::min(chunk_, payload_.size() - sent_);
      (void)client_->send(payload_.subspan(sent_, n));
      sent_ += n;
    }
    return State::kLive;
  }

  /// True when everything received so far is a prefix of the payload.
  bool echo_is_prefix() const {
    const std::vector<u8>& got = client_->received();
    const std::size_t n = std::min(got.size(), payload_.size());
    return std::equal(got.begin(), got.begin() + static_cast<long>(n),
                      payload_.begin());
  }

 private:
  void send_first() {
    sent_ = std::min(chunk_, payload_.size());
    (void)client_->send(payload_.first(sent_));
  }

  std::unique_ptr<services::Client> client_;
  std::span<const u8> payload_;
  std::size_t chunk_;
  std::size_t sent_ = 0;
};

/// Board-clock cycles of the record-layer kernels.
struct BoardKernels {
  u64 key_sched = 0;  // AES key schedule
  u64 aes_block = 0;  // one 16-byte AES block
  u64 sha_block = 0;  // one 64-byte SHA-1 compression
};

/// Measures `impl`'s AES key schedule and one block on the simulated board
/// (the C port as the MiniDynC debug build), plus one dc/sha1.dc
/// compression. No assembly SHA-1 exists, so the asm treatment scales the C
/// compression by the measured asm/C AES block ratio.
inline BoardKernels measure_board_kernels(services::AesImpl impl,
                                          std::span<const u8> key,
                                          std::span<const u8> block) {
  const auto c_opts = dcc::CodegenOptions::debug_defaults();
  const auto load = [&](services::AesImpl which) {
    auto aes =
        services::AesOnBoard::create_from_repo(which, RMC_REPO_ROOT, c_opts);
    require(aes.status(), "AES load");
    return std::move(*aes);
  };
  std::array<u8, 16> ct{};
  BoardKernels k;
  auto aes = load(impl);
  k.key_sched = *aes.set_key(key);
  k.aes_block = *aes.encrypt(block, ct);

  auto src =
      services::read_text_file(std::string(RMC_REPO_ROOT) + "/dc/sha1.dc");
  require(src.status(), "dc/sha1.dc");
  auto compiled = dcc::compile(*src, c_opts);
  require(compiled.status(), "dc/sha1.dc");
  rabbit::Board board;
  board.load(compiled->image);
  (void)board.call("f_sha1_init", 100'000'000);
  auto sha = board.call("f_sha1_block", 500'000'000);
  require(sha.status(), "f_sha1_block");
  k.sha_block = sha->cycles;

  if (impl == services::AesImpl::kHandAssembly) {
    auto c_aes = load(services::AesImpl::kCompiledC);
    (void)c_aes.set_key(key);
    k.sha_block = k.sha_block * k.aes_block / *c_aes.encrypt(block, ct);
  }
  return k;
}

/// The same kernels on the CryptoCell engine, measured through the driver
/// as CPU stall cycles per op: descriptor fetch, DMA and poll-quantum
/// rounding included, the "what does the CPU see" number rather than the
/// datasheet figure. `key_sched` is the key-slot load.
inline BoardKernels measure_engine() {
  rabbit::Board board;
  board.attach_cryptocell();
  dynk::CryptoDev dev(board.io(), board.mem());
  if (!dev.available()) {
    std::fputs("engine did not answer its probe\n", stderr);
    std::exit(1);
  }
  const std::vector<u8> key(16, 0x42), iv(16, 0x17), mac_key(20, 0x33);
  const auto aes_op = [&](std::size_t blocks, u8 fill) {
    const u64 before = dev.stall_cycles_total();
    (void)dev.aes_cbc(true, key, iv, std::vector<u8>(blocks * 16, fill));
    return dev.stall_cycles_total() - before;
  };
  const auto hmac_op = [&](std::size_t blocks, u8 fill) {
    const u64 before = dev.stall_cycles_total();
    (void)dev.hmac_sha1(mac_key, std::vector<u8>(blocks * 64, fill));
    return dev.stall_cycles_total() - before;
  };
  // The first op carries the key-slot load, a repeat op does not. The
  // marginal cost over a 33-block op amortizes the descriptor and poll
  // rounding out of the per-block figures.
  BoardKernels k;
  const u64 first_op = aes_op(1, 1);
  const u64 one_block = aes_op(1, 1);
  k.key_sched = first_op - one_block;
  k.aes_block = (aes_op(33, 2) - one_block) / 32;
  const u64 one_hmac = hmac_op(1, 3);
  k.sha_block = std::max<u64>((hmac_op(33, 4) - one_hmac) / 32, 1);
  return k;
}

/// Board-clock cycles of `work` at kernel costs `k`.
inline u64 price(const issl::RecordWork& work, const BoardKernels& k) {
  return work.key_schedules * k.key_sched + work.aes_blocks * k.aes_block +
         work.sha1_blocks * k.sha_block;
}

/// The redirector's CPU-cost model for one kernel generation.
struct CipherCost {
  u64 cycles_per_byte = 0;
  u64 handshake_cycles = 0;
};

/// Bulk: AES per byte plus the per-64-byte MAC compression. Handshake: the
/// key schedule plus 22 SHA-1 compressions (the PRF for master secret and
/// key block is ~8 HMACs = 16 compressions; the two Finished MACs and the
/// transcript hash add ~6 more).
inline CipherCost cipher_cost(const BoardKernels& k) {
  return {k.aes_block / 16 + k.sha_block / 64,
          k.key_sched + 22 * k.sha_block};
}

struct EchoRun {
  double virtual_seconds = 0;
  u64 bytes_echoed = 0;
  double bytes_per_second() const {
    return virtual_seconds > 0 ? bytes_echoed / virtual_seconds : 0;
  }
};

/// E5's throughput loop: `connections` clients one after another, each
/// echoing `payload_bytes` through a bare RmcRedirector (crypto charged at
/// `cost` when `secure`). `tag` seeds the medium and, shifted left a byte,
/// the client sessions.
inline EchoRun serve(u64 tag, std::string_view psk, bool secure,
                     const CipherCost& cost, int connections,
                     std::size_t payload_bytes) {
  EchoWorld world(tag);
  net::TcpStack board(world.medium, kBoardIp);
  services::RedirectorConfig cfg = redirector_config(psk);
  cfg.secure = secure;
  if (secure) {
    cfg.crypto_cycles_per_byte = cost.cycles_per_byte;
    cfg.crypto_cycles_handshake = cost.handshake_cycles;
  }
  services::RmcRedirector red(board, world.medium, cfg);
  require(red.start(), "redirector start");

  std::vector<u8> payload(payload_bytes);
  common::Xorshift64 fill(1);
  fill.fill(payload);

  EchoRun run;
  const u64 t0 = world.medium.now_ms();
  for (int conn = 0; conn < connections; ++conn) {
    services::Client client(world.client_host, kBoardIp, kListenPort, secure,
                            issl::Config::embedded_port(), bytes_of(psk),
                            (tag << 8) + conn);
    (void)client.start();
    (void)client.send(payload);
    for (int round = 0; round < 2'000'000; ++round) {
      red.poll();
      world.backend.poll();
      (void)client.poll();
      world.medium.tick(1);
      if (client.received().size() >= payload.size()) break;
    }
    run.bytes_echoed += client.received().size();
    client.close();
    for (int round = 0; round < 10; ++round) {
      red.poll();
      world.medium.tick(1);
    }
  }
  run.virtual_seconds =
      static_cast<double>(world.medium.now_ms() - t0) / 1e3;
  return run;
}

/// Result rows, generated from one X-macro list per bench (the
/// RMC_UOP_LIST idiom): `LIST(X)` names each result as X(type, json_key),
/// in report order. RMC_SOAK_ROW(Name, LIST) declares a struct with one
/// field per entry, named after its JSON key, and an emit() that writes
/// every field as `<prefix><json_key>`.
#define RMC_SOAK_FIELD(type, key) type key{};
#define RMC_SOAK_EMIT(type, key) report.result(prefix + #key, key);
#define RMC_SOAK_ROW(Name, LIST)                                          \
  struct Name {                                                           \
    LIST(RMC_SOAK_FIELD)                                                  \
    void emit(::rmc::bench::JsonReport& report,                           \
              const std::string& prefix) const {                          \
      LIST(RMC_SOAK_EMIT)                                                 \
    }                                                                     \
  }

}  // namespace rmc::bench

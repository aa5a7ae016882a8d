// E11 — session resumption: the abbreviated handshake vs the full RSA
// exchange (DESIGN.md §10).
//
// The paper's motivation cites Goldberg et al.: "servers that support
// secure communications services can serve an order of magnitude fewer
// clients" (§2) — and nearly all of that cost is the per-connection RSA
// handshake. Real SSL deployments amortize it with session resumption;
// this bench measures what the same trick buys on the simulated 30 MHz
// target, three ways:
//
//   1. session level: modeled handshake crypto cycles, full RSA-512 vs
//      abbreviated (cache hit). The bench FAILS (exit 1) unless the
//      abbreviated handshake is at least 5x cheaper — that is the whole
//      point of carrying the cache.
//   2. service level: a reconnect-heavy client against the RmcRedirector
//      with the CPU-cost model on, resumption off vs on (virtual time for
//      the same number of connect-request-reconnect cycles, plus the
//      cache hit/miss telemetry and the client-side TCB reaping numbers).
//   3. cache level: LRU eviction at capacity and TTL expiry in virtual
//      time, so the bounded xalloc-style behaviour is itself measured.
//
// Everything reported to JSON is virtual (cycles, virtual ms, counts) —
// no host wall-clock — so BENCH_E11.json is byte-reproducible.
#include <cstdio>

#include "issl/issl.h"
#include "soak.h"

using namespace rmc;
using common::u64;
using common::u8;

namespace {

struct HsRun {
  bool ok = false;
  bool resumed = false;
  u64 client_cycles = 0;
  u64 server_cycles = 0;
  std::size_t messages = 0;
  u64 virtual_ms = 0;
  issl::ResumptionTicket ticket;
};

u64 total(const HsRun& r) { return r.client_cycles + r.server_cycles; }

/// One handshake over a fresh simulated TCP connection. `cache` is the
/// server's (persistent across calls); `ticket` is the client's offer.
HsRun run_handshake(const issl::Config& config,
                    const crypto::RsaKeyPair& key, issl::SessionCache* cache,
                    const issl::ResumptionTicket* ticket, u64 seed) {
  net::SimNet medium(0xE11 + seed);
  net::TcpStack server_stack(medium, 1);
  net::TcpStack client_stack(medium, 2);
  auto listener = server_stack.listen(4433);
  auto csock = client_stack.connect(1, 4433);
  medium.tick(20);
  auto ssock = server_stack.accept(*listener);
  issl::TcpStream server_stream(server_stack, *ssock);
  issl::TcpStream client_stream(client_stack, *csock);
  common::Xorshift64 srng(11 + seed), crng(22 + seed);

  issl::ServerIdentity id;
  id.rsa = key;
  id.session_cache = cache;
  auto server = issl::issl_bind_server(server_stream, config, srng, id);
  auto client = issl::issl_bind_client(client_stream, config, crng, {}, ticket);

  HsRun run;
  const u64 t0 = medium.now_ms();
  for (int i = 0; i < 5'000; ++i) {
    (void)client.pump();
    (void)server.pump();
    medium.tick(1);
    if (client.established() && server.established()) break;
  }
  run.ok = client.established() && server.established();
  run.resumed = client.resumed() && server.resumed();
  run.client_cycles = client.handshake_cost_cycles();
  run.server_cycles = server.handshake_cost_cycles();
  run.messages =
      client.handshake_messages_seen() + server.handshake_messages_seen();
  run.virtual_ms = medium.now_ms() - t0;
  run.ticket = client.ticket();
  return run;
}

/// Reconnect-heavy client against the RmcRedirector: `cycles` rounds of
/// connect, handshake, request/response, reconnect. Returns virtual ms.
struct ServiceRun {
  bool ok = true;
  u64 virtual_ms = 0;
  u64 resumed_handshakes = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 client_tcbs_resident = 0;
  u64 client_tcbs_reaped = 0;
};

ServiceRun run_service(bool resumption, int cycles) {
  bench::EchoWorld world(0x511);
  net::TcpStack rmc_stack(world.medium, bench::kBoardIp);

  services::RedirectorConfig rc = bench::redirector_config("e11");
  // The CPU-cost model carries the E6/session-level numbers: a full
  // handshake costs the board ~2M cycles (PRF + MACs + the key exchange it
  // would have run), an abbreviated one ~0.5M (PRF + MACs only).
  rc.crypto_cycles_handshake = 2'000'000;
  rc.crypto_cycles_resumed_handshake = 500'000;
  if (resumption) {
    rc.tls.resumption = true;
    rc.session_cache_capacity = 8;
  }
  services::RmcRedirector redirector(rmc_stack, world.medium, rc);
  if (!redirector.start().is_ok()) return {false, 0, 0, 0, 0, 0, 0};

  issl::Config ctls = issl::Config::embedded_port();
  ctls.resumption = resumption;
  services::Client client(world.client_host, bench::kBoardIp,
                          bench::kListenPort, true, ctls, rc.psk);

  ServiceRun out;
  const u64 t0 = world.medium.now_ms();
  const std::vector<u8> payload = {'p', 'i', 'n', 'g'};
  if (!client.start().is_ok()) return {false, 0, 0, 0, 0, 0, 0};
  for (int cycle = 0; cycle < cycles; ++cycle) {
    (void)client.send(payload);
    bool served = false;
    for (int i = 0; i < 20'000; ++i) {
      redirector.poll();
      world.backend.poll();
      (void)client.poll();
      world.medium.tick(1);
      if (client.received().size() >= payload.size()) {
        served = true;
        break;
      }
      if (client.failed()) break;
    }
    if (!served) {
      out.ok = false;
      break;
    }
    if (client.resumed()) ++out.resumed_handshakes;
    if (cycle + 1 < cycles && !client.reconnect().is_ok()) {
      out.ok = false;
      break;
    }
  }
  client.close();
  out.virtual_ms = world.medium.now_ms() - t0;
  out.cache_hits = redirector.session_cache().hits();
  out.cache_misses = redirector.session_cache().misses();
  out.client_tcbs_resident = world.client_host.tcb_count();
  out.client_tcbs_reaped = world.client_host.tcbs_reaped();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);

  std::puts("================================================================");
  std::puts("E11: session resumption: abbreviated handshake vs full RSA");
  std::puts("================================================================\n");

  bench::JsonReport report("E11");
  int rc = 0;

  // --- 1. Session level: full RSA-512 vs abbreviated ----------------------
  issl::Config cfg = issl::Config::unix_default();
  cfg.rsa_modulus_bits = 512;
  cfg.resumption = true;
  common::Xorshift64 keyrng(0xE11);
  const auto key = crypto::rsa_generate(512, keyrng);
  issl::SessionCache cache(issl::kSessionCacheMaxEntries);

  const HsRun full = run_handshake(cfg, key, &cache, nullptr, 1);
  const HsRun resumed = run_handshake(cfg, key, &cache, &full.ticket, 2);
  const double ratio =
      static_cast<double>(total(full)) /
      static_cast<double>(total(resumed) > 0 ? total(resumed) : 1);

  std::printf("%-28s %14s %14s %6s %9s\n", "handshake", "client cyc",
              "server cyc", "msgs", "virt ms");
  std::printf("%-28s %14llu %14llu %6zu %9llu  %s\n", "full RSA-512",
              static_cast<unsigned long long>(full.client_cycles),
              static_cast<unsigned long long>(full.server_cycles),
              full.messages, static_cast<unsigned long long>(full.virtual_ms),
              full.ok ? "" : "FAILED");
  std::printf("%-28s %14llu %14llu %6zu %9llu  %s\n", "abbreviated (resumed)",
              static_cast<unsigned long long>(resumed.client_cycles),
              static_cast<unsigned long long>(resumed.server_cycles),
              resumed.messages,
              static_cast<unsigned long long>(resumed.virtual_ms),
              resumed.ok && resumed.resumed ? "" : "FAILED");
  std::printf("\nfull/abbreviated cycle ratio: %.1fx (gate: >= 5x)\n\n", ratio);

  report.result("full.ok", full.ok);
  report.result("full.client_cycles", full.client_cycles);
  report.result("full.server_cycles", full.server_cycles);
  report.result("full.messages", full.messages);
  report.result("full.virtual_ms", full.virtual_ms);
  report.result("resumed.ok", resumed.ok && resumed.resumed);
  report.result("resumed.client_cycles", resumed.client_cycles);
  report.result("resumed.server_cycles", resumed.server_cycles);
  report.result("resumed.messages", resumed.messages);
  report.result("resumed.virtual_ms", resumed.virtual_ms);
  report.result("full_vs_resumed_cycle_ratio", ratio);

  if (!full.ok || !resumed.ok || !resumed.resumed) {
    std::fprintf(stderr, "handshake scenario failed\n");
    rc = 1;
  } else if (ratio < 5.0) {
    std::fprintf(stderr,
                 "abbreviated handshake ratio %.1fx below the 5x gate\n",
                 ratio);
    rc = 1;
  }

  // --- 2. Service level: reconnect-heavy client, off vs on ----------------
  const int kCycles = 12;
  const ServiceRun off = run_service(false, kCycles);
  const ServiceRun on = run_service(true, kCycles);
  const double speedup = static_cast<double>(off.virtual_ms) /
                         static_cast<double>(on.virtual_ms > 0 ? on.virtual_ms : 1);
  std::printf("%-28s %9s %8s %6s %6s %6s %7s\n", "redirector (12 reconnects)",
              "virt ms", "resumed", "hits", "miss", "tcbs", "reaped");
  std::printf("%-28s %9llu %8llu %6llu %6llu %6llu %7llu  %s\n",
              "resumption off",
              static_cast<unsigned long long>(off.virtual_ms),
              static_cast<unsigned long long>(off.resumed_handshakes),
              static_cast<unsigned long long>(off.cache_hits),
              static_cast<unsigned long long>(off.cache_misses),
              static_cast<unsigned long long>(off.client_tcbs_resident),
              static_cast<unsigned long long>(off.client_tcbs_reaped),
              off.ok ? "" : "FAILED");
  std::printf("%-28s %9llu %8llu %6llu %6llu %6llu %7llu  %s\n",
              "resumption on",
              static_cast<unsigned long long>(on.virtual_ms),
              static_cast<unsigned long long>(on.resumed_handshakes),
              static_cast<unsigned long long>(on.cache_hits),
              static_cast<unsigned long long>(on.cache_misses),
              static_cast<unsigned long long>(on.client_tcbs_resident),
              static_cast<unsigned long long>(on.client_tcbs_reaped),
              on.ok ? "" : "FAILED");
  std::printf("\nvirtual-time speedup from resumption: %.2fx\n\n", speedup);

  report.result("service.cycles", kCycles);
  report.result("service.off.ok", off.ok);
  report.result("service.off.virtual_ms", off.virtual_ms);
  report.result("service.on.ok", on.ok);
  report.result("service.on.virtual_ms", on.virtual_ms);
  report.result("service.on.resumed_handshakes", on.resumed_handshakes);
  report.result("service.on.cache_hits", on.cache_hits);
  report.result("service.on.cache_misses", on.cache_misses);
  report.result("service.on.client_tcbs_resident", on.client_tcbs_resident);
  report.result("service.on.client_tcbs_reaped", on.client_tcbs_reaped);
  report.result("service.speedup", speedup);
  if (!off.ok || !on.ok) {
    std::fprintf(stderr, "service scenario failed\n");
    rc = 1;
  }
  if (on.resumed_handshakes + 1 < static_cast<u64>(kCycles)) {
    std::fprintf(stderr, "expected every reconnect after the first to resume\n");
    rc = 1;
  }

  // --- 3. Cache level: LRU eviction and TTL expiry ------------------------
  issl::SessionCache small(4, /*ttl_ms=*/1'000);
  u8 id[issl::kSessionIdBytes] = {};
  u8 master[issl::kMasterSecretBytes] = {};
  for (u8 i = 0; i < 6; ++i) {  // 6 inserts into 4 slots -> 2 LRU evictions
    id[0] = i;
    small.set_now(i);
    small.insert(id, master, 0, 16);
  }
  id[0] = 5;
  (void)small.lookup(id, nullptr);  // hit (newest survives)
  id[0] = 0;
  (void)small.lookup(id, nullptr);  // miss (LRU-evicted)
  small.set_now(5'000);             // everything ages past the TTL
  id[0] = 5;
  (void)small.lookup(id, nullptr);  // expired -> dropped + miss
  std::printf("%-28s %6s %6s %7s %8s %6s\n", "cache (cap 4, ttl 1s)", "hits",
              "miss", "evicted", "expired", "size");
  std::printf("%-28s %6llu %6llu %7llu %8llu %6zu\n", "",
              static_cast<unsigned long long>(small.hits()),
              static_cast<unsigned long long>(small.misses()),
              static_cast<unsigned long long>(small.evictions()),
              static_cast<unsigned long long>(small.expirations()),
              small.size());
  report.result("cache.hits", small.hits());
  report.result("cache.misses", small.misses());
  report.result("cache.evictions", small.evictions());
  report.result("cache.expirations", small.expirations());
  report.result("cache.size_after_expiry", static_cast<u64>(small.size()));
  if (small.evictions() != 2 || small.expirations() == 0) {
    std::fprintf(stderr, "cache eviction/TTL scenario failed\n");
    rc = 1;
  }

  report.write(args);
  return rc;
}

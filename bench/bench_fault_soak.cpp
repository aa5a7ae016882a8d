// E9 — chaos soak: the secure redirector under a deterministic fault sweep.
//
// The paper's service ran over a real, imperfect 10Base-T segment; E1–E7
// measure it on a clean simulated wire. E9 closes that gap: each scenario
// installs a composable FaultPlan (Gilbert–Elliott burst loss, per-byte
// payload corruption, duplication, jitter reordering, scheduled partitions)
// on the medium and drives a full secure-echo workload through the RMC
// redirector, reporting goodput, handshake success, retransmissions, MAC
// failures, and every degradation path the hardening added (handshake
// timeouts, backend retries, connection shedding, watchdog aborts).
//
// Everything is derived from --seed: the medium's PRNG, the payload bytes,
// and the per-client session RNGs. A fixed seed gives a byte-identical
// --json artifact, so robustness regressions diff machine-readably.
//
// Exit status is 1 if any scenario hangs (a client neither completes nor
// fails inside the budget) or if the moderate burst+corruption scenario
// moves no application bytes at all. Echo mismatches are reported, not
// fatal: the issl MAC makes them impossible on the secure leg, so each one
// is corruption on the plaintext redirector<->backend hop — the SSL
// terminator's trusted-LAN assumption, measured.
#include <cstdio>
#include <string>
#include <vector>

#include "soak.h"

using namespace rmc;
using bench::ChunkedEcho;
using common::u64;
using common::u8;

namespace {

struct Scenario {
  std::string name;
  net::FaultPlan plan;
};

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> v;
  v.push_back({"clean", net::FaultPlan{}});
  v.push_back({"loss2", net::FaultPlan::uniform_loss(0.02)});
  v.push_back({"burst5", net::FaultPlan::burst_loss(0.05)});
  {
    net::FaultPlan p = net::FaultPlan::burst_loss(0.05);
    p.corrupt_byte_probability = 0.001;
    v.push_back({"burst5_corrupt", p});
  }
  {
    net::FaultPlan p;
    p.jitter_ms = 8;
    p.duplicate_probability = 0.02;
    v.push_back({"jitter_dup", p});
  }
  {
    // Two outages sized against the TCP RTO (base 200 ms): the first hits
    // the handshakes, the second the transfer; both must be ridden out by
    // retransmission, not by giving up.
    net::FaultPlan p;
    p.partitions.push_back({20, 140});
    p.partitions.push_back({300, 460});
    v.push_back({"partition", p});
  }
  return v;
}

// One row per scenario, in report order. stuck = clients that neither
// completed nor failed inside the budget (a hang); plaintext_leg_corruptions
// = clients whose echo differs from the payload, which the issl MAC leaves
// possible only on the plaintext redirector<->backend leg.
#define E9_RESULTS(X)                                                      \
  X(int, completed) X(int, failed) X(int, stuck) X(int, handshakes_ok)     \
  X(int, plaintext_leg_corruptions)                                       \
  X(u64, bytes_echoed)    /* end-to-end verified echo bytes */            \
  X(u64, bytes_forwarded) /* by the redirector, either way */             \
  X(u64, elapsed_ms) X(u64, worst_completion_ms)                          \
  X(double, goodput_bytes_per_ms)                                         \
  X(u64, retransmissions) X(u64, retx_giveups) X(u64, mac_failures)       \
  X(u64, handshake_failures) X(u64, handshake_timeouts)                   \
  X(u64, backend_retries) X(u64, connections_shed)                        \
  X(u64, watchdog_aborts) X(u64, drops_loss) X(u64, drops_partition)      \
  X(u64, segments_corrupted) X(u64, segments_duplicated)
RMC_SOAK_ROW(SoakResult, E9_RESULTS);

SoakResult run_scenario(u64 seed, const net::FaultPlan& plan, int offered,
                        std::size_t payload_bytes, u64 max_ms) {
  bench::EchoWorld world(seed);
  world.medium.set_fault_plan(plan);
  net::TcpStack board(world.medium, bench::kBoardIp);

  services::RedirectorConfig cfg = bench::redirector_config("e9");
  cfg.shed_when_busy = true;  // the observable degradation past the ceiling
  cfg.handshake_timeout_ms = 8'000;
  cfg.idle_timeout_ms = 10'000;
  services::RmcRedirector red(board, world.medium, cfg);
  bench::require(red.start(), "redirector start");

  const u64 mac_before =
      telemetry::Registry::global().counter("issl.mac_failures").value();

  std::vector<u8> payload(payload_bytes);
  common::Xorshift64 fill(seed ^ 0xE9E9);
  fill.fill(payload);

  // The payload travels in 512-byte chunks, one issl record per chunk. One
  // corrupted record then costs that session its remaining chunks
  // (poisoned, fail closed): partial delivery is exactly the
  // graceful-degradation signal E9 measures.
  std::vector<ChunkedEcho> clients;
  for (int i = 0; i < offered; ++i) {
    clients.emplace_back(world.client_host, issl::Config::embedded_port(),
                         "e9", seed * 977 + static_cast<u64>(i), payload,
                         512);
    clients.back().start();
  }
  using State = ChunkedEcho::State;
  std::vector<State> state(clients.size(), State::kLive);
  std::vector<u64> settle_ms(clients.size(), 0);
  std::vector<bool> hs_seen(clients.size(), false);

  SoakResult r;
  u64 t = 0;
  for (; t < max_ms; ++t) {
    bool all_settled = true;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (state[i] != State::kLive) continue;
      state[i] = clients[i].poll();
      if (clients[i].client().handshake_done()) hs_seen[i] = true;
      if (state[i] == State::kLive) {
        all_settled = false;
      } else {
        settle_ms[i] = t;
      }
    }
    red.poll();
    world.backend.poll();
    world.medium.tick(1);
    if (all_settled) break;
  }
  r.elapsed_ms = t;

  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (state[i] == State::kLive) ++r.stuck;
    if (state[i] == State::kFailed) ++r.failed;
    if (hs_seen[i]) ++r.handshakes_ok;
    if (!clients[i].echo_is_prefix()) {
      ++r.plaintext_leg_corruptions;
      continue;
    }
    r.bytes_echoed += clients[i].client().received().size();
    if (state[i] == State::kDone) {
      ++r.completed;
      r.worst_completion_ms = std::max(r.worst_completion_ms, settle_ms[i]);
    }
  }
  const services::RedirectorStats& st = red.stats();
  r.bytes_forwarded = st.bytes_client_to_backend + st.bytes_backend_to_client;
  // Goodput: application bytes the service moved per virtual ms. The
  // redirector's job is forwarding, so this counts both directions at the
  // service; end-to-end verified echo bytes are reported separately.
  r.goodput_bytes_per_ms =
      r.elapsed_ms == 0 ? 0.0
                        : static_cast<double>(r.bytes_forwarded) /
                              static_cast<double>(r.elapsed_ms);

  const net::TcpStack* hosts[] = {&board, &world.client_host,
                                  &world.backend_host};
  for (const net::TcpStack* h : hosts) {
    r.retransmissions += h->retransmissions();
    r.retx_giveups += h->retx_giveups();
  }
  r.mac_failures =
      telemetry::Registry::global().counter("issl.mac_failures").value() -
      mac_before;
  r.handshake_failures = st.handshake_failures;
  r.handshake_timeouts = st.handshake_timeouts;
  r.backend_retries = st.backend_retries;
  r.connections_shed = st.connections_shed;
  r.watchdog_aborts = st.watchdog_aborts;
  r.drops_loss = world.medium.drops_loss();
  r.drops_partition = world.medium.drops_partition();
  r.segments_corrupted = world.medium.segments_corrupted();
  r.segments_duplicated = world.medium.segments_duplicated();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const u64 seed = static_cast<u64>(args.flag_int("seed", 0xE9));
  const int offered = static_cast<int>(args.flag_int("clients", 6));
  const std::size_t payload =
      static_cast<std::size_t>(args.flag_int("payload", 4096));
  const u64 max_ms = static_cast<u64>(args.flag_int("max-ms", 60'000));

  std::puts("================================================================");
  std::puts("E9: chaos soak -- secure redirector under injected faults");
  std::printf("    seed=%llu  clients=%d  payload=%zu B  budget=%llu virt ms\n",
              static_cast<unsigned long long>(seed), offered, payload,
              static_cast<unsigned long long>(max_ms));
  std::puts("================================================================\n");
  std::printf("%-16s %4s %4s %5s %6s %9s %6s %5s %5s %5s %5s %5s\n",
              "scenario", "done", "fail", "stuck", "hs-ok", "goodput",
              "retx", "mac", "shed", "wdog", "b-rty", "drop");

  bench::JsonReport report("E9");
  report.result("seed", seed);
  bool hang = false;
  u64 moderate_bytes = 1;  // burst5_corrupt must move application bytes

  for (const Scenario& s : make_scenarios()) {
    const SoakResult r = run_scenario(seed, s.plan, offered, payload, max_ms);
    std::printf("%-16s %4d %4d %5d %6d %7.2f/s %6llu %5llu %5llu %5llu %5llu %5llu\n",
                s.name.c_str(), r.completed, r.failed, r.stuck,
                r.handshakes_ok, r.goodput_bytes_per_ms,
                static_cast<unsigned long long>(r.retransmissions),
                static_cast<unsigned long long>(r.mac_failures),
                static_cast<unsigned long long>(r.connections_shed),
                static_cast<unsigned long long>(r.watchdog_aborts),
                static_cast<unsigned long long>(r.backend_retries),
                static_cast<unsigned long long>(r.drops_loss +
                                                r.drops_partition));
    if (r.stuck > 0) hang = true;
    if (s.name == "burst5_corrupt") moderate_bytes = r.bytes_forwarded;
    r.emit(report, "scn." + s.name + ".");
  }

  std::printf("\ngoodput is application bytes forwarded by the service per"
              " virtual ms;\nmac = record MAC failures (each poisons its session);"
              " shed/wdog/b-rty are\nthe redirector's explicit degradation"
              " paths. Zero 'stuck' clients means\nevery connection either"
              " completed or failed closed -- no hangs.\n");

  report.result("zero_hangs", !hang);
  report.result("moderate_goodput_nonzero", moderate_bytes > 0);
  report.write(args);

  if (hang || moderate_bytes == 0) return 1;
  return 0;
}

// E16 — memory churn soak: the slab allocator under a million connection
// lifetimes, with alloc-fault injection and zero board restarts.
//
// PR 3 made xalloc exhaustion an honest, counted restart; this bench proves
// the production allocator (DESIGN.md §14) makes that restart *unnecessary*.
// Four phases, all derived from --seed:
//
//   churn      in-vitro: a SlabAllocator replays the redirector's exact
//              per-connection recipe (conn.state / conn.session / conn.buf /
//              conn.window, sized from issl::Session::sram_footprint and
//              TcpStack::kConnSramBytes) across --churn-cycles randomized
//              open/close lifetimes on a fixed SRAM budget. This is where
//              the millions come from: the allocator does precisely what it
//              does under the service, minus the TLS bytes around it, so the
//              cycle count is bounded by allocator arithmetic rather than by
//              simulating a million handshakes. Gates: zero exhaustion
//              failures, zero live bytes at the end (leak-free by
//              accounting), and a committed-over-peak-live retention ceiling
//              (the external-fragmentation gate: the slab may cache empty
//              blocks, but only a bounded multiple of the real peak).
//
//   quarantine the same churn in poison/quarantine debug mode, ending with a
//              deliberate double free and a deliberate use-after-free write:
//              both must be *detected* (named fault + counter), both
//              deterministically. check.sh runs this phase under ASan/UBSan.
//
//   service    in-vivo: a slab-mode ServiceBoard serves --sessions real TLS
//              sessions (full and abbreviated handshakes mixed, hostile
//              peers from the E15 harness churning alongside) and must end
//              with zero resets and zero live slab bytes at idle — the
//              steady state the xalloc port could never reach (§5.2).
//
//   faults     a seeded AllocFaultPlan fails allocation attempts 1..4 (one
//              per recipe site) plus a random tail. Every kResourceExhausted
//              lands on one connection: shed with RST, slot recycles, board
//              stays up. Gates: all four sites tripped by name, sheds ==
//              injections, zero restarts of any cause.
//
// Total cycles across the phases must reach --min-cycles (default 1M).
// Exit status 1 on any gate violation; --json output is byte-identical
// across same-seed runs (scripts/check.sh double-runs it to prove that).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "abuse/hostile.h"
#include "dynk/allocfault.h"
#include "dynk/slab.h"
#include "services/supervisor.h"
#include "soak.h"

using namespace rmc;
using common::u64;
using common::u8;
using dynk::AllocFaultPlan;
using dynk::SlabAllocator;
using dynk::SlabConfig;
using dynk::SlabHandle;

namespace {

using bench::bytes_of;

// The redirector's per-connection recipe (redirector.cc alloc_conn), sized
// for a given TLS shape. Kept in one place so the in-vitro phase replays
// exactly what the in-vivo phase allocates.
struct Recipe {
  std::size_t bytes[4];
  static Recipe for_config(const issl::Config& tls) {
    return {{services::RmcRedirector::kConnStateBytes,
             issl::Session::sram_footprint(tls),
             services::RmcRedirector::kForwardBufBytes,
             net::TcpStack::kConnSramBytes}};
  }
};

// ---------------------------------------------------------------------------
// Phase 1/2: in-vitro churn
// ---------------------------------------------------------------------------

struct ChurnResult {
  u64 cycles = 0;           // connection lifetimes completed (open+close)
  u64 allocs = 0;
  u64 frees = 0;
  u64 failed = 0;           // exhaustion failures (gate: 0)
  u64 peak_live_bytes = 0;
  u64 committed_bytes = 0;  // steady-state commitment after the run
  u64 end_live_bytes = 0;   // gate: 0 (leak-free)
  double retention = 0.0;   // committed / peak live (gate: <= ceiling)
  double internal_frag = 0.0;
  // Quarantine-mode detection demo:
  u64 double_frees_detected = 0;
  u64 poison_trips_detected = 0;
};

ChurnResult run_churn(u64 seed, u64 cycles, bool quarantine,
                      std::size_t slots, std::size_t budget_bytes) {
  SlabConfig sc;
  sc.capacity = budget_bytes;
  sc.quarantine = quarantine;
  SlabAllocator slab(sc);
  common::Xorshift64 rng(seed);

  // Three session shapes the fleet would actually mix: the embedded-port
  // default, a 256-bit-key config, and a resumption-enabled one — three
  // different sram_footprints, three different class mixes.
  issl::Config shapes[3];
  shapes[0] = issl::Config::embedded_port();
  shapes[1] = issl::Config::embedded_port();
  shapes[1].aes_key_bits = 256;
  shapes[2] = issl::Config::embedded_port();
  shapes[2].resumption = true;
  const Recipe recipes[3] = {Recipe::for_config(shapes[0]),
                             Recipe::for_config(shapes[1]),
                             Recipe::for_config(shapes[2])};

  struct Slot {
    SlabHandle h[4] = {0, 0, 0, 0};
    bool open = false;
  };
  std::vector<Slot> live(slots);
  ChurnResult r;

  auto close_slot = [&](Slot& s) {
    for (int k = 3; k >= 0; --k) {  // reverse order, like free_conn
      if (s.h[k] != 0) {
        (void)slab.free(s.h[k]);
        ++r.frees;
        s.h[k] = 0;
      }
    }
    s.open = false;
  };

  while (r.cycles < cycles) {
    Slot& s = live[rng.next() % slots];
    if (!s.open) {
      const Recipe& rec = recipes[rng.next() % 3];
      bool ok = true;
      for (int k = 0; k < 4 && ok; ++k) {
        auto h = slab.alloc(rec.bytes[k], "churn");
        if (h.ok()) {
          s.h[k] = *h;
          ++r.allocs;
        } else {
          ok = false;
        }
      }
      if (!ok) {
        ++r.failed;
        close_slot(s);  // release the partial recipe
      } else {
        s.open = true;
        ++r.cycles;  // a connection lifetime begins (it always ends below)
      }
    } else {
      close_slot(s);
    }
    r.peak_live_bytes = std::max<u64>(r.peak_live_bytes, slab.live_bytes());
  }
  for (Slot& s : live) {
    if (s.open) close_slot(s);
  }
  slab.flush_quarantine();

  if (quarantine) {
    // Detection demo: both bug classes must trip, deterministically.
    auto h = slab.alloc(64, "demo.doublefree");
    if (h.ok()) {
      (void)slab.free(*h);
      (void)slab.free(*h);  // detected: kFailedPrecondition + counter
    }
    auto h2 = slab.alloc(64, "demo.uaf");
    if (h2.ok()) {
      auto stale = slab.view(*h2);
      (void)slab.free(*h2);
      if (!stale.empty()) stale[0] ^= 0xFF;  // write through the dead handle
      slab.flush_quarantine();  // poison audit catches it here
    }
    r.double_frees_detected = slab.double_free_faults();
    r.poison_trips_detected = slab.poison_trips();
  }

  r.committed_bytes = slab.committed_bytes();
  r.end_live_bytes = slab.live_bytes();
  r.retention = r.peak_live_bytes > 0
                    ? static_cast<double>(r.committed_bytes) /
                          static_cast<double>(r.peak_live_bytes)
                    : 0.0;
  r.internal_frag = slab.internal_fragmentation();
  r.failed += 0;  // (injected failures impossible here: no monitor attached)
  return r;
}

// ---------------------------------------------------------------------------
// Phase 3: in-vivo service soak (full + resumed handshakes, abuse peers)
// ---------------------------------------------------------------------------

struct ServiceResult {
  u64 served = 0;
  u64 resumed = 0;       // abbreviated handshakes among served
  u64 failed = 0;
  u64 resets = 0;        // gate: 0
  u64 alloc_sheds = 0;   // gate: 0 (no faults injected in this phase)
  u64 end_live_bytes = 0;  // gate: 0 at idle
  u64 slab_frees = 0;
  u64 hostile_rounds = 0;
  u64 elapsed_ms = 0;
};

services::ServiceBoardConfig board_config(std::size_t budget_bytes) {
  services::ServiceBoardConfig cfg;
  cfg.redirector = bench::redirector_config("e16-psk");
  cfg.redirector.tls.resumption = true;
  cfg.redirector.session_cache_capacity = 8;
  cfg.redirector.shed_when_busy = true;
  cfg.board_ip = bench::kBoardIp;
  cfg.allocator = dynk::AllocatorKind::kSlab;
  cfg.xalloc_capacity = budget_bytes;
  return cfg;
}

ServiceResult run_service(u64 seed, u64 sessions, std::size_t budget_bytes) {
  bench::EchoWorld world(seed);
  net::SimNet& medium = world.medium;
  net::TcpStack attacker_host(medium, 4, seed ^ 0xA77A);
  services::ServiceBoard board(medium, board_config(budget_bytes));

  // Abuse peers from the E15 harness churn alongside the honest client:
  // abandoned handshakes and resumption-thrash are exactly the traffic that
  // leaks per-connection memory when a cleanup path is missing.
  abuse::HostileClient::Options mo;
  mo.behavior = abuse::Behavior::kMidHandshakeReset;
  mo.rounds = static_cast<int>(std::min<u64>(sessions, 200));
  abuse::HostileClient::Options ro;
  ro.behavior = abuse::Behavior::kResumptionThrash;
  ro.rounds = static_cast<int>(std::min<u64>(sessions, 200));
  abuse::HostileClient mid(attacker_host, medium, 1, 4433, seed * 31 + 1, mo);
  abuse::HostileClient thrash(attacker_host, medium, 1, 4433, seed * 31 + 2,
                              ro);

  ServiceResult r;
  const auto msg = bytes_of("memory churn soak");
  services::Client client(world.client_host, bench::kBoardIp,
                          bench::kListenPort, true,
                          board_config(budget_bytes).redirector.tls,
                          bytes_of("e16-psk"), seed * 977 + 5);
  client.set_idle_give_up(25'000);
  bool first = true;
  u64 t = 0;
  for (u64 s2 = 0; s2 < sessions; ++s2) {
    bool started;
    if (first) {
      started = client.start().is_ok();
      first = false;
    } else {
      started = client.reconnect().is_ok();  // offers the earned ticket
    }
    if (!started || !client.send(msg).is_ok()) {
      ++r.failed;
      continue;
    }
    const std::size_t want = client.received().size() + msg.size();
    bool done = false;
    for (u64 i = 0; i < 3'000 && !done; ++i, ++t) {
      board.poll();
      world.backend.poll();
      (void)client.poll();
      (void)mid.poll();
      (void)thrash.poll();
      medium.tick(1);
      if (client.received().size() >= want) done = true;
      if (client.failed()) break;
    }
    if (done) {
      ++r.served;
      if (client.resumed()) ++r.resumed;
    } else {
      ++r.failed;
    }
  }
  client.close();
  // Drain: let the attackers finish their rounds and every slot close, so
  // the end-of-soak live-bytes audit sees the idle steady state.
  for (u64 i = 0; i < 8'000; ++i, ++t) {
    board.poll();
    world.backend.poll();
    (void)client.poll();
    const bool a = mid.poll();
    const bool b = thrash.poll();
    medium.tick(1);
    if (!a && !b && board.redirector() &&
        board.redirector()->stats().connections_active == 0 && i > 400) {
      break;
    }
  }

  r.resets = board.resets();
  if (board.redirector()) {
    r.alloc_sheds = board.redirector()->stats().alloc_sheds;
  }
  if (board.slab()) {
    board.slab()->flush_quarantine();
    r.end_live_bytes = board.slab()->live_bytes();
    r.slab_frees = board.slab()->free_count();
  }
  r.hostile_rounds = mid.stats().rounds_done + thrash.stats().rounds_done;
  r.elapsed_ms = t;
  return r;
}

// ---------------------------------------------------------------------------
// Phase 4: alloc-fault scenario — every recipe site must shed, not restart
// ---------------------------------------------------------------------------

struct FaultResult {
  u64 served = 0;
  u64 sheds = 0;
  u64 injected = 0;
  u64 sites_tripped = 0;   // gate: all 4 recipe sites
  u64 resets = 0;          // gate: 0
  bool restart_requested = false;  // gate: false
  std::string sites;       // "conn.state,conn.session,conn.buf,conn.window"
  u64 elapsed_ms = 0;
};

FaultResult run_faults(u64 seed, u64 sessions, std::size_t budget_bytes) {
  bench::EchoWorld world(seed ^ 0xFA17);
  net::SimNet& medium = world.medium;

  auto cfg = board_config(budget_bytes);
  cfg.redirector.secure = false;  // the memory path is what's under test
  cfg.redirector.tls.resumption = false;
  cfg.redirector.session_cache_capacity = 0;
  // Gaps 0,1,2,3 walk the failure through the recipe: attempt #1 fails
  // conn.state; then one success (conn.state) and a failure on
  // conn.session; then two successes and a failure on conn.buf; then three
  // and conn.window. A seeded random tail keeps pressure on after coverage.
  AllocFaultPlan plan = AllocFaultPlan::at({0, 1, 2, 3});
  AllocFaultPlan tail = AllocFaultPlan::random(seed, 4, 5, 23);
  plan.failures.insert(plan.failures.end(), tail.failures.begin(),
                       tail.failures.end());
  cfg.alloc_fault_plan = plan;
  services::ServiceBoard board(medium, cfg);

  FaultResult r;
  const auto msg = bytes_of("fault probe");
  u64 t = 0;
  for (u64 s2 = 0; s2 < sessions; ++s2) {
    services::Client c(world.client_host, bench::kBoardIp, bench::kListenPort,
                       false, issl::Config::embedded_port(), {},
                       seed * 131 + s2);
    c.set_idle_give_up(2'000);
    if (!c.start().is_ok() || !c.send(msg).is_ok()) continue;
    bool done = false;
    for (u64 i = 0; i < 2'500 && !done; ++i, ++t) {
      board.poll();
      world.backend.poll();
      (void)c.poll();
      medium.tick(1);
      if (c.received().size() >= msg.size()) done = true;
      if (c.failed()) break;
    }
    if (done) ++r.served;
    c.close();
    for (u64 i = 0; i < 60; ++i, ++t) {
      board.poll();
      world.backend.poll();
      (void)c.poll();
      medium.tick(1);
    }
  }

  r.resets = board.resets();
  r.injected = board.alloc_faults().injected();
  r.sites_tripped = board.alloc_faults().sites_tripped().size();
  for (const auto& s : board.alloc_faults().sites_tripped()) {
    if (!r.sites.empty()) r.sites += ",";
    r.sites += s;
  }
  if (board.redirector()) {
    r.sheds = board.redirector()->stats().alloc_sheds;
    r.restart_requested = board.redirector()->restart_requested();
  }
  r.elapsed_ms = t;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const u64 seed = static_cast<u64>(args.flag_int("seed", 233));
  const u64 churn_cycles =
      static_cast<u64>(args.flag_int("churn-cycles", 1'000'000));
  const u64 quarantine_cycles =
      static_cast<u64>(args.flag_int("quarantine-cycles", 50'000));
  const u64 sessions = static_cast<u64>(args.flag_int("sessions", 240));
  const u64 fault_sessions =
      static_cast<u64>(args.flag_int("fault-sessions", 24));
  const u64 min_cycles =
      static_cast<u64>(args.flag_int("min-cycles", 1'000'000));
  // --quarantine 1 additionally runs the *main* churn in quarantine mode
  // (the ASan/UBSan job in check.sh does); the dedicated quarantine phase
  // runs either way. min=0: this is a mode toggle, not a workload size.
  const bool quarantine_main = args.flag_int("quarantine", 0, 0) != 0;
  const std::size_t kSlots = 16;          // concurrent lifetimes in vitro
  const std::size_t kBudget = 256 * 1024; // slab SRAM budget everywhere

  std::printf("E16: memory churn soak (slab allocator, DESIGN.md s14)\n");
  std::printf("  seed=%llu churn=%llu quarantine=%llu sessions=%llu "
              "faults=%llu\n\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(churn_cycles),
              static_cast<unsigned long long>(quarantine_cycles),
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(fault_sessions));

  const ChurnResult churn =
      run_churn(seed, churn_cycles, quarantine_main, kSlots, kBudget);
  std::printf("[churn]      %llu cycles  allocs=%llu frees=%llu failed=%llu\n"
              "             peak_live=%llu committed=%llu retention=%.3f "
              "internal_frag=%.3f\n",
              static_cast<unsigned long long>(churn.cycles),
              static_cast<unsigned long long>(churn.allocs),
              static_cast<unsigned long long>(churn.frees),
              static_cast<unsigned long long>(churn.failed),
              static_cast<unsigned long long>(churn.peak_live_bytes),
              static_cast<unsigned long long>(churn.committed_bytes),
              churn.retention, churn.internal_frag);

  const ChurnResult quar =
      run_churn(seed ^ 0x9E37, quarantine_cycles, true, kSlots, kBudget);
  std::printf("[quarantine] %llu cycles  double-free detected=%llu "
              "uaf detected=%llu\n",
              static_cast<unsigned long long>(quar.cycles),
              static_cast<unsigned long long>(quar.double_frees_detected),
              static_cast<unsigned long long>(quar.poison_trips_detected));

  const ServiceResult svc = run_service(seed, sessions, kBudget);
  std::printf("[service]    served=%llu (resumed=%llu) failed=%llu "
              "hostile_rounds=%llu resets=%llu live_at_idle=%llu\n",
              static_cast<unsigned long long>(svc.served),
              static_cast<unsigned long long>(svc.resumed),
              static_cast<unsigned long long>(svc.failed),
              static_cast<unsigned long long>(svc.hostile_rounds),
              static_cast<unsigned long long>(svc.resets),
              static_cast<unsigned long long>(svc.end_live_bytes));

  const FaultResult flt = run_faults(seed, fault_sessions, kBudget);
  std::printf("[faults]     served=%llu sheds=%llu injected=%llu "
              "sites=[%s] resets=%llu\n\n",
              static_cast<unsigned long long>(flt.served),
              static_cast<unsigned long long>(flt.sheds),
              static_cast<unsigned long long>(flt.injected),
              flt.sites.c_str(),
              static_cast<unsigned long long>(flt.resets));

  const u64 total_cycles =
      churn.cycles + quar.cycles + svc.served + flt.served;
  const u64 total_restarts = svc.resets + flt.resets;

  // --- Gates ---------------------------------------------------------------
  // Retention ceiling: the slab may cache empty blocks (by design), but the
  // committed footprint must stay within 2x the real peak demand — that IS
  // the bounded-external-fragmentation claim, measured not asserted.
  constexpr double kRetentionCeiling = 2.0;
  u64 violations = 0;
  auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      ++violations;
      std::printf("GATE FAILED: %s\n", what);
    }
  };
  gate(total_cycles >= min_cycles, "total cycles under --min-cycles");
  gate(churn.failed == 0, "churn hit exhaustion on a leak-free workload");
  gate(churn.end_live_bytes == 0, "churn leaked live bytes");
  gate(churn.retention <= kRetentionCeiling, "churn retention over ceiling");
  gate(quar.end_live_bytes == 0, "quarantine churn leaked live bytes");
  gate(quar.double_frees_detected == 1, "double free went undetected");
  gate(quar.poison_trips_detected == 1, "use-after-free went undetected");
  gate(svc.served >= sessions * 9 / 10, "service soak served too few");
  gate(svc.resumed > 0, "no abbreviated handshake exercised");
  gate(svc.resets == 0, "service soak restarted the board");
  gate(svc.alloc_sheds == 0, "service soak shed without injected faults");
  gate(svc.end_live_bytes == 0, "service soak left live slab bytes at idle");
  gate(flt.sites_tripped == 4, "fault plan missed a recipe site");
  gate(flt.sheds == flt.injected, "an injected fault did not shed cleanly");
  gate(flt.resets == 0, "an alloc fault restarted the board");
  gate(!flt.restart_requested, "slab mode requested an xalloc-style restart");
  // The named reset-cause counter must not exist: no alloc-caused restart
  // ever happened, by telemetry, not just by our own counters.
  gate(telemetry::Registry::global().find_counter("board.resets.xalloc") ==
           nullptr,
       "board.resets.xalloc counter exists");

  std::printf("%s: %llu cycles, %llu board restarts, %llu violations\n",
              violations == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(total_cycles),
              static_cast<unsigned long long>(total_restarts),
              static_cast<unsigned long long>(violations));

  bench::JsonReport rep("E16");
  rep.result("total_cycles", total_cycles);
  rep.result("total_restarts", total_restarts);
  rep.result("violations", violations);
  rep.result("allocator", dynk::allocator_kind_name(dynk::AllocatorKind::kSlab));
  rep.result("churn.cycles", churn.cycles);
  rep.result("churn.allocs", churn.allocs);
  rep.result("churn.frees", churn.frees);
  rep.result("churn.failed", churn.failed);
  rep.result("churn.peak_live_bytes", churn.peak_live_bytes);
  rep.result("churn.committed_bytes", churn.committed_bytes);
  rep.result("churn.end_live_bytes", churn.end_live_bytes);
  rep.result("churn.retention", churn.retention);
  rep.result("churn.internal_frag", churn.internal_frag);
  rep.result("quarantine.cycles", quar.cycles);
  rep.result("quarantine.double_frees_detected", quar.double_frees_detected);
  rep.result("quarantine.poison_trips_detected", quar.poison_trips_detected);
  rep.result("service.served", svc.served);
  rep.result("service.resumed", svc.resumed);
  rep.result("service.failed", svc.failed);
  rep.result("service.resets", svc.resets);
  rep.result("service.alloc_sheds", svc.alloc_sheds);
  rep.result("service.end_live_bytes", svc.end_live_bytes);
  rep.result("service.slab_frees", svc.slab_frees);
  rep.result("service.hostile_rounds", svc.hostile_rounds);
  rep.result("service.elapsed_ms", svc.elapsed_ms);
  rep.result("faults.served", flt.served);
  rep.result("faults.sheds", flt.sheds);
  rep.result("faults.injected", flt.injected);
  rep.result("faults.sites_tripped", flt.sites_tripped);
  rep.result("faults.sites", flt.sites);
  rep.result("faults.resets", flt.resets);
  rep.result("faults.elapsed_ms", flt.elapsed_ms);
  rep.write(args);

  return violations == 0 ? 0 : 1;
}

// E12 — trace audit: flight-recorder tracing under a faulty,
// resumption-heavy soak (DESIGN.md §11).
//
// The scenario is deliberately the nastiest one the repo can stage: burst
// loss on the wire, a periodically wedged main loop (so the WDT bites and
// warm-resets the board mid-traffic), and reconnect-heavy TLS clients that
// carry resumption tickets across board deaths. The same seeded scenario
// runs twice — tracing disabled, then enabled — and the bench enforces:
//
//   passivity      — tracing changes nothing: the traced run completes and
//                    fails exactly the same sessions, boots the same number
//                    of times (tracing draws no PRNG, ticks no clock);
//   completeness   — audit_trace() finds no orphan connections (every
//                    ESTABLISHED reaches a CLOSED/TIME_WAIT terminal, even
//                    across board deaths), no orphan handshake spans, no
//                    handshake span escaping its connection's lifetime;
//   coverage       — the trace saw resumed handshakes and at least one
//                    watchdog bite, i.e. the interesting paths were hit;
//   black box      — the battery-SRAM flight recorder's retained tail is
//                    byte-for-byte the suffix of the full trace, and the
//                    WDT postmortem carries the pre-death trace lines;
//   zero when off  — the disabled run emits no events at all.
//
// Tracing overhead (host wall-clock, traced vs untraced) is printed to
// stdout ONLY — never into the JSON, which carries exclusively virtual /
// deterministic counts so BENCH_E12.json is byte-reproducible per seed.
// Exit status is 1 on any violated invariant.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "services/supervisor.h"
#include "telemetry/flightrec.h"
#include "telemetry/trace.h"

using namespace rmc;
using common::u64;
using common::u8;

namespace {

std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

struct SoakResult {
  bool ok = true;
  int completed = 0;
  int failed = 0;
  int stuck = 0;
  u64 resumed = 0;  // completed sessions that took the abbreviated path
  u64 boots = 0;
  u64 wdt_bites = 0;
  u64 elapsed_virtual_ms = 0;
  double wall_ms = 0.0;  // host time; stdout only, NEVER in the JSON

  // Traced run only.
  u64 events = 0;
  u64 ring_size = 0;
  u64 ring_total = 0;
  bool ring_matches = false;
  u64 postmortem_trace_lines = 0;
  u64 pcap_packets = 0;
  u64 pcap_bytes = 0;
};

struct LiveClient {
  std::unique_ptr<services::Client> client;
};

SoakResult run_soak(u64 seed, bool traced, u64 max_ms, u64 spawn_until,
                    std::vector<telemetry::TraceEvent>* events_out) {
  auto& tracer = telemetry::Tracer::global();
  tracer.clear();
  tracer.set_enabled(traced);
  tracer.set_pcap_capture(traced);

  net::SimNet medium(seed);
  medium.set_fault_plan(net::FaultPlan::burst_loss(0.02));
  net::TcpStack backend_host(medium, 2);
  net::TcpStack client_host(medium, 3);
  // A WDT bite can destroy the board mid-close: the client has its FIN acked
  // (FIN_WAIT_2) but the peer's FIN dies with the board. The stack's
  // FIN_WAIT_2 timeout (TcpStack::kFinWait2TimeoutMs, 10 s) ends that
  // half-open TCB well inside the 30 s post-soak drain, so the trace audit
  // sees a terminal transition instead of an orphan.
  services::EchoBackend backend(backend_host, 8000);
  (void)backend.start();

  services::ServiceBoardConfig cfg;
  cfg.redirector.listen_port = 4433;
  cfg.redirector.backend_ip = 2;
  cfg.redirector.backend_port = 8000;
  cfg.redirector.secure = true;
  cfg.redirector.psk = bytes_of("e12");
  cfg.redirector.handler_slots = 3;
  cfg.redirector.tls = issl::Config::embedded_port();
  cfg.redirector.tls.resumption = true;
  cfg.redirector.session_cache_capacity = 8;
  cfg.redirector.crypto_cycles_handshake = 2'000'000;
  cfg.redirector.crypto_cycles_resumed_handshake = 500'000;
  cfg.board_ip = 1;
  cfg.net_seed = seed * 131;
  cfg.wdt_period_ms = 400;
  cfg.reboot_ms = 2;
  services::ServiceBoard board(medium, cfg);

  issl::Config ctls = issl::Config::embedded_port();
  ctls.resumption = true;

  const std::vector<u8> payload = bytes_of("ping over resumed tls");
  SoakResult r;
  std::vector<LiveClient> live;
  u64 spawned = 0;
  constexpr std::size_t kConcurrency = 2;

  auto spawn = [&]() {
    LiveClient lc;
    lc.client = std::make_unique<services::Client>(
        client_host, 1, 4433, true, ctls, bytes_of("e12"),
        seed * 977 + ++spawned);
    lc.client->set_idle_give_up(25'000);
    (void)lc.client->start();
    (void)lc.client->send(payload);
    live.push_back(std::move(lc));
  };

  // First wedge lands mid-soak so the bite kills live handshakes/forwards;
  // the reschedule guarantees at least two bites inside the spawn window.
  u64 wedge_countdown = 6'000;

  const auto wall0 = std::chrono::steady_clock::now();
  u64 t = 0;
  for (; t < max_ms; ++t) {
    while (t < spawn_until && live.size() < kConcurrency) spawn();

    if (board.up() && t < spawn_until && wedge_countdown > 0 &&
        --wedge_countdown == 0) {
      board.wedge_for_ms(cfg.wdt_period_ms + 200);  // guarantee a bite
      wedge_countdown = 9'000;
    }

    board.poll();
    backend.poll();
    for (std::size_t i = 0; i < live.size();) {
      services::Client& c = *live[i].client;
      const bool alive = c.poll();
      const bool done = c.received().size() >= payload.size();
      if (done || !alive || c.failed()) {
        if (done) {
          ++r.completed;
          if (c.resumed()) ++r.resumed;
        } else {
          ++r.failed;
        }
        // Reconnect (carrying the earned ticket) while load is on; settle
        // cleanly afterwards.
        if (t < spawn_until) {
          if (done) c.close();
          if (!c.reconnect().is_ok() || !c.send(payload).is_ok()) {
            r.ok = false;
            live.erase(live.begin() + static_cast<long>(i));
            continue;
          }
        } else {
          c.close();
          live.erase(live.begin() + static_cast<long>(i));
          continue;
        }
      }
      ++i;
    }

    medium.tick(1);
    if (t >= spawn_until && live.empty()) break;
  }
  r.stuck = static_cast<int>(live.size());
  live.clear();

  // Drain: backend conns whose peer died with the board never see traffic
  // again, so close them and let TCP run to a terminal (FIN exchange, or
  // RST/give-up against a dead address). Keeps the trace free of half-open
  // connections the audit would rightly flag.
  backend.close_all();
  for (u64 d = 0; d < 30'000; ++d) {
    board.poll();
    backend.poll();
    medium.tick(1);
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall0)
                  .count();

  r.elapsed_virtual_ms = medium.now_ms();
  r.boots = board.boots();
  r.wdt_bites = board.wdt_bites();

  if (traced) {
    const auto& ev = tracer.events();
    r.events = ev.size();
    // Black box: the ring's retained tail must be exactly the last
    // size() events of the full trace, in order.
    const telemetry::FlightRecorder& ring = board.battery().flightrec;
    const auto tail = ring.tail();
    r.ring_size = tail.size();
    r.ring_total = ring.total();
    r.ring_matches =
        ring.total() == ev.size() && tail.size() <= ev.size() &&
        std::equal(tail.begin(), tail.end(), ev.end() - tail.size());
    for (const std::string& line : board.postmortem()) {
      if (line.rfind("trace ", 0) == 0) ++r.postmortem_trace_lines;
    }
    r.pcap_packets = tracer.pcap_packets();
    r.pcap_bytes = tracer.pcap_file_bytes().size();
    if (events_out != nullptr) *events_out = ev;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const u64 seed = static_cast<u64>(args.flag_int("seed", 0x12E));
  const u64 max_ms = static_cast<u64>(args.flag_int("max-ms", 60'000));
  const u64 spawn_until =
      static_cast<u64>(args.flag_int("spawn-until-ms", 25'000));

  std::puts("================================================================");
  std::puts("E12: trace audit -- causal spans under a faulty resumption soak");
  std::printf("    seed=%llu  budget=%llu virt ms  load until=%llu virt ms\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(max_ms),
              static_cast<unsigned long long>(spawn_until));
  std::puts("================================================================\n");

  // Untraced first (the baseline the traced run must not perturb), traced
  // second so --trace/--pcap artifacts reflect the traced run.
  const SoakResult off = run_soak(seed, false, max_ms, spawn_until, nullptr);
  const bool disabled_zero_events =
      telemetry::Tracer::global().events().empty();
  std::vector<telemetry::TraceEvent> events;
  const SoakResult on = run_soak(seed, true, max_ms, spawn_until, &events);

  const telemetry::TraceAudit audit = telemetry::audit_trace(events);
  u64 layer_counts[telemetry::kTraceLayers] = {};
  for (const auto& e : events) {
    if (e.layer < telemetry::kTraceLayers) ++layer_counts[e.layer];
  }

  std::printf("%-10s %5s %5s %5s %7s %5s %5s %9s %9s\n", "run", "done",
              "fail", "stuck", "resumed", "boots", "wdt", "events",
              "virt ms");
  std::printf("%-10s %5d %5d %5d %7llu %5llu %5llu %9s %9llu\n", "untraced",
              off.completed, off.failed, off.stuck,
              static_cast<unsigned long long>(off.resumed),
              static_cast<unsigned long long>(off.boots),
              static_cast<unsigned long long>(off.wdt_bites), "-",
              static_cast<unsigned long long>(off.elapsed_virtual_ms));
  std::printf("%-10s %5d %5d %5d %7llu %5llu %5llu %9llu %9llu\n", "traced",
              on.completed, on.failed, on.stuck,
              static_cast<unsigned long long>(on.resumed),
              static_cast<unsigned long long>(on.boots),
              static_cast<unsigned long long>(on.wdt_bites),
              static_cast<unsigned long long>(on.events),
              static_cast<unsigned long long>(on.elapsed_virtual_ms));

  std::printf("\nper layer: net=%llu tcp=%llu issl=%llu service=%llu "
              "board=%llu\n",
              static_cast<unsigned long long>(layer_counts[0]),
              static_cast<unsigned long long>(layer_counts[1]),
              static_cast<unsigned long long>(layer_counts[2]),
              static_cast<unsigned long long>(layer_counts[3]),
              static_cast<unsigned long long>(layer_counts[4]));
  std::printf("audit: %zu conns, %llu established, %llu handshakes "
              "(%llu resumed), orphans conn=%llu hs=%llu nesting=%llu\n",
              audit.conns.size(),
              static_cast<unsigned long long>(audit.established_connections),
              static_cast<unsigned long long>(audit.handshakes_completed),
              static_cast<unsigned long long>(audit.handshakes_resumed),
              static_cast<unsigned long long>(audit.orphan_connections),
              static_cast<unsigned long long>(audit.orphan_handshakes),
              static_cast<unsigned long long>(audit.nesting_violations));
  std::printf("black box: ring %llu/%llu events, tail==suffix %s, "
              "postmortem trace lines %llu\n",
              static_cast<unsigned long long>(on.ring_size),
              static_cast<unsigned long long>(on.ring_total),
              on.ring_matches ? "yes" : "NO",
              static_cast<unsigned long long>(on.postmortem_trace_lines));
  std::printf("pcap: %llu packets, %llu bytes\n",
              static_cast<unsigned long long>(on.pcap_packets),
              static_cast<unsigned long long>(on.pcap_bytes));
  // Host wall-clock: stdout only. Single-run numbers on a shared CI box are
  // noisy — this is a smell test, not a gated figure.
  if (off.wall_ms > 0.0) {
    std::printf("tracing overhead: %.1f ms -> %.1f ms wall (%+.1f%%)\n",
                off.wall_ms, on.wall_ms,
                (on.wall_ms - off.wall_ms) / off.wall_ms * 100.0);
  }

  const bool behavior_identical =
      on.completed == off.completed && on.failed == off.failed &&
      on.stuck == off.stuck && on.resumed == off.resumed &&
      on.boots == off.boots && on.wdt_bites == off.wdt_bites &&
      on.elapsed_virtual_ms == off.elapsed_virtual_ms;

  int rc = 0;
  auto violation = [&rc](bool bad, const char* what) {
    if (bad) {
      std::fprintf(stderr, "E12 violation: %s\n", what);
      rc = 1;
    }
  };
  violation(!off.ok || !on.ok, "soak scenario failed to run");
  violation(off.stuck != 0 || on.stuck != 0, "half-open sessions at end");
  violation(!disabled_zero_events, "disabled tracer recorded events");
  violation(!behavior_identical, "tracing perturbed the scenario");
  violation(on.events == 0, "traced run recorded nothing");
  violation(audit.orphan_connections != 0, "orphan connections in trace");
  violation(audit.orphan_handshakes != 0, "orphan handshake spans");
  violation(audit.nesting_violations != 0, "handshake span escapes conn");
  // Diagnostic for the two span invariants: dump the offending connection's
  // full event list so a failure names the exact gap.
  if (audit.orphan_connections != 0 || audit.orphan_handshakes != 0) {
    for (const auto& ca : audit.conns) {
      const bool orphan_conn = ca.established && !ca.terminated;
      const bool orphan_hs =
          (ca.hs[0].started && !ca.hs[0].ended && !ca.has_terminal) ||
          (ca.hs[1].started && !ca.hs[1].ended && !ca.has_terminal);
      if (!orphan_conn && !orphan_hs) continue;
      std::fprintf(stderr, "-- conn %08x (%s):\n", ca.conn,
                   orphan_conn ? "no terminal after establish"
                               : "unfinished handshake");
      for (const auto& e : events) {
        if (e.conn != ca.conn) continue;
        std::fprintf(stderr, "   %s\n",
                     telemetry::format_trace_event(e).c_str());
      }
    }
  }
  violation(audit.handshakes_resumed == 0, "no resumed handshake traced");
  violation(on.wdt_bites == 0, "no watchdog bite in scenario");
  violation(!on.ring_matches, "flight-recorder tail != trace suffix");
  violation(on.postmortem_trace_lines == 0,
            "postmortem carries no flight-recorder lines");
  violation(on.pcap_packets == 0 || on.pcap_bytes <= 24,
            "pcap capture is empty");

  bench::JsonReport report("E12");
  report.result("disabled.zero_events", disabled_zero_events);
  report.result("behavior_identical", behavior_identical);
  report.result("soak.completed", on.completed);
  report.result("soak.failed_closed", on.failed);
  report.result("soak.half_open", on.stuck);
  report.result("soak.resumed_sessions", on.resumed);
  report.result("soak.boots", on.boots);
  report.result("soak.wdt_bites", on.wdt_bites);
  report.result("soak.elapsed_virtual_ms", on.elapsed_virtual_ms);
  report.result("trace.events", on.events);
  report.result("trace.events_net", layer_counts[0]);
  report.result("trace.events_tcp", layer_counts[1]);
  report.result("trace.events_issl", layer_counts[2]);
  report.result("trace.events_service", layer_counts[3]);
  report.result("trace.events_board", layer_counts[4]);
  report.result("audit.connections", static_cast<u64>(audit.conns.size()));
  report.result("audit.established", audit.established_connections);
  report.result("audit.handshakes_completed", audit.handshakes_completed);
  report.result("audit.handshakes_resumed", audit.handshakes_resumed);
  report.result("audit.orphan_connections", audit.orphan_connections);
  report.result("audit.orphan_handshakes", audit.orphan_handshakes);
  report.result("audit.nesting_violations", audit.nesting_violations);
  report.result("ring.size", on.ring_size);
  report.result("ring.total", on.ring_total);
  report.result("ring.tail_matches_suffix", on.ring_matches);
  report.result("ring.postmortem_trace_lines", on.postmortem_trace_lines);
  report.result("pcap.packets", on.pcap_packets);
  report.result("pcap.bytes", on.pcap_bytes);
  report.result("invariants_clean", rc == 0);
  report.write(args);

  return rc;
}

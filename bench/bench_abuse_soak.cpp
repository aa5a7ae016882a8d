// E15 — hostile-peer abuse soak: the secure redirector's front door under
// deterministic protocol abuse, plus a coverage-guided fuzz pass over the
// issl parse paths.
//
// E9 made the *network* hostile (loss, corruption, partitions); E15 makes
// the *peer* hostile: malformed and oversized records, truncated handshakes
// and length bombs, Slowloris byte-drips, ClientHello storms, mid-handshake
// resets, spoofed-source SYN floods against the counted backlog, and
// resumption-cache thrash — each a seeded HostileClient (src/abuse), all
// running against the full RmcRedirector while legitimate clients try to
// get real work done.
//
// Gates (exit 1 if any fails):
//   * never-wedge: every scenario settles inside the virtual-time budget —
//     no legit client stuck, every attacker's script ran to completion;
//   * zero corrupted plaintext: nothing a legit client received may differ
//     from its payload (the MAC must convert attacker bytes into failures,
//     never into data);
//   * attributable kills: every shed / watchdog abort / handshake timeout
//     the redirector counted appears in the flight recorder (PR 5), so a
//     post-incident trace explains every dropped connection;
//   * goodput floor: at least `floor` legit clients complete per scenario
//     (with bounded reconnect retries — being attacked is not an excuse to
//     serve nobody);
//   * fuzz pass: no input wedges a session (terminal state within the pump
//     budget), and coverage feedback demonstrably works.
//
// Everything derives from --seed; a fixed seed gives a byte-identical
// --json artifact. --smoke 1 runs only the fuzz pass (the CI fuzz-smoke
// step).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abuse/fuzz.h"
#include "abuse/hostile.h"
#include "bench_util.h"
#include "services/redirector.h"

using namespace rmc;
using common::u64;
using common::u8;

namespace {

std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

using abuse::Behavior;
using AttackOpts = abuse::HostileClient::Options;

AttackOpts attack(Behavior b, int rounds) {
  AttackOpts o;
  o.behavior = b;
  o.rounds = rounds;
  return o;
}

AttackOpts syn_flood(int per_poll, u64 polls) {
  AttackOpts o;
  o.behavior = Behavior::kSynFlood;
  o.flood_syns_per_poll = per_poll;
  o.flood_polls = polls;
  return o;
}

struct AbuseSpec {
  std::string name;
  std::vector<AttackOpts> attackers;
  int legit_floor;  // minimum legit completions under this attack
};

std::vector<AbuseSpec> make_scenarios(int clients) {
  std::vector<AbuseSpec> v;
  v.push_back({"malformed",
               {attack(Behavior::kMalformedRecord, 8),
                attack(Behavior::kMalformedRecord, 8),
                attack(Behavior::kMalformedRecord, 8)},
               clients});
  v.push_back({"oversize",
               {attack(Behavior::kOversizedRecord, 8),
                attack(Behavior::kOversizedRecord, 8)},
               clients});
  v.push_back({"truncated_hs",
               {attack(Behavior::kTruncatedHandshake, 3),
                attack(Behavior::kTruncatedHandshake, 3)},
               clients});
  v.push_back({"slow_drip",
               {attack(Behavior::kSlowDrip, 2),
                attack(Behavior::kSlowDrip, 2)},
               clients});
  v.push_back({"hello_storm",
               {attack(Behavior::kClientHelloStorm, 8),
                attack(Behavior::kClientHelloStorm, 8),
                attack(Behavior::kClientHelloStorm, 8)},
               clients});
  v.push_back({"mid_reset",
               {attack(Behavior::kMidHandshakeReset, 10),
                attack(Behavior::kMidHandshakeReset, 10),
                attack(Behavior::kMidHandshakeReset, 10)},
               clients});
  v.push_back({"syn_flood", {syn_flood(2, 1500)}, clients});
  v.push_back({"resumption_thrash",
               {attack(Behavior::kResumptionThrash, 8),
                attack(Behavior::kResumptionThrash, 8),
                attack(Behavior::kResumptionThrash, 8)},
               clients});
  v.push_back({"mixed_storm",
               {attack(Behavior::kMalformedRecord, 5),
                attack(Behavior::kSlowDrip, 1),
                attack(Behavior::kClientHelloStorm, 6),
                attack(Behavior::kMidHandshakeReset, 6),
                syn_flood(2, 800),
                attack(Behavior::kResumptionThrash, 6)},
               clients});
  return v;
}

struct AbuseResult {
  int completed = 0;
  int failed = 0;
  int stuck = 0;
  u64 retries = 0;  // legit reconnect attempts beyond the first
  int corrupt_echoes = 0;
  u64 bytes_echoed = 0;
  u64 elapsed_ms = 0;
  bool attackers_done = false;
  // Redirector degradation counters vs. their flight-recorder mirrors.
  u64 shed = 0, trace_shed = 0;
  u64 watchdogs = 0, trace_watchdogs = 0;
  u64 hs_timeouts = 0, trace_hs_timeouts = 0;
  u64 hs_failures = 0;
  u64 served = 0;
  // Hardening telemetry (registry deltas).
  u64 malformed_records = 0;
  u64 resumption_rejects = 0;
  u64 mac_failures = 0;
  // TCP front-door pressure.
  u64 syn_backlog_drops = 0;
  u64 embryonic_timeouts = 0;
  u64 half_open_left = 0;
  // Attacker aggregates.
  u64 atk_conns = 0;
  u64 atk_rounds = 0;
  u64 atk_resets = 0;
  u64 syns_spoofed = 0;
  // Gates.
  bool wedge_free = false;
  bool no_corrupt = false;
  bool attributed = false;
  bool goodput_ok = false;
  bool gates_ok = false;
};

u64 registry_value(const char* name) {
  return telemetry::Registry::global().counter(name).value();
}

u64 count_service_events(std::size_t from, u8 event) {
  const auto& ev = telemetry::Tracer::global().events();
  u64 n = 0;
  for (std::size_t i = from; i < ev.size(); ++i) {
    if (ev[i].layer == static_cast<u8>(telemetry::TraceLayer::kService) &&
        ev[i].event == event) {
      ++n;
    }
  }
  return n;
}

AbuseResult run_scenario(u64 seed, const AbuseSpec& spec, int offered,
                         std::size_t payload_bytes, u64 max_ms) {
  net::SimNet medium(seed);
  net::TcpStack board(medium, 1);
  net::TcpStack backend_host(medium, 2);
  net::TcpStack client_host(medium, 3);
  net::TcpStack attacker_host(medium, 4, seed ^ 0xA77A);
  services::EchoBackend backend(backend_host, 8000);
  (void)backend.start();

  services::RedirectorConfig cfg;
  cfg.listen_port = 4433;
  cfg.backend_ip = 2;
  cfg.backend_port = 8000;
  cfg.psk = bytes_of("e15");
  cfg.handler_slots = 3;
  cfg.shed_when_busy = true;
  cfg.handshake_timeout_ms = 2'500;  // tight: abuse must die fast
  cfg.idle_timeout_ms = 8'000;
  cfg.tls.resumption = true;
  cfg.session_cache_capacity = 16;
  services::RmcRedirector red(board, medium, cfg);
  AbuseResult r;
  if (!red.start().is_ok()) return r;

  const u64 malformed_before = registry_value("issl.malformed_records");
  const u64 rejects_before = registry_value("issl.resumption_rejects");
  const u64 mac_before = registry_value("issl.mac_failures");
  const std::size_t trace_before = telemetry::Tracer::global().events().size();

  std::vector<u8> payload(payload_bytes);
  common::Xorshift64 fill(seed ^ 0xE15E15);
  fill.fill(payload);
  constexpr std::size_t kChunk = 512;
  constexpr int kMaxAttempts = 5;

  issl::Config legit_tls = issl::Config::embedded_port();
  legit_tls.resumption = true;

  struct Legit {
    std::unique_ptr<services::Client> c;
    std::size_t sent = 0;
    int attempts = 1;
    int state = 0;  // 0 live, 1 completed, 2 failed for good
    u64 retry_at = 0;  // backoff deadline before the next redial
  };
  std::vector<Legit> legit(static_cast<std::size_t>(offered));
  for (int i = 0; i < offered; ++i) {
    auto& L = legit[static_cast<std::size_t>(i)];
    L.c = std::make_unique<services::Client>(
        client_host, 1, 4433, true, legit_tls, bytes_of("e15"),
        seed * 977 + static_cast<u64>(i) * 131);
    (void)L.c->start();
    const std::size_t first = std::min(kChunk, payload_bytes);
    (void)L.c->send(std::span<const u8>(payload.data(), first));
    L.sent = first;
  }

  std::vector<std::unique_ptr<abuse::HostileClient>> attackers;
  for (std::size_t i = 0; i < spec.attackers.size(); ++i) {
    AttackOpts o = spec.attackers[i];
    // Stagger the rounds so attack pressure spans the victim's whole
    // busy/idle cycle instead of all dying into a full house at t=0.
    o.reconnect_delay_polls = 25 + 35 * i;
    attackers.push_back(std::make_unique<abuse::HostileClient>(
        attacker_host, medium, 1, 4433, seed * 13 + i * 101 + 7, o));
  }

  u64 t = 0;
  for (; t < max_ms; ++t) {
    bool all_settled = true;
    for (auto& L : legit) {
      if (L.state != 0) continue;
      services::Client& c = *L.c;
      // Backing off after a shed: don't redial into the same storm.
      if (L.retry_at > t) {
        all_settled = false;
        continue;
      }
      if (L.retry_at != 0 && L.retry_at <= t) {
        L.retry_at = 0;
        (void)c.reconnect();
        const std::size_t first = std::min(kChunk, payload_bytes);
        (void)c.send(std::span<const u8>(payload.data(), first));
        L.sent = first;
        all_settled = false;
        continue;
      }
      const bool alive = c.poll();
      if (c.received().size() >= payload_bytes) {
        L.state = 1;
        c.close();
        continue;
      }
      if (!alive || c.failed()) {
        // Shed or killed — a real client retries (bounded, with linear
        // backoff so the retry lands after the storm), and the retry
        // offers the earned ticket, so recovery rides the abbreviated
        // handshake when the cache survived the abuse.
        if (L.attempts < kMaxAttempts) {
          ++L.attempts;
          ++r.retries;
          L.retry_at = t + 400 * static_cast<u64>(L.attempts);
          all_settled = false;
        } else {
          L.state = 2;
        }
        continue;
      }
      if (c.received().size() >= L.sent && L.sent < payload_bytes) {
        const std::size_t n = std::min(kChunk, payload_bytes - L.sent);
        (void)c.send(std::span<const u8>(payload.data() + L.sent, n));
        L.sent += n;
      }
      all_settled = false;
    }
    bool attackers_done = true;
    for (auto& a : attackers) {
      if (a->poll()) attackers_done = false;
    }
    red.poll();
    backend.poll();
    medium.tick(1);
    if (all_settled && attackers_done) {
      r.attackers_done = true;
      break;
    }
  }
  r.elapsed_ms = t;
  if (!r.attackers_done) {
    r.attackers_done = std::all_of(
        attackers.begin(), attackers.end(),
        [](const auto& a) { return a->done(); });
  }

  for (auto& L : legit) {
    if (L.state == 0) ++r.stuck;
    if (L.state == 2) ++r.failed;
    services::Client& c = *L.c;
    // The zero-corruption invariant covers partial transfers too: whatever
    // came back must be a prefix of what was sent, completed or not.
    const std::size_t n = std::min(c.received().size(), payload.size());
    if (!std::equal(c.received().begin(),
                    c.received().begin() + static_cast<long>(n),
                    payload.begin())) {
      ++r.corrupt_echoes;
      continue;
    }
    r.bytes_echoed += c.received().size();
    if (L.state == 1) ++r.completed;
  }

  for (auto& a : attackers) {
    r.atk_conns += a->stats().conns_attempted;
    r.atk_rounds += a->stats().rounds_done;
    r.atk_resets += a->stats().resets_seen;
    r.syns_spoofed += a->stats().syns_spoofed;
  }

  r.shed = red.stats().connections_shed;
  r.watchdogs = red.stats().watchdog_aborts;
  r.hs_timeouts = red.stats().handshake_timeouts;
  r.hs_failures = red.stats().handshake_failures;
  r.served = red.stats().connections_served;
  r.trace_shed =
      count_service_events(trace_before, telemetry::ServiceTrace::kShed);
  r.trace_watchdogs = count_service_events(
      trace_before, telemetry::ServiceTrace::kWatchdogAbort);
  r.trace_hs_timeouts = count_service_events(
      trace_before, telemetry::ServiceTrace::kHsTimeout);

  r.malformed_records =
      registry_value("issl.malformed_records") - malformed_before;
  r.resumption_rejects =
      registry_value("issl.resumption_rejects") - rejects_before;
  r.mac_failures = registry_value("issl.mac_failures") - mac_before;
  r.syn_backlog_drops = board.syn_backlog_drops();
  r.embryonic_timeouts = board.embryonic_timeouts();
  r.half_open_left = board.half_open_count();

  r.wedge_free = r.stuck == 0 && r.attackers_done && t < max_ms;
  r.no_corrupt = r.corrupt_echoes == 0;
  r.attributed = r.trace_shed == r.shed &&
                 r.trace_watchdogs == r.watchdogs &&
                 r.trace_hs_timeouts == r.hs_timeouts;
  r.goodput_ok = r.completed >= spec.legit_floor;
  r.gates_ok = r.wedge_free && r.no_corrupt && r.attributed && r.goodput_ok;
  return r;
}

struct PoisonResult {
  int warmed = 0;            // phase-A completions that filled the cache
  int tampered = 0;          // cache entries poisoned in the snapshot
  int recovered = 0;         // phase-B completions after the poisoning
  int resumed_after = 0;     // must be 0: nobody resumes off a bad secret
  u64 integrity_rejects = 0;
  u64 registry_rejects = 0;
  bool gates_ok = false;
};

// The cache-poisoning scenario needs choreography the generic loop can't
// express: complete handshakes to fill the cache, corrupt the raw snapshot
// (exactly what a decayed battery image or a poisoned restore hands the
// server), then have the same clients resume against it.
PoisonResult run_cache_poison(u64 seed, std::size_t payload_bytes,
                              u64 max_ms) {
  net::SimNet medium(seed);
  net::TcpStack board(medium, 1);
  net::TcpStack backend_host(medium, 2);
  net::TcpStack client_host(medium, 3);
  services::EchoBackend backend(backend_host, 8000);
  (void)backend.start();

  services::RedirectorConfig cfg;
  cfg.listen_port = 4433;
  cfg.backend_ip = 2;
  cfg.backend_port = 8000;
  cfg.psk = bytes_of("e15");
  cfg.handler_slots = 3;
  cfg.handshake_timeout_ms = 2'500;
  cfg.idle_timeout_ms = 8'000;
  cfg.tls.resumption = true;
  cfg.session_cache_capacity = 16;
  services::RmcRedirector red(board, medium, cfg);
  PoisonResult r;
  if (!red.start().is_ok()) return r;
  const u64 rejects_before = registry_value("issl.resumption_rejects");

  std::vector<u8> payload(payload_bytes);
  common::Xorshift64 fill(seed ^ 0xCACE);
  fill.fill(payload);

  issl::Config legit_tls = issl::Config::embedded_port();
  legit_tls.resumption = true;
  constexpr int kClients = 2;
  std::vector<std::unique_ptr<services::Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<services::Client>(
        client_host, 1, 4433, true, legit_tls, bytes_of("e15"),
        seed * 331 + static_cast<u64>(i) * 17));
    (void)clients.back()->start();
    (void)clients.back()->send(payload);
  }

  auto drive = [&](auto settled) -> bool {
    for (u64 t = 0; t < max_ms; ++t) {
      bool done = true;
      for (auto& c : clients) {
        (void)c->poll();
        if (!settled(*c)) done = false;
      }
      red.poll();
      backend.poll();
      medium.tick(1);
      if (done) return true;
    }
    return false;
  };

  auto echoed = [&](services::Client& c) {
    return c.received().size() >= payload_bytes || c.failed();
  };
  (void)drive(echoed);
  for (auto& c : clients) {
    if (c->received().size() >= payload_bytes) ++r.warmed;
    c->close();
  }

  // Poison every cached master secret in the raw snapshot, then feed it
  // back through the battery-restore path. The checksums now lie.
  issl::SessionCacheData snap = red.session_cache().data();
  for (auto& e : snap.entries) {
    if (e.in_use != 0) {
      e.master[0] ^= 0xFF;
      ++r.tampered;
    }
  }
  red.session_cache().restore(snap);

  for (auto& c : clients) {
    (void)c->reconnect();  // re-offers the earned (now-poisoned) ticket
    (void)c->send(payload);
  }
  (void)drive(echoed);
  for (auto& c : clients) {
    if (c->received().size() >= payload_bytes) {
      ++r.recovered;
      if (c->resumed()) ++r.resumed_after;
    }
    c->close();
  }

  r.integrity_rejects = red.session_cache().integrity_rejects();
  r.registry_rejects =
      registry_value("issl.resumption_rejects") - rejects_before;
  // Gates: the poisoned offers were refused (one reject per tampered entry
  // offered), nobody completed an abbreviated handshake off a corrupt
  // secret, and every client still got service via the full-handshake
  // fallback.
  r.gates_ok = r.warmed == kClients && r.recovered == kClients &&
               r.resumed_after == 0 &&
               r.integrity_rejects >= static_cast<u64>(kClients) &&
               r.registry_rejects == r.integrity_rejects;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const u64 seed = static_cast<u64>(args.flag_int("seed", 0xE15));
  const int offered = static_cast<int>(args.flag_int("clients", 4));
  const std::size_t payload =
      static_cast<std::size_t>(args.flag_int("payload", 2048));
  const u64 max_ms = static_cast<u64>(args.flag_int("max-ms", 20'000));
  const std::size_t fuzz_iters =
      static_cast<std::size_t>(args.flag_int("fuzz-iters", 900, 0));
  const bool smoke = args.flag_int("smoke", 0, 0) != 0;

  // The attribution gate reads the flight recorder.
  telemetry::Tracer::global().set_enabled(true);

  std::puts("================================================================");
  std::puts("E15: abuse soak -- hostile peers vs the issl/TCP front door");
  std::printf("    seed=%llu  clients=%d  payload=%zu B  budget=%llu virt ms"
              "  fuzz=%zu iters%s\n",
              static_cast<unsigned long long>(seed), offered, payload,
              static_cast<unsigned long long>(max_ms), fuzz_iters,
              smoke ? "  [smoke: fuzz only]" : "");
  std::puts("================================================================\n");

  bench::JsonReport report("E15");
  report.result("seed", seed);
  bool all_ok = true;

  // --- Phase 1: coverage-guided fuzz over the parse paths -----------------
  abuse::Fuzzer fuzzer(seed ^ 0xF0220000);
  fuzzer.add_default_seeds();
  const abuse::FuzzStats fz = fuzzer.run(fuzz_iters);
  // The coverage floor proves the feedback loop works (a broken signal
  // flatlines near the seed count); the wedge count is the invariant.
  const bool fuzz_ok =
      fz.wedges == 0 && fz.coverage_features >= 24 && fz.corpus_size >= 8;
  std::printf("fuzz: %llu iters, %llu coverage features, corpus %llu, "
              "%llu wedges, %llu session failures, %llu poisons  %s\n\n",
              static_cast<unsigned long long>(fz.iterations),
              static_cast<unsigned long long>(fz.coverage_features),
              static_cast<unsigned long long>(fz.corpus_size),
              static_cast<unsigned long long>(fz.wedges),
              static_cast<unsigned long long>(fz.session_failures),
              static_cast<unsigned long long>(fz.record_poisons),
              fuzz_ok ? "[ok]" : "[FAIL]");
  report.result("fuzz.iterations", fz.iterations);
  report.result("fuzz.coverage_features", fz.coverage_features);
  report.result("fuzz.corpus_size", fz.corpus_size);
  report.result("fuzz.wedges", fz.wedges);
  report.result("fuzz.session_failures", fz.session_failures);
  report.result("fuzz.session_closed", fz.session_closed);
  report.result("fuzz.record_poisons", fz.record_poisons);
  report.result("fuzz.malformed_records", fz.malformed_records);
  report.result("fuzz.new_feature_events", fz.new_feature_events);
  report.result("fuzz.ok", fuzz_ok);
  all_ok = all_ok && fuzz_ok;

  if (!smoke) {
    std::printf("%-18s %4s %4s %5s %4s %9s %5s %5s %5s %5s %6s %5s\n",
                "scenario", "done", "fail", "stuck", "rtry", "echoed",
                "shed", "wdog", "hsto", "malf", "syndrp", "gate");
    for (const AbuseSpec& spec : make_scenarios(offered)) {
      const AbuseResult r =
          run_scenario(seed, spec, offered, payload, max_ms);
      std::printf(
          "%-18s %4d %4d %5d %4llu %8lluB %5llu %5llu %5llu %5llu %6llu "
          "%5s\n",
          spec.name.c_str(), r.completed, r.failed, r.stuck,
          static_cast<unsigned long long>(r.retries),
          static_cast<unsigned long long>(r.bytes_echoed),
          static_cast<unsigned long long>(r.shed),
          static_cast<unsigned long long>(r.watchdogs),
          static_cast<unsigned long long>(r.hs_timeouts),
          static_cast<unsigned long long>(r.malformed_records),
          static_cast<unsigned long long>(r.syn_backlog_drops),
          r.gates_ok ? "ok" : "FAIL");
      all_ok = all_ok && r.gates_ok;

      const std::string k = "scn." + spec.name + ".";
      report.result(k + "completed", r.completed);
      report.result(k + "failed", r.failed);
      report.result(k + "stuck", r.stuck);
      report.result(k + "retries", r.retries);
      report.result(k + "corrupt_echoes", r.corrupt_echoes);
      report.result(k + "bytes_echoed", r.bytes_echoed);
      report.result(k + "elapsed_ms", r.elapsed_ms);
      report.result(k + "attacker_conns", r.atk_conns);
      report.result(k + "attacker_rounds", r.atk_rounds);
      report.result(k + "attacker_resets", r.atk_resets);
      report.result(k + "syns_spoofed", r.syns_spoofed);
      report.result(k + "connections_served", r.served);
      report.result(k + "connections_shed", r.shed);
      report.result(k + "watchdog_aborts", r.watchdogs);
      report.result(k + "handshake_timeouts", r.hs_timeouts);
      report.result(k + "handshake_failures", r.hs_failures);
      report.result(k + "trace_shed", r.trace_shed);
      report.result(k + "trace_watchdog_aborts", r.trace_watchdogs);
      report.result(k + "trace_handshake_timeouts", r.trace_hs_timeouts);
      report.result(k + "malformed_records", r.malformed_records);
      report.result(k + "resumption_rejects", r.resumption_rejects);
      report.result(k + "mac_failures", r.mac_failures);
      report.result(k + "syn_backlog_drops", r.syn_backlog_drops);
      report.result(k + "embryonic_timeouts", r.embryonic_timeouts);
      report.result(k + "half_open_left", r.half_open_left);
      report.result(k + "gate_wedge_free", r.wedge_free);
      report.result(k + "gate_no_corrupt", r.no_corrupt);
      report.result(k + "gate_attributed", r.attributed);
      report.result(k + "gate_goodput", r.goodput_ok);
      report.result(k + "gates_ok", r.gates_ok);
    }

    const PoisonResult p = run_cache_poison(seed, payload, max_ms);
    std::printf("%-18s warmed=%d tampered=%d recovered=%d resumed=%d "
                "rejects=%llu  %s\n",
                "cache_poison", p.warmed, p.tampered, p.recovered,
                p.resumed_after,
                static_cast<unsigned long long>(p.integrity_rejects),
                p.gates_ok ? "ok" : "FAIL");
    all_ok = all_ok && p.gates_ok;
    report.result("scn.cache_poison.warmed", p.warmed);
    report.result("scn.cache_poison.tampered", p.tampered);
    report.result("scn.cache_poison.recovered", p.recovered);
    report.result("scn.cache_poison.resumed_after_poison", p.resumed_after);
    report.result("scn.cache_poison.integrity_rejects", p.integrity_rejects);
    report.result("scn.cache_poison.registry_rejects", p.registry_rejects);
    report.result("scn.cache_poison.gates_ok", p.gates_ok);

    std::printf(
        "\nGates per scenario: wedge-free (everything settles inside the"
        " budget),\nzero corrupted plaintext, every shed/watchdog/timeout"
        " present in the\nflight recorder, and a legit-goodput floor."
        " cache_poison additionally\nrequires poisoned offers to be"
        " integrity-rejected, never resumed.\n");
  }

  report.result("all_gates_ok", all_ok);
  report.write(args);
  return all_ok ? 0 : 1;
}

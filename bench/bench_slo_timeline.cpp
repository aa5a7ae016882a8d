// E17 — SLO timeline: virtual-time sampling and burn-rate alerting across
// a faulted serving soak.
//
// E10/E15 prove the redirector survives faults; this experiment proves the
// *observability stack* sees them. A resumption-serving soak (reconnect-
// heavy TLS clients against one board) runs through two scheduled faults —
//
//   partition:  the medium delivers nothing for 3 s (cable pull);
//   power cut:  a PowerFaultPlan browns the board out for 3 s;
//
// — while an attached timeseries Sampler scrapes the metrics registry every
// 100 virtual ms and an SloEngine evaluates availability, multi-window
// burn-rate, and p99-latency rules at each sample. Four gates:
//
//   (a) alignment — each fault's availability and burn-rate alerts fire
//       within a bounded number of sample periods of fault onset and clear
//       within a bounded number of periods of recovery; no spurious alerts
//       outside the fault windows;
//   (b) bounded memory — the sampler's retained footprint stays inside the
//       ring budget no matter how long the soak runs;
//   (c) passivity — the identical scenario run bare (no sampler, no tracer,
//       no SLO engine) produces a byte-identical behavior signature
//       (completions, failures, boots, wire counters, fault edges) to the
//       fully instrumented run: observing the service must not change it;
//   (d) determinism — everything derives from --seed, so the --json /
//       --csv / --trace artifacts are byte-identical across same-seed runs
//       (scripts/check.sh double-runs exactly that).
//
// Exit status is 1 if any gate fails.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "services/supervisor.h"
#include "soak.h"

using namespace rmc;
using common::u64;
using common::u8;

namespace {

// Timeline. Two clocks are in play: the harness loop count, and the
// medium's virtual clock — which runs at ~2 ms per loop pass while the
// board is up, because the redirector's Dynamic-C main loop calls
// tcp_tick(NULL) (one medium tick) once per pass and the harness ticks once
// more. Everything the sampler and the SLO engine see is *medium* time;
// the partition window below is medium ms. The power cut is scheduled in
// fault *points*, not ms, so its exact onset is read back from the board's
// up()/down edges.
constexpr u64 kRunPolls = 40'000;      // harness passes (~77 s medium time)
constexpr u64 kPartitionStart = 8'000;  // medium ms
constexpr u64 kPartitionEnd = 11'000;   // medium ms, exclusive
constexpr u64 kPowerCutStep = 26'000;   // fault points, lands ~48 s medium
constexpr u64 kPowerOffMs = 3'000;

constexpr u64 kPeriodMs = 100;
constexpr std::size_t kRingCapacity = 600;  // 60 s of history at 100 ms
constexpr std::size_t kMemoryBudgetBytes = 4 * 1024 * 1024;

constexpr std::size_t kWorkers = 3;
constexpr u64 kIdleGiveUpPolls = 900;
constexpr std::size_t kPayloadBytes = 64;
/// Pacing between cycles. Unthrottled, a resumed cycle completes in ~3
/// virtual ms — tens of thousands of sessions per run, which says nothing
/// more about the SLO machinery and swells every per-connection table. 200
/// ms per worker is ~15 requests/s fleet-wide: plenty of events per sample
/// window, bounded session count.
constexpr u64 kCycleCooldownMs = 200;

// Alert-alignment budgets, in sample periods. Availability (min_events=1)
// reacts as soon as the first give-up lands in its window; burn rate waits
// for the long window to digest enough errors.
constexpr u64 kAvailFireBudget = 30;
constexpr u64 kBurnFireBudget = 35;
constexpr u64 kClearBudget = 60;

constexpr u64 kFnvOffset = 1469598103934665603ULL;
constexpr u64 kFnvPrime = 1099511628211ULL;

struct Outcome {
  u64 ok = 0;            // completed echo cycles
  u64 fail = 0;          // clients that failed closed / gave up
  u64 spawned = 0;
  u64 rx_bytes = 0;
  u64 boots = 0;
  u64 wdt_bites = 0;
  u64 power_cuts = 0;
  u64 durable_served = 0;
  u64 durable_generation = 0;
  u64 sent = 0;
  u64 delivered = 0;
  u64 payload_bytes = 0;
  u64 drops_partition = 0;
  std::vector<u64> down_at;  // board up->down edges (power cut onsets)
  std::vector<u64> up_at;    // board down->up edges (recoveries)

  /// FNV over every behavioral observable — gate (c) compares the bare and
  /// the instrumented run through this.
  u64 signature() const {
    u64 h = kFnvOffset;
    const auto mix = [&h](u64 v) {
      for (int i = 0; i < 8; ++i) {
        h ^= static_cast<u8>(v >> (8 * i));
        h *= kFnvPrime;
      }
    };
    mix(ok); mix(fail); mix(spawned); mix(rx_bytes);
    mix(boots); mix(wdt_bites); mix(power_cuts);
    mix(durable_served); mix(durable_generation);
    mix(sent); mix(delivered); mix(payload_bytes); mix(drops_partition);
    for (u64 t : down_at) mix(t);
    for (u64 t : up_at) mix(t);
    return h;
  }
};

struct Worker {
  std::unique_ptr<services::Client> client;
  std::size_t want = 0;        // received() size that completes the cycle
  bool resting = false;        // cycle done, waiting out the cooldown
  u64 next_cycle_ms = 0;       // when the next reconnect+send may start
};

// One full soak. `sampler`/`engine` null = the bare (uninstrumented) run;
// both runs are otherwise identical down to every seeded draw.
Outcome run_scenario(u64 seed, telemetry::Sampler* sampler,
                     telemetry::SloEngine* engine) {
  bench::EchoWorld world(seed);
  net::SimNet& medium = world.medium;
  net::FaultPlan faults;
  faults.partitions.push_back({kPartitionStart, kPartitionEnd});
  medium.set_fault_plan(faults);

  services::ServiceBoardConfig cfg;
  cfg.redirector = bench::redirector_config("e17");
  cfg.redirector.tls.resumption = true;
  cfg.redirector.session_cache_capacity = 8;
  cfg.board_ip = bench::kBoardIp;
  cfg.net_seed = seed * 131;
  cfg.power_off_ms = kPowerOffMs;
  cfg.power_plan = dynk::PowerFaultPlan::at({kPowerCutStep});
  services::ServiceBoard board(medium, cfg);
  if (sampler != nullptr) board.attach_sampler(sampler);

  std::vector<u8> payload(kPayloadBytes);
  common::Xorshift64 fill(seed ^ 0xE17E17);
  fill.fill(payload);

  // The serving signal the SLO rules watch. Both runs move these counters
  // (registry writes are behavior-neutral); only the instrumented run has a
  // sampler turning them into windows.
  auto& requests_ok = telemetry::Registry::global().counter("e17.requests_ok");
  auto& requests_failed =
      telemetry::Registry::global().counter("e17.requests_failed");

  Outcome r;
  std::vector<Worker> workers(kWorkers);

  const auto spawn = [&](Worker& w) {
    w.client = std::make_unique<services::Client>(
        world.client_host, bench::kBoardIp, bench::kListenPort, true,
        cfg.redirector.tls, bench::bytes_of("e17"), seed * 977 + ++r.spawned);
    // Short enough that an outage turns into counted failures within a few
    // sample windows — the error signal the alerts are gated on.
    w.client->set_idle_give_up(kIdleGiveUpPolls);
    (void)w.client->start();
    (void)w.client->send(payload);
    w.want = w.client->received().size() + payload.size();
  };

  bool was_up = board.up();
  u64 samples_seen = sampler != nullptr ? sampler->samples() : 0;

  for (u64 t = 0; t < kRunPolls; ++t) {
    board.poll();

    // Record the board's power edges: the power-cut onset/recovery that
    // gate (a) aligns alerts against is *observed*, not scheduled.
    if (was_up && !board.up()) r.down_at.push_back(medium.now_ms());
    if (!was_up && board.up() && !r.down_at.empty()) {
      r.up_at.push_back(medium.now_ms());
    }
    was_up = board.up();

    // The SLO engine evaluates at each sample tick (the board's poll just
    // ticked the sampler with the medium clock).
    if (engine != nullptr && sampler != nullptr &&
        sampler->samples() != samples_seen) {
      samples_seen = sampler->samples();
      engine->evaluate(sampler->last_sample_ms());
    }

    world.backend.poll();
    for (Worker& w : workers) {
      if (!w.client) {
        spawn(w);
        continue;
      }
      services::Client& c = *w.client;
      if (w.resting) {
        if (t < w.next_cycle_ms) continue;  // connection sits idle
        w.resting = false;
        // Keep the earned ticket: steady state is abbreviated handshakes.
        if (c.reconnect().is_ok()) {
          (void)c.send(payload);
          w.want = c.received().size() + payload.size();
        } else {
          w.client.reset();
        }
        continue;
      }
      const bool alive = c.poll();
      if (c.received().size() >= w.want) {
        ++r.ok;
        r.rx_bytes += payload.size();
        requests_ok.add(1);
        w.resting = true;
        w.next_cycle_ms = t + kCycleCooldownMs;
        continue;
      }
      if (!alive || c.failed()) {
        ++r.fail;
        requests_failed.add(1);
        w.client.reset();  // respawned (fresh handshake) next ms
      }
    }

    medium.tick(1);
  }

  r.boots = board.boots();
  r.wdt_bites = board.wdt_bites();
  r.power_cuts = board.power_cuts_seen();
  if (board.up() && board.redirector() != nullptr) {
    const auto& ds = board.redirector()->durable_state();
    r.durable_served = ds.served;
    r.durable_generation = ds.generation;
  }
  r.sent = medium.segments_sent();
  r.delivered = medium.segments_delivered();
  r.payload_bytes = medium.payload_bytes_delivered();
  r.drops_partition = medium.drops_partition();
  return r;
}

struct RuleTimeline {
  std::vector<u64> fires;
  std::vector<u64> clears;
};

RuleTimeline timeline_of(const telemetry::SloEngine& engine,
                         std::size_t rule) {
  RuleTimeline tl;
  for (const telemetry::SloAlert& a : engine.alerts()) {
    if (a.rule != rule) continue;
    (a.fire ? tl.fires : tl.clears).push_back(a.t_ms);
  }
  return tl;
}

bool within(u64 t, u64 lo, u64 hi) { return t >= lo && t <= hi; }

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const u64 seed = static_cast<u64>(args.flag_int("seed", 0x233));

  std::puts("================================================================");
  std::puts("E17: SLO timeline -- sampler, percentiles, burn-rate alerting");
  std::printf("    seed=%llu  run=%llu virt ms  partition=[%llu,%llu)"
              "  power cut ~step %llu (%llu ms dark)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(kRunPolls),
              static_cast<unsigned long long>(kPartitionStart),
              static_cast<unsigned long long>(kPartitionEnd),
              static_cast<unsigned long long>(kPowerCutStep),
              static_cast<unsigned long long>(kPowerOffMs));
  std::puts("================================================================\n");

  // --- bare run: gate (c)'s baseline --------------------------------------
  telemetry::Registry::global().reset();
  telemetry::Tracer::global().clear();
  const Outcome bare = run_scenario(seed, nullptr, nullptr);

  // --- instrumented run ----------------------------------------------------
  telemetry::Registry::global().reset();
  telemetry::Tracer::global().clear();
  telemetry::Tracer::global().set_enabled(true);

  telemetry::Sampler sampler(
      telemetry::SamplerConfig{.period_ms = kPeriodMs,
                               .ring_capacity = kRingCapacity});
  telemetry::SloEngine engine(sampler);

  telemetry::SloRule avail;
  avail.name = "availability";
  avail.kind = telemetry::SloKind::kAvailability;
  avail.good_counter = "e17.requests_ok";
  avail.bad_counter = "e17.requests_failed";
  avail.availability_floor = 0.9;
  avail.window = 20;  // 2 s
  avail.min_events = 1;
  avail.clear_after = 3;
  const std::size_t kAvail = engine.add_rule(avail);

  telemetry::SloRule burn;
  burn.name = "burn_rate";
  burn.kind = telemetry::SloKind::kBurnRate;
  burn.good_counter = "e17.requests_ok";
  burn.bad_counter = "e17.requests_failed";
  burn.target = 0.95;     // 5% error budget
  burn.threshold = 2.0;   // page at 2x budget burn in BOTH windows
  burn.short_window = 10;  // 1 s
  burn.long_window = 30;   // 3 s
  burn.min_events = 4;
  burn.clear_after = 3;
  const std::size_t kBurn = engine.add_rule(burn);

  telemetry::SloRule lat;
  lat.name = "p99_resumed_handshake";
  lat.kind = telemetry::SloKind::kLatency;
  lat.histogram = "redirector.handshake_resumed_cycles";
  lat.quantile = 99.0;
  lat.ceiling = 15'000'000.0;  // 500 ms of 30 MHz cycles — reported, roomy
  lat.window = 50;
  lat.min_events = 5;
  lat.clear_after = 3;
  const std::size_t kLat = engine.add_rule(lat);

  const Outcome run = run_scenario(seed, &sampler, &engine);
  telemetry::Tracer::global().set_enabled(false);

  // --- report ---------------------------------------------------------------
  std::printf("%-12s %8s %8s %6s %6s %9s %9s\n", "run", "ok", "fail", "boots",
              "cuts", "net-drops", "signature");
  const auto row = [](const char* name, const Outcome& o) {
    std::printf("%-12s %8llu %8llu %6llu %6llu %9llu  %016llx\n", name,
                static_cast<unsigned long long>(o.ok),
                static_cast<unsigned long long>(o.fail),
                static_cast<unsigned long long>(o.boots),
                static_cast<unsigned long long>(o.power_cuts),
                static_cast<unsigned long long>(o.drops_partition),
                static_cast<unsigned long long>(o.signature()));
  };
  row("bare", bare);
  row("instrumented", run);

  std::printf("\nalert timeline (period=%llu ms):\n",
              static_cast<unsigned long long>(kPeriodMs));
  for (const telemetry::SloAlert& a : engine.alerts()) {
    std::printf("  t=%6llu ms  %-22s %-5s value=%.6g\n",
                static_cast<unsigned long long>(a.t_ms),
                engine.rule(a.rule).name.c_str(), a.fire ? "FIRE" : "clear",
                a.value);
  }

  const RuleTimeline avail_tl = timeline_of(engine, kAvail);
  const RuleTimeline burn_tl = timeline_of(engine, kBurn);
  const RuleTimeline lat_tl = timeline_of(engine, kLat);

  // Gate (a): one fire/clear pair per fault, aligned with onset/recovery.
  const bool edges_ok = run.down_at.size() == 1 && run.up_at.size() == 1 &&
                        run.power_cuts == 1;
  bool aligned = edges_ok;
  if (edges_ok) {
    const u64 cut_on = run.down_at[0];
    const u64 cut_off = run.up_at[0];
    aligned =
        avail_tl.fires.size() == 2 && avail_tl.clears.size() == 2 &&
        within(avail_tl.fires[0], kPartitionStart,
               kPartitionStart + kAvailFireBudget * kPeriodMs) &&
        within(avail_tl.clears[0], kPartitionEnd,
               kPartitionEnd + kClearBudget * kPeriodMs) &&
        within(avail_tl.fires[1], cut_on,
               cut_on + kAvailFireBudget * kPeriodMs) &&
        within(avail_tl.clears[1], cut_off,
               cut_off + kClearBudget * kPeriodMs) &&
        burn_tl.fires.size() == 2 && burn_tl.clears.size() == 2 &&
        within(burn_tl.fires[0], kPartitionStart,
               kPartitionStart + kBurnFireBudget * kPeriodMs) &&
        within(burn_tl.fires[1], cut_on,
               cut_on + kBurnFireBudget * kPeriodMs) &&
        !engine.firing(kAvail) && !engine.firing(kBurn);
  }

  // Gate (b): retained footprint inside the ring budget.
  const bool memory_ok = sampler.memory_bytes() <= kMemoryBudgetBytes;

  // Gate (c): observing the service did not change it.
  const bool passive_ok = bare.signature() == run.signature();

  // The kSlo trace stream must carry every logged transition.
  u64 slo_trace_events = 0;
  for (const telemetry::TraceEvent& e : telemetry::Tracer::global().events()) {
    if (e.layer == static_cast<u8>(telemetry::TraceLayer::kSlo)) {
      ++slo_trace_events;
    }
  }
  const bool traced_ok = slo_trace_events == engine.alerts().size();

  const double p99_resumed = sampler.window_percentile(
      "redirector.handshake_resumed_cycles", kRingCapacity, 99.0);

  std::printf(
      "\nsampler: %llu samples, %zu series, %zu bytes retained (budget %zu)\n",
      static_cast<unsigned long long>(sampler.samples()),
      sampler.series_count(), sampler.memory_bytes(), kMemoryBudgetBytes);
  std::printf("p99 resumed handshake: %.0f cycles (%.1f ms at 30 MHz)\n",
              p99_resumed, p99_resumed / 30'000.0);
  std::printf(
      "\ngates: aligned=%s  memory=%s  passive=%s  traced=%s\n",
      aligned ? "PASS" : "FAIL", memory_ok ? "PASS" : "FAIL",
      passive_ok ? "PASS" : "FAIL", traced_ok ? "PASS" : "FAIL");

  bench::JsonReport report("E17");
  report.result("seed", seed);
  report.result("run_polls", kRunPolls);
  report.result("period_ms", kPeriodMs);
  report.result("partition_start_ms", kPartitionStart);
  report.result("partition_end_ms", kPartitionEnd);
  report.result("powercut_onset_ms", edges_ok ? run.down_at[0] : 0);
  report.result("powercut_recover_ms", edges_ok ? run.up_at[0] : 0);
  report.result("requests_ok", run.ok);
  report.result("requests_failed", run.fail);
  report.result("clients_spawned", run.spawned);
  report.result("boots", run.boots);
  report.result("power_cuts", run.power_cuts);
  report.result("drops_partition", run.drops_partition);
  report.result("sampler.samples", sampler.samples());
  report.result("sampler.series", static_cast<u64>(sampler.series_count()));
  report.result("sampler.memory_bytes",
                static_cast<u64>(sampler.memory_bytes()));
  report.result("sampler.memory_budget_bytes",
                static_cast<u64>(kMemoryBudgetBytes));
  report.result("p99_resumed_handshake_cycles", p99_resumed);
  report.result("alerts.total", static_cast<u64>(engine.alerts().size()));
  report.result("alerts.slo_trace_events", slo_trace_events);
  report.result("avail.fires", static_cast<u64>(avail_tl.fires.size()));
  report.result("avail.clears", static_cast<u64>(avail_tl.clears.size()));
  if (avail_tl.fires.size() == 2 && avail_tl.clears.size() == 2) {
    report.result("avail.fire1_ms", avail_tl.fires[0]);
    report.result("avail.clear1_ms", avail_tl.clears[0]);
    report.result("avail.fire2_ms", avail_tl.fires[1]);
    report.result("avail.clear2_ms", avail_tl.clears[1]);
  }
  report.result("burn.fires", static_cast<u64>(burn_tl.fires.size()));
  report.result("burn.clears", static_cast<u64>(burn_tl.clears.size()));
  report.result("latency.fires", static_cast<u64>(lat_tl.fires.size()));
  report.result("gate.alerts_aligned", aligned);
  report.result("gate.memory_within_budget", memory_ok);
  report.result("gate.instrumentation_passive", passive_ok);
  report.result("gate.transitions_traced", traced_ok);
  report.timeseries(sampler);
  report.slo(engine);
  report.write(args);

  return (aligned && memory_ok && passive_ok && traced_ok) ? 0 : 1;
}

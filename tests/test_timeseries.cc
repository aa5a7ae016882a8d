// Timeseries sampler + SLO engine (DESIGN.md §16): bounded delta rings and
// wraparound determinism, windowed counter sums and histogram percentiles,
// alert fire/clear semantics (hold-down, min-events, multi-window burn
// rate), kSlo trace emission, bounded sampler memory, and the hot-path
// discipline satellite: zero registry name lookups across repeated secure
// handshakes once every site has warmed its cached handle.
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "issl/issl.h"
#include "net/simnet.h"
#include "net/tcp.h"
#include "services/supervisor.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/slo.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace rmc {
namespace {

using common::u64;
using common::u8;
using telemetry::Registry;
using telemetry::Sampler;
using telemetry::SamplerConfig;
using telemetry::SloEngine;
using telemetry::SloKind;
using telemetry::SloRule;

#if RMC_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Sampler: delta rings
// ---------------------------------------------------------------------------

TEST(SamplerTest, CountersBecomePerPeriodDeltas) {
  Registry r;
  telemetry::Counter& c = r.counter("svc.requests");
  Sampler s(SamplerConfig{.period_ms = 10, .ring_capacity = 16}, r);

  EXPECT_FALSE(s.tick(0));  // first period has not elapsed yet
  c.add(5);
  EXPECT_FALSE(s.tick(9));
  EXPECT_TRUE(s.tick(10));
  c.add(7);
  EXPECT_FALSE(s.tick(15));  // mid-period: cheap no-op
  EXPECT_TRUE(s.tick(20));
  EXPECT_TRUE(s.tick(30));  // no traffic this period -> delta 0

  const auto pts = s.points("svc.requests");
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].t_ms, 10u);
  EXPECT_DOUBLE_EQ(pts[0].value, 5.0);
  EXPECT_EQ(pts[1].t_ms, 20u);
  EXPECT_DOUBLE_EQ(pts[1].value, 7.0);
  EXPECT_EQ(pts[2].t_ms, 30u);
  EXPECT_DOUBLE_EQ(pts[2].value, 0.0);
  EXPECT_EQ(s.samples(), 3u);
  EXPECT_EQ(s.window_counter_sum("svc.requests", 2), 7u);
  EXPECT_EQ(s.window_counter_sum("svc.requests", 99), 12u);  // clamped
}

TEST(SamplerTest, ClockJumpTakesOneSampleAndRealigns) {
  Registry r;
  telemetry::Counter& c = r.counter("c");
  Sampler s(SamplerConfig{.period_ms = 10, .ring_capacity = 8}, r);
  c.add(3);
  // The board was wedged for 75 virtual ms: one catch-up sample covering
  // the whole gap, then the schedule realigns to the next boundary.
  EXPECT_TRUE(s.tick(75));
  EXPECT_FALSE(s.tick(76));
  EXPECT_FALSE(s.tick(79));
  EXPECT_TRUE(s.tick(80));
  const auto pts = s.points("c");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].t_ms, 75u);
  EXPECT_DOUBLE_EQ(pts[0].value, 3.0);
  EXPECT_EQ(pts[1].t_ms, 80u);
}

TEST(SamplerTest, RingWraparoundIsDeterministic) {
  Registry r;
  telemetry::Counter& c = r.counter("c");
  // Two identical samplers scraping the same registry: sampling is
  // read-only, so both must retain byte-identical rings through wraparound.
  Sampler a(SamplerConfig{.period_ms = 1, .ring_capacity = 4}, r);
  Sampler b(SamplerConfig{.period_ms = 1, .ring_capacity = 4}, r);
  for (u64 t = 1; t <= 10; ++t) {
    c.add(t);  // distinct delta per period
    EXPECT_TRUE(a.tick(t));
    EXPECT_TRUE(b.tick(t));
  }
  const auto pa = a.points("c");
  const auto pb = b.points("c");
  ASSERT_EQ(pa.size(), 4u);  // capacity, not sample count
  ASSERT_EQ(pb.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pa[i].t_ms, pb[i].t_ms);
    EXPECT_DOUBLE_EQ(pa[i].value, pb[i].value);
  }
  // Oldest retained point is t=7 (10 samples, capacity 4).
  EXPECT_EQ(pa[0].t_ms, 7u);
  EXPECT_DOUBLE_EQ(pa[0].value, 7.0);
  EXPECT_EQ(pa[3].t_ms, 10u);
  EXPECT_DOUBLE_EQ(pa[3].value, 10.0);
  EXPECT_EQ(a.samples(), 10u);
}

TEST(SamplerTest, MemoryIsBoundedByRingCapacity) {
  Registry r;
  telemetry::Counter& c = r.counter("c");
  r.gauge("g").set(1);
  const u64 bounds[] = {10, 100};
  telemetry::Histogram& h = r.histogram("h", bounds);
  Sampler s(SamplerConfig{.period_ms = 1, .ring_capacity = 4}, r);
  for (u64 t = 1; t <= 6; ++t) {
    c.add(1);
    h.record(t);
    s.tick(t);
  }
  const std::size_t after_fill = s.memory_bytes();
  EXPECT_GT(after_fill, 0u);
  for (u64 t = 7; t <= 200; ++t) {
    c.add(1);
    h.record(t);
    s.tick(t);
  }
  // Rings overwrite in place: not one byte of growth after fill.
  EXPECT_EQ(s.memory_bytes(), after_fill);
  EXPECT_EQ(s.series_count(), 3u);
}

TEST(SamplerTest, HistogramWindowPercentileUsesOnlyWindowedDeltas) {
  Registry r;
  const u64 bounds[] = {100, 1'000};
  telemetry::Histogram& h = r.histogram("lat", bounds);
  Sampler s(SamplerConfig{.period_ms = 1, .ring_capacity = 16}, r);
  // Periods 1..3: fast traffic (bucket 0); periods 4..5: slow (overflow).
  for (u64 t = 1; t <= 3; ++t) {
    for (int i = 0; i < 10; ++i) h.record(50);
    s.tick(t);
  }
  for (u64 t = 4; t <= 5; ++t) {
    for (int i = 0; i < 10; ++i) h.record(5'000);
    s.tick(t);
  }
  EXPECT_EQ(s.window_histogram_count("lat", 2), 20u);
  EXPECT_EQ(s.window_histogram_count("lat", 5), 50u);
  // Last 2 periods are all-slow: p99 interpolates in the overflow bucket.
  EXPECT_GT(s.window_percentile("lat", 2, 99.0), 1'000.0);
  // A 5-period window mixes 30 fast + 20 slow: the median is still fast.
  EXPECT_LE(s.window_percentile("lat", 5, 50.0), 100.0);
  const auto counts = s.histogram_count_points("lat");
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_DOUBLE_EQ(counts[0].value, 10.0);
}

TEST(SamplerTest, RegistryResetReadsAsFreshBaselineNotGarbage) {
  Registry r;
  telemetry::Counter& c = r.counter("c");
  Sampler s(SamplerConfig{.period_ms = 1, .ring_capacity = 8}, r);
  c.add(100);
  s.tick(1);
  r.reset();  // scenario isolation in the benches
  c.add(4);
  s.tick(2);
  const auto pts = s.points("c");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].value, 100.0);
  EXPECT_DOUBLE_EQ(pts[1].value, 4.0);  // not a u64 underflow
}

TEST(SamplerTest, ExportsAreDeterministicAndCarrySeries) {
  Registry r;
  telemetry::Counter& c = r.counter("c");
  const u64 bounds[] = {100};
  telemetry::Histogram& h = r.histogram("lat", bounds);
  Sampler s(SamplerConfig{.period_ms = 1, .ring_capacity = 8}, r);
  for (u64 t = 1; t <= 3; ++t) {
    c.add(2);
    h.record(50);
    s.tick(t);
  }
  telemetry::JsonWriter w;
  s.write_json(w);
  EXPECT_TRUE(w.balanced());
  const std::string json = w.str();
  EXPECT_NE(json.find("\"period_ms\":1"), std::string::npos);
  EXPECT_NE(json.find("\"c\":{\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"kind\":\"histogram\""), std::string::npos);

  const std::string csv = s.csv();
  EXPECT_NE(csv.find("series,t_ms,value\n"), std::string::npos);
  EXPECT_NE(csv.find("c,1,2\n"), std::string::npos);
  EXPECT_NE(csv.find("lat.count,3,1\n"), std::string::npos);

  telemetry::JsonWriter w2;
  s.write_json(w2);
  EXPECT_EQ(json, w2.str());  // byte-deterministic re-export
  EXPECT_EQ(csv, s.csv());

  // Chrome export carries "ph":"C" counter tracks and stays balanced JSON.
  const std::string trace = s.chrome_trace_json({});
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace.find("\"lat.p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO engine
// ---------------------------------------------------------------------------

struct SloWorld {
  Registry reg;
  telemetry::Counter& good = reg.counter("ok");
  telemetry::Counter& bad = reg.counter("err");
  Sampler sampler{SamplerConfig{.period_ms = 1, .ring_capacity = 64}, reg};
  SloEngine engine{sampler};
  u64 now = 0;

  // One sample period: `g` successes, `b` failures, then evaluate.
  void step(u64 g, u64 b) {
    ++now;
    good.add(g);
    bad.add(b);
    sampler.tick(now);
    engine.evaluate(now);
  }
};

TEST(SloEngineTest, AvailabilityFiresOnBreachAndClearsAfterHoldDown) {
  SloWorld w;
  SloRule rule;
  rule.name = "availability";
  rule.kind = SloKind::kAvailability;
  rule.good_counter = "ok";
  rule.bad_counter = "err";
  rule.availability_floor = 0.9;
  rule.window = 5;
  rule.clear_after = 2;
  const std::size_t idx = w.engine.add_rule(rule);

  for (int i = 0; i < 10; ++i) w.step(10, 0);
  EXPECT_FALSE(w.engine.firing(idx));
  EXPECT_TRUE(w.engine.alerts().empty());

  // Full outage: availability collapses within the 5-period window.
  for (int i = 0; i < 5; ++i) w.step(0, 10);
  ASSERT_FALSE(w.engine.alerts().empty());
  EXPECT_TRUE(w.engine.alerts().front().fire);
  EXPECT_TRUE(w.engine.firing(idx));
  const u64 fire_at = w.engine.alerts().front().t_ms;
  EXPECT_LE(fire_at, 12u);  // within 2 periods of onset (t=11)

  // Recovery: the breach ages out of the window, then the hold-down runs.
  for (int i = 0; i < 10; ++i) w.step(10, 0);
  ASSERT_EQ(w.engine.alerts().size(), 2u);
  EXPECT_FALSE(w.engine.alerts().back().fire);
  EXPECT_FALSE(w.engine.firing(idx));
  EXPECT_GE(w.engine.alerts().back().value, 0.9);
}

TEST(SloEngineTest, IdleWindowsAreNotJudged) {
  SloWorld w;
  SloRule rule;
  rule.name = "availability";
  rule.kind = SloKind::kAvailability;
  rule.good_counter = "ok";
  rule.bad_counter = "err";
  rule.availability_floor = 0.9;
  rule.window = 3;
  rule.min_events = 5;
  const std::size_t idx = w.engine.add_rule(rule);
  // A lone failure in an otherwise idle service is below min_events: no
  // verdict, no alert — silence is not evidence.
  w.step(0, 1);
  for (int i = 0; i < 10; ++i) w.step(0, 0);
  EXPECT_FALSE(w.engine.firing(idx));
  EXPECT_TRUE(w.engine.alerts().empty());
}

TEST(SloEngineTest, BurnRateNeedsBothWindows) {
  SloWorld w;
  SloRule rule;
  rule.name = "burn";
  rule.kind = SloKind::kBurnRate;
  rule.good_counter = "ok";
  rule.bad_counter = "err";
  rule.target = 0.9;       // budget = 0.1
  rule.threshold = 2.0;    // fire at >= 20% errors in BOTH windows
  rule.short_window = 2;
  rule.long_window = 20;
  rule.clear_after = 2;
  const std::size_t idx = w.engine.add_rule(rule);

  for (int i = 0; i < 20; ++i) w.step(10, 0);
  // A 2-period blip: the short window burns hot (100% errors) but the long
  // window has digested only 20/200 = 10% -> burn 1.0 < 2.0. No page.
  w.step(0, 10);
  w.step(0, 10);
  EXPECT_FALSE(w.engine.firing(idx));
  for (int i = 0; i < 20; ++i) w.step(10, 0);
  EXPECT_TRUE(w.engine.alerts().empty());

  // A sustained outage trips both windows.
  for (int i = 0; i < 10; ++i) w.step(0, 10);
  EXPECT_TRUE(w.engine.firing(idx));
  ASSERT_FALSE(w.engine.alerts().empty());
  EXPECT_TRUE(w.engine.alerts().front().fire);
  EXPECT_GE(w.engine.alerts().front().value, 2.0);
}

TEST(SloEngineTest, LatencyCeilingOnWindowedPercentile) {
  SloWorld w;
  const u64 bounds[] = {100, 1'000};
  telemetry::Histogram& lat = w.reg.histogram("lat", bounds);
  SloRule rule;
  rule.name = "p99";
  rule.kind = SloKind::kLatency;
  rule.histogram = "lat";
  rule.quantile = 99.0;
  rule.ceiling = 500.0;
  rule.window = 3;
  rule.clear_after = 2;
  const std::size_t idx = w.engine.add_rule(rule);

  const auto step_lat = [&](u64 v) {
    ++w.now;
    for (int i = 0; i < 10; ++i) lat.record(v);
    w.sampler.tick(w.now);
    w.engine.evaluate(w.now);
  };
  for (int i = 0; i < 5; ++i) step_lat(50);
  EXPECT_FALSE(w.engine.firing(idx));
  for (int i = 0; i < 3; ++i) step_lat(5'000);
  EXPECT_TRUE(w.engine.firing(idx));
  ASSERT_FALSE(w.engine.alerts().empty());
  EXPECT_GT(w.engine.alerts().front().value, 500.0);
  // Fast again: the slow periods age out of the window, then hold-down.
  for (int i = 0; i < 6; ++i) step_lat(50);
  EXPECT_FALSE(w.engine.firing(idx));
  EXPECT_EQ(w.engine.alerts().size(), 2u);
}

TEST(SloEngineTest, TransitionsEmitKSloTraceEvents) {
  auto& tracer = telemetry::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  tracer.set_now_ms(777);

  SloWorld w;
  SloRule rule;
  rule.name = "availability";
  rule.kind = SloKind::kAvailability;
  rule.good_counter = "ok";
  rule.bad_counter = "err";
  rule.availability_floor = 0.9;
  rule.window = 2;
  const std::size_t idx = w.engine.add_rule(rule);
  w.step(0, 10);
  w.step(0, 10);
  EXPECT_TRUE(w.engine.firing(idx));

  ASSERT_FALSE(tracer.events().empty());
  const telemetry::TraceEvent& e = tracer.events().back();
  EXPECT_EQ(e.layer, static_cast<u8>(telemetry::TraceLayer::kSlo));
  EXPECT_EQ(e.event, telemetry::SloTrace::kFire);
  EXPECT_EQ(e.a, static_cast<common::u32>(idx));
  EXPECT_EQ(e.t_ms, 777u);
  EXPECT_STREQ(telemetry::trace_layer_name(telemetry::TraceLayer::kSlo),
               "slo");
  EXPECT_STREQ(
      telemetry::trace_event_name(telemetry::TraceLayer::kSlo, e.event),
      "slo_fire");

  tracer.set_enabled(false);
  tracer.clear();
}

// ---------------------------------------------------------------------------
// Hot-path discipline: zero name lookups across warmed handshakes
// ---------------------------------------------------------------------------

std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

TEST(HotPathTest, NoRegistryNameLookupsAcrossWarmedHandshakes) {
  // The latency histogram handles must be as warmed-up as every other
  // hot-path instrument.
  net::SimNet net(515);
  net::TcpStack backend_stack(net, 2);
  net::TcpStack client_stack(net, 3);
  services::EchoBackend backend(backend_stack, 8000);
  ASSERT_TRUE(backend.start().is_ok());

  services::ServiceBoardConfig cfg;
  cfg.redirector.listen_port = 4433;
  cfg.redirector.backend_ip = 2;
  cfg.redirector.backend_port = 8000;
  cfg.redirector.secure = true;
  cfg.redirector.psk = bytes_of("hot-psk");
  cfg.redirector.tls = issl::Config::embedded_port();
  cfg.redirector.tls.resumption = true;
  cfg.redirector.session_cache_capacity = 8;
  cfg.board_ip = 1;
  cfg.wdt_period_ms = 500;
  services::ServiceBoard board(net, cfg);
  for (int i = 0; i < 30; ++i) {
    board.poll();
    backend.poll();
    net.tick(1);
  }

  issl::Config client_tls = issl::Config::embedded_port();
  client_tls.resumption = true;
  services::Client client(client_stack, 1, 4433, true, client_tls,
                          bytes_of("hot-psk"));
  ASSERT_TRUE(client.start().is_ok());

  const auto echo = [&](std::string_view msg) {
    const std::size_t want = client.received().size() + msg.size();
    if (!client.send(bytes_of(msg)).is_ok()) return false;
    for (int i = 0; i < 2'000; ++i) {
      board.poll();
      backend.poll();
      (void)client.poll();
      net.tick(1);
      if (client.received().size() >= want) return true;
    }
    return false;
  };

  // Warm-up: one full handshake, one resumed handshake — every lazily
  // cached handle (issl record/handshake counters, redirector counters,
  // the full AND resumed latency histograms, the RTT histogram) resolves
  // its name now or never.
  ASSERT_TRUE(echo("warm full"));
  ASSERT_TRUE(client.reconnect().is_ok());
  ASSERT_TRUE(echo("warm resumed"));

  const u64 lookups_before = telemetry::Registry::global().name_lookups();
  for (int cycle = 0; cycle < 4; ++cycle) {
    ASSERT_TRUE(client.reconnect().is_ok()) << "cycle " << cycle;
    ASSERT_TRUE(echo("steady state")) << "cycle " << cycle;
  }
  // The whole point: per-handshake work resolves zero names.
  EXPECT_EQ(telemetry::Registry::global().name_lookups(), lookups_before);
}

#endif  // RMC_TELEMETRY_ENABLED

}  // namespace
}  // namespace rmc

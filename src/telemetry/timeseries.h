// Virtual-time metrics sampler: run-total counters become curves.
//
// Every number the benches reported before this module was a run total —
// fine for "how many handshakes", useless for "when did the service degrade
// and when did it recover". The Sampler scrapes the metrics Registry on a
// configurable virtual-ms period and keeps, per instrument, a *bounded* ring
// of per-period points:
//
//   counters    -> per-period deltas (a rate curve when divided by period)
//   gauges      -> the sampled value
//   histograms  -> per-period count delta + per-period bucket-count deltas,
//                  so windowed percentiles (p50/p99 over the last N periods)
//                  can be computed after the fact — the SLO engine's latency
//                  ceiling and every E17 tail-latency curve come from these.
//
// Design rules, matching the rest of the telemetry layer:
//   * passive: sampling only reads instruments; it never creates them, never
//     draws PRNG values, and never perturbs the workload — a sampler-off run
//     is byte-identical to one that never constructed a Sampler (check.sh's
//     snapshot gate and E17 gate (c) both pin this);
//   * bounded: ring capacity is fixed at construction; memory_bytes() reports
//     the retained footprint and E17 gates it against the configured budget;
//   * deterministic: scrape order is the registry's name order, timestamps
//     are the caller's virtual clock, and ring wraparound is pure arithmetic
//     — a fixed seed yields byte-identical JSON/CSV/trace exports;
//   * compile-out-able: under RMC_TELEMETRY_ENABLED=0 the registry is empty,
//     so the sampler scrapes nothing and exports empty sections.
//
// Driving it: call tick(now_ms) from any per-virtual-ms loop — ServiceBoard
// ticks an attached sampler in poll() — and it samples only when a full
// period has elapsed.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace rmc::telemetry {

struct SamplerConfig {
  u64 period_ms = 100;            // virtual ms between samples
  std::size_t ring_capacity = 600;  // points retained per series
};

class Sampler {
 public:
  /// One retained sample: virtual time and the per-period value (delta for
  /// counters and histogram counts, level for gauges).
  struct Point {
    u64 t_ms = 0;
    double value = 0.0;
  };

  explicit Sampler(SamplerConfig cfg = {},
                   const Registry& reg = Registry::global())
      : cfg_(cfg), reg_(&reg), next_due_ms_(cfg.period_ms) {
    if (cfg_.period_ms == 0) cfg_.period_ms = 1;
    if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
  }

  const SamplerConfig& config() const { return cfg_; }

  /// Sample if a full period has elapsed; cheap no-op otherwise. When the
  /// virtual clock jumps several periods at once (a wedged board), exactly
  /// one sample is taken and the schedule realigns to the next period
  /// boundary after `now_ms` — deltas then cover the whole gap.
  bool tick(u64 now_ms) {
    if (now_ms < next_due_ms_) return false;
    sample(now_ms);
    return true;
  }

  /// Unconditional scrape at `now_ms` (benches force a final sample so the
  /// tail of the run is never lost to period alignment).
  void sample(u64 now_ms);

  u64 samples() const { return samples_; }
  u64 last_sample_ms() const { return last_sample_ms_; }
  std::size_t series_count() const;

  /// Bytes retained by rings and per-series bookkeeping (keys included).
  /// Grows only when a *new* instrument first appears, never per sample —
  /// E17 gates this against the configured budget.
  std::size_t memory_bytes() const;

  // --- series access (SLO engine, tests) -----------------------------------

  /// Points of a counter/gauge series in time order; empty when unknown.
  std::vector<Point> points(std::string_view name) const;
  /// Per-period histogram count deltas in time order; empty when unknown.
  std::vector<Point> histogram_count_points(std::string_view name) const;

  /// Sum of the last `periods` per-period deltas of a counter series.
  u64 window_counter_sum(std::string_view name, std::size_t periods) const;
  /// Recorded-value count over the last `periods` of a histogram series.
  u64 window_histogram_count(std::string_view name,
                             std::size_t periods) const;
  /// Interpolated percentile over the last `periods` bucket-delta rows of a
  /// histogram series (0 when no values landed in the window). The overflow
  /// bucket's upper edge is the instrument's lifetime max.
  double window_percentile(std::string_view name, std::size_t periods,
                           double q) const;

  // --- exporters (all byte-deterministic) ----------------------------------

  /// {"period_ms":..,"ring_capacity":..,"samples":..,"series":{...}} — the
  /// "timeseries" section of the BENCH_*.json schema.
  void write_json(JsonWriter& w) const;

  /// "series,t_ms,value\n" rows, series in name order then time order.
  /// Histograms contribute "<name>.count" / ".p50" / ".p99" series (the
  /// percentiles are per-period, from that period's bucket deltas).
  std::string csv() const;

  /// Chrome trace-event JSON: the standard event body (chrome_trace_body)
  /// plus one "ph":"C" counter track per series on pid 0, so Perfetto
  /// renders the curves above the event stream.
  std::string chrome_trace_json(std::span<const TraceEvent> events) const;

 private:
  // Fixed-capacity ring; wraparound overwrites the oldest point in place.
  struct Ring {
    std::vector<Point> pts;  // resized to capacity on first push
    std::size_t head = 0;    // next write slot
    std::size_t size = 0;

    void push(const Point& p, std::size_t cap) {
      if (pts.size() < cap) pts.resize(cap);
      pts[head] = p;
      head = (head + 1) % cap;
      if (size < cap) ++size;
    }
    // i = 0 is the oldest retained point.
    const Point& at(std::size_t i, std::size_t cap) const {
      return pts[(head + cap - size + i) % cap];
    }
  };

  struct CounterSeries {
    const Counter* src = nullptr;
    u64 prev = 0;
    Ring ring;
  };
  struct GaugeSeries {
    const Gauge* src = nullptr;
    Ring ring;
  };
  struct HistSeries {
    const Histogram* src = nullptr;
    u64 prev_count = 0;
    std::vector<u64> prev_counts;   // bucket snapshot at the previous sample
    Ring ring;                      // Point.value = per-period count delta
    std::vector<u64> bucket_deltas;  // capacity * buckets, row i <-> slot i
  };

  const HistSeries* find_hist(std::string_view name) const;
  // Bucket-delta row paired with ring slot `slot`.
  std::span<const u64> hist_row(const HistSeries& h, std::size_t slot) const;
  double hist_window_percentile(const HistSeries& h, std::size_t periods,
                                double q) const;
  void scrape(u64 t_ms);

  SamplerConfig cfg_;
  const Registry* reg_;
  u64 next_due_ms_ = 0;
  u64 samples_ = 0;
  u64 last_sample_ms_ = 0;
  std::map<std::string, CounterSeries, std::less<>> counters_;
  std::map<std::string, GaugeSeries, std::less<>> gauges_;
  std::map<std::string, HistSeries, std::less<>> hists_;
};

}  // namespace rmc::telemetry

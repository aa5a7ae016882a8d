// perfbench — the repository benchmark binary (see README.md beside this
// file). Runs one workload's fixed unit of work repeatedly for --seconds,
// checks every output, and prints the metrics: with --trace 0 the
// end-to-end set, with --trace 1 the per-layer set from traced repetitions.
// The last line of stdout is one JSON object.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <unordered_map>

#include "harness.h"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kStep: return "step";
    case Layer::kRedirectorPoll: return "services.RmcRedirector::poll";
    case Layer::kClientPoll: return "services.Client::poll";
    case Layer::kBackendPoll: return "services.EchoBackend::poll";
    case Layer::kNetTick: return "net.SimNet::tick";
    case Layer::kRabbitAsm: return "rabbit.AesOnBoard(asm)";
    case Layer::kRabbitC: return "rabbit.AesOnBoard(c_debug)";
    case Layer::kCount: break;
  }
  return "?";
}

std::array<double, static_cast<std::size_t>(Layer::kCount)>
Tracer::self_seconds() const {
  std::unordered_map<u32, u64> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::array<double, static_cast<std::size_t>(Layer::kCount)> out{};
  for (const Span& s : spans_) {
    const auto it = child_ns.find(s.id);
    const u64 covered = it == child_ns.end() ? 0 : it->second;
    out[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return out;
}

namespace {

constexpr std::size_t kSetupSamples = 7;
constexpr double kSetupSeconds = 0.5;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear interpolation between closest ranks; `sorted` ascending.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// The process's resident-set high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so it does not inherit
/// the launching interpreter's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void write_spans(const std::string& path, const std::vector<Tracer::Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  // Chrome trace format ("X" complete events); ops on their own track.
  const u64 t0 = spans.empty() ? 0 : std::min_element(spans.begin(), spans.end(),
      [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; })->start_ns;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << "{\"name\": \"" << layer_name(s.layer) << "\", \"ph\": \"X\", "
        << "\"pid\": 1, \"tid\": " << (s.layer == Layer::kOp ? 2 : 1)
        << ", \"ts\": " << num((s.start_ns - t0) / 1e3)
        << ", \"dur\": " << num((s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--root") {
      o.root = v;
    } else if (a == "--spans") {
      o.spans_path = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

/// Moves the thread to the next CPU it may run on, round robin. On a
/// shared host one CPU can stay contended by a neighbour for tens of
/// seconds; rotating lets every run sample every CPU instead of spending
/// all of it on whichever one the scheduler first picked.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);  // best effort
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

u64 count(const std::map<std::string, u64>& c, const std::string& k) {
  const auto it = c.find(k);
  return it == c.end() ? 0 : it->second;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  try {
    if (!parse_args(argc, argv, opts)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--root DIR] [--spans FILE] [--smoke]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = make_net_workload(opts);
  if (!wl) wl = make_aes_workload(opts);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }

  // Set-up (prepare + one world build), repeated for at least
  // kSetupSamples samples and kSetupSeconds; the medians are reported.
  // Sample 0 runs last, so its prepared state is the one the run uses.
  CpuRotation cpus;
  std::vector<double> setup_samples;
  std::map<std::string, std::vector<double>> phase_s;
  const u64 setup_start = now_ns();
  for (u64 sample = 1;; ++sample) {
    cpus.next();
    const bool last = setup_samples.size() + 1 >= kSetupSamples &&
                      now_ns() - setup_start >= kSetupSeconds * 1e9;
    const u64 t0 = now_ns();
    for (const auto& [name, s] : wl->prepare(last ? 0 : sample)) {
      phase_s[name].push_back(s);
    }
    wl->build();
    setup_samples.push_back((now_ns() - t0) / 1e9);
    wl->teardown();
    if (last) break;
  }
  if (!wl->error().empty()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", wl->error().c_str());
    return 1;
  }

  // Repetitions until --seconds have passed. A traced run alternates
  // untraced and traced repetitions, so both see the same machine state.
  Tracer tracer;
  std::vector<double> wall_s[2];
  std::vector<RepResult> reps[2];  // [traced]
  std::vector<Tracer::Span> kept_spans;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_s{};
  u64 attempted = 0, failed = 0;
  double rss_mb = 0;
  bool finished = true, deterministic = true;
  const u64 deadline = now_ns() + static_cast<u64>(opts.seconds * 1e9);
  const std::size_t min_reps = opts.trace ? 2 : 1;
  for (std::size_t n = 0; n < min_reps || now_ns() < deadline; ++n) {
    const bool traced = opts.trace && n % 2 == 1;
    cpus.next();
    tracer.set_on(traced);
    tracer.clear();
    wl->build();
    const u64 t0 = now_ns();
    RepResult r = wl->run(tracer);
    wall_s[traced].push_back((now_ns() - t0) / 1e9);
    wl->teardown();
    if (traced) {
      const auto self = tracer.self_seconds();
      for (std::size_t l = 0; l < layer_s.size(); ++l) layer_s[l] += self[l];
      if (kept_spans.empty()) kept_spans = tracer.spans();
    }
    attempted += r.ops;
    failed += r.failed;
    finished = finished && r.finished;
    // Determinism check: every repetition does the same work, traced or not.
    if (n == 0) {
      // The workload's footprint: set-up plus one unit, before the
      // harness's own latency samples grow with the run's length.
      rss_mb = peak_rss_mb();
    } else {
      if (r.counts != reps[0].front().counts ||
          r.op_board_ms != reps[0].front().op_board_ms) {
        deterministic = false;
      }
      r.op_board_ms = {};
    }
    reps[traced].push_back(std::move(r));
  }
  tracer.set_on(false);

  const RepResult& base = reps[0].front();
  const double setup_s = median(setup_samples);
  std::vector<double> board_ms = base.op_board_ms;
  std::sort(board_ms.begin(), board_ms.end());
  const double virt_kbps = ratio(base.verified_bytes, base.board_s) / 1e3;

  std::vector<Metric> metrics;
  if (!opts.trace) {
    // Throughput and the median op come from the fastest quarter of the
    // repetitions. Every repetition does identical work, so the others
    // differ only by interference from other tenants of a shared host,
    // which comes in phases of seconds. The tail (p99) is taken over every
    // op: it is where interference belongs, and it needs the samples.
    std::vector<std::size_t> calm(reps[0].size());
    for (std::size_t i = 0; i < calm.size(); ++i) calm[i] = i;
    std::sort(calm.begin(), calm.end(), [&](std::size_t a, std::size_t b) {
      return wall_s[0][a] < wall_s[0][b];
    });
    calm.resize(std::max<std::size_t>(1, calm.size() / 4));
    double ops = 0, bytes = 0, wall = 0;
    std::vector<double> calm_us, all_us;
    for (std::size_t i : calm) {
      ops += static_cast<double>(reps[0][i].ops);
      bytes += static_cast<double>(reps[0][i].verified_bytes);
      wall += wall_s[0][i];
      calm_us.insert(calm_us.end(), reps[0][i].op_us.begin(),
                     reps[0][i].op_us.end());
    }
    for (const RepResult& r : reps[0]) {
      all_us.insert(all_us.end(), r.op_us.begin(), r.op_us.end());
    }
    std::sort(calm_us.begin(), calm_us.end());
    std::sort(all_us.begin(), all_us.end());
    metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", ratio(ops, wall), "1/s"},
        {"goodput_MBps", ratio(bytes, wall) / 1e6, "MB/s"},
        {"op_us_p50", percentile(calm_us, 50), "us"},
        {"op_us_p99", percentile(all_us, 99), "us"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"virt_goodput_KBps", virt_kbps, "KB/s"},
    };
    std::printf("%s: %zu repetitions of %llu ops; throughput and p50 from "
                "the fastest %zu (%zu op samples); p99 from %zu op samples "
                "(%zu beyond it); fail_frac %s\n",
                opts.workload.c_str(), reps[0].size(),
                static_cast<unsigned long long>(base.ops), calm.size(),
                calm_us.size(), all_us.size(), all_us.size() / 100,
                num(ratio(failed, attempted)).c_str());
  } else {
    const double traced_n = static_cast<double>(reps[1].size());
    const auto L = [&](Layer l) {
      return layer_s[static_cast<std::size_t>(l)] / traced_n;
    };
    const double ops = static_cast<double>(base.ops);
    const auto& c = base.counts;
    const auto phase = [&](const char* k) {
      const auto it = phase_s.find(k);
      return it == phase_s.end() ? 0.0 : median(it->second);
    };
    const std::map<std::string, double> probe = wl->probe();
    const auto probed = [&](const char* k) {
      const auto it = probe.find(k);
      return it == probe.end() ? 0.0 : it->second;
    };
    if (probed("crypto.rsa_private_failures") != 0) ++failed;
    double calls = 0;
    for (std::size_t l = static_cast<std::size_t>(Layer::kRedirectorPoll);
         l < layer_s.size(); ++l) {
      calls += layer_s[l];
    }
    double run_s = 0;
    for (double w : wall_s[1]) run_s += w;
    run_s /= traced_n;
    const double rabbit_s = L(Layer::kRabbitAsm) + L(Layer::kRabbitC);
    metrics = {
        {"services.redirector_poll_s", L(Layer::kRedirectorPoll), "s"},
        {"services.redirector_poll_us_per_op",
         ratio(L(Layer::kRedirectorPoll), ops) * 1e6, "us"},
        {"services.client_poll_s", L(Layer::kClientPoll), "s"},
        {"services.client_poll_us_per_op",
         ratio(L(Layer::kClientPoll), ops) * 1e6, "us"},
        {"services.backend_poll_s", L(Layer::kBackendPoll), "s"},
        {"services.connections_served",
         double(count(c, "services.connections_served")), "count"},
        {"services.handshake_failures",
         double(count(c, "services.handshake_failures")), "count"},
        {"net.tick_s", L(Layer::kNetTick), "s"},
        {"net.tick_ns_per_vms",
         ratio(L(Layer::kNetTick), double(count(c, "net.bench_ticked_ms"))) * 1e9,
         "ns"},
        {"net.tcbs_end.board", double(count(c, "net.tcbs_end.board")), "count"},
        {"net.tcbs_end.backend", double(count(c, "net.tcbs_end.backend")),
         "count"},
        {"net.tcbs_end.client", double(count(c, "net.tcbs_end.client")),
         "count"},
        {"net.segments_sent", double(count(c, "net.segments_sent")), "count"},
        {"net.segments_per_op",
         ratio(double(count(c, "net.segments_sent")), ops), "count/op"},
        {"net.retransmissions", double(count(c, "net.retransmissions")),
         "count"},
        {"issl.handshakes_completed",
         double(count(c, "issl.handshakes_completed")), "count"},
        {"issl.records_sealed", double(count(c, "issl.records_sealed")),
         "count"},
        {"issl.records_opened", double(count(c, "issl.records_opened")),
         "count"},
        {"issl.records_per_op",
         ratio(double(count(c, "issl.records_sealed") +
                      count(c, "issl.records_opened")),
               ops),
         "count/op"},
        {"issl.mac_failures", double(count(c, "issl.mac_failures")), "count"},
        {"crypto.keygen_s", phase("crypto.keygen_s"), "s"},
        {"crypto.rsa_private_us", probed("crypto.rsa_private_us"), "us"},
        {"rabbit.call_s", rabbit_s, "s"},
        {"rabbit.instructions",
         double(count(c, "rabbit.instructions.asm") +
                count(c, "rabbit.instructions.c_debug")),
         "count"},
        {"rabbit.cycles",
         double(count(c, "rabbit.cycles.asm") + count(c, "rabbit.cycles.c_debug")),
         "cycles"},
        {"rabbit.cycles_per_block.asm",
         ratio(double(count(c, "rabbit.cycles.asm")),
               double(count(c, "rabbit.blocks.asm"))),
         "cycles"},
        {"rabbit.cycles_per_block.c_debug",
         ratio(double(count(c, "rabbit.cycles.c_debug")),
               double(count(c, "rabbit.blocks.c_debug"))),
         "cycles"},
        {"rabbit.ns_per_instr.asm",
         ratio(L(Layer::kRabbitAsm),
               double(count(c, "rabbit.instructions.asm"))) * 1e9,
         "ns"},
        {"rabbit.ns_per_instr.c_debug",
         ratio(L(Layer::kRabbitC),
               double(count(c, "rabbit.instructions.c_debug"))) * 1e9,
         "ns"},
        {"rabbit.debug_traps", double(count(c, "rabbit.debug_traps")), "count"},
        {"dcc.build_s", phase("dcc.build_s"), "s"},
        {"rasm.build_s", phase("rasm.build_s"), "s"},
        {"virt.op_ms_p50", percentile(board_ms, 50), "board_ms"},
        {"virt.op_ms_p99", percentile(board_ms, 99), "board_ms"},
        {"bench.run_s", run_s, "s"},
        {"bench.harness_s", run_s - calls / traced_n, "s"},
        {"bench.trace_overhead_frac",
         ratio(median(wall_s[1]), median(wall_s[0])) - 1, "ratio"},
    };
    std::printf("%s: %zu traced repetitions; share of a traced unit:",
                opts.workload.c_str(), reps[1].size());
    for (std::size_t l = static_cast<std::size_t>(Layer::kRedirectorPoll);
         l < layer_s.size(); ++l) {
      if (layer_s[l] > 0) {
        std::printf(" %s %.1f%%", layer_name(static_cast<Layer>(l)),
                    100 * ratio(L(static_cast<Layer>(l)), run_s));
      }
    }
    std::printf("\n");
    if (!opts.spans_path.empty()) write_spans(opts.spans_path, kept_spans);
  }

  // Everything the determinism check compares: per-repetition counts and
  // the board-clock metrics, identical for one seed on every run.
  std::string det = "determinism {\"inputs.digest\": " +
                    std::to_string(wl->input_digest()) + ", ";
  for (const auto& [k, v] : base.counts) {
    det += "\"" + k + "\": " + std::to_string(v) + ", ";
  }
  det += "\"virt_goodput_KBps\": " + num(virt_kbps) +
         ", \"virt.op_ms_p50\": " + num(percentile(board_ms, 50)) +
         ", \"virt.op_ms_p99\": " + num(percentile(board_ms, 99)) + "}";
  std::printf("%s\n", det.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  if (!finished) std::printf("error: a repetition did not complete\n");
  if (!deterministic) {
    std::printf("error: repetitions of one seed disagree on their counts\n");
  }
  const bool correct = finished && deterministic && failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<u64>(attempted, 1)),
      static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

// Shared pieces of the benchmark binary: the host clock, in-memory spans,
// the per-repetition result every workload returns, and the workload
// interface main.cc drives.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// What a span times. kOp and kStep are structural (one per op, one per
/// main-loop step); every other layer wraps one public call into a module.
enum class Layer : u8 {
  kOp,
  kStep,
  kRedirectorPoll,  // services::RmcRedirector::poll
  kClientPoll,      // services::Client::poll
  kBackendPoll,     // services::EchoBackend::poll
  kNetTick,         // net::SimNet::tick
  kRabbitAsm,       // services::AesOnBoard set_key/encrypt, asm build
  kRabbitC,         // services::AesOnBoard set_key/encrypt, debug C build
  kCount,
};

const char* layer_name(Layer layer);

/// In-memory host-time spans. While off, call() is a plain pass-through and
/// nothing is recorded, so untraced repetitions pay only a branch.
class Tracer {
 public:
  struct Span {
    u64 start_ns;
    u64 end_ns;
    u32 id;
    u32 parent;  // 0 = root
    u32 op;      // op id the span belongs to (0 = shared work)
    Layer layer;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void clear() { spans_.clear(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Id for a span whose interval is recorded later (op roots, steps), so
  /// that child calls can name it as their parent first.
  u32 reserve_id() { return next_id_++; }
  void record(Layer layer, u32 id, u32 parent, u32 op, u64 start_ns,
              u64 end_ns) {
    if (on_) spans_.push_back({start_ns, end_ns, id, parent, op, layer});
  }

  /// Run f() and, while tracing, record it as a child span of `parent`.
  template <class F>
  void call(Layer layer, u32 parent, u32 op, F&& f) {
    if (!on_) {
      f();
      return;
    }
    const u64 t0 = now_ns();
    f();
    record(layer, next_id_++, parent, op, t0, now_ns());
  }

  /// Self time per layer, in seconds: each span's duration minus the part
  /// its child spans cover. The timed calls run one after another on one
  /// thread, so a span's children never overlap each other.
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_seconds()
      const;

 private:
  bool on_ = false;
  u32 next_id_ = 1;
  std::vector<Span> spans_;
};

/// One repetition of a workload's fixed unit of work.
struct RepResult {
  std::vector<double> op_us;        // host latency per op
  std::vector<double> op_board_ms;  // board-clock latency per op
  u64 ops = 0;
  u64 failed = 0;
  u64 verified_bytes = 0;  // payload bytes checked against what was sent
  double board_s = 0;      // board-clock seconds the unit took
  bool finished = true;    // false: hit the step cap before completing
  /// Deterministic per seed: compared across repetitions, runs, and traced
  /// vs untraced repetitions.
  std::map<std::string, u64> counts;
};

/// Named set-up phases of one prepare() call, in seconds.
using Phases = std::map<std::string, double>;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  // checkout root (asm/ and dc/ sources)
  std::string spans_path;  // traced run: where the spans are written
  bool smoke = false;      // tiny units (the smoke test)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One-time set-up from the seed: inputs, keys, board images. main.cc
  /// runs it several times, numbered by `sample`, reports the median, and
  /// keeps sample 0, which runs last.
  virtual Phases prepare(u64 sample) = 0;
  /// Per-repetition set-up (a fresh simulated world), timed separately.
  virtual void build() = 0;
  /// The fixed unit of work.
  virtual RepResult run(Tracer& tracer) = 0;
  /// Release the repetition's world; untimed.
  virtual void teardown() {}
  /// Traced runs only: extra per-layer numbers measured by direct calls
  /// after the timed loop (e.g. crypto.rsa_private_us).
  virtual std::map<std::string, double> probe() { return {}; }
  /// Why set-up failed (empty when it did not).
  virtual std::string error() const { return {}; }
  /// Digest of the prepared inputs (see fnv1a); untimed.
  virtual u64 input_digest() const = 0;
};

std::unique_ptr<Workload> make_net_workload(const Options& opts);
std::unique_ptr<Workload> make_aes_workload(const Options& opts);

/// FNV-1a over `bytes`, continuing from `h`: the input digest that shows
/// one seed always yields the same inputs.
template <class Bytes>
u64 fnv1a(const Bytes& bytes, u64 h = 0xCBF29CE484222325ULL) {
  for (u8 b : bytes) h = (h ^ b) * 0x100000001B3ULL;
  return h;
}

/// Split the seed into independent streams (splitmix64).
inline u64 derive(u64 seed, u64 stream) {
  u64 z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

}  // namespace perfbench

// The network workloads: the secure redirector of Figure 3
// (services::RmcRedirector on the board's net::TcpStack) serving three
// closed-loop services::Client instances over net::SimNet, forwarding to a
// services::EchoBackend. Every echoed byte is compared with what was sent.
//
//   psk_churn    the shipped configuration (PSK, AES-128): connect,
//                handshake, echo 256 B, close, redial
//   rsa_churn    the same loop with RSA key exchange (issl::Config default)
//   bulk_stream  three persistent PSK sessions echoing E5's message sizes
#include <algorithm>

#include "common/prng.h"
#include "crypto/rsa.h"
#include "harness.h"
#include "services/redirector.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

using namespace rmc;

constexpr net::IpAddr kBoardIp = 1;
constexpr net::IpAddr kBackendIp = 2;
constexpr net::IpAddr kClientIp = 3;
constexpr net::Port kListenPort = 4433;
constexpr net::Port kBackendPort = 8000;
constexpr std::size_t kClients = 3;  // Figure 3's three handlers, kept busy
constexpr std::size_t kChurnPayload = 256;
/// bulk_stream's message sizes: E5's four, with 4 KiB twice so that the
/// median op falls inside one size's latency cluster instead of on the
/// steep edge between two, where it would swing from run to run.
constexpr std::size_t kMessageSizes[] = {64, 512, 4096, 4096, 16384};
constexpr std::size_t kGroup = std::size(kMessageSizes);
/// A client that sees no progress for this many polls (about one per board
/// ms) aborts and reports failure instead of waiting forever.
constexpr u64 kGiveUpPolls = 20'000;
constexpr u64 kRsaProbeDecrypts = 32;

enum class Kind { kPskChurn, kRsaChurn, kBulk };

std::vector<u8> seeded_bytes(common::Xorshift64& rng, std::size_t n) {
  std::vector<u8> out(n);
  rng.fill(out);
  return out;
}

/// One simulated world: the board, the backend host, the client host.
struct World {
  World(u64 seed, const services::RedirectorConfig& cfg)
      : medium(derive(seed, 10)),
        board(medium, kBoardIp, derive(seed, 11)),
        backend_host(medium, kBackendIp, derive(seed, 12)),
        client_host(medium, kClientIp, derive(seed, 13)),
        backend(backend_host, kBackendPort),
        red(board, medium, cfg) {}

  net::SimNet medium;
  net::TcpStack board;
  net::TcpStack backend_host;
  net::TcpStack client_host;
  services::EchoBackend backend;
  services::RmcRedirector red;
  std::vector<std::unique_ptr<services::Client>> clients;
};

/// issl counters live in the process-wide registry; a repetition reports
/// their deltas.
struct IsslCounters {
  static constexpr const char* kNames[] = {
      "issl.handshakes_completed", "issl.records_sealed",
      "issl.records_opened", "issl.mac_failures"};
  std::array<u64, 4> read() const {
    std::array<u64, 4> v{};
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = telemetry::Registry::global().counter(kNames[i]).value();
    }
    return v;
  }
};

/// Per-client op in flight.
struct Slot {
  bool busy = false;
  bool dialled = false;  // churn: the client has connected before
  u64 op = 0;
  u32 span = 0;
  u64 t0_ns = 0;
  u64 t0_board_ms = 0;
  const std::vector<u8>* sent = nullptr;  // this op's input
  int messages = 0;  // bulk: messages sent on this session so far
  bool closed = false;
};

class NetWorkload final : public Workload {
 public:
  NetWorkload(Kind kind, const Options& opts) : kind_(kind), opts_(opts) {
    if (kind_ == Kind::kPskChurn) units_ = opts.smoke ? 12 : 1'000;
    if (kind_ == Kind::kRsaChurn) units_ = opts.smoke ? 6 : 40;
    if (kind_ == Kind::kBulk) units_ = kGroup * (opts.smoke ? 1 : 13);
  }

  Phases prepare(u64 sample) override {
    Phases phases;
    common::Xorshift64 rng(derive(opts_.seed, 1));
    cfg_ = services::RedirectorConfig{};
    cfg_.listen_port = kListenPort;
    cfg_.backend_ip = kBackendIp;
    cfg_.backend_port = kBackendPort;
    cfg_.handler_slots = kClients;
    cfg_.psk = seeded_bytes(rng, 16);
    if (kind_ == Kind::kRsaChurn) {
      cfg_.tls = issl::Config{};  // RSA key exchange, 256-bit modulus
      // Every set-up sample generates a fresh key; sample 0's is kept.
      common::Xorshift64 key_rng(derive(derive(opts_.seed, 2), sample));
      const u64 t0 = now_ns();
      cfg_.rsa = crypto::rsa_generate(cfg_.tls.rsa_modulus_bits, key_rng);
      phases["crypto.keygen_s"] = (now_ns() - t0) / 1e9;
    }
    // Every op's payload. Churn: one 256 B payload per session, in dial
    // order. Bulk: per client, a seeded permutation of kMessageSizes per
    // group of kGroup messages, so every seed carries the same byte count.
    common::Xorshift64 in_rng(derive(opts_.seed, 3));
    inputs_.clear();
    if (kind_ == Kind::kBulk) {
      for (std::size_t i = 0; i < kClients; ++i) {
        for (u64 m = 0; m < units_; m += kGroup) {
          std::size_t group[kGroup];
          std::copy(std::begin(kMessageSizes), std::end(kMessageSizes), group);
          for (std::size_t k = kGroup - 1; k > 0; --k) {
            std::swap(group[k],
                      group[in_rng.next_below(static_cast<u32>(k + 1))]);
          }
          for (std::size_t n : group) {
            inputs_.push_back(seeded_bytes(in_rng, n));
          }
        }
      }
    } else {
      for (u64 k = 0; k < units_; ++k) {
        inputs_.push_back(seeded_bytes(in_rng, kChurnPayload));
      }
    }
    return phases;
  }

  void build() override {
    world_ = std::make_unique<World>(opts_.seed, cfg_);
    World& w = *world_;
    (void)w.backend.start();
    (void)w.red.start();
    for (std::size_t i = 0; i < kClients; ++i) {
      w.clients.push_back(std::make_unique<services::Client>(
          w.client_host, kBoardIp, kListenPort, true, cfg_.tls, cfg_.psk,
          derive(opts_.seed, 20 + i)));
      w.clients.back()->set_idle_give_up(kGiveUpPolls);
    }
  }

  RepResult run(Tracer& tr) override {
    return kind_ == Kind::kBulk ? run_bulk(tr) : run_churn(tr);
  }

  void teardown() override { world_.reset(); }

  u64 input_digest() const override {
    u64 h = fnv1a(cfg_.psk);
    for (const auto& in : inputs_) h = fnv1a(in, h);
    if (cfg_.rsa) h = fnv1a(cfg_.rsa->pub.n.to_bytes(), h);
    return h;
  }

  std::map<std::string, double> probe() override {
    if (kind_ != Kind::kRsaChurn) return {};
    // Direct calls to the private operation the redirector performs once
    // per session, on seeded ciphertexts under the workload key.
    common::Xorshift64 rng(derive(opts_.seed, 4));
    std::vector<double> us;
    for (u64 i = 0; i < kRsaProbeDecrypts; ++i) {
      const std::vector<u8> msg = seeded_bytes(rng, 16);
      auto ct = crypto::rsa_encrypt(cfg_.rsa->pub, msg, rng);
      if (!ct.ok()) return {{"crypto.rsa_private_failures", 1}};
      const u64 t0 = now_ns();
      auto pt = crypto::rsa_decrypt(cfg_.rsa->priv, *ct);
      us.push_back((now_ns() - t0) / 1e3);
      if (!pt.ok() || *pt != msg) return {{"crypto.rsa_private_failures", 1}};
    }
    std::sort(us.begin(), us.end());
    return {{"crypto.rsa_private_us", us[us.size() / 2]}};
  }

 private:
  /// One turn of the main loop: the redirector's scheduler (whose tcp_tick
  /// costatement steps the medium one ms), the backend host, each client
  /// via `poll_client`, then one more medium ms.
  template <class PollClient>
  void step(Tracer& tr, PollClient&& poll_client) {
    World& w = *world_;
    const u32 step = tr.on() ? tr.reserve_id() : 0;
    const u64 s0 = tr.on() ? now_ns() : 0;
    tr.call(Layer::kRedirectorPoll, step, 0, [&] { w.red.poll(); });
    tr.call(Layer::kBackendPoll, step, 0, [&] { w.backend.poll(); });
    for (std::size_t i = 0; i < kClients; ++i) poll_client(i);
    tr.call(Layer::kNetTick, step, 0, [&] { w.medium.tick(1); });
    ++ticked_ms_;
    if (tr.on()) tr.record(Layer::kStep, step, 0, 0, s0, now_ns());
  }

  bool poll_slot(Tracer& tr, std::size_t i, Slot& s) {
    bool alive = false;
    tr.call(Layer::kClientPoll, s.span, s.op,
            [&] { alive = world_->clients[i]->poll(); });
    return alive;
  }

  /// Open an op on slot `s`: stamp it and give it a root span id.
  void open_op(Tracer& tr, Slot& s) {
    s.busy = true;
    s.op = ++next_op_;
    s.span = tr.reserve_id();
    s.t0_board_ms = world_->medium.now_ms();
    s.t0_ns = now_ns();
  }

  /// Close the op on slot `s`, checking the echo against what was sent.
  void close_op(Tracer& tr, Slot& s, std::vector<u8>& got, RepResult& r) {
    const u64 t1 = now_ns();
    const bool ok = got == *s.sent;
    r.op_us.push_back((t1 - s.t0_ns) / 1e3);
    r.op_board_ms.push_back(
        static_cast<double>(world_->medium.now_ms() - s.t0_board_ms));
    ++r.ops;
    if (ok) {
      r.verified_bytes += s.sent->size();
    } else {
      ++r.failed;
    }
    tr.record(Layer::kOp, s.span, 0, s.op, s.t0_ns, t1);
    s.busy = false;
    got.clear();
  }

  RepResult run_churn(Tracer& tr) {
    World& w = *world_;
    RepResult r;
    const u64 board0 = w.medium.now_ms();
    const auto issl0 = IsslCounters{}.read();
    ticked_ms_ = 0;
    std::array<Slot, kClients> slots;
    u64 started = 0;
    auto dial = [&](std::size_t i) {
      Slot& s = slots[i];
      services::Client& c = *w.clients[i];
      s.sent = &inputs_[started];
      open_op(tr, s);
      (void)(s.dialled ? c.reconnect() : c.start());
      s.dialled = true;
      (void)c.send(*s.sent);
      ++started;
    };
    for (std::size_t i = 0; i < kClients && started < units_; ++i) dial(i);

    const u64 step_cap = units_ * 2'000 + 10'000;
    for (u64 n = 0;; ++n) {
      step(tr, [&](std::size_t i) {
        Slot& s = slots[i];
        if (!s.busy) return;
        const bool alive = poll_slot(tr, i, s);
        std::vector<u8>& got = w.clients[i]->received();
        if (got.size() < s.sent->size() && alive) return;
        close_op(tr, s, got, r);
        if (started < units_) {
          dial(i);
        } else {
          w.clients[i]->close();
        }
      });
      const bool idle = std::none_of(slots.begin(), slots.end(),
                                     [](const Slot& s) { return s.busy; });
      if (started == units_ && idle &&
          w.red.stats().connections_served == units_) {
        break;
      }
      if (n >= step_cap) {
        r.finished = false;
        break;
      }
    }
    finish(r, board0, issl0);
    return r;
  }

  RepResult run_bulk(Tracer& tr) {
    World& w = *world_;
    RepResult r;
    const u64 board0 = w.medium.now_ms();
    const auto issl0 = IsslCounters{}.read();
    ticked_ms_ = 0;
    std::array<Slot, kClients> slots;
    for (std::size_t i = 0; i < kClients; ++i) {
      (void)w.clients[i]->start();
    }
    const u64 step_cap = units_ * 5'000 + 10'000;
    for (u64 n = 0;; ++n) {
      step(tr, [&](std::size_t i) {
        Slot& s = slots[i];
        services::Client& c = *w.clients[i];
        if (s.closed) return;
        const bool alive = poll_slot(tr, i, s);
        std::vector<u8>& got = c.received();
        if (s.busy && (got.size() >= s.sent->size() || !alive)) {
          close_op(tr, s, got, r);
        }
        if (!alive) {
          // Session lost: the rest of this client's messages fail.
          r.failed += units_ - static_cast<u64>(s.messages);
          r.ops += units_ - static_cast<u64>(s.messages);
          s.closed = true;
          return;
        }
        if (s.busy || !c.handshake_done()) return;
        if (static_cast<u64>(s.messages) == units_) {
          c.close();
          s.closed = true;
          return;
        }
        s.sent = &inputs_[i * units_ + static_cast<u64>(s.messages++)];
        open_op(tr, s);
        (void)c.send(*s.sent);
      });
      const bool all_closed = std::all_of(
          slots.begin(), slots.end(), [](const Slot& s) { return s.closed; });
      if (all_closed && w.red.stats().connections_served == kClients) break;
      if (n >= step_cap) {
        r.finished = false;
        break;
      }
    }
    finish(r, board0, issl0);
    return r;
  }

  void finish(RepResult& r, u64 board0, const std::array<u64, 4>& issl0) {
    World& w = *world_;
    r.board_s = static_cast<double>(w.medium.now_ms() - board0) / 1e3;
    const auto issl1 = IsslCounters{}.read();
    for (std::size_t i = 0; i < issl1.size(); ++i) {
      r.counts[IsslCounters::kNames[i]] = issl1[i] - issl0[i];
    }
    const services::RedirectorStats& st = w.red.stats();
    r.counts["services.connections_served"] = st.connections_served;
    r.counts["services.handshake_failures"] = st.handshake_failures;
    r.counts["net.tcbs_end.board"] = w.board.tcb_count();
    r.counts["net.tcbs_end.backend"] = w.backend_host.tcb_count();
    r.counts["net.tcbs_end.client"] = w.client_host.tcb_count();
    r.counts["net.segments_sent"] = w.medium.segments_sent();
    r.counts["net.retransmissions"] = w.board.retransmissions() +
                                      w.backend_host.retransmissions() +
                                      w.client_host.retransmissions();
    r.counts["net.bench_ticked_ms"] = ticked_ms_;
    r.counts["net.board_ms"] = w.medium.now_ms() - board0;
  }

  Kind kind_;
  Options opts_;
  u64 units_ = 0;  // sessions (churn) or messages per client (bulk)
  services::RedirectorConfig cfg_;
  std::unique_ptr<World> world_;
  std::vector<std::vector<u8>> inputs_;
  u64 next_op_ = 0;
  u64 ticked_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_net_workload(const Options& opts) {
  if (opts.workload == "psk_churn") {
    return std::make_unique<NetWorkload>(Kind::kPskChurn, opts);
  }
  if (opts.workload == "rsa_churn") {
    return std::make_unique<NetWorkload>(Kind::kRsaChurn, opts);
  }
  if (opts.workload == "bulk_stream") {
    return std::make_unique<NetWorkload>(Kind::kBulk, opts);
  }
  return nullptr;
}

}  // namespace perfbench

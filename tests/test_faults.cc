// Fault-injection coverage: the FaultPlan medium itself (drop attribution,
// corruption, duplication, jitter reordering, partitions, determinism), the
// TCP hardening it exposed (exponential RTO backoff, retransmission give-up
// latching was_reset, backlog-full SYN drops that recover on retry), the
// issl stall watchdog, and the redirector's degradation paths (handshake
// timeout recycling a slot, shedding under saturation, backend reconnect
// with backoff, failing closed when the backend never answers). Companion
// to bench_fault_soak (E9), which exercises the same machinery at scale.
#include <gtest/gtest.h>

#include <bit>

#include "issl/issl.h"
#include "net/simnet.h"
#include "net/tcp.h"
#include "services/redirector.h"
#include "telemetry/metrics.h"

namespace rmc {
namespace {

using common::u64;
using common::u8;
using net::FaultPlan;
using net::IpAddr;
using net::Port;
using net::Segment;
using net::SimNet;
using net::TcpStack;

std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

u64 counter_value(std::string_view name) {
  const auto* c = telemetry::Registry::global().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// Bare wire tap: records every segment the medium delivers to it.
class CaptureEndpoint final : public net::NetworkEndpoint {
 public:
  void deliver(const Segment& segment) override {
    received.push_back(segment);
  }
  void on_tick(u64) override {}

  std::vector<Segment> received;
};

// ---------------------------------------------------------------------------
// The FaultPlan medium
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, FactoriesAndAnyFault) {
  EXPECT_FALSE(FaultPlan{}.any_fault());
  EXPECT_TRUE(FaultPlan::uniform_loss(0.01).any_fault());
  EXPECT_TRUE(FaultPlan::burst_loss(0.05).any_fault());

  // burst_loss solves the Gilbert–Elliott stationary distribution so the
  // long-run average loss matches the request.
  const FaultPlan p = FaultPlan::burst_loss(0.05);
  const double p_bad = p.p_good_to_bad / (p.p_good_to_bad + p.p_bad_to_good);
  EXPECT_NEAR(p_bad * p.loss_bad, 0.05, 1e-9);
}

TEST(SimNetFaults, PartitionDropsAttributedSeparatelyFromLoss) {
  SimNet net(5);
  CaptureEndpoint ep;
  net.attach(7, &ep);
  FaultPlan plan;
  plan.partitions = {{5, 10}};  // end exclusive
  net.set_fault_plan(plan);

  Segment s;
  s.dst_ip = 7;
  s.payload = {1};
  net.send(s);   // t=0: before the window
  net.tick(5);
  net.send(s);   // t=5: inside -> dropped, attributed to the partition
  net.tick(5);
  net.send(s);   // t=10: window is exclusive, delivered again
  net.tick(5);

  EXPECT_EQ(ep.received.size(), 2u);
  EXPECT_EQ(net.drops_partition(), 1u);
  EXPECT_EQ(net.drops_loss(), 0u);
  EXPECT_EQ(net.segments_dropped(), 1u);  // legacy total = sum of causes

  // An unattached destination is its own cause, not "loss".
  s.dst_ip = 99;
  net.send(s);
  net.tick(5);
  EXPECT_EQ(net.drops_no_host(), 1u);
  EXPECT_EQ(net.drops_loss(), 0u);
  EXPECT_EQ(net.segments_dropped(), 2u);
}

TEST(SimNetFaults, BurstLossDropsAreAttributedToLoss) {
  SimNet net(6);
  CaptureEndpoint ep;
  net.attach(7, &ep);
  net.set_fault_plan(FaultPlan::burst_loss(0.20));

  Segment s;
  s.dst_ip = 7;
  const int kSent = 2'000;
  for (int i = 0; i < kSent; ++i) net.send(s);
  net.tick(10);

  EXPECT_GT(net.drops_loss(), 0u);
  EXPECT_EQ(net.drops_partition(), 0u);
  EXPECT_EQ(net.drops_no_host(), 0u);
  EXPECT_EQ(ep.received.size() + net.drops_loss(),
            static_cast<std::size_t>(kSent));
  // Loose band around the configured 20% average (seeded, so stable).
  const double rate = static_cast<double>(net.drops_loss()) / kSent;
  EXPECT_GT(rate, 0.08);
  EXPECT_LT(rate, 0.40);
}

TEST(SimNetFaults, CorruptionFlipsExactlyOneBitPerByteAndSparesHeaders) {
  SimNet net(8);
  CaptureEndpoint ep;
  net.attach(7, &ep);
  FaultPlan plan;
  plan.corrupt_byte_probability = 1.0;
  net.set_fault_plan(plan);

  Segment s;
  s.dst_ip = 7;
  s.src_port = 1234;
  s.dst_port = 80;
  s.seq = 42;
  for (u8 i = 0; i < 64; ++i) s.payload.push_back(i);
  net.send(s);
  net.tick(3);

  ASSERT_EQ(ep.received.size(), 1u);
  const Segment& got = ep.received[0];
  ASSERT_EQ(got.payload.size(), s.payload.size());
  for (std::size_t i = 0; i < got.payload.size(); ++i) {
    EXPECT_EQ(std::popcount(static_cast<unsigned>(
                  got.payload[i] ^ s.payload[i])),
              1)
        << "byte " << i;
  }
  // Headers ride through untouched — only the payload is corruptible.
  EXPECT_EQ(got.src_port, s.src_port);
  EXPECT_EQ(got.dst_port, s.dst_port);
  EXPECT_EQ(got.seq, s.seq);
  EXPECT_EQ(net.segments_corrupted(), 1u);
  EXPECT_EQ(net.segments_dropped(), 0u);  // corruption is not a drop
}

TEST(SimNetFaults, DuplicationDeliversBothCopies) {
  SimNet net(9);
  CaptureEndpoint ep;
  net.attach(7, &ep);
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  net.set_fault_plan(plan);

  Segment s;
  s.dst_ip = 7;
  s.payload = {0xAB};
  net.send(s);
  net.tick(5);

  EXPECT_EQ(ep.received.size(), 2u);
  EXPECT_EQ(net.segments_sent(), 1u);
  EXPECT_EQ(net.segments_delivered(), 2u);
  EXPECT_EQ(net.segments_duplicated(), 1u);
}

TEST(SimNetFaults, JitterReordersDeliveries) {
  SimNet net(10);
  CaptureEndpoint ep;
  net.attach(7, &ep);
  FaultPlan plan;
  plan.jitter_ms = 10;
  net.set_fault_plan(plan);

  Segment s;
  s.dst_ip = 7;
  const int kSent = 30;
  for (int i = 0; i < kSent; ++i) {
    s.seq = static_cast<common::u32>(i);
    net.send(s);
  }
  net.tick(20);

  ASSERT_EQ(ep.received.size(), static_cast<std::size_t>(kSent));
  bool out_of_order = false;
  for (std::size_t i = 0; i + 1 < ep.received.size(); ++i) {
    if (ep.received[i].seq > ep.received[i + 1].seq) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order) << "jitter should have reordered something";
}

// The whole point of seeding the medium: an identical scenario replays to
// identical wire statistics AND identical application bytes.
struct LossyRunResult {
  u64 delivered = 0;
  u64 drops = 0;
  u64 corrupted = 0;
  u64 retransmissions = 0;
  std::vector<u8> got;

  bool operator==(const LossyRunResult&) const = default;
};

LossyRunResult lossy_tcp_run(u64 seed) {
  LossyRunResult out;
  SimNet net(seed);
  net.set_fault_plan(FaultPlan::burst_loss(0.10));
  TcpStack server(net, 1);
  TcpStack client(net, 2);
  auto l = server.listen(80);
  auto c = client.connect(1, 80);
  EXPECT_TRUE(l.ok() && c.ok());
  if (!l.ok() || !c.ok()) return out;

  std::vector<u8> payload(4'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<u8>(i * 31 + 7);
  }
  bool sent = false;
  int server_sock = -1;
  u8 buf[512];
  for (int t = 0; t < 30'000 && out.got.size() < payload.size(); ++t) {
    net.tick(1);
    if (!sent && client.is_established(*c)) {
      EXPECT_TRUE(client.send(*c, payload).ok());
      sent = true;
    }
    if (server_sock < 0) {
      auto a = server.accept(*l);
      if (a.ok()) server_sock = *a;
      continue;
    }
    auto n = server.recv(server_sock, buf);
    if (n.ok()) out.got.insert(out.got.end(), buf, buf + *n);
  }
  EXPECT_EQ(out.got, payload);  // go-back-N repairs every burst
  out.delivered = net.segments_delivered();
  out.drops = net.segments_dropped();
  out.corrupted = net.segments_corrupted();
  out.retransmissions = client.retransmissions() + server.retransmissions();
  return out;
}

TEST(SimNetFaults, LossyTransferIsDeterministicFromTheSeed) {
  const LossyRunResult a = lossy_tcp_run(0xFA0175);
  const LossyRunResult b = lossy_tcp_run(0xFA0175);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.drops, 0u);
  EXPECT_GT(a.retransmissions, 0u);
}

// ---------------------------------------------------------------------------
// TCP hardening
// ---------------------------------------------------------------------------

TEST(TcpHardening, RtoDoublesToCapThenGiveUpLatchesWasReset) {
  SimNet net(11);
  TcpStack server(net, 1);
  TcpStack client(net, 2);
  auto l = server.listen(80);
  ASSERT_TRUE(l.ok());
  auto c = client.connect(1, 80);
  ASSERT_TRUE(c.ok());
  net.tick(20);
  ASSERT_TRUE(client.is_established(*c));

  // Pull the cable: every segment from here on is lost.
  net.set_fault_plan(FaultPlan::uniform_loss(1.0));
  ASSERT_TRUE(client.send(*c, bytes_of("doomed")).ok());

  std::vector<u64> rto_steps{client.rto_ms(*c)};
  for (int t = 0; t < 40'000 && !client.was_reset(*c); ++t) {
    net.tick(1);
    const u64 rto = client.rto_ms(*c);
    if (rto != 0 && rto != rto_steps.back()) rto_steps.push_back(rto);
  }

  // 200 -> 400 -> 800 -> 1600 -> 3200, then pinned at the cap until the
  // kMaxRetx budget runs out.
  EXPECT_EQ(rto_steps,
            (std::vector<u64>{200, 400, 800, 1600, 3200}));
  EXPECT_TRUE(client.was_reset(*c));
  EXPECT_EQ(client.retx_giveups(), 1u);
  EXPECT_FALSE(client.is_open(*c));  // resources freed, not retried forever
}

TEST(TcpHardening, BacklogFullSynDropIsCountedAndClientRetryRecovers) {
  SimNet net(13);
  TcpStack server(net, 1);
  TcpStack client(net, 2);
  auto l = server.listen(80, /*backlog=*/1);
  ASSERT_TRUE(l.ok());

  // First client completes and parks in the (size-1) accept queue.
  auto c1 = client.connect(1, 80);
  ASSERT_TRUE(c1.ok());
  net.tick(10);
  ASSERT_TRUE(client.is_established(*c1));

  // Second SYN finds the backlog full: silently dropped on the wire, but
  // visible in the counter (the satellite this PR adds).
  auto c2 = client.connect(1, 80);
  ASSERT_TRUE(c2.ok());
  net.tick(10);
  EXPECT_GE(server.syn_backlog_drops(), 1u);
  EXPECT_FALSE(client.is_established(*c2));

  // Draining the queue frees the backlog; the client's SYN retransmission
  // then completes the handshake without any application-level retry.
  auto a1 = server.accept(*l);
  ASSERT_TRUE(a1.ok());
  int a2 = -1;
  for (int t = 0; t < 3'000 && a2 < 0; ++t) {
    net.tick(1);
    auto r = server.accept(*l);
    if (r.ok()) a2 = *r;
  }
  ASSERT_GE(a2, 0);
  EXPECT_TRUE(client.is_established(*c2));
}

// ---------------------------------------------------------------------------
// issl stall watchdog
// ---------------------------------------------------------------------------

TEST(IsslHardening, HandshakeAgainstSilentPeerFailsWithTimeout) {
  SimNet net(17);
  TcpStack server(net, 1);
  TcpStack client(net, 2);
  auto l = server.listen(4433);
  ASSERT_TRUE(l.ok());
  auto c = client.connect(1, 4433);
  ASSERT_TRUE(c.ok());
  net.tick(20);
  ASSERT_TRUE(client.is_established(*c));

  const u64 stalls_before = counter_value("issl.stall_timeouts");
  issl::TcpStream stream(client, *c);
  common::Xorshift64 rng(1);
  issl::Config cfg = issl::Config::embedded_port();
  cfg.handshake_stall_limit = 64;  // pump-count budget, tiny for the test
  auto session = issl_bind_client(stream, cfg, rng, bytes_of("psk"));

  // The peer accepts TCP but never speaks issl. Without the watchdog this
  // loop would pump forever; with it the session fails closed.
  for (int i = 0; i < 500 && !session.failed(); ++i) {
    (void)session.pump();
    net.tick(1);
  }
  EXPECT_TRUE(session.failed());
  EXPECT_EQ(session.error().code(), common::ErrorCode::kTimeout);
  EXPECT_EQ(counter_value("issl.stall_timeouts"), stalls_before + 1);
}

// ---------------------------------------------------------------------------
// Redirector degradation paths
// ---------------------------------------------------------------------------

constexpr IpAddr kRedirectorIp = 1;
constexpr IpAddr kBackendIp = 2;
constexpr IpAddr kClientIp = 3;
constexpr Port kTlsPort = 4433;
constexpr Port kBackendPort = 8000;

struct FaultWorld {
  SimNet net{321};
  TcpStack redirector_stack{net, kRedirectorIp};
  TcpStack backend_stack{net, kBackendIp};
  TcpStack client_stack{net, kClientIp};
  services::EchoBackend backend{backend_stack, kBackendPort, [](u8 b) {
                                  return static_cast<u8>(std::toupper(b));
                                }};

  services::RedirectorConfig config() {
    services::RedirectorConfig cfg;
    cfg.listen_port = kTlsPort;
    cfg.backend_ip = kBackendIp;
    cfg.backend_port = kBackendPort;
    cfg.secure = true;
    cfg.tls = issl::Config::embedded_port();
    cfg.psk = bytes_of("board-psk");
    cfg.handler_slots = 1;  // one slot makes recycling observable
    return cfg;
  }

  services::Client make_client(u64 seed) {
    return services::Client(client_stack, kRedirectorIp, kTlsPort,
                            /*secure=*/true, issl::Config::embedded_port(),
                            bytes_of("board-psk"), seed);
  }

  void run(services::RmcRedirector& red,
           std::vector<services::Client*> clients, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      red.poll();
      backend.poll();
      for (services::Client* c : clients) c->poll();
      net.tick(1);
    }
  }
};

TEST(RedirectorHardening, HandshakeTimeoutRecyclesTheSlot) {
  FaultWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  auto cfg = w.config();
  cfg.handshake_timeout_ms = 300;
  services::RmcRedirector red(w.redirector_stack, w.net, cfg);
  ASSERT_TRUE(red.start().is_ok());

  // A mute client: raw TCP connect, never a single issl byte. The handler
  // used to pump it until the issl stall budget; now the virtual-time
  // deadline aborts it.
  auto mute = w.client_stack.connect(kRedirectorIp, kTlsPort);
  ASSERT_TRUE(mute.ok());
  w.run(red, {}, 600);
  EXPECT_EQ(red.stats().handshake_timeouts, 1u);
  EXPECT_GE(red.stats().handshake_failures, 1u);
  EXPECT_TRUE(w.client_stack.was_reset(*mute));

  // The single slot must now be free again for a well-behaved client.
  services::Client good = w.make_client(0xD00D);
  ASSERT_TRUE(good.start().is_ok());
  ASSERT_TRUE(good.send(bytes_of("still alive")).is_ok());
  w.run(red, {&good}, 1'000);
  EXPECT_EQ(std::string(good.received().begin(), good.received().end()),
            "STILL ALIVE");
}

TEST(RedirectorHardening, ShedsExcessClientsWhenAllSlotsBusy) {
  FaultWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  auto cfg = w.config();
  cfg.shed_when_busy = true;
  services::RmcRedirector red(w.redirector_stack, w.net, cfg);
  ASSERT_TRUE(red.start().is_ok());

  services::Client a = w.make_client(0xA);
  services::Client b = w.make_client(0xB);
  ASSERT_TRUE(a.start().is_ok());
  ASSERT_TRUE(b.start().is_ok());
  ASSERT_TRUE(a.send(bytes_of("first")).is_ok());
  ASSERT_TRUE(b.send(bytes_of("second")).is_ok());
  w.run(red, {&a, &b}, 1'500);

  // With one slot and shedding on, exactly one client is served; the other
  // is refused with RST instead of queueing unanswered (contrast with
  // test_services' ConnectionCeilingIsHandlerCount, where shedding is off
  // and the excess client waits).
  EXPECT_GE(red.stats().connections_shed, 1u);
  const int served =
      static_cast<int>(!a.received().empty()) +
      static_cast<int>(!b.received().empty());
  EXPECT_EQ(served, 1);
  EXPECT_TRUE(a.failed() || b.failed());
}

TEST(RedirectorHardening, BackendRetryWithBackoffRecoversLateBackend) {
  FaultWorld w;
  services::RmcRedirector red(w.redirector_stack, w.net, w.config());
  ASSERT_TRUE(red.start().is_ok());

  services::Client client = w.make_client(0xBEEF);
  ASSERT_TRUE(client.start().is_ok());
  ASSERT_TRUE(client.send(bytes_of("late backend")).is_ok());

  // The backend comes up only after the first connect attempt has already
  // been refused; the handler's capped-backoff retry loop must absorb that
  // instead of failing the client.
  for (int i = 0; i < 3'000; ++i) {
    if (i == 150) {
      ASSERT_TRUE(w.backend.start().is_ok());
    }
    red.poll();
    w.backend.poll();
    client.poll();
    w.net.tick(1);
  }
  EXPECT_GE(red.stats().backend_retries, 1u);
  EXPECT_EQ(std::string(client.received().begin(), client.received().end()),
            "LATE BACKEND");
}

TEST(RedirectorHardening, BackendNeverUpFailsClientClosedAndRecyclesSlot) {
  FaultWorld w;  // the backend never starts: every connect is refused
  services::RmcRedirector red(w.redirector_stack, w.net, w.config());
  ASSERT_TRUE(red.start().is_ok());

  services::Client first = w.make_client(0xDEAD);
  ASSERT_TRUE(first.start().is_ok());
  ASSERT_TRUE(first.send(bytes_of("first")).is_ok());
  w.run(red, {&first}, 1'000);

  EXPECT_EQ(red.stats().backend_retries,
            static_cast<u64>(services::RmcRedirector::kBackendRetryLimit));
  std::vector<std::string> backend_log;
  for (const std::string& line : red.log().entries()) {
    if (line.rfind("backend-", 0) == 0) backend_log.push_back(line);
  }
  EXPECT_EQ(backend_log,
            (std::vector<std::string>{"backend-retry 0", "backend-retry 0",
                                      "backend-retry 0", "backend-dead 0"}));
  // Fail closed: the client sees a reset, not an orderly close that would
  // read as an empty reply. The slot's accounting is that of any other
  // aborted session.
  EXPECT_TRUE(first.failed());
  EXPECT_TRUE(first.received().empty());
  EXPECT_EQ(red.stats().connections_served, 1u);

  // The single slot serves the next client once the backend is up.
  ASSERT_TRUE(w.backend.start().is_ok());
  services::Client second = w.make_client(0x5EC0);
  ASSERT_TRUE(second.start().is_ok());
  ASSERT_TRUE(second.send(bytes_of("second")).is_ok());
  w.run(red, {&second}, 1'000);
  EXPECT_EQ(std::string(second.received().begin(), second.received().end()),
            "SECOND");
}

}  // namespace
}  // namespace rmc

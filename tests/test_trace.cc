// Flight-recorder tracing tests (DESIGN.md §11): connection-id hashing, the
// zero-cost-when-off contract, cross-layer span capture over real TCP and
// issl traffic, the completeness audit E12 gates on, the battery-SRAM black
// box (tail == trace suffix, survival across a WDT warm reset), both
// exporters (Chrome trace JSON, libpcap), and the metric-handle-caching
// regression (steady-state polling does zero registry name lookups).
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "net/simnet.h"
#include "net/tcp.h"
#include "services/redirector.h"
#include "services/supervisor.h"
#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace rmc {
namespace {

using common::u32;
using common::u64;
using common::u8;
using telemetry::TraceEvent;
using telemetry::TraceLayer;
using telemetry::Tracer;

std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

/// Tracer::global() is process-wide state shared by every test in this
/// binary; scope enablement so one test's capture never leaks into the next.
struct ScopedTracer {
  explicit ScopedTracer(bool pcap = false) {
    auto& t = Tracer::global();
    t.clear();
    t.set_enabled(true);
    t.set_pcap_capture(pcap);
  }
  ~ScopedTracer() {
    auto& t = Tracer::global();
    t.set_enabled(false);
    t.set_pcap_capture(false);
    t.attach_ring(nullptr);
    t.clear();
  }
};

// ---------------------------------------------------------------------------
// Connection ids
// ---------------------------------------------------------------------------

TEST(TraceConnId, OrderlessNonzeroAndDistinct) {
  const u32 ab = telemetry::trace_conn_id(1, 4433, 3, 2001);
  const u32 ba = telemetry::trace_conn_id(3, 2001, 1, 4433);
  EXPECT_EQ(ab, ba);  // both directions of one connection share a track
  EXPECT_NE(ab, 0u);  // 0 is reserved for "no connection"

  // Different tuples get different ids (not a guarantee of the hash, but a
  // collision among a handful of nearby tuples would make traces useless).
  const u32 other_port = telemetry::trace_conn_id(1, 4433, 3, 2002);
  const u32 other_ip = telemetry::trace_conn_id(1, 4433, 4, 2001);
  EXPECT_NE(ab, other_port);
  EXPECT_NE(ab, other_ip);
  EXPECT_NE(other_port, other_ip);
}

// ---------------------------------------------------------------------------
// Hand-built audits (no simulation; exercises the invariant logic directly)
// ---------------------------------------------------------------------------

TraceEvent ev(u64 t, TraceLayer layer, u8 event, u32 conn, u32 a = 0,
              u32 b = 0) {
  TraceEvent e;
  e.t_ms = t;
  e.layer = static_cast<u8>(layer);
  e.event = event;
  e.conn = conn;
  e.a = a;
  e.b = b;
  return e;
}

TEST(TraceAudit, OrphanHandshakeIsExcusedByATcpTerminalAfterItsStart) {
  // conn 5: handshake starts, never ends, but the connection is torn down
  // (board died mid-handshake; the RST terminal accounts for it).
  // conn 9: handshake starts after the terminal — nothing excuses it.
  const std::vector<TraceEvent> events = {
      ev(10, TraceLayer::kIssl, telemetry::IsslTrace::kHello, 5, 0),
      ev(20, TraceLayer::kTcp, telemetry::TcpTrace::kState, 5, 4, 0),
      ev(30, TraceLayer::kTcp, telemetry::TcpTrace::kState, 9, 0, 4),
      ev(40, TraceLayer::kIssl, telemetry::IsslTrace::kHello, 9, 0),
  };
  const telemetry::TraceAudit audit = telemetry::audit_trace(events);
  EXPECT_EQ(audit.orphan_handshakes, 1u);  // conn 9 only
  EXPECT_FALSE(audit.clean());
}

TEST(TraceAudit, EstablishedWithoutTerminalIsAnOrphanConnection) {
  const std::vector<TraceEvent> events = {
      ev(10, TraceLayer::kTcp, telemetry::TcpTrace::kState, 7, 3, 4),
  };
  const telemetry::TraceAudit audit = telemetry::audit_trace(events);
  EXPECT_EQ(audit.established_connections, 1u);
  EXPECT_EQ(audit.orphan_connections, 1u);
  EXPECT_FALSE(audit.clean());
}

TEST(TraceAudit, TimeWaitCountsAsATerminal) {
  const std::vector<TraceEvent> events = {
      ev(10, TraceLayer::kTcp, telemetry::TcpTrace::kState, 7, 3, 4),
      ev(20, TraceLayer::kTcp, telemetry::TcpTrace::kState, 7, 6, 9),
  };
  const telemetry::TraceAudit audit = telemetry::audit_trace(events);
  EXPECT_EQ(audit.orphan_connections, 0u);
  EXPECT_TRUE(audit.clean());
}

// ---------------------------------------------------------------------------
// Formatting / exporters that need no capture
// ---------------------------------------------------------------------------

TEST(TraceFormat, PostmortemLineIsStable) {
  const TraceEvent e =
      ev(1234, TraceLayer::kTcp, telemetry::TcpTrace::kState, 0xABCD, 4, 5);
  EXPECT_EQ(telemetry::format_trace_event(e),
            "trace t=1234 conn=0000abcd tcp.state a=4 b=5");
}

TEST(TraceFormat, ChromeJsonHasTheTraceEventShape) {
  const std::vector<TraceEvent> events = {
      ev(10, TraceLayer::kTcp, telemetry::TcpTrace::kState, 7, 3, 4),
      ev(20, TraceLayer::kIssl, telemetry::IsslTrace::kEstablished, 7, 0, 1),
      ev(30, TraceLayer::kTcp, telemetry::TcpTrace::kState, 7, 6, 9),
  };
  const std::string json = telemetry::chrome_trace_json(events);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Braces balance (cheap structural check; names contain no braces).
  long depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

#if RMC_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Capture over live scenarios
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  auto& tracer = Tracer::global();
  tracer.clear();
  ASSERT_FALSE(tracer.enabled());
  tracer.emit(TraceLayer::kTcp, telemetry::TcpTrace::kState, 1, 2, 3);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_FALSE(tracer.pcap_capture());
}

TEST(TracerTest, TcpConnectAndCloseLeaveACleanAudit) {
  ScopedTracer scoped;
  net::SimNet medium(42);
  net::TcpStack server(medium, 1);
  net::TcpStack client(medium, 2);
  auto listener = server.listen(80);
  ASSERT_TRUE(listener.ok());
  auto sock = client.connect(1, 80);
  ASSERT_TRUE(sock.ok());
  for (int i = 0; i < 50 && !client.is_established(*sock); ++i) {
    medium.tick(1);
  }
  ASSERT_TRUE(client.is_established(*sock));
  // The server reaches ESTABLISHED one delivery later (the client's ACK).
  auto accepted = server.accept(*listener);
  for (int i = 0; i < 20 && !accepted.ok(); ++i) {
    medium.tick(1);
    accepted = server.accept(*listener);
  }
  ASSERT_TRUE(accepted.ok());
  ASSERT_TRUE(client.close(*sock).is_ok());
  for (int i = 0; i < 20; ++i) medium.tick(1);
  ASSERT_TRUE(server.close(*accepted).is_ok());
  for (int i = 0; i < 200; ++i) medium.tick(1);

  const auto& events = Tracer::global().events();
  ASSERT_FALSE(events.empty());
  const telemetry::TraceAudit audit = telemetry::audit_trace(events);
  EXPECT_EQ(audit.established_connections, 1u);
  EXPECT_EQ(audit.orphan_connections, 0u);
  EXPECT_TRUE(audit.clean());
  // Both endpoints emitted under one conn id, and net events share it too.
  bool net_seen = false;
  for (const TraceEvent& e : events) {
    if (e.layer == static_cast<u8>(TraceLayer::kNet) && e.conn != 0) {
      net_seen = true;
      EXPECT_EQ(e.conn, events.front().conn);
    }
  }
  EXPECT_TRUE(net_seen);
}

TEST(TracerTest, FinWait2TimeoutGivesAbandonedHalfClosesATerminal) {
  ScopedTracer scoped;
  net::SimNet medium(43);
  net::TcpStack server(medium, 1);
  net::TcpStack client(medium, 2);
  ASSERT_TRUE(server.listen(80).ok());
  auto sock = client.connect(1, 80);
  ASSERT_TRUE(sock.ok());
  for (int i = 0; i < 50 && !client.is_established(*sock); ++i) {
    medium.tick(1);
  }
  ASSERT_TRUE(client.close(*sock).is_ok());
  // Let the close handshake reach FIN_WAIT_2 (FIN acked), then cut the
  // wire so the server's own FIN can never arrive.
  for (int i = 0; i < 20 && client.state(*sock) != net::TcpState::kFinWait2;
       ++i) {
    medium.tick(1);
  }
  ASSERT_EQ(client.state(*sock), net::TcpState::kFinWait2);
  medium.set_fault_plan(net::FaultPlan::uniform_loss(1.0));
  // The default timeout holds the half-close just short of its horizon...
  medium.tick(net::TcpStack::kFinWait2TimeoutMs - 10);
  EXPECT_EQ(client.state(*sock), net::TcpState::kFinWait2);
  // ...and drops it just past.
  medium.tick(20);
  EXPECT_EQ(client.state(*sock), net::TcpState::kClosed);
  // The quiet kill emitted the terminal transition the audit needs, and
  // sent no RST (there is nobody to receive one).
  const telemetry::TraceAudit audit =
      telemetry::audit_trace(Tracer::global().events());
  EXPECT_EQ(audit.orphan_connections, 0u);
  EXPECT_EQ(client.resets_sent(), 0u);
}

// ---------------------------------------------------------------------------
// Secure board scenarios (handshake spans, black box, lookup regression)
// ---------------------------------------------------------------------------

constexpr net::IpAddr kBoardIp = 1;
constexpr net::IpAddr kBackendIp = 2;
constexpr net::IpAddr kClientIp = 3;
constexpr net::Port kTlsPort = 4433;
constexpr net::Port kBackendPort = 8000;

struct TraceWorld {
  net::SimNet net{99};
  net::TcpStack backend_stack{net, kBackendIp};
  net::TcpStack client_stack{net, kClientIp};
  services::EchoBackend backend{backend_stack, kBackendPort};

  services::ServiceBoardConfig board_config() {
    services::ServiceBoardConfig cfg;
    cfg.redirector.listen_port = kTlsPort;
    cfg.redirector.backend_ip = kBackendIp;
    cfg.redirector.backend_port = kBackendPort;
    cfg.redirector.secure = true;
    cfg.redirector.psk = bytes_of("trace-psk");
    cfg.board_ip = kBoardIp;
    cfg.wdt_period_ms = 500;
    cfg.reboot_ms = 2;
    return cfg;
  }

  void drive(services::ServiceBoard& board, services::Client* client,
             u64 ms) {
    for (u64 i = 0; i < ms; ++i) {
      board.poll();
      backend.poll();
      if (client) (void)client->poll();
      net.tick(1);
    }
  }

  bool echo_once(services::ServiceBoard& board, std::string_view msg,
                 u64 seed) {
    services::Client c(client_stack, kBoardIp, kTlsPort, true,
                       issl::Config::embedded_port(), bytes_of("trace-psk"),
                       seed);
    if (!c.start().is_ok()) return false;
    if (!c.send(bytes_of(msg)).is_ok()) return false;
    for (u64 i = 0; i < 1'200; ++i) {
      board.poll();
      backend.poll();
      (void)c.poll();
      net.tick(1);
      if (c.received().size() >= msg.size()) {
        c.close();
        drive(board, &c, 120);
        return true;
      }
    }
    return false;
  }
};

TEST(TracerTest, HandshakeSpansNestInsideTheirConnection) {
  TraceWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  ScopedTracer scoped;  // after the backend, before the board: clean capture
  services::ServiceBoard board(w.net, w.board_config());
  ASSERT_TRUE(w.echo_once(board, "span nesting", 0x7001));

  const telemetry::TraceAudit audit =
      telemetry::audit_trace(Tracer::global().events());
  // Client and server each complete a span on the front connection; the
  // redirector's backend hop establishes without issl.
  EXPECT_GE(audit.handshakes_completed, 2u);
  EXPECT_EQ(audit.orphan_handshakes, 0u);
  EXPECT_EQ(audit.nesting_violations, 0u);
  EXPECT_EQ(audit.orphan_connections, 0u);
  EXPECT_TRUE(audit.clean());
  // Slot lifecycle rode the same conn id as the TLS handshake.
  bool slot_open = false;
  for (const TraceEvent& e : Tracer::global().events()) {
    if (e.layer == static_cast<u8>(TraceLayer::kService) &&
        e.event == telemetry::ServiceTrace::kSlotOpen && e.conn != 0) {
      slot_open = true;
    }
  }
  EXPECT_TRUE(slot_open);
}

TEST(FlightRecorderTest, TailIsExactlyTheTraceSuffix) {
  ScopedTracer scoped;
  telemetry::FlightRecorder ring;
  auto& tracer = Tracer::global();
  tracer.attach_ring(&ring);
  constexpr std::size_t kEmit = telemetry::kFlightRecorderCapacity * 3 + 17;
  for (std::size_t i = 0; i < kEmit; ++i) {
    tracer.set_now_ms(i);
    tracer.emit(TraceLayer::kNet, telemetry::NetTrace::kSend,
                static_cast<u32>(i + 1), static_cast<u32>(i), 0);
  }
  EXPECT_EQ(ring.total(), kEmit);
  EXPECT_EQ(ring.size(), telemetry::kFlightRecorderCapacity);
  const std::vector<TraceEvent> tail = ring.tail();
  const auto& events = tracer.events();
  ASSERT_EQ(tail.size(), telemetry::kFlightRecorderCapacity);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         events.end() - static_cast<long>(tail.size())));
  EXPECT_EQ(ring.tail_lines().size(), tail.size());
}

TEST(FlightRecorderTest, BlackBoxSurvivesAWdtBiteIntoThePostmortem) {
  TraceWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  ScopedTracer scoped;
  services::ServiceBoard board(w.net, w.board_config());
  ASSERT_TRUE(w.echo_once(board, "before the bite", 0x7002));
  const u64 recorded_before = board.battery().flightrec.total();
  ASSERT_GT(recorded_before, 0u);

  board.wedge_for_ms(600);
  w.drive(board, nullptr, 700);
  ASSERT_EQ(board.wdt_bites(), 1u);
  ASSERT_TRUE(board.up());

  // The ring lives in the BatteryFile: the warm reset preserved it.
  EXPECT_GE(board.battery().flightrec.total(), recorded_before);
  // The supervisor dumped the pre-death tail into the postmortem.
  u64 trace_lines = 0;
  for (const auto& line : board.postmortem()) {
    if (line.rfind("trace ", 0) == 0) ++trace_lines;
  }
  EXPECT_GT(trace_lines, 0u);
  EXPECT_EQ(trace_lines, board.battery().flightrec.tail_lines().size());
}

TEST(TracerTest, PcapCaptureIsAValidLibpcapFile) {
  ScopedTracer scoped(/*pcap=*/true);
  net::SimNet medium(44);
  net::TcpStack server(medium, 1);
  net::TcpStack client(medium, 2);
  ASSERT_TRUE(server.listen(80).ok());
  auto sock = client.connect(1, 80);
  ASSERT_TRUE(sock.ok());
  for (int i = 0; i < 50 && !client.is_established(*sock); ++i) {
    medium.tick(1);
  }
  ASSERT_TRUE(client.close(*sock).is_ok());
  for (int i = 0; i < 200; ++i) medium.tick(1);

  auto& tracer = Tracer::global();
  ASSERT_GT(tracer.pcap_packets(), 0u);
  const std::vector<u8> bytes = tracer.pcap_file_bytes();
  ASSERT_GE(bytes.size(), 24u);
  auto u32le = [&](std::size_t at) {
    return static_cast<u32>(bytes[at]) | (static_cast<u32>(bytes[at + 1]) << 8) |
           (static_cast<u32>(bytes[at + 2]) << 16) |
           (static_cast<u32>(bytes[at + 3]) << 24);
  };
  auto u16le = [&](std::size_t at) {
    return static_cast<u32>(bytes[at]) | (static_cast<u32>(bytes[at + 1]) << 8);
  };
  EXPECT_EQ(u32le(0), 0xA1B2C3D4u);  // magic, microsecond timestamps
  EXPECT_EQ(u16le(4), 2u);           // version 2.4
  EXPECT_EQ(u16le(6), 4u);
  EXPECT_EQ(u32le(20), 1u);  // linktype: Ethernet

  // Walk every packet record: lengths consistent, Ethernet + IPv4 framing.
  std::size_t at = 24;
  u64 packets = 0;
  while (at < bytes.size()) {
    ASSERT_LE(at + 16, bytes.size());
    const u32 incl = u32le(at + 8);
    const u32 orig = u32le(at + 12);
    EXPECT_EQ(incl, orig);  // nothing truncated in a simulated capture
    ASSERT_LE(at + 16 + incl, bytes.size());
    ASSERT_GE(incl, 14u + 20u);                  // Ethernet + IPv4 minimum
    EXPECT_EQ(u16le(at + 16 + 12), 0x0008u);     // ethertype IPv4 (BE 0x0800)
    EXPECT_EQ(bytes[at + 16 + 14] >> 4, 4);      // IP version nibble
    at += 16 + incl;
    ++packets;
  }
  EXPECT_EQ(packets, tracer.pcap_packets());
}

TEST(RegistryRegression, SteadyStatePollingDoesZeroNameLookups) {
  // Satellite of DESIGN.md §11: hot paths pin instrument handles once
  // (function-local static references), so a polling loop — ticks, WDT
  // hits, live traffic bookkeeping — must not resolve metric names per
  // event. A regression here turns every packet into a map lookup.
  TraceWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  services::ServiceBoard board(w.net, w.board_config());
  ASSERT_TRUE(w.echo_once(board, "warm the handle caches", 0x7003));

  auto& registry = telemetry::Registry::global();
  const u64 before = registry.name_lookups();
  ASSERT_TRUE(w.echo_once(board, "and again with pinned handles", 0x7004));
  w.drive(board, nullptr, 500);
  EXPECT_EQ(registry.name_lookups(), before);
}

#endif  // RMC_TELEMETRY_ENABLED

}  // namespace
}  // namespace rmc

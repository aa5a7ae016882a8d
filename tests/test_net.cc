// Network substrate tests: the simulated medium, the TCP implementation
// (handshake, transfer, loss recovery, teardown, resets, backlog), and both
// API facades (BSD-style and Dynamic-C-style).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.h"
#include "net/bsd.h"
#include "net/dcnet.h"
#include "net/simnet.h"
#include "net/tcp.h"

namespace rmc::net {
namespace {

using common::ErrorCode;
using common::u8;

constexpr IpAddr kServerIp = 0x0A000001;
constexpr IpAddr kClientIp = 0x0A000002;
constexpr Port kPort = 4433;

struct TwoHosts {
  SimNet net{42};
  TcpStack server{net, kServerIp};
  TcpStack client{net, kClientIp};

  // Establish a connection and return {server_conn, client_conn}.
  std::pair<int, int> connect() {
    auto l = server.listen(kPort);
    EXPECT_TRUE(l.ok());
    auto c = client.connect(kServerIp, kPort);
    EXPECT_TRUE(c.ok());
    net.tick(20);
    auto sc = server.accept(*l);
    EXPECT_TRUE(sc.ok()) << sc.status().to_string();
    EXPECT_TRUE(client.is_established(*c));
    return {sc.ok() ? *sc : -1, *c};
  }

  std::vector<u8> drain(TcpStack& stack, int sock) {
    std::vector<u8> got;
    u8 buf[256];
    while (true) {
      auto n = stack.recv(sock, buf);
      if (!n.ok() || *n == 0) break;
      got.insert(got.end(), buf, buf + *n);
    }
    return got;
  }
};

// ---------------------------------------------------------------------------
// SimNet medium
// ---------------------------------------------------------------------------

class Sink : public NetworkEndpoint {
 public:
  std::vector<Segment> got;
  void deliver(const Segment& s) override { got.push_back(s); }
  void on_tick(u64) override {}
};

TEST(SimNet, DeliversAfterLatency) {
  SimNet net(1);
  net.set_latency_ms(5);
  Sink sink;
  net.attach(2, &sink);
  Segment seg;
  seg.src_ip = 1;
  seg.dst_ip = 2;
  seg.payload = {1, 2, 3};
  net.send(seg);
  net.tick(3);
  EXPECT_TRUE(sink.got.empty());
  net.tick(3);
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.got[0].payload.size(), 3u);
  EXPECT_EQ(net.payload_bytes_delivered(), 3u);
}

TEST(SimNet, DropsToUnknownHosts) {
  SimNet net(1);
  Segment seg;
  seg.dst_ip = 99;
  net.send(seg);
  net.tick(5);
  EXPECT_EQ(net.segments_dropped(), 1u);
}

TEST(SimNet, LossIsApplied) {
  SimNet net(7);
  net.set_loss_probability(1.0);
  Sink sink;
  net.attach(2, &sink);
  for (int i = 0; i < 10; ++i) {
    Segment seg;
    seg.dst_ip = 2;
    net.send(seg);
  }
  net.tick(10);
  EXPECT_TRUE(sink.got.empty());
  EXPECT_EQ(net.segments_dropped(), 10u);
}

// ---------------------------------------------------------------------------
// TCP core
// ---------------------------------------------------------------------------

TEST(Tcp, ThreeWayHandshake) {
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  EXPECT_EQ(h.server.state(sconn), TcpState::kEstablished);
  EXPECT_EQ(h.client.state(cconn), TcpState::kEstablished);
}

TEST(Tcp, DataBothDirections) {
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  const std::vector<u8> ping = {'p', 'i', 'n', 'g'};
  const std::vector<u8> pong = {'p', 'o', 'n', 'g', '!'};
  ASSERT_TRUE(h.client.send(cconn, ping).ok());
  h.net.tick(10);
  EXPECT_EQ(h.drain(h.server, sconn), ping);
  ASSERT_TRUE(h.server.send(sconn, pong).ok());
  h.net.tick(10);
  EXPECT_EQ(h.drain(h.client, cconn), pong);
}

TEST(Tcp, LargeTransferSegmentsAndReassembles) {
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  std::vector<u8> big(10'000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<u8>(i * 7);
  ASSERT_TRUE(h.client.send(cconn, big).ok());
  std::vector<u8> got;
  for (int i = 0; i < 500 && got.size() < big.size(); ++i) {
    h.net.tick(1);
    auto part = h.drain(h.server, sconn);
    got.insert(got.end(), part.begin(), part.end());
  }
  EXPECT_EQ(got, big);
}

TEST(Tcp, RecvReadsAcrossQueueChunkBoundaries) {
  // Reads of 1, 511, 513 and 2,000 bytes and then the rest cross the
  // receive deque's internal 512-byte chunks at different offsets; every
  // byte must come back once, in order, and bytes_available() must fall by
  // each read.
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  std::vector<u8> sent(3'300);
  common::Xorshift64 rng(17);
  rng.fill(sent);
  ASSERT_TRUE(h.client.send(cconn, sent).ok());
  for (int i = 0; i < 200 && h.server.bytes_available(sconn) < sent.size();
       ++i) {
    h.net.tick(1);
  }
  ASSERT_EQ(h.server.bytes_available(sconn), sent.size());
  std::vector<u8> got;
  for (std::size_t want : {std::size_t{1}, std::size_t{511}, std::size_t{513},
                           std::size_t{2'000}, std::size_t{4'096}}) {
    const std::size_t before = h.server.bytes_available(sconn);
    std::vector<u8> buf(want);
    auto n = h.server.recv(sconn, buf);
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    EXPECT_EQ(*n, std::min(want, before));
    EXPECT_EQ(h.server.bytes_available(sconn), before - *n);
    got.insert(got.end(), buf.begin(), buf.begin() + static_cast<long>(*n));
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(h.server.bytes_available(sconn), 0u);
}

TEST(Tcp, RecoversFromHeavyLoss) {
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  h.net.set_loss_probability(0.25);  // every 4th segment vanishes
  std::vector<u8> data(4'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i ^ (i >> 8));
  }
  ASSERT_TRUE(h.client.send(cconn, data).ok());
  std::vector<u8> got;
  for (int i = 0; i < 20'000 && got.size() < data.size(); ++i) {
    h.net.tick(1);
    auto part = h.drain(h.server, sconn);
    got.insert(got.end(), part.begin(), part.end());
  }
  EXPECT_EQ(got, data);  // exact bytes despite drops: retransmission works
  EXPECT_GT(h.client.retransmissions(), 0u);
}

// Hands every segment addressed to `stack` on to it, keeping a copy.
class Tap final : public NetworkEndpoint {
 public:
  Tap(SimNet& net, IpAddr addr, TcpStack& stack) : stack_(stack) {
    net.attach(addr, this);  // replaces the stack's own attachment
  }
  void deliver(const Segment& s) override {
    seen.push_back(s);
    stack_.deliver(s);
  }
  void on_tick(u64 now_ms) override { stack_.on_tick(now_ms); }

  std::vector<Segment> seen;

 private:
  TcpStack& stack_;
};

TEST(Tcp, RetransmitAfterPartialAckResendsFromSndUna) {
  // The first window (four segments) arrives and is acked a segment at a
  // time; each ACK opens the window for one more segment, and every one of
  // those is lost, with unsent bytes still queued behind them. Go-back-N
  // must resend the oldest unacked bytes at snd_una, not the next unsent
  // ones, and the receiver must end up with the exact stream.
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  Tap tap(h.net, kServerIp, h.server);
  std::vector<u8> data(6'000);
  common::Xorshift64 rng(29);
  rng.fill(data);
  ASSERT_TRUE(h.client.send(cconn, data).ok());
  h.net.tick(1);  // the first window reaches the server, which acks it
  ASSERT_EQ(tap.seen.size(), 4u);
  const u32 first_seq = tap.seen.front().seq;
  // Everything sent from the next ms on, when those ACKs land, is lost.
  FaultPlan plan;
  plan.partitions.push_back({h.net.now_ms() + 1, h.net.now_ms() + 100});
  h.net.set_fault_plan(plan);
  tap.seen.clear();
  std::vector<u8> got;
  for (int i = 0; i < 10'000 && got.size() < data.size(); ++i) {
    h.net.tick(1);
    auto part = h.drain(h.server, sconn);
    got.insert(got.end(), part.begin(), part.end());
  }
  EXPECT_EQ(got, data);
  EXPECT_GT(h.client.retransmissions(), 0u);
  // The first segment through after the loss is the retransmission. It
  // starts at snd_una, just past the acked window, and carries the bytes
  // found there.
  ASSERT_FALSE(tap.seen.empty());
  const Segment& resent = tap.seen.front();
  EXPECT_EQ(resent.seq, static_cast<u32>(first_seq + TcpStack::kWindow));
  ASSERT_EQ(resent.payload.size(), TcpStack::kMss);
  EXPECT_TRUE(std::equal(resent.payload.begin(), resent.payload.end(),
                         data.begin() + TcpStack::kWindow));
}

TEST(Tcp, HandshakeSurvivesSynLoss) {
  SimNet net(13);
  net.set_loss_probability(0.5);
  TcpStack server(net, kServerIp);
  TcpStack client(net, kClientIp);
  auto l = server.listen(kPort);
  ASSERT_TRUE(l.ok());
  auto c = client.connect(kServerIp, kPort);
  ASSERT_TRUE(c.ok());
  // Under 50% loss the exponentially backed-off handshake can exhaust
  // kMaxRetx and give up (RST + was_reset); a real client retries, so the
  // test does too.
  for (int i = 0; i < 60'000 && !client.is_established(*c); ++i) {
    net.tick(1);
    if (client.was_reset(*c)) {
      c = client.connect(kServerIp, kPort);
      ASSERT_TRUE(c.ok());
    }
  }
  EXPECT_TRUE(client.is_established(*c));
  // The client can reach Established before the server does (its final ACK
  // may be in flight or lost); give the server time to catch up.
  common::Result<int> sc = server.accept(*l);
  for (int i = 0; i < 60'000 && !sc.ok(); ++i) {
    net.tick(1);
    sc = server.accept(*l);
  }
  EXPECT_TRUE(sc.ok());
}

TEST(Tcp, GracefulCloseDeliversEof) {
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  const std::vector<u8> last = {'b', 'y', 'e'};
  ASSERT_TRUE(h.client.send(cconn, last).ok());
  ASSERT_TRUE(h.client.close(cconn).is_ok());
  h.net.tick(30);
  EXPECT_EQ(h.drain(h.server, sconn), last);
  u8 buf[8];
  auto eof = h.server.recv(sconn, buf);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);  // orderly shutdown
  // Server closes its side; both reach terminal states.
  ASSERT_TRUE(h.server.close(sconn).is_ok());
  h.net.tick(30);
  EXPECT_FALSE(h.client.is_open(cconn));
  EXPECT_FALSE(h.server.is_open(sconn));
}

TEST(Tcp, ConnectToDeadPortGetsReset) {
  TwoHosts h;
  auto c = h.client.connect(kServerIp, 9999);  // nobody listening
  ASSERT_TRUE(c.ok());
  h.net.tick(20);
  EXPECT_TRUE(h.client.was_reset(*c));
  EXPECT_EQ(h.client.state(*c), TcpState::kClosed);
}

TEST(Tcp, BacklogLimitsPendingConnections) {
  TwoHosts h;
  auto l = h.server.listen(kPort, /*backlog=*/2);
  ASSERT_TRUE(l.ok());
  std::vector<int> conns;
  for (int i = 0; i < 4; ++i) {
    auto c = h.client.connect(kServerIp, kPort);
    ASSERT_TRUE(c.ok());
    conns.push_back(*c);
  }
  h.net.tick(20);
  int established = 0;
  for (int c : conns) established += h.client.is_established(c) ? 1 : 0;
  EXPECT_EQ(established, 2);  // two SYNs beyond backlog got no SYN-ACK yet
  // Draining the queue lets the retransmitted SYNs through eventually.
  ASSERT_TRUE(h.server.accept(*l).ok());
  ASSERT_TRUE(h.server.accept(*l).ok());
  h.net.tick(2'000);
  established = 0;
  for (int c : conns) established += h.client.is_established(c) ? 1 : 0;
  EXPECT_EQ(established, 4);
}

TEST(Tcp, ConnectAfterLocalPortWrapStillEstablishes) {
  TwoHosts h;
  auto l = h.server.listen(kPort);
  ASSERT_TRUE(l.ok());
  // Active open; returns {server side, client side}, server side -1 if the
  // handshake (SYN, SYN-ACK, ACK) did not complete.
  auto open = [&] {
    auto c = h.client.connect(kServerIp, kPort);
    EXPECT_TRUE(c.ok()) << c.status().to_string();
    h.net.tick(3);
    auto s = h.server.accept(*l);
    return std::pair{s.ok() ? *s : -1, c.ok() ? *c : -1};
  };
  auto echo = [&](int s, int c, u8 tag) {
    const std::vector<u8> ping = {tag}, pong = {tag, tag};
    EXPECT_TRUE(h.client.send(c, ping).ok());
    h.net.tick(3);
    EXPECT_EQ(h.drain(h.server, s), ping);
    EXPECT_TRUE(h.server.send(s, pong).ok());
    h.net.tick(3);
    EXPECT_EQ(h.drain(h.client, c), pong);
  };
  const auto [s0, c0] = open();  // #0 stays established throughout
  ASSERT_GE(s0, 0);
  int first_cycle = -1;
  // The connector closes first, so each cycle leaves a client TCB in
  // TIME_WAIT, holding its 4-tuple for good. One cycle per ephemeral port:
  // the last lands on #0's port, and the connect after them on the port of
  // the first cycle's TIME_WAIT TCB.
  for (int i = 0; i < TcpStack::kEphemeralPorts; ++i) {
    const auto [s, c] = open();
    ASSERT_GE(s, 0) << "cycle " << i;
    if (i == 0) first_cycle = c;
    ASSERT_TRUE(h.client.close(c).is_ok());
    h.net.tick(2);  // FIN, ACK
    ASSERT_TRUE(h.server.close(s).is_ok());
    h.net.tick(2);  // FIN, ACK
    ASSERT_EQ(h.client.state(c), TcpState::kTimeWait) << "cycle " << i;
    ASSERT_TRUE(h.server.reap(s)) << "cycle " << i;  // keeps the server small
  }
  const auto [s, c] = open();
  ASSERT_GE(s, 0);
  echo(s, c, 'n');
  echo(s0, c0, '0');
  // The TIME_WAIT socket whose tuple the new connection took stays
  // queryable, and aborting it leaves the new connection alone.
  EXPECT_EQ(h.client.state(first_cycle), TcpState::kTimeWait);
  ASSERT_TRUE(h.client.abort(first_cycle).is_ok());
  echo(s, c, 'a');
  EXPECT_EQ(h.client.retransmissions(), 0u);
  EXPECT_EQ(h.client.resets_sent() + h.server.resets_sent(), 0u);
}

TEST(Tcp, SendOnClosedSocketFails) {
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  ASSERT_TRUE(h.client.close(cconn).is_ok());
  const std::vector<u8> data = {1};
  EXPECT_FALSE(h.client.send(cconn, data).ok());
  (void)sconn;
}

TEST(Tcp, AcceptOnNonListenerFails) {
  TwoHosts h;
  auto [sconn, cconn] = h.connect();
  EXPECT_FALSE(h.server.accept(sconn).ok());
  (void)cconn;
}

TEST(Tcp, StateNamesAreHuman) {
  EXPECT_STREQ(tcp_state_name(TcpState::kEstablished), "ESTABLISHED");
  EXPECT_STREQ(tcp_state_name(TcpState::kFinWait1), "FIN_WAIT_1");
}

// ---------------------------------------------------------------------------
// BSD facade
// ---------------------------------------------------------------------------

TEST(Bsd, EchoServerShape) {
  // The Figure 2(a) call sequence, non-blocking flavor.
  TwoHosts h;
  BsdSocketApi server_api(h.server);
  BsdSocketApi client_api(h.client);

  auto lfd = server_api.socket_fd();
  ASSERT_TRUE(lfd.ok());
  ASSERT_TRUE(server_api.bind_fd(*lfd, kPort).is_ok());
  ASSERT_TRUE(server_api.listen_fd(*lfd, 4).is_ok());

  auto cfd = client_api.socket_fd();
  ASSERT_TRUE(cfd.ok());
  ASSERT_TRUE(client_api.connect_fd(*cfd, kServerIp, kPort).is_ok());
  h.net.tick(20);
  ASSERT_TRUE(client_api.connected_fd(*cfd));

  auto conn = server_api.accept_fd(*lfd);
  ASSERT_TRUE(conn.ok());

  const std::vector<u8> msg = {'h', 'e', 'l', 'l', 'o'};
  ASSERT_TRUE(client_api.send_fd(*cfd, msg).ok());
  h.net.tick(10);
  u8 buf[64];
  auto n = server_api.recv_fd(*conn, buf);
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(server_api.send_fd(*conn, std::span<const u8>(buf, *n)).ok());
  h.net.tick(10);
  auto echo = client_api.recv_fd(*cfd, buf);
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(std::vector<u8>(buf, buf + *echo), msg);

  EXPECT_TRUE(server_api.close_fd(*conn).is_ok());
  EXPECT_TRUE(client_api.close_fd(*cfd).is_ok());
}

TEST(Bsd, ApiMisuseErrors) {
  TwoHosts h;
  BsdSocketApi api(h.server);
  EXPECT_FALSE(api.bind_fd(99, kPort).is_ok());           // bad fd
  auto fd = api.socket_fd();
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(api.listen_fd(*fd, 4).is_ok());            // listen before bind
  ASSERT_TRUE(api.bind_fd(*fd, kPort).is_ok());
  EXPECT_FALSE(api.bind_fd(*fd, kPort + 1).is_ok());      // double bind
  ASSERT_TRUE(api.listen_fd(*fd, 4).is_ok());
  auto r = api.accept_fd(*fd);
  EXPECT_FALSE(r.ok());                                   // would block
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
  u8 buf[4];
  EXPECT_FALSE(api.recv_fd(*fd, buf).ok());               // recv on listener
}

// ---------------------------------------------------------------------------
// Dynamic C facade
// ---------------------------------------------------------------------------

TEST(DcNet, Figure2bEchoShape) {
  // sock_init / tcp_listen / sock_established / sock_gets / sock_puts.
  TwoHosts h;
  DcTcpApi dc(h.server, &h.net);
  BsdSocketApi client_api(h.client);

  dc.sock_init();
  tcp_Socket sock;
  ASSERT_TRUE(dc.tcp_listen(&sock, kPort).is_ok());
  dc.sock_mode(&sock, /*ascii=*/true);

  auto cfd = client_api.socket_fd();
  ASSERT_TRUE(cfd.ok());
  ASSERT_TRUE(client_api.connect_fd(*cfd, kServerIp, kPort).is_ok());

  // The server loop: waitfor(sock_established) via ticking.
  for (int i = 0; i < 50 && !dc.sock_established(&sock); ++i) dc.tcp_tick(nullptr);
  ASSERT_TRUE(dc.sock_established(&sock));

  const std::string line = "GET /secret\n";
  ASSERT_TRUE(client_api
                  .send_fd(*cfd, std::span<const u8>(
                                     reinterpret_cast<const u8*>(line.data()),
                                     line.size()))
                  .ok());
  for (int i = 0; i < 50; ++i) dc.tcp_tick(nullptr);
  auto got = dc.sock_gets(&sock, 128);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, "GET /secret");

  ASSERT_TRUE(dc.sock_puts(&sock, "403 DENIED").is_ok());
  for (int i = 0; i < 50; ++i) dc.tcp_tick(nullptr);
  u8 buf[64];
  auto n = client_api.recv_fd(*cfd, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "403 DENIED\n");

  dc.sock_close(&sock);
}

TEST(DcNet, ListenBeforeInitFails) {
  TwoHosts h;
  DcTcpApi dc(h.server);
  tcp_Socket sock;
  EXPECT_FALSE(dc.tcp_listen(&sock, kPort).is_ok());
}

TEST(DcNet, SocketReArmsAfterClose) {
  // The §5.3 pattern: each connection needs a fresh tcp_listen on the same
  // tcp_Socket; the facade must reuse the port's listener.
  TwoHosts h;
  DcTcpApi dc(h.server, &h.net);
  BsdSocketApi client_api(h.client);
  dc.sock_init();
  tcp_Socket sock;

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(dc.tcp_listen(&sock, kPort).is_ok()) << round;
    auto cfd = client_api.socket_fd();
    ASSERT_TRUE(cfd.ok());
    ASSERT_TRUE(client_api.connect_fd(*cfd, kServerIp, kPort).is_ok());
    for (int i = 0; i < 100 && !dc.sock_established(&sock); ++i) {
      dc.tcp_tick(nullptr);
    }
    ASSERT_TRUE(dc.sock_established(&sock)) << round;
    const std::vector<u8> msg = {static_cast<u8>('0' + round)};
    ASSERT_TRUE(dc.sock_fastwrite(&sock, msg).ok());
    for (int i = 0; i < 50; ++i) dc.tcp_tick(nullptr);
    u8 buf[4];
    auto n = client_api.recv_fd(*cfd, buf);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(buf[0], '0' + round);
    dc.sock_close(&sock);
    ASSERT_TRUE(client_api.close_fd(*cfd).is_ok());
    for (int i = 0; i < 100; ++i) dc.tcp_tick(nullptr);
  }
}

TEST(DcNet, GetsRequiresAsciiMode) {
  TwoHosts h;
  DcTcpApi dc(h.server);
  dc.sock_init();
  tcp_Socket sock;
  ASSERT_TRUE(dc.tcp_listen(&sock, kPort).is_ok());
  auto r = dc.sock_gets(&sock, 16);
  EXPECT_FALSE(r.ok());
}

TEST(DcNet, TickNullAdvancesMedium) {
  TwoHosts h;
  DcTcpApi dc(h.server, &h.net);
  dc.sock_init();
  const u64 t0 = h.net.now_ms();
  for (int i = 0; i < 10; ++i) dc.tcp_tick(nullptr);
  EXPECT_EQ(h.net.now_ms(), t0 + 10);
  EXPECT_EQ(dc.tick_calls(), 10u);
}

}  // namespace
}  // namespace rmc::net

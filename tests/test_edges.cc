// Edge-case and failure-injection coverage across modules: session behaviour
// on corrupted transports, simultaneous TCP close (including a FIN
// retransmitted from TIME_WAIT), TCP demultiplexing after a listener is
// re-armed or a TIME_WAIT socket reaped, DC-facade EOF paths, compiler
// output introspection, and resource-limit paths.
#include <gtest/gtest.h>

#include "dcc/codegen.h"
#include "dynk/xalloc.h"
#include "issl/issl.h"
#include "net/dcnet.h"
#include "net/simnet.h"
#include "net/tcp.h"
#include "rabbit/board.h"
#include "rasm/assembler.h"

namespace rmc {
namespace {

using common::ErrorCode;
using common::u16;
using common::u64;
using common::u8;

// ---------------------------------------------------------------------------
// Session over a hostile transport
// ---------------------------------------------------------------------------

class GarbageStream final : public issl::ByteStream {
 public:
  common::Result<std::size_t> write(std::span<const u8> data) override {
    return data.size();  // swallow
  }
  common::Result<std::size_t> read(std::span<u8> out) override {
    // An attacker squirting non-issl bytes at the server.
    for (auto& b : out) b = 0x99;
    return out.size();
  }
  bool open() const override { return true; }
  void close() override {}
};

TEST(SessionEdge, GarbageBytesFailTheSessionNotTheProcess) {
  GarbageStream stream;
  common::Xorshift64 rng(1);
  issl::ServerIdentity id;
  id.psk = {1, 2, 3};
  auto session = issl::issl_bind_server(stream, issl::Config::embedded_port(),
                                        rng, id);
  (void)session.pump();
  EXPECT_TRUE(session.failed());
  EXPECT_EQ(session.error().code(), ErrorCode::kDataLoss);
  // Latched: pumping again keeps reporting the failure, no crash.
  auto again = session.pump();
  EXPECT_FALSE(again.is_ok());
}

class EofStream final : public issl::ByteStream {
 public:
  common::Result<std::size_t> write(std::span<const u8> data) override {
    return data.size();
  }
  common::Result<std::size_t> read(std::span<u8>) override {
    return std::size_t{0};  // immediate EOF
  }
  bool open() const override { return false; }
  void close() override {}
};

TEST(SessionEdge, TransportEofMidHandshakeFails) {
  EofStream stream;
  common::Xorshift64 rng(2);
  auto session = issl::issl_bind_client(stream, issl::Config::embedded_port(),
                                        rng, {1});
  (void)session.pump();  // sends ClientHello, then reads EOF
  EXPECT_TRUE(session.failed());
  EXPECT_EQ(session.error().code(), ErrorCode::kAborted);
}

// ---------------------------------------------------------------------------
// TCP teardown and demultiplexing
// ---------------------------------------------------------------------------

TEST(TcpEdge, SimultaneousCloseBothSidesReachTerminalStates) {
  net::SimNet medium(5);
  net::TcpStack a(medium, 1), b(medium, 2);
  auto l = a.listen(80);
  auto cb = b.connect(1, 80);
  medium.tick(20);
  auto ca = a.accept(*l);
  ASSERT_TRUE(ca.ok());
  // Both close before seeing the other's FIN.
  ASSERT_TRUE(a.close(*ca).is_ok());
  ASSERT_TRUE(b.close(*cb).is_ok());
  medium.tick(50);
  EXPECT_FALSE(a.is_open(*ca));
  EXPECT_FALSE(b.is_open(*cb));
}

TEST(TcpEdge, SimultaneousCloseRetransmitsFinWhoseAckWasLost) {
  net::SimNet medium(5);
  medium.set_latency_ms(5);
  net::TcpStack a(medium, 1), b(medium, 2);
  auto l = a.listen(80);
  auto cb = b.connect(1, 80);
  medium.tick(40);
  auto ca = a.accept(*l);
  ASSERT_TRUE(ca.ok());
  // a's FIN leaves at t and lands at t+5; b's leaves at t+2 and lands at
  // t+7. Each side takes the other's FIN in FIN_WAIT_1 and goes straight to
  // TIME_WAIT. The partition eats b's ACK of a's FIN (sent at t+5), so a
  // sits in TIME_WAIT with its FIN still unacknowledged.
  const u64 t = medium.now_ms();
  net::FaultPlan plan;
  plan.partitions.push_back({t + 5, t + 6});
  medium.set_fault_plan(plan);
  ASSERT_TRUE(a.close(*ca).is_ok());
  medium.tick(2);
  ASSERT_TRUE(b.close(*cb).is_ok());
  medium.tick(10);
  ASSERT_EQ(a.state(*ca), net::TcpState::kTimeWait);
  ASSERT_EQ(b.state(*cb), net::TcpState::kTimeWait);
  ASSERT_EQ(medium.drops_partition(), 1u);
  ASSERT_EQ(a.retransmissions(), 0u);
  // The RTO fires in TIME_WAIT; b re-ACKs the duplicate FIN.
  medium.tick(1'000);
  EXPECT_EQ(a.retransmissions(), 1u);
  EXPECT_EQ(b.retransmissions(), 0u);
  EXPECT_EQ(a.rto_ms(*ca), net::TcpStack::kRtoMs);  // FIN acked: backoff reset
  EXPECT_EQ(a.state(*ca), net::TcpState::kTimeWait);
  EXPECT_EQ(b.state(*cb), net::TcpState::kTimeWait);
  EXPECT_EQ(a.resets_sent() + b.resets_sent(), 0u);
}

TEST(TcpEdge, RelistenedPortAcceptsNewConnections) {
  net::SimNet medium(8);
  net::TcpStack a(medium, 1), b(medium, 2);
  auto l1 = a.listen(80);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(a.close(*l1).is_ok());
  auto l2 = a.listen(80);
  ASSERT_TRUE(l2.ok());
  EXPECT_FALSE(a.listen(80).ok());  // one listener per port
  auto cb = b.connect(1, 80);
  medium.tick(20);
  EXPECT_TRUE(b.is_established(*cb));
  EXPECT_TRUE(a.accept(*l2).ok());
  EXPECT_EQ(a.resets_sent(), 0u);
}

TEST(TcpEdge, SegmentForReapedTimeWaitTupleDrawsReset) {
  net::SimNet medium(9);
  net::TcpStack a(medium, 1), b(medium, 2);
  auto l = a.listen(80);
  auto cb = b.connect(1, 80);
  medium.tick(20);
  auto ca = a.accept(*l);
  ASSERT_TRUE(ca.ok());
  // b closes first and ends in TIME_WAIT; the partition eats its ACK of
  // a's FIN (sent at t+3), so a stays in LAST_ACK and will retransmit.
  const u64 t = medium.now_ms();
  net::FaultPlan plan;
  plan.partitions.push_back({t + 3, t + 4});
  medium.set_fault_plan(plan);
  ASSERT_TRUE(b.close(*cb).is_ok());
  medium.tick(2);
  ASSERT_TRUE(a.close(*ca).is_ok());
  medium.tick(2);
  ASSERT_EQ(b.state(*cb), net::TcpState::kTimeWait);
  ASSERT_EQ(a.state(*ca), net::TcpState::kLastAck);
  ASSERT_TRUE(b.reap(*cb));
  // a's retransmitted FIN now finds nothing on b and draws the ghost RST.
  medium.tick(1'000);
  EXPECT_EQ(a.retransmissions(), 1u);
  EXPECT_EQ(b.resets_sent(), 1u);
  EXPECT_TRUE(a.was_reset(*ca));
  EXPECT_EQ(a.state(*ca), net::TcpState::kClosed);
}

TEST(TcpEdge, DataBeforeCloseStillDelivered) {
  net::SimNet medium(6);
  net::TcpStack a(medium, 1), b(medium, 2);
  auto l = a.listen(80);
  auto cb = b.connect(1, 80);
  medium.tick(20);
  auto ca = a.accept(*l);
  ASSERT_TRUE(ca.ok());
  // Queue data then close immediately: the FIN must trail the payload.
  std::vector<u8> big(3000, 0x5A);
  ASSERT_TRUE(b.send(*cb, big).ok());
  ASSERT_TRUE(b.close(*cb).is_ok());
  std::vector<u8> got;
  u8 buf[512];
  for (int i = 0; i < 500; ++i) {
    medium.tick(1);
    auto n = a.recv(*ca, buf);
    if (n.ok()) {
      if (*n == 0 && got.size() == big.size()) break;
      got.insert(got.end(), buf, buf + *n);
    }
  }
  EXPECT_EQ(got, big);
}

// ---------------------------------------------------------------------------
// DC facade EOF / partial line
// ---------------------------------------------------------------------------

TEST(DcNetEdge, PartialLineSurrenderedAtEof) {
  net::SimNet medium(7);
  net::TcpStack server(medium, 1), client(medium, 2);
  net::DcTcpApi dc(server, &medium);
  dc.sock_init();
  net::tcp_Socket sock;
  ASSERT_TRUE(dc.tcp_listen(&sock, 23).is_ok());
  dc.sock_mode(&sock, true);
  auto c = client.connect(1, 23);
  for (int i = 0; i < 60 && !dc.sock_established(&sock); ++i) {
    dc.tcp_tick(nullptr);
  }
  ASSERT_TRUE(dc.sock_established(&sock));
  // Send a line with no terminator, then close.
  const std::vector<u8> partial = {'h', 'a', 'l', 'f'};
  ASSERT_TRUE(client.send(*c, partial).ok());
  for (int i = 0; i < 30; ++i) dc.tcp_tick(nullptr);
  EXPECT_FALSE(dc.sock_gets(&sock, 64).ok());  // incomplete: would block
  ASSERT_TRUE(client.close(*c).is_ok());
  for (int i = 0; i < 60; ++i) dc.tcp_tick(nullptr);
  auto line = dc.sock_gets(&sock, 64);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "half");  // EOF surrenders the remainder
}

// ---------------------------------------------------------------------------
// xalloc / scheduler resource edges
// ---------------------------------------------------------------------------

TEST(XallocEdge, AlignmentLargerThanRemainingFails) {
  dynk::XallocArena arena(10);
  ASSERT_TRUE(arena.xalloc(7).ok());
  EXPECT_FALSE(arena.xalloc(4, 8).ok());  // aligned start would be at 8, 8+4>10
  EXPECT_TRUE(arena.xalloc(2, 1).ok());   // unaligned tail still usable
}

// ---------------------------------------------------------------------------
// Board / compiler introspection
// ---------------------------------------------------------------------------

TEST(BoardEdge, CycleBudgetExceededReported) {
  auto out = rasm::assemble("main: jr main\n");  // spin forever
  ASSERT_TRUE(out.ok());
  rabbit::Board board;
  board.load(out->image);
  auto res = board.call("main", 5'000);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->stop, rabbit::StopReason::kCycleLimit);
  EXPECT_GE(res->cycles, 5'000u);
}

TEST(CompilerOutput, AsmTextReflectsKnobs) {
  const std::string src = "xmem uchar t[4]; int f() { t[0] = 1; return t[0]; }";
  auto debug_build = dcc::compile(src, dcc::CodegenOptions::debug_defaults());
  ASSERT_TRUE(debug_build.ok());
  EXPECT_NE(debug_build->asm_text.find("rst 28h"), std::string::npos);
  EXPECT_NE(debug_build->asm_text.find("xorg"), std::string::npos);
  EXPECT_NE(debug_build->asm_text.find("xpcof"), std::string::npos);
  EXPECT_GT(debug_build->xmem_bytes, 0u);

  auto opt_build = dcc::compile(src, dcc::CodegenOptions::all_optimizations());
  ASSERT_TRUE(opt_build.ok());
  EXPECT_EQ(opt_build->asm_text.find("rst 28h"), std::string::npos);
  EXPECT_EQ(opt_build->asm_text.find("xorg"), std::string::npos);  // forced root
  EXPECT_EQ(opt_build->xmem_bytes, 0u);
  EXPECT_GT(opt_build->data_bytes, 0u);
}

TEST(CompilerOutput, GeneratedAsmIsReassemblable) {
  // The emitted text itself must round-trip through the assembler to the
  // identical image (the compile() path already assembles it once).
  const std::string src = R"(
    uchar buf[8];
    int f() { int i; for (i = 0; i < 8; i = i + 1) buf[i] = i; return buf[3]; }
  )";
  auto out = dcc::compile(src);
  ASSERT_TRUE(out.ok());
  auto re = rasm::assemble(out->asm_text);
  ASSERT_TRUE(re.ok()) << re.status().to_string();
  ASSERT_EQ(re->image.chunks.size(), out->image.chunks.size());
  for (std::size_t i = 0; i < re->image.chunks.size(); ++i) {
    EXPECT_EQ(re->image.chunks[i].phys_addr, out->image.chunks[i].phys_addr);
    EXPECT_EQ(re->image.chunks[i].bytes, out->image.chunks[i].bytes);
  }
}

}  // namespace
}  // namespace rmc

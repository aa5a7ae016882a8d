// Production-memory tests (DESIGN.md §14): the slab allocator's size-class
// and large-spill paths, real free with page-run coalescing, the poison/
// quarantine debug mode (double-free, foreign-free, use-after-free), the
// seeded AllocFaultMonitor, freelist-order determinism, and the slab-mode
// redirector shedding one connection instead of restarting the board.
#include <gtest/gtest.h>

#include <cstring>

#include "dynk/allocfault.h"
#include "dynk/slab.h"
#include "services/supervisor.h"
#include "telemetry/metrics.h"

namespace rmc {
namespace {

using common::u64;
using common::u8;
using dynk::AllocFaultMonitor;
using dynk::AllocFaultPlan;
using dynk::SlabAllocator;
using dynk::SlabConfig;
using dynk::SlabHandle;

SlabConfig small_config(std::size_t pages = 8, bool quarantine = false,
                        std::size_t depth = 4) {
  SlabConfig c;
  c.capacity = pages * 4096;
  c.quarantine = quarantine;
  c.quarantine_depth = depth;
  return c;
}

// ---------------------------------------------------------------------------
// Size classes and basic alloc/free accounting
// ---------------------------------------------------------------------------

TEST(SlabTest, ClassForMapsPow2Boundaries) {
  EXPECT_EQ(SlabAllocator::class_for(1), 0u);
  EXPECT_EQ(SlabAllocator::class_for(16), 0u);
  EXPECT_EQ(SlabAllocator::class_for(17), 1u);
  EXPECT_EQ(SlabAllocator::class_for(32), 1u);
  EXPECT_EQ(SlabAllocator::class_for(2048), 7u);
  // Over the top class: the whole-page spill path.
  EXPECT_EQ(SlabAllocator::class_for(2049), SlabAllocator::kNumClasses);
  EXPECT_EQ(SlabAllocator::class_block_bytes(0), 16u);
  EXPECT_EQ(SlabAllocator::class_block_bytes(7), 2048u);
}

TEST(SlabTest, ZeroByteAllocIsInvalidNotExhausted) {
  SlabAllocator slab(small_config());
  auto h = slab.alloc(0, "test.zero");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), common::ErrorCode::kInvalidArgument);
  // Not counted as an exhaustion failure and nothing was committed.
  EXPECT_EQ(slab.failed_allocs(), 0u);
  EXPECT_EQ(slab.committed_bytes(), 0u);
}

TEST(SlabTest, AllocFreeRoundTripReturnsToZeroLive) {
  SlabAllocator slab(small_config());
  std::vector<SlabHandle> hs;
  for (int i = 0; i < 10; ++i) {
    auto h = slab.alloc(100, "test.rt");  // class 128
    ASSERT_TRUE(h.ok());
    hs.push_back(*h);
  }
  EXPECT_EQ(slab.live_blocks(), 10u);
  EXPECT_EQ(slab.live_bytes(), 10u * 128);
  EXPECT_EQ(slab.requested_bytes(), 10u * 100);
  for (SlabHandle h : hs) EXPECT_TRUE(slab.free(h).is_ok());
  EXPECT_EQ(slab.live_blocks(), 0u);
  EXPECT_EQ(slab.live_bytes(), 0u);
  EXPECT_EQ(slab.requested_bytes(), 0u);
  EXPECT_EQ(slab.free_count(), 10u);
  // High waters remember the peak; the slab page stays committed (cached).
  EXPECT_EQ(slab.high_water_live_bytes(), 10u * 128);
  EXPECT_GE(slab.committed_bytes(), 4096u);
}

TEST(SlabTest, ViewExposesWritableClassBlock) {
  SlabAllocator slab(small_config());
  auto h = slab.alloc(100, "test.view");
  ASSERT_TRUE(h.ok());
  auto span = slab.view(*h);
  ASSERT_EQ(span.size(), 128u);  // class block, naturally aligned
  std::memset(span.data(), 0x5A, span.size());
  EXPECT_EQ(slab.view(*h)[127], 0x5A);
  ASSERT_TRUE(slab.free(*h).is_ok());
  // Dead handles view nothing.
  EXPECT_TRUE(slab.view(*h).empty());
}

TEST(SlabTest, FreelistIsLifoAndDeterministic) {
  // Two identically configured slabs fed the same sequence must hand out
  // the same handles — the property the byte-reproducible soak rests on.
  SlabAllocator a(small_config());
  SlabAllocator b(small_config());
  std::vector<SlabHandle> ha, hb;
  for (int i = 0; i < 8; ++i) {
    auto x = a.alloc(60, "t");
    auto y = b.alloc(60, "t");
    ASSERT_TRUE(x.ok() && y.ok());
    ha.push_back(*x);
    hb.push_back(*y);
  }
  EXPECT_EQ(ha, hb);
  // LIFO reuse: free one block, the next same-class alloc gets it back.
  ASSERT_TRUE(a.free(ha[3]).is_ok());
  auto again = a.alloc(64, "t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, ha[3]);
}

// ---------------------------------------------------------------------------
// Large (over-class) spill path and page-run coalescing
// ---------------------------------------------------------------------------

TEST(SlabTest, OverMaxClassSpillsToWholePagesAndReturnsThem) {
  SlabAllocator slab(small_config(8));
  // kMaxClassBytes + 1: one byte over the top class => one whole page.
  auto h = slab.alloc(SlabAllocator::kMaxClassBytes + 1, "test.large");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(slab.committed_bytes(), 4096u);
  EXPECT_EQ(slab.live_bytes(), 4096u);  // page-rounded
  EXPECT_EQ(slab.view(*h).size(), 4096u);
  // Unlike class slabs, large pages go back to the run list on free.
  ASSERT_TRUE(slab.free(*h).is_ok());
  EXPECT_EQ(slab.committed_bytes(), 0u);
  EXPECT_EQ(slab.live_bytes(), 0u);
}

TEST(SlabTest, FreedPageRunsCoalesceForBigAllocations) {
  SlabAllocator slab(small_config(4));
  auto a = slab.alloc(2 * 4096, "A");  // pages 0-1
  auto b = slab.alloc(2 * 4096, "B");  // pages 2-3
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_FALSE(slab.alloc(4096, "full").ok());  // budget spent
  ASSERT_TRUE(slab.free(*a).is_ok());
  ASSERT_TRUE(slab.free(*b).is_ok());
  // Only a coalesced run can hold all four pages again.
  EXPECT_TRUE(slab.alloc(4 * 4096, "whole").ok());
}

TEST(SlabTest, ExhaustionFailsCleanAndRecoversAfterFree) {
  SlabAllocator slab(small_config(1));  // one page: 32 blocks of 128
  std::vector<SlabHandle> hs;
  while (true) {
    auto h = slab.alloc(128, "fill");
    if (!h.ok()) {
      EXPECT_EQ(h.status().code(), common::ErrorCode::kResourceExhausted);
      break;
    }
    hs.push_back(*h);
  }
  EXPECT_EQ(hs.size(), 32u);
  EXPECT_EQ(slab.failed_allocs(), 1u);
  ASSERT_TRUE(slab.free(hs.back()).is_ok());
  EXPECT_TRUE(slab.alloc(128, "again").ok());
}

// ---------------------------------------------------------------------------
// Fault detection: foreign free, double free, use-after-free
// ---------------------------------------------------------------------------

TEST(SlabTest, ForeignHandleFreeTripsNamedFault) {
  SlabAllocator slab(small_config());
  std::string fault_kind;
  slab.set_fault_handler(
      [&](const char* kind, SlabHandle) { fault_kind = kind; });
  // Below base: never a handle of this allocator.
  EXPECT_EQ(slab.free(0x1000).code(), common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(fault_kind, "foreign-free");
  // Misaligned inside the range: also foreign.
  auto h = slab.alloc(64, "t");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(slab.free(*h + 8).code(), common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(slab.foreign_free_faults(), 2u);
  // The live block is untouched by the bad frees.
  EXPECT_TRUE(slab.free(*h).is_ok());
}

TEST(SlabTest, DoubleFreeDetectedWithAndWithoutQuarantine) {
  for (bool q : {false, true}) {
    SlabAllocator slab(small_config(8, q));
    std::string fault_kind;
    slab.set_fault_handler(
        [&](const char* kind, SlabHandle) { fault_kind = kind; });
    auto h = slab.alloc(64, "t");
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(slab.free(*h).is_ok());
    EXPECT_EQ(slab.free(*h).code(), common::ErrorCode::kFailedPrecondition);
    EXPECT_EQ(fault_kind, "double-free");
    EXPECT_EQ(slab.double_free_faults(), 1u);
  }
}

TEST(SlabTest, QuarantineDelaysReuseAndPoisonsFrees) {
  SlabAllocator slab(small_config(8, /*quarantine=*/true, /*depth=*/4));
  auto h = slab.alloc(64, "t");
  ASSERT_TRUE(h.ok());
  const SlabHandle first = *h;
  ASSERT_TRUE(slab.free(first).is_ok());
  EXPECT_EQ(slab.quarantined_blocks(), 1u);
  // The freed block must NOT come back while quarantine holds it.
  auto h2 = slab.alloc(64, "t");
  ASSERT_TRUE(h2.ok());
  EXPECT_NE(*h2, first);
  ASSERT_TRUE(slab.free(*h2).is_ok());
  slab.flush_quarantine();
  EXPECT_EQ(slab.quarantined_blocks(), 0u);
  EXPECT_EQ(slab.poison_trips(), 0u);  // nobody wrote through stale handles
}

TEST(SlabTest, UseAfterFreeWriteTripsPoisonAudit) {
  SlabAllocator slab(small_config(8, /*quarantine=*/true, /*depth=*/8));
  std::string fault_kind;
  slab.set_fault_handler(
      [&](const char* kind, SlabHandle) { fault_kind = kind; });
  auto h = slab.alloc(64, "t");
  ASSERT_TRUE(h.ok());
  auto stale = slab.view(*h);  // keep the host view across the free
  ASSERT_TRUE(slab.free(*h).is_ok());
  stale[5] = 0x42;  // write through the stale handle while quarantined
  slab.flush_quarantine();
  EXPECT_EQ(slab.poison_trips(), 1u);
  EXPECT_EQ(fault_kind, "use-after-free");
}

TEST(SlabTest, QuarantineModeFillsFreshBlocksWithAllocPoison) {
  SlabAllocator slab(small_config(8, /*quarantine=*/true));
  auto h = slab.alloc(64, "t");
  ASSERT_TRUE(h.ok());
  for (u8 byte : slab.view(*h)) EXPECT_EQ(byte, SlabAllocator::kPoisonAlloc);
}

// ---------------------------------------------------------------------------
// AllocFaultMonitor: seeded, re-arming failure injection
// ---------------------------------------------------------------------------

TEST(AllocFaultTest, ExplicitGapsFailTheScheduledAttempts) {
  AllocFaultMonitor m(AllocFaultPlan::at({2, 0}));
  // Two attempts survive, then two consecutive attempts fail.
  EXPECT_FALSE(m.step("a"));
  EXPECT_FALSE(m.step("b"));
  EXPECT_TRUE(m.step("c"));
  EXPECT_TRUE(m.step("d"));
  EXPECT_FALSE(m.step("e"));  // plan exhausted, back to normal
  EXPECT_EQ(m.attempts(), 5u);
  EXPECT_EQ(m.injected(), 2u);
  EXPECT_EQ(m.last_site(), "d");
  ASSERT_EQ(m.sites_tripped().size(), 2u);
  EXPECT_EQ(m.sites_tripped()[0], "c");
  EXPECT_FALSE(m.more_pending());
}

TEST(AllocFaultTest, SeededRandomPlanIsReproducible) {
  auto p1 = AllocFaultPlan::random(0xBEEF, 16, 1, 50);
  auto p2 = AllocFaultPlan::random(0xBEEF, 16, 1, 50);
  EXPECT_EQ(p1.failures, p2.failures);
  for (u64 gap : p1.failures) {
    EXPECT_GE(gap, 1u);
    EXPECT_LE(gap, 50u);
  }
}

TEST(AllocFaultTest, MonitorInjectsIntoSlabAlloc) {
  SlabAllocator slab(small_config());
  AllocFaultMonitor m(AllocFaultPlan::at({0}));
  slab.attach_fault_monitor(&m);
  auto h = slab.alloc(64, "inject.here");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), common::ErrorCode::kResourceExhausted);
  EXPECT_EQ(slab.injected_failures(), 1u);
  // Nothing was committed for the injected failure; next attempt succeeds.
  EXPECT_EQ(slab.committed_bytes(), 0u);
  EXPECT_TRUE(slab.alloc(64, "inject.here").ok());
  EXPECT_EQ(m.sites_tripped().front(), "inject.here");
}

// ---------------------------------------------------------------------------
// Slab-mode service board: exhaustion sheds one connection, never restarts
// ---------------------------------------------------------------------------

constexpr net::IpAddr kBoardIp = 1;
constexpr net::IpAddr kBackendIp = 2;
constexpr net::IpAddr kClientIp = 3;
constexpr net::Port kTlsPort = 4433;
constexpr net::Port kBackendPort = 8000;

std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

struct SlabWorld {
  net::SimNet net{777};
  net::TcpStack backend_stack{net, kBackendIp};
  net::TcpStack client_stack{net, kClientIp};
  services::EchoBackend backend{backend_stack, kBackendPort};

  services::ServiceBoardConfig board_config() {
    services::ServiceBoardConfig cfg;
    cfg.redirector.listen_port = kTlsPort;
    cfg.redirector.backend_ip = kBackendIp;
    cfg.redirector.backend_port = kBackendPort;
    cfg.redirector.secure = false;  // unit tests drive the memory path only
    cfg.board_ip = kBoardIp;
    cfg.wdt_period_ms = 500;
    cfg.allocator = dynk::AllocatorKind::kSlab;
    cfg.xalloc_capacity = 64 * 1024;
    return cfg;
  }

  bool echo_once(services::ServiceBoard& board, std::string_view msg,
                 u64 seed, u64 budget_ms = 1'200) {
    services::Client c(client_stack, kBoardIp, kTlsPort, false,
                       issl::Config::embedded_port(), {}, seed);
    if (!c.start().is_ok()) return false;
    if (!c.send(bytes_of(msg)).is_ok()) return false;
    for (u64 i = 0; i < budget_ms; ++i) {
      board.poll();
      backend.poll();
      (void)c.poll();
      net.tick(1);
      if (c.received().size() >= msg.size()) {
        c.close();
        for (u64 j = 0; j < 80; ++j) {
          board.poll();
          backend.poll();
          (void)c.poll();
          net.tick(1);
        }
        return true;
      }
    }
    return false;
  }
};

TEST(SlabBoardTest, SlabModeServesAndFreesPerConnectionState) {
  SlabWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  services::ServiceBoard board(w.net, w.board_config());
  ASSERT_NE(board.slab(), nullptr);

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(w.echo_once(board, "slab echo", 0x5000 + i));
  }
  // Every recipe was allocated AND returned: zero live bytes at idle, many
  // more sessions than an equal xalloc budget could ever serve per boot.
  EXPECT_EQ(board.slab()->live_bytes(), 0u);
  EXPECT_GE(board.slab()->free_count(), 6u * 4);
  EXPECT_EQ(board.resets(), 0u);
  EXPECT_EQ(board.redirector()->stats().alloc_sheds, 0u);
}

TEST(SlabBoardTest, InjectedAllocFailureShedsOneConnectionNotTheBoard) {
  SlabWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  auto cfg = w.board_config();
  // Fail the very first allocation attempt (conn.state of the first
  // accepted connection); everything after runs normally.
  cfg.alloc_fault_plan = dynk::AllocFaultPlan::at({0});
  services::ServiceBoard board(w.net, cfg);

  // The first client is shed (its recipe never arrived) ...
  (void)w.echo_once(board, "doomed", 0x6000, 600);
  EXPECT_EQ(board.redirector()->stats().alloc_sheds, 1u);
  EXPECT_EQ(board.alloc_faults().injected(), 1u);
  EXPECT_EQ(board.alloc_faults().sites_tripped().front(), "conn.state");
  // ... and the board neither restarted nor asked to.
  EXPECT_EQ(board.resets(), 0u);
  EXPECT_EQ(board.xalloc_restarts(), 0u);
  EXPECT_FALSE(board.redirector()->restart_requested());

  // The very next client is served on the recycled slot.
  EXPECT_TRUE(w.echo_once(board, "survivor", 0x6001));
  EXPECT_EQ(board.slab()->live_bytes(), 0u);
}

TEST(SlabBoardTest, MidRecipeFailureReleasesThePartialRecipe) {
  SlabWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  auto cfg = w.board_config();
  // Survive 2 attempts (conn.state, conn.session), fail the third
  // (conn.buf): the shed path must free the partial recipe.
  cfg.alloc_fault_plan = dynk::AllocFaultPlan::at({2});
  services::ServiceBoard board(w.net, cfg);

  (void)w.echo_once(board, "doomed", 0x7000, 600);
  EXPECT_EQ(board.redirector()->stats().alloc_sheds, 1u);
  EXPECT_EQ(board.alloc_faults().sites_tripped().front(), "conn.buf");
  EXPECT_EQ(board.slab()->live_bytes(), 0u);  // partials released
  EXPECT_EQ(board.resets(), 0u);
  EXPECT_TRUE(w.echo_once(board, "survivor", 0x7001));
}

}  // namespace
}  // namespace rmc

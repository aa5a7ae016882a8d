// Device-fault tolerance tests: the hardware watchdog peripheral, the
// power-failure injector, the torn-write-detecting `protected` storage, the
// two-slot durable store, and the ServiceBoard supervisor's warm-restart
// recovery of the secure redirector (wedge -> WDT bite, power cut mid-store,
// xalloc exhaustion -> controlled restart).
#include <gtest/gtest.h>

#include "dynk/persist.h"
#include "dynk/power.h"
#include "dynk/storage.h"
#include "rabbit/board.h"
#include "rabbit/watchdog.h"
#include "services/supervisor.h"
#include "telemetry/metrics.h"

namespace rmc {
namespace {

using common::u64;
using common::u8;

// ---------------------------------------------------------------------------
// Watchdog peripheral
// ---------------------------------------------------------------------------

TEST(WatchdogTest, FiresAfterPeriodWithoutHit) {
  rabbit::Watchdog wdt(0x08, 1'000'000);  // 1 MHz for round numbers
  wdt.set_period_cycles(10'000);
  wdt.tick(9'999);
  EXPECT_FALSE(wdt.fired());
  wdt.tick(1);
  EXPECT_TRUE(wdt.fired());
  EXPECT_EQ(wdt.fires(), 1u);
  // Latched: more time does not refire.
  wdt.tick(100'000);
  EXPECT_EQ(wdt.fires(), 1u);
}

TEST(WatchdogTest, HitRestartsCountdown) {
  rabbit::Watchdog wdt(0x08, 1'000'000);
  wdt.set_period_cycles(10'000);
  for (int i = 0; i < 100; ++i) {
    wdt.tick(9'000);
    wdt.hit();
  }
  EXPECT_FALSE(wdt.fired());
}

TEST(WatchdogTest, HitCodesSelectPeriodThroughRegister) {
  rabbit::Watchdog wdt(0x08, 1'000'000);
  wdt.io_write(0x08, rabbit::Watchdog::kHit500ms);
  EXPECT_EQ(wdt.period_cycles(), 500'000u);
  wdt.io_write(0x08, rabbit::Watchdog::kHit250ms);
  EXPECT_EQ(wdt.period_cycles(), 250'000u);
  // Garbage hit codes neither hit nor change the period (as on silicon).
  wdt.tick(200'000);
  wdt.io_write(0x08, 0x00);
  wdt.tick(60'000);
  EXPECT_TRUE(wdt.fired());
  // Status read: bit0 fired, bit1 enabled.
  EXPECT_EQ(wdt.io_read(0x08), 0x03);
}

TEST(WatchdogTest, DisableNeedsTheTwoWriteSequence) {
  rabbit::Watchdog wdt(0x08, 1'000'000);
  wdt.set_period_cycles(1'000);
  // Broken sequence: 0x51, garbage, 0x54 must NOT disable.
  wdt.io_write(0x09, rabbit::Watchdog::kDisable1);
  wdt.io_write(0x09, 0x00);
  wdt.io_write(0x09, rabbit::Watchdog::kDisable2);
  EXPECT_TRUE(wdt.enabled());
  // Proper sequence disables; a disabled WDT never fires.
  wdt.io_write(0x09, rabbit::Watchdog::kDisable1);
  wdt.io_write(0x09, rabbit::Watchdog::kDisable2);
  EXPECT_FALSE(wdt.enabled());
  wdt.tick(1'000'000);
  EXPECT_FALSE(wdt.fired());
}

// ---------------------------------------------------------------------------
// Board-level watchdog: wedged firmware gets hard-reset and rebooted
// ---------------------------------------------------------------------------

rabbit::Image image_of(std::vector<u8> code) {
  rabbit::Image img;
  img.chunks.push_back({0x0100, std::move(code)});
  img.entry = 0x0100;
  return img;
}

TEST(BoardWatchdogTest, WedgedFirmwareIsResetAndRebooted) {
  rabbit::Board board;
  // JR -2: the tightest possible wedge — never hits the WDT.
  board.load(image_of({0x18, 0xFE}));
  board.watchdog().set_period_cycles(100'000);
  auto r = board.run_guarded(1'000'000, 10'000);
  EXPECT_GE(r.watchdog_resets, 5u);
  EXPECT_TRUE(board.sys_is_soft_reset());
  EXPECT_EQ(board.last_reset_cause(), rabbit::ResetCause::kWatchdog);
  EXPECT_EQ(board.resets(), r.watchdog_resets);
  EXPECT_EQ(reset_cause_name(board.last_reset_cause()),
            std::string("watchdog"));
}

TEST(BoardWatchdogTest, FirmwareThatHitsTheWdtRunsForever) {
  rabbit::Board board;
  // LD A,0x5A / OUT (0x08),A / JR -6: hit the watchdog every iteration.
  board.load(image_of({0x3E, 0x5A, 0xD3, 0x08, 0x18, 0xFA}));
  board.watchdog().set_period_cycles(100'000);
  auto r = board.run_guarded(1'000'000, 10'000);
  EXPECT_EQ(r.watchdog_resets, 0u);
  EXPECT_FALSE(board.sys_is_soft_reset());
  // The OUT hit codes also reprogram the period to the 2 s the 0x5A code
  // names — countdown restarted each loop either way.
  EXPECT_FALSE(board.watchdog().fired());
}

TEST(BoardWatchdogTest, WarmResetPreservesSramCold1ResetsCount) {
  rabbit::Board board;
  const u64 before = board.resets();
  board.warm_reset(rabbit::ResetCause::kSoft);
  EXPECT_TRUE(board.sys_is_soft_reset());
  EXPECT_EQ(board.resets(), before + 1);
  board.reset();  // cold
  EXPECT_FALSE(board.sys_is_soft_reset());
  EXPECT_EQ(board.last_reset_cause(), rabbit::ResetCause::kPowerOn);
}

// ---------------------------------------------------------------------------
// Power-failure injection
// ---------------------------------------------------------------------------

TEST(PowerMonitorTest, CountdownTripsAtTheExactFaultPoint) {
  dynk::PowerMonitor mon(dynk::PowerFaultPlan::at({2}));
  EXPECT_FALSE(mon.step("a"));
  EXPECT_FALSE(mon.step("b"));
  EXPECT_TRUE(mon.step("c"));  // the cut lands exactly here
  EXPECT_FALSE(mon.powered());
  EXPECT_EQ(mon.cuts(), 1u);
  EXPECT_EQ(mon.last_cut_site(), "c");
  // Dead is dead until the cord goes back in.
  EXPECT_TRUE(mon.step("d"));
  EXPECT_EQ(mon.cuts(), 1u);
  mon.restore_power();
  EXPECT_TRUE(mon.powered());
  EXPECT_FALSE(mon.step("e"));  // no second cut scheduled
  EXPECT_FALSE(mon.more_cuts_pending());
  EXPECT_EQ(mon.points_seen(), 5u);
}

TEST(PowerMonitorTest, EachPowerCycleGetsItsOwnScheduledCut) {
  dynk::PowerMonitor mon(dynk::PowerFaultPlan::at({0, 1}));
  EXPECT_TRUE(mon.step("x"));  // first cycle dies at its first fault point
  mon.restore_power();
  EXPECT_FALSE(mon.step("y"));
  EXPECT_TRUE(mon.step("z"));
  EXPECT_EQ(mon.cuts(), 2u);
}

TEST(PowerMonitorTest, RandomPlanIsSeedDeterministic) {
  auto a = dynk::PowerFaultPlan::random(42, 8, 5, 500);
  auto b = dynk::PowerFaultPlan::random(42, 8, 5, 500);
  ASSERT_EQ(a.cuts.size(), 8u);
  EXPECT_EQ(a.cuts, b.cuts);
  for (u64 gap : a.cuts) {
    EXPECT_GE(gap, 5u);
    EXPECT_LE(gap, 500u);
  }
  auto c = dynk::PowerFaultPlan::random(43, 8, 5, 500);
  EXPECT_NE(a.cuts, c.cuts);
}

// ---------------------------------------------------------------------------
// ProtectedVar: the torn-write blind spot, fixed
// ---------------------------------------------------------------------------

TEST(ProtectedVarRecoveryTest, CleanValueIsNotClobberedByRestore) {
  // The old blind spot's dual: a reset with NO store in flight must keep the
  // live value — blindly restoring the backup would roll back a completed
  // store.
  dynk::ProtectedVar<int> v(1);
  v.store(2);
  EXPECT_EQ(v.restore_after_reset(), dynk::RestoreOutcome::kIntact);
  EXPECT_EQ(v.load(), 2);
  EXPECT_EQ(v.restores(), 0u);
  EXPECT_EQ(v.restored_stale(), 0u);
}

TEST(ProtectedVarRecoveryTest, PowerCutMidWriteIsDetectedByTheMarker) {
  // Cut at the second fault point of the store protocol: [pvar.backup] then
  // [pvar.write] — the multibyte value is half-written, and only the
  // validity marker makes that detectable.
  dynk::PowerMonitor mon(dynk::PowerFaultPlan::at({1}));
  dynk::ProtectedVar<common::u32> v(0x11111111u);
  v.attach_power(&mon);
  v.store(0xAAAA5555u);
  EXPECT_FALSE(mon.powered());
  EXPECT_EQ(mon.last_cut_site(), "pvar.write");
  EXPECT_TRUE(v.store_in_progress());
  EXPECT_NE(v.load(), 0xAAAA5555u);  // torn: half old, half new
  EXPECT_NE(v.load(), 0x11111111u);
  EXPECT_EQ(v.restore_after_reset(), dynk::RestoreOutcome::kRestoredStale);
  EXPECT_EQ(v.load(), 0x11111111u);  // last good value
  EXPECT_EQ(v.restored_stale(), 1u);
  EXPECT_FALSE(v.store_in_progress());
}

TEST(ProtectedVarRecoveryTest, CutBetweenWriteAndCommitRollsBackBounded) {
  // Cut after the value landed but before the marker dropped: restore
  // conservatively rolls back — one update lost, reported, never torn.
  dynk::PowerMonitor mon(dynk::PowerFaultPlan::at({2}));
  dynk::ProtectedVar<common::u32> v(7);
  v.attach_power(&mon);
  v.store(8);
  EXPECT_EQ(mon.last_cut_site(), "pvar.commit");
  EXPECT_EQ(v.load(), 8u);  // the write itself completed...
  EXPECT_EQ(v.restore_after_reset(), dynk::RestoreOutcome::kRestoredStale);
  EXPECT_EQ(v.load(), 7u);  // ...but recovery cannot trust it
  EXPECT_EQ(v.restored_stale(), 1u);
}

TEST(ProtectedVarRecoveryTest, LegacyCorruptMeansInterruptedStore) {
  dynk::ProtectedVar<int> v(1);
  v.store(2);
  v.corrupt(-999);  // mid-store power loss trashes main RAM
  EXPECT_TRUE(v.store_in_progress());
  EXPECT_EQ(v.restore_after_reset(), dynk::RestoreOutcome::kRestoredStale);
  EXPECT_EQ(v.load(), 1);
}

// ---------------------------------------------------------------------------
// DurableVar: two-slot committed storage
// ---------------------------------------------------------------------------

TEST(DurableVarTest, EmptyThenCleanRoundTrips) {
  dynk::DurableVar<u64> d;
  auto r0 = d.load();
  EXPECT_EQ(r0.outcome, dynk::DurableLoadOutcome::kEmpty);
  EXPECT_TRUE(d.store(1111));
  EXPECT_TRUE(d.store(2222));
  auto r = d.load();
  EXPECT_EQ(r.outcome, dynk::DurableLoadOutcome::kClean);
  EXPECT_EQ(r.value, 2222u);
  EXPECT_EQ(r.seq, 2u);
}

TEST(DurableVarTest, CutAtEveryProtocolSiteLeavesCommittedValueIntact) {
  // Whichever of the three fault sites the cut lands on, the previously
  // committed value must survive and the tear must be reported exactly once.
  const char* sites[] = {"durable.open", "durable.mid", "durable.commit"};
  for (u64 k = 0; k < 3; ++k) {
    dynk::DurableVar<u64> d;
    ASSERT_TRUE(d.store(0xBEEF));
    dynk::PowerMonitor mon(dynk::PowerFaultPlan::at({k}));
    d.attach_power(&mon);
    EXPECT_FALSE(d.store(0xDEAD)) << sites[k];
    EXPECT_EQ(mon.last_cut_site(), sites[k]);
    EXPECT_TRUE(d.tear_pending());
    auto r = d.load();
    EXPECT_EQ(r.outcome, dynk::DurableLoadOutcome::kTornRecovered) << sites[k];
    EXPECT_EQ(r.value, 0xBEEFu) << sites[k];
    // Reported once: the next load is clean.
    EXPECT_EQ(d.load().outcome, dynk::DurableLoadOutcome::kClean);
  }
}

TEST(DurableVarTest, TornVeryFirstWriteReportsTornWithDefaultValue) {
  dynk::PowerMonitor mon(dynk::PowerFaultPlan::at({1}));
  dynk::DurableVar<u64> d(&mon);
  EXPECT_FALSE(d.store(42));
  auto r = d.load();
  EXPECT_EQ(r.outcome, dynk::DurableLoadOutcome::kTornRecovered);
  EXPECT_EQ(r.value, 0u);  // nothing was ever committed
  EXPECT_EQ(r.seq, 0u);
}

// ---------------------------------------------------------------------------
// ServiceBoard: warm-restart recovery of the whole redirector
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

struct FaultWorld {
  net::SimNet net{777};
  net::TcpStack backend_stack{net, kBackendIp};
  net::TcpStack client_stack{net, kClientIp};
  services::EchoBackend backend{backend_stack, kBackendPort};

  services::ServiceBoardConfig board_config(bool secure) {
    services::ServiceBoardConfig cfg;
    cfg.redirector.listen_port = kTlsPort;
    cfg.redirector.backend_ip = kBackendIp;
    cfg.redirector.backend_port = kBackendPort;
    cfg.redirector.secure = secure;
    cfg.redirector.psk = bytes_of("board-psk");
    cfg.board_ip = kBoardIp;
    cfg.wdt_period_ms = 500;
    cfg.power_off_ms = 40;
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

  /// One full echo session against the board; true when the client got its
  /// bytes back within the budget.
  bool echo_once(services::ServiceBoard& board, bool secure,
                 std::string_view msg, u64 seed, u64 budget_ms = 1'200) {
    services::Client c(client_stack, kBoardIp, kTlsPort, secure,
                       issl::Config::embedded_port(),
                       secure ? bytes_of("board-psk") : std::vector<u8>{},
                       seed);
    if (!c.start().is_ok()) return false;
    if (!c.send(bytes_of(msg)).is_ok()) return false;
    for (u64 i = 0; i < budget_ms; ++i) {
      board.poll();
      backend.poll();
      (void)c.poll();
      net.tick(1);
      if (c.received().size() >= msg.size()) {
        c.close();
        drive(board, &c, 80);
        return true;
      }
    }
    return false;
  }
};

TEST(ServiceBoardTest, WatchdogBiteRebootsRearmsAndKeepsTheBatteryLog) {
  FaultWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  services::ServiceBoard board(w.net, w.board_config(/*secure=*/true));
  ASSERT_TRUE(board.up());

  ASSERT_TRUE(w.echo_once(board, true, "before the bite", 0x1001));
  const u64 served_before = board.redirector()->durable_state().served;
  EXPECT_GE(served_before, 1u);

  // Wedge the main loop past the WDT period: nobody hits the watchdog.
  board.wedge_for_ms(600);
  w.drive(board, nullptr, 700);
  EXPECT_EQ(board.wdt_bites(), 1u);
  EXPECT_EQ(board.resets(), 1u);
  EXPECT_EQ(board.last_fault(), services::FaultKind::kWatchdogBite);
  ASSERT_TRUE(board.up());

  // Post-mortem: the pre-crash battery log was snapshotted at the bite.
  EXPECT_FALSE(board.postmortem().empty());
  bool saw_boot1 = false;
  for (const auto& line : board.postmortem()) {
    if (line.find("boot gen 1") != std::string::npos) saw_boot1 = true;
  }
  EXPECT_TRUE(saw_boot1);

  // The battery-backed log survived the reset and shows both generations
  // plus the bite marker — history across the crash, not just after it.
  std::string joined;
  for (const auto& line : board.battery().log.entries()) joined += line + "\n";
  EXPECT_NE(joined.find("boot gen 1"), std::string::npos);
  EXPECT_NE(joined.find("wdt-bite"), std::string::npos);
  EXPECT_NE(joined.find("boot gen 2"), std::string::npos);

  // Costatements re-armed: the reborn scheduler serves a fresh client, and
  // the durable bookkeeping continued from the pre-crash value.
  ASSERT_TRUE(w.echo_once(board, true, "after the bite", 0x1002));
  EXPECT_EQ(board.redirector()->durable_state().generation, 2u);
  EXPECT_GT(board.redirector()->durable_state().served, served_before);
}

TEST(ServiceBoardTest, SessionLiveAtTheBiteFailsClosedNotHalfOpen) {
  FaultWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  services::ServiceBoard board(w.net, w.board_config(/*secure=*/true));

  // Establish a secure session and leave it open across the bite.
  services::Client c(w.client_stack, kBoardIp, kTlsPort, true,
                     issl::Config::embedded_port(), bytes_of("board-psk"),
                     0x2001);
  ASSERT_TRUE(c.start().is_ok());
  ASSERT_TRUE(c.send(bytes_of("hold the line")).is_ok());
  w.drive(board, &c, 400);
  ASSERT_TRUE(c.handshake_done());

  board.wedge_for_ms(600);
  w.drive(board, &c, 700);  // bite + reboot while the session sits open
  ASSERT_EQ(board.wdt_bites(), 1u);

  // The moment the peer *uses* the dead session it must learn its fate
  // within the TCP give-up horizon (8 retx, RTO 200..3200 ms): either a RST
  // from the reborn stack or a local retransmission give-up — anything but
  // a forever-half-open session.
  ASSERT_TRUE(c.send(bytes_of("are you still there?")).is_ok());
  bool alive = true;
  for (u64 i = 0; i < 25'000 && alive; ++i) {
    board.poll();
    w.backend.poll();
    alive = c.poll() && !c.failed();
    w.net.tick(1);
  }
  EXPECT_FALSE(alive);
  EXPECT_GE(board.sessions_dropped(), 1u);
}

TEST(ServiceBoardTest, PowerCutMidDurableStoreIsDetectedOnReboot) {
  FaultWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  auto cfg = w.board_config(/*secure=*/false);
  // Fault point #1 of the first power cycle = [durable.mid] of the boot
  // commit: the generation bump is cut mid-write.
  cfg.power_plan = dynk::PowerFaultPlan::at({1});
  services::ServiceBoard board(w.net, cfg);
  EXPECT_FALSE(board.power().powered());

  w.drive(board, nullptr, 60);  // outage + reboot
  ASSERT_TRUE(board.up());
  EXPECT_EQ(board.power_cuts_seen(), 1u);
  EXPECT_EQ(board.last_fault(), services::FaultKind::kPowerCut);
  // The reborn service *knows* the update tore — never silently half-applied.
  EXPECT_EQ(board.redirector()->recovery_outcome(),
            dynk::DurableLoadOutcome::kTornRecovered);
  EXPECT_EQ(board.redirector()->durable_state().generation, 1u);

  // And it still serves.
  EXPECT_TRUE(w.echo_once(board, false, "after the cut", 0x3001));
}

TEST(ServiceBoardTest, XallocExhaustionTriggersControlledRestart) {
  FaultWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  auto cfg = w.board_config(/*secure=*/false);
  cfg.xalloc_capacity = 3 * 64;  // three sessions per boot (§5.2: no free)
  cfg.session_xalloc_bytes = 64;
  services::ServiceBoard board(w.net, cfg);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.echo_once(board, false, "fill the arena", 0x4000 + i));
  }
  EXPECT_EQ(board.xalloc_restarts(), 0u);
  const u64 served_before = board.redirector()->durable_state().served;

  // The fourth session cannot allocate: it is failed closed and the board
  // performs the counted restart that reclaims the arena.
  (void)w.echo_once(board, false, "spill the arena", 0x4003);
  w.drive(board, nullptr, 40);
  EXPECT_EQ(board.xalloc_restarts(), 1u);
  EXPECT_EQ(board.last_fault(), services::FaultKind::kXallocExhausted);
  ASSERT_TRUE(board.up());

  // Fresh arena, re-armed costatements, durable counters intact.
  ASSERT_TRUE(w.echo_once(board, false, "fresh arena", 0x4004));
  EXPECT_GE(board.redirector()->durable_state().served, served_before);
  EXPECT_EQ(board.redirector()->durable_state().generation, 2u);
}

TEST(ServiceBoardTest, SeededRandomCutSoakRecoversEveryTime) {
  FaultWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  auto cfg = w.board_config(/*secure=*/false);
  cfg.power_plan = dynk::PowerFaultPlan::random(0xC0FFEE, 4, 50, 600);
  services::ServiceBoard board(w.net, cfg);

  u64 served_ok = 0;
  for (int i = 0; i < 24; ++i) {
    if (w.echo_once(board, false, "soak", 0x5000 + i, 2'000)) ++served_ok;
    w.drive(board, nullptr, 60);  // let any in-progress recovery finish
  }
  w.drive(board, nullptr, 3'000);  // flush any cut still counting down
  EXPECT_EQ(board.power_cuts_seen(), 4u);
  EXPECT_FALSE(board.power().more_cuts_pending());
  ASSERT_TRUE(board.up());
  // Generation bumped exactly once per boot, no torn update ever silently
  // applied: served only moves forward.
  EXPECT_EQ(board.redirector()->durable_state().generation, board.boots());
  EXPECT_GE(served_ok, 12u);  // most sessions between cuts still complete
  EXPECT_GE(board.redirector()->durable_state().served, served_ok);
}

TEST(ServiceBoardTest, ResetCauseTelemetryNamesEachCause) {
  // Other tests in this binary fire resets of their own, so compare deltas:
  // the per-cause counters may already exist.
  auto& registry = telemetry::Registry::global();
  const auto& watchdog = registry.counter("board.resets.watchdog");
  const auto& xalloc = registry.counter("board.resets.xalloc");
  const u64 watchdog_before = watchdog.value();
  const u64 xalloc_before = xalloc.value();

  FaultWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  services::ServiceBoard board(w.net, w.board_config(/*secure=*/false));
  board.wedge_for_ms(600);
  w.drive(board, nullptr, 700);
  ASSERT_EQ(board.wdt_bites(), 1u);
  // The fault lands a named counter AND a battery-log line, so E16 can
  // assert "zero alloc-caused restarts" by name. Distinct causes get
  // distinct counters: no xalloc restart happened, so its counter is still.
  EXPECT_EQ(watchdog.value(), watchdog_before + 1);
  EXPECT_EQ(xalloc.value(), xalloc_before);
  bool saw_cause_line = false;
  for (const auto& line : board.battery().log.entries()) {
    if (line == "reset-cause watchdog") saw_cause_line = true;
  }
  EXPECT_TRUE(saw_cause_line);
}

}  // namespace
}  // namespace rmc

// ServiceBoard — the device-fault supervisor wrapping the embedded
// redirector (paper §6 robustness work).
//
// The RMC2000 in the wiring closet faces three distinct deaths:
//
//   * a wedged main loop  -> the hardware watchdog bites and hard-resets;
//   * a yanked power cord -> the board browns out mid-anything, battery-
//                            backed SRAM keeps the `protected` data;
//   * xalloc exhaustion   -> no free() exists (§5.2), so the firmware's
//                            only remedy is a deliberate counted restart.
//
// ServiceBoard models the board-level view of all three: it owns the
// battery-backed BatteryFile (ring log + durable bookkeeping) that OUTLIVES
// resets, and the per-boot world (TCP stack, xalloc arena, redirector) that
// DIES with each one. One poll() is one virtual millisecond of firmware
// main loop: run the redirector, hit the watchdog, count the clock, check
// the power. The watchdog is the same rabbit::Watchdog peripheral the CPU
// core maps at I/O 0x08, driven here at 30'000 cycles per virtual ms.
//
// Fail-closed by construction: going down detaches the board's address from
// the medium (in-flight segments fall on the floor) and destroys the stack;
// the reborn stack answers stale segments with RST, so a surviving client
// sees a reset within its retransmission horizon — never a half-open
// connection that hangs forever.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dynk/allocfault.h"
#include "dynk/power.h"
#include "rabbit/watchdog.h"
#include "services/redirector.h"
#include "telemetry/flightrec.h"
#include "telemetry/timeseries.h"

namespace rmc::services {

/// Why the service world last went down.
enum class FaultKind : common::u8 {
  kNone,             // still on its first boot
  kWatchdogBite,     // main loop wedged, WDT hard reset
  kPowerCut,         // external power failure (PowerFaultPlan)
  kXallocExhausted,  // §5.2 arena spent; controlled restart to reclaim
};

const char* fault_kind_name(FaultKind kind);

/// The battery-backed corner of SRAM: survives every reset because the
/// supervisor (not the per-boot service world) owns it. Holds exactly what
/// the paper's port would battery-back — the log ring and the `protected`
/// bookkeeping.
struct BatteryFile {
  explicit BatteryFile(std::size_t log_capacity_bytes)
      : log(log_capacity_bytes) {}

  common::RingLog log;
  dynk::DurableVar<RedirectorDurableState> durable;
  /// Resumption-cache snapshot (DESIGN.md §10): carried so a warm restart
  /// does not force every reconnecting client back through the full RSA
  /// handshake. Idle (no loads, no stores, no power-trip sites) unless the
  /// redirector config enables the cache.
  dynk::DurableVar<issl::SessionCacheData> session_cache;
  /// Trace black box (DESIGN.md §11): the last ~96 trace events, battery-
  /// backed by ownership like the log ring. Plain storage, not a DurableVar
  /// — see flightrec.h for why. Idle unless the tracer is enabled.
  telemetry::FlightRecorder flightrec;
};

struct ServiceBoardConfig {
  RedirectorConfig redirector;      // battery/arena hooks filled in per boot
  net::IpAddr board_ip = 0;
  common::u64 net_seed = 1;
  /// Watchdog period in virtual ms (the real default is the 2 s hit code).
  common::u64 wdt_period_ms = 2'000;
  /// How long a power cut keeps the board dark before the cord goes back in.
  common::u64 power_off_ms = 50;
  /// Per-boot xalloc arena; 0 disables the arena model entirely.
  std::size_t xalloc_capacity = 0;
  std::size_t session_xalloc_bytes = 0;
  dynk::PowerFaultPlan power_plan;  // none() = power never fails

  // --- Production memory (DESIGN.md §14; paper-mode xalloc by default) -----
  /// kSlab rebuilds a SlabAllocator per boot over the same xalloc_capacity
  /// budget and routes the redirector's per-connection state through it
  /// (real free at slot close, shed-on-exhaustion). kXalloc keeps every
  /// legacy path — arena, restart-to-reclaim — byte-identical.
  dynk::AllocatorKind allocator = dynk::AllocatorKind::kXalloc;
  /// Seeded allocation-failure injection; none() = allocations never fail.
  /// The monitor persists across boots (like the power plan) so a sequence
  /// spanning restarts keeps its countdown.
  dynk::AllocFaultPlan alloc_fault_plan;
};

class ServiceBoard {
 public:
  static constexpr common::u64 kCyclesPerMs = 30'000;  // 30 MHz board
  /// Reboot latency for warm (watchdog / controlled) restarts.
  static constexpr common::u64 kRebootMs = 2;
  /// Capacity of the battery-backed log ring.
  static constexpr std::size_t kBatteryLogBytes = 1'024;

  ServiceBoard(net::SimNet& net, ServiceBoardConfig config);
  ~ServiceBoard();

  /// One virtual millisecond of board life. The harness advances the medium
  /// (net.tick) separately; this advances the firmware.
  void poll();

  /// Stop servicing the main loop (and therefore stop hitting the watchdog)
  /// for `ms` virtual milliseconds — the "wedged costatement" fault.
  void wedge_for_ms(common::u64 ms) { wedged_for_ms_ = ms; }

  /// Attach a timeseries sampler: poll() ticks it with the medium's virtual
  /// clock, including while the board is down — an outage must appear in the
  /// curves as flat-lined throughput, not a gap in the samples. The sampler
  /// only reads the registry, so attaching one is behavior-neutral (E17
  /// gate (c)). Null detaches; the board never owns the sampler.
  void attach_sampler(telemetry::Sampler* sampler) { sampler_ = sampler; }

  bool up() const { return up_; }
  /// Null while the board is down.
  RmcRedirector* redirector() { return redirector_.get(); }
  BatteryFile& battery() { return battery_; }
  dynk::PowerMonitor& power() { return power_; }
  rabbit::Watchdog& watchdog() { return wdt_; }
  /// Null unless config.allocator == kSlab (and the board is up).
  dynk::SlabAllocator* slab() { return slab_.get(); }
  dynk::AllocFaultMonitor& alloc_faults() { return alloc_faults_; }

  common::u64 boots() const { return boots_; }
  /// Fault-triggered reboots (boots minus the initial power-on).
  common::u64 resets() const { return boots_ > 0 ? boots_ - 1 : 0; }
  common::u64 wdt_bites() const { return wdt_bites_; }
  common::u64 power_cuts_seen() const { return power_cuts_; }
  common::u64 xalloc_restarts() const { return xalloc_restarts_; }
  FaultKind last_fault() const { return last_fault_; }

  /// Sessions that were live at the moment of each fault (they died with
  /// the board; the audit checks their peers saw a reset, not a hang).
  common::u64 sessions_dropped() const { return sessions_dropped_; }

  /// Virtual ms from the last fault to the reborn listener accepting again,
  /// and the same figure in 30 MHz cycles.
  common::u64 last_recovery_ms() const { return last_recovery_ms_; }
  common::u64 total_recovery_ms() const { return total_recovery_ms_; }
  common::u64 last_recovery_cycles() const {
    return last_recovery_ms_ * kCyclesPerMs;
  }

  /// Battery-log snapshot taken when the watchdog bit (the post-mortem the
  /// paper's port could only dream of getting off a fielded board).
  const std::vector<std::string>& postmortem() const { return postmortem_; }

 private:
  void boot();
  void go_down(FaultKind fault);

  net::SimNet& net_;
  ServiceBoardConfig config_;
  BatteryFile battery_;
  dynk::PowerMonitor power_;
  dynk::AllocFaultMonitor alloc_faults_;  // persists across boots, like power_
  rabbit::Watchdog wdt_;
  // The per-boot world: dies on every fault, rebuilt by boot().
  std::unique_ptr<net::TcpStack> stack_;
  std::unique_ptr<dynk::XallocArena> arena_;
  std::unique_ptr<dynk::SlabAllocator> slab_;
  std::unique_ptr<RmcRedirector> redirector_;

  telemetry::Sampler* sampler_ = nullptr;
  bool up_ = false;
  common::u64 wedged_for_ms_ = 0;
  common::u64 down_for_ms_ = 0;  // remaining outage when down
  FaultKind pending_fault_ = FaultKind::kNone;
  FaultKind last_fault_ = FaultKind::kNone;
  common::u64 fault_at_ms_ = 0;

  common::u64 boots_ = 0;
  common::u64 wdt_bites_ = 0;
  common::u64 power_cuts_ = 0;
  common::u64 xalloc_restarts_ = 0;
  common::u64 sessions_dropped_ = 0;
  common::u64 last_recovery_ms_ = 0;
  common::u64 total_recovery_ms_ = 0;
  std::vector<std::string> postmortem_;
};

}  // namespace rmc::services

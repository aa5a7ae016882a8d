#include "services/supervisor.h"

#include "rabbit/board.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace rmc::services {

namespace {
// All fault instruments are created lazily, on the first actual fault: a
// fault-free run (every E1-E9 bench) must emit metrics JSON bit-identical
// to a build without this subsystem. The function-local statics keep the
// registration lazy while pinning the handles, so repeated faults cost no
// further by-name registry lookups (the regression test on
// Registry::name_lookups() counts on this).
void count_reset(FaultKind fault, common::u64 recovery_ms) {
  static telemetry::Counter& resets =
      telemetry::Registry::global().counter("board.resets");
  static telemetry::Counter& cycles =
      telemetry::Registry::global().counter("recovery.cycles");
  static telemetry::Gauge& cause =
      telemetry::Registry::global().gauge("redirector.last_reset_cause");
  resets.add();
  cycles.add(recovery_ms * ServiceBoard::kCyclesPerMs);
  cause.set(static_cast<telemetry::i64>(fault));
  // Per-cause counters (board.resets.watchdog / .power-cut / .xalloc) are
  // created only for causes that actually fire. Handles cached per cause —
  // one name lookup each, ever.
  static telemetry::Counter* by_cause[4] = {};
  const auto i = static_cast<std::size_t>(fault);
  if (i < 4) {
    if (by_cause[i] == nullptr) {
      by_cause[i] = &telemetry::Registry::global().counter(
          std::string("board.resets.") + fault_kind_name(fault));
    }
    by_cause[i]->add();
  }
}
void count_wdt_fire() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("wdt.fires");
  c.add();
}
}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kWatchdogBite: return "watchdog";
    case FaultKind::kPowerCut: return "power-cut";
    case FaultKind::kXallocExhausted: return "xalloc";
  }
  return "?";
}

ServiceBoard::ServiceBoard(net::SimNet& net, ServiceBoardConfig config)
    : net_(net),
      config_(std::move(config)),
      battery_(kBatteryLogBytes),
      wdt_(rabbit::Board::kWatchdogBase, 30'000'000) {
  battery_.durable.attach_power(&power_);
  battery_.session_cache.attach_power(&power_);
  power_.arm(config_.power_plan);
  alloc_faults_.arm(config_.alloc_fault_plan);
  // Black box: every trace event also lands in the battery-SRAM ring, so
  // the tail survives whatever kills the per-boot world. Attached even when
  // tracing is off (emit() never reaches the ring then); one ring at a
  // time, so the most recently constructed board owns the recorder.
  telemetry::Tracer::global().attach_ring(&battery_.flightrec);
  boot();
}

ServiceBoard::~ServiceBoard() {
  if (stack_) net_.detach(config_.board_ip);
  auto& tracer = telemetry::Tracer::global();
  if (tracer.ring() == &battery_.flightrec) tracer.attach_ring(nullptr);
}

void ServiceBoard::boot() {
  ++boots_;
  // A restart is precisely what reclaims xalloc memory (§5.2: nothing else
  // can), hence the fresh arena; the stack seed varies per boot so the
  // reborn stack's ISNs don't replay the dead one's sequence space. In slab
  // mode the same budget backs a SlabAllocator instead — also per boot, so
  // a fault still wipes the heap the way a real reset wipes volatile SRAM —
  // and the persistent fault monitor re-attaches to each incarnation.
  if (config_.allocator == dynk::AllocatorKind::kSlab) {
    dynk::SlabConfig sc;
    sc.capacity = config_.xalloc_capacity;
    slab_ = std::make_unique<dynk::SlabAllocator>(sc);
    slab_->attach_fault_monitor(&alloc_faults_);
  } else if (config_.xalloc_capacity > 0) {
    arena_ = std::make_unique<dynk::XallocArena>(config_.xalloc_capacity);
  }
  stack_ = std::make_unique<net::TcpStack>(net_, config_.board_ip,
                                           config_.net_seed + boots_);
  RedirectorConfig rc = config_.redirector;
  rc.battery_log = &battery_.log;
  rc.durable = &battery_.durable;
  rc.durable_session_cache = &battery_.session_cache;
  rc.arena = arena_.get();
  rc.session_xalloc_bytes = config_.session_xalloc_bytes;
  if (slab_) {
    rc.allocator = dynk::AllocatorKind::kSlab;
    rc.slab = slab_.get();
  }
  redirector_ = std::make_unique<RmcRedirector>(*stack_, net_, rc);
  (void)redirector_->start();  // re-arms every costatement (Figure 3)

  wdt_.power_on_reset();
  wdt_.set_period_cycles(config_.wdt_period_ms * kCyclesPerMs);
  up_ = true;

  telemetry::Tracer::global().emit(
      telemetry::TraceLayer::kBoard, telemetry::BoardTrace::kBoot, 0,
      static_cast<common::u32>(boots_), static_cast<common::u32>(last_fault_));

  if (last_fault_ != FaultKind::kNone) {
    last_recovery_ms_ = net_.now_ms() - fault_at_ms_;
    total_recovery_ms_ += last_recovery_ms_;
    count_reset(last_fault_, last_recovery_ms_);
  }
}

void ServiceBoard::go_down(FaultKind fault) {
  const common::u64 dying = redirector_->stats().connections_active;
  sessions_dropped_ += dying;
  telemetry::Tracer::global().emit(
      telemetry::TraceLayer::kBoard, telemetry::BoardTrace::kFault, 0,
      static_cast<common::u32>(fault), static_cast<common::u32>(dying));
  if (fault == FaultKind::kWatchdogBite) {
    // Post-mortem: the battery-backed ring log is exactly what survives a
    // WDT bite on the real board. Snapshot it, then mark the bite so the
    // next boot's history shows where the gap came from.
    postmortem_ = battery_.log.entries();
    battery_.log.append("wdt-bite gen " +
                        std::to_string(redirector_->durable_state().generation));
    count_wdt_fire();
  }
  // Black box dump: the flight recorder's retained tail is the last trace
  // activity before death — append it to the post-mortem on the two
  // uncontrolled faults. Gated on the ring being non-empty, so untraced
  // runs keep their post-mortem (and E10's JSON) byte-identical.
  if ((fault == FaultKind::kWatchdogBite || fault == FaultKind::kPowerCut) &&
      !battery_.flightrec.empty()) {
    if (fault == FaultKind::kPowerCut) postmortem_ = battery_.log.entries();
    for (auto& line : battery_.flightrec.tail_lines()) {
      postmortem_.push_back(std::move(line));
    }
  }
  // A distinct battery-log line per cause lets an audit (E16) assert by name
  // that no restart was alloc-caused, without parsing the gauge out of JSON.
  battery_.log.append(std::string("reset-cause ") + fault_kind_name(fault));
  last_fault_ = fault;
  fault_at_ms_ = net_.now_ms();
  // Fail closed: off the wire first, then tear down the per-boot world.
  // Anything the medium still carries for us becomes a no-host drop; the
  // reborn stack RSTs whatever the peers retransmit.
  net_.detach(config_.board_ip);
  redirector_.reset();
  stack_.reset();
  arena_.reset();
  slab_.reset();
  up_ = false;
  down_for_ms_ =
      fault == FaultKind::kPowerCut ? config_.power_off_ms : kRebootMs;
  pending_fault_ = fault;
}

void ServiceBoard::poll() {
  // Sample on the medium's clock whether the board is up or dark: a dead
  // board flat-lines the curves, it must not create a hole in them.
  if (sampler_ != nullptr) sampler_->tick(net_.now_ms());
  if (!up_) {
    if (down_for_ms_ > 0) {
      --down_for_ms_;
      return;
    }
    if (pending_fault_ == FaultKind::kPowerCut) power_.restore_power();
    pending_fault_ = FaultKind::kNone;
    boot();
    return;
  }

  // One main-loop pass: service the costatements, then hit the watchdog —
  // unless the loop is wedged, in which case the WDT keeps counting and
  // nobody feeds it. That asymmetry IS the watchdog's whole value.
  if (wedged_for_ms_ > 0) {
    --wedged_for_ms_;
  } else {
    redirector_->poll();
    wdt_.hit();
  }
  wdt_.tick(kCyclesPerMs);
  if (wdt_.fired()) {
    ++wdt_bites_;
    go_down(FaultKind::kWatchdogBite);
    return;
  }

  // Power check: the cut may have tripped at a named fault site inside the
  // redirector poll above (mid-store, mid-handshake) or at this board-level
  // point between main-loop passes.
  (void)power_.step("board.tick");
  if (!power_.powered()) {
    ++power_cuts_;
    go_down(FaultKind::kPowerCut);
    return;
  }

  if (redirector_->restart_requested()) {
    ++xalloc_restarts_;
    go_down(FaultKind::kXallocExhausted);
  }
}

}  // namespace rmc::services

#include "services/redirector.h"

#include <array>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace rmc::services {

using common::ErrorCode;
using common::Status;
using dynk::WaitFor;
using dynk::Yield;

namespace {
// Shared across both redirector structures (Figure 2 and Figure 3) so the
// E4/E5 benches report one set of service-level numbers per run.
telemetry::Counter& served_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("redirector.connections_served");
  return c;
}
telemetry::Counter& hs_fail_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("redirector.handshake_failures");
  return c;
}
telemetry::Counter& forwarded_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("redirector.bytes_forwarded");
  return c;
}
telemetry::Gauge& active_gauge() {
  static telemetry::Gauge& g =
      telemetry::Registry::global().gauge("redirector.connections_active");
  return g;
}
telemetry::Counter& hs_timeout_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("redirector.handshake_timeouts");
  return c;
}
// Lazy so stock-software runs keep their metrics JSON unchanged.
telemetry::Counter& engine_fallback_counter() {
  static telemetry::Counter& c = telemetry::Registry::global().counter(
      "redirector.engine_fallbacks");
  return c;
}
telemetry::Counter& backend_retry_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("redirector.backend_retries");
  return c;
}
telemetry::Counter& shed_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("redirector.connections_shed");
  return c;
}
telemetry::Counter& watchdog_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("redirector.watchdog_aborts");
  return c;
}
// Slab-mode only — lazy so xalloc-mode runs keep their metrics JSON stable.
telemetry::Counter& alloc_shed_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("redirector.alloc_sheds");
  return c;
}

// Hot-path latency histograms: handshake start->established (full and
// abbreviated-resume curves) and per-connection backend forward RTT. Each
// registers on its first sample, so runs that never complete a handshake
// keep them out of their metrics JSON. All in virtual cycles (1 ms = 30'000
// cycles on the 30 MHz board), so the numbers compare directly with the
// paper's cycle accounting. Handshake bounds span 1 ms..10 s; RTT bounds
// 1 ms..1 s.
telemetry::Histogram& hs_full_hist() {
  static constexpr common::u64 kBounds[] = {
      30'000,     90'000,     300'000,    900'000,     3'000'000,
      9'000'000,  30'000'000, 90'000'000, 300'000'000};
  static telemetry::Histogram& h = telemetry::Registry::global().histogram(
      "redirector.handshake_full_cycles", kBounds);
  return h;
}
telemetry::Histogram& hs_resumed_hist() {
  static constexpr common::u64 kBounds[] = {
      30'000,     90'000,     300'000,    900'000,     3'000'000,
      9'000'000,  30'000'000, 90'000'000, 300'000'000};
  static telemetry::Histogram& h = telemetry::Registry::global().histogram(
      "redirector.handshake_resumed_cycles", kBounds);
  return h;
}
telemetry::Histogram& forward_rtt_hist() {
  static constexpr common::u64 kBounds[] = {
      30'000,    60'000,    150'000,   300'000,    600'000,
      1'500'000, 3'000'000, 6'000'000, 15'000'000, 30'000'000};
  static telemetry::Histogram& h = telemetry::Registry::global().histogram(
      "redirector.forward_rtt_cycles", kBounds);
  return h;
}

// Slot-lifecycle trace events (telemetry::ServiceTrace) on the client
// connection's track; no-ops while the tracer is off.
void trace_slot(u8 event, common::u32 conn, common::u32 a,
                common::u32 b = 0) {
  auto& tracer = telemetry::Tracer::global();
  if (!tracer.enabled()) return;
  tracer.emit(telemetry::TraceLayer::kService, event, conn, a, b);
}
}  // namespace

// ---------------------------------------------------------------------------
// RmcRedirector — the Figure 3 structure
// ---------------------------------------------------------------------------

RmcRedirector::RmcRedirector(net::TcpStack& stack, net::SimNet& medium,
                             RedirectorConfig config)
    : stack_(stack),
      config_(std::move(config)),
      dc_(stack, &medium),
      // +1 = the tcp_tick driver; +1 more when the shedder is compiled in.
      scheduler_(config_.handler_slots + 1 + (config_.shed_when_busy ? 1 : 0)),
      own_log_(config_.log_capacity_bytes),
      log_(config_.battery_log ? config_.battery_log : &own_log_),
      session_cache_(config_.session_cache_capacity),
      sockets_(config_.handler_slots),
      slots_(config_.handler_slots) {
  // The port's error policy (§4.1): install a handler and ignore most
  // errors, logging them to the ring buffer instead of resetting.
  errors_.define_error_handler([this](const dynk::RuntimeErrorInfo& info) {
    log_->append(std::string("err ") + dynk::runtime_error_name(info.kind));
  });

  // Warm-restart recovery (_sysIsSoftReset() path): pick the bookkeeping
  // back up from battery-backed RAM. A torn last update is detected by the
  // two-slot protocol and rolled back to the newest committed value — the
  // loss is bounded to one in-flight update and it is *reported*, never
  // silently half-applied.
  if (config_.durable) {
    auto r = config_.durable->load();
    recovery_ = r.outcome;
    durable_state_ = r.value;
    if (r.outcome == dynk::DurableLoadOutcome::kTornRecovered) {
      log_->append("durable torn-recovered seq " + std::to_string(r.seq));
    }
    // The durable backend address wins over the config default: a backend
    // failover recorded before the crash must survive it.
    if (durable_state_.backend_ip != 0) {
      config_.backend_ip = durable_state_.backend_ip;
      config_.backend_port = durable_state_.backend_port;
    } else {
      durable_state_.backend_ip = config_.backend_ip;
      durable_state_.backend_port = config_.backend_port;
    }
    ++durable_state_.generation;  // exactly once per boot
    durable_state_.schema = RedirectorDurableState{}.schema;
    commit_durable();
    log_->append("boot gen " + std::to_string(durable_state_.generation) +
                 " (" + dynk::durable_outcome_name(r.outcome) + ")");
  }

  // Warm-restart carry of the resumption cache: restore the battery-backed
  // snapshot so reconnecting clients still hit. Gated on the cache being
  // enabled — a disabled cache must not add durable traffic (or power-fault
  // trip sites) to configurations that predate it.
  if (resumption_on() && config_.durable_session_cache) {
    auto r = config_.durable_session_cache->load();
    if (r.outcome != dynk::DurableLoadOutcome::kEmpty) {
      session_cache_.restore(r.value);
      log_->append("cache restored " + std::to_string(session_cache_.size()));
    }
  }
}

void RmcRedirector::commit_durable() {
  if (!config_.durable) return;
  (void)config_.durable->store(durable_state_);  // a cut here is recoverable
}

void RmcRedirector::commit_session_cache() {
  if (!resumption_on() || !config_.durable_session_cache) return;
  (void)config_.durable_session_cache->store(session_cache_.data());
}

Status RmcRedirector::start() {
  dc_.sock_init();
  for (std::size_t slot = 0; slot < config_.handler_slots; ++slot) {
    Status s = scheduler_.add(handler(slot), "handler" + std::to_string(slot));
    if (!s.is_ok()) return s;
  }
  if (config_.shed_when_busy) {
    Status s = scheduler_.add(shedder(), "shedder");
    if (!s.is_ok()) return s;
  }
  return scheduler_.add(tick_driver(), "tcp_tick");
}

void RmcRedirector::poll() {
  // The cache keeps virtual time so TTL expiry follows the same clock the
  // handlers' timeouts do.
  session_cache_.set_now(scheduler_.now_ms());
  scheduler_.tick();
}

dynk::Costate RmcRedirector::tick_driver() {
  // Figure 3: "one [process] to drive the TCP stack".
  while (true) {
    dc_.tcp_tick(nullptr);
    co_await Yield{};
  }
}

dynk::Costate RmcRedirector::shedder() {
  // Graceful degradation past the compile-time ceiling: while every handler
  // slot holds a live connection, established clients queued on the
  // listener would otherwise sit unanswered until they time out. Refuse
  // them immediately (RST + log) so the failure is prompt and observable.
  while (true) {
    if (stats_.connections_active >= config_.handler_slots) {
      auto excess = dc_.accept_pending(config_.listen_port);
      if (excess.ok()) {
        trace_slot(telemetry::ServiceTrace::kShed,
                   stack_.trace_conn_id(*excess), 0);
        (void)stack_.abort(*excess);
        ++stats_.connections_shed;
        ++durable_state_.shed;
        commit_durable();
        shed_counter().add();
        log_->append("shed");
      }
    }
    co_await Yield{};
  }
}

bool RmcRedirector::alloc_conn(std::size_t slot) {
  dynk::SlabAllocator& slab = *config_.slab;
  ConnAlloc& c = slots_[slot];
  struct Item {
    dynk::SlabHandle* h;
    std::size_t n;
    const char* site;
  };
  // The per-connection recipe, in a fixed order so fault injection by
  // allocation index is deterministic: slot state, the session's modeled
  // SRAM, the forwarding scratch, the TCP window charge.
  const Item recipe[] = {
      {&c.state, kConnStateBytes, "conn.state"},
      {&c.session, issl::Session::sram_footprint(config_.tls), "conn.session"},
      {&c.buf, kForwardBufBytes, "conn.buf"},
      {&c.window, net::TcpStack::kConnSramBytes, "conn.window"},
  };
  for (const Item& item : recipe) {
    auto h = slab.alloc(item.n, item.site);
    if (!h.ok()) {
      free_conn(slot);  // release the partial recipe, shed just this client
      return false;
    }
    *item.h = *h;
  }
  return true;
}

void RmcRedirector::free_conn(std::size_t slot) {
  dynk::SlabAllocator& slab = *config_.slab;
  ConnAlloc& c = slots_[slot];
  // Reverse allocation order (LIFO) so per-class freelist order — and with
  // it the whole soak — stays deterministic under a fixed seed.
  if (c.window != 0) (void)slab.free(c.window);
  if (c.buf != 0) (void)slab.free(c.buf);
  if (c.session != 0) (void)slab.free(c.session);
  if (c.state != 0) (void)slab.free(c.state);
  c = ConnAlloc{};
}

dynk::Costate RmcRedirector::handler(std::size_t slot) {
  net::tcp_Socket& sock = sockets_[slot];
  // Statically-sized forwarding buffer (§5.2: no malloc on the target).
  std::array<u8, 512> buf{};

  while (true) {
    if (!dc_.tcp_listen(&sock, config_.listen_port).is_ok()) co_return;
    co_await WaitFor{[this, &sock] { return dc_.sock_established(&sock); }};
    ++stats_.connections_active;
    active_gauge().set(static_cast<telemetry::i64>(stats_.connections_active));
    log_->append("open " + std::to_string(slot));
    // Captured once: after an abort the TCB is reset and the id is gone.
    const common::u32 trace_conn = dc_.trace_conn_id(&sock);
    trace_slot(telemetry::ServiceTrace::kSlotOpen, trace_conn,
               static_cast<common::u32>(slot));

    issl::DcStream stream(dc_, &sock);
    std::optional<issl::Session> session;
    bool usable = true;
    bool abort_client = false;  // RST instead of FIN at cleanup

    // Charge this session's xalloc footprint (§5.2: no free, ever). When
    // the arena is spent the only remedy is a controlled restart, so fail
    // this client closed and flag the supervisor rather than limp along
    // until something allocates from nothing.
    if (config_.arena && config_.session_xalloc_bytes > 0) {
      auto mem = config_.arena->xalloc(config_.session_xalloc_bytes);
      if (!mem.ok()) {
        restart_requested_ = true;
        usable = false;
        abort_client = true;
        log_->append("xalloc-spent " + std::to_string(slot));
        errors_.raise(dynk::RuntimeErrorInfo{
            dynk::RuntimeErrorKind::kXmemFault,
            static_cast<common::u16>(slot), "xalloc arena exhausted"});
      }
    }

    // Production-memory mode (DESIGN.md §14): the per-connection recipe is
    // a real allocation with a matching free at slot close. Exhaustion — or
    // an injected fault — sheds exactly this connection; the slot recycles
    // on the next client and the board never restarts. This is the designed
    // antithesis of the xalloc path above.
    const bool slab_mode =
        config_.allocator == dynk::AllocatorKind::kSlab &&
        config_.slab != nullptr;
    if (slab_mode && usable && !alloc_conn(slot)) {
      ++stats_.alloc_sheds;
      alloc_shed_counter().add();
      log_->append("alloc-shed " + std::to_string(slot));
      trace_slot(telemetry::ServiceTrace::kShed, trace_conn,
                 static_cast<common::u32>(slot));
      errors_.raise(dynk::RuntimeErrorInfo{
          dynk::RuntimeErrorKind::kXmemFault,
          static_cast<common::u16>(slot), "slab exhausted; shedding one"});
      usable = false;
      abort_client = true;
    }
    // In slab mode the relay scratch lives in the slab (the port's static
    // buffer becomes a real allocation, freed at slot close); otherwise the
    // per-handler array as before. Slab backing storage is stable across
    // the costatement's suspensions.
    std::span<u8> fwd(buf);
    if (slab_mode && slots_[slot].buf != 0) {
      fwd = config_.slab->view(slots_[slot].buf);
    }

    if (config_.secure && usable) {
      issl::ServerIdentity id;
      id.psk = config_.psk;
      id.rsa = config_.rsa;
      if (resumption_on()) id.session_cache = &session_cache_;
      const u64 hs_start_ms = scheduler_.now_ms();
      session.emplace(
          issl::issl_bind_server(stream, config_.tls, rng_, std::move(id)));
      // A silent or stalled peer must not pin this slot forever: the
      // handshake gets a hard virtual-time budget on top of the session's
      // own pump-count stall limit.
      const u64 hs_deadline =
          config_.handshake_timeout_ms > 0
              ? scheduler_.now_ms() + config_.handshake_timeout_ms
              : 0;
      while (!session->established() && !session->failed() &&
             dc_.tcp_tick(&sock)) {
        if (hs_deadline != 0 && scheduler_.now_ms() >= hs_deadline) break;
        (void)session->pump();
        co_await Yield{};
      }
      if (!session->established()) {
        if (!session->failed() && hs_deadline != 0 &&
            scheduler_.now_ms() >= hs_deadline) {
          ++stats_.handshake_timeouts;
          hs_timeout_counter().add();
          log_->append("hs-timeout " + std::to_string(slot));
          trace_slot(telemetry::ServiceTrace::kHsTimeout, trace_conn,
                     static_cast<common::u32>(slot));
          abort_client = true;
        }
        ++stats_.handshake_failures;
        hs_fail_counter().add();
        log_->append("hs-fail " + std::to_string(slot));
        // The session may have dropped a poisoned cache entry on the way
        // down; keep the battery snapshot in step.
        commit_session_cache();
        usable = false;
      } else {
        // A completed handshake may have inserted (or refreshed) a cache
        // entry; commit before serving so a warm restart mid-session still
        // lets this client resume.
        commit_session_cache();
        if (session->engine_fallback()) {
          ++stats_.engine_fallbacks;
          engine_fallback_counter().add();
          log_->append("engine-fallback " + std::to_string(slot));
        }
        // CPU-cost model: the 30 MHz board just spent this long on the key
        // schedule, PRF, and Finished MACs — much less of it when the
        // abbreviated handshake skipped the key exchange.
        const u64 hs_cycles =
            session->resumed() && config_.crypto_cycles_resumed_handshake > 0
                ? config_.crypto_cycles_resumed_handshake
                : config_.crypto_cycles_handshake;
        if (hs_cycles > 0) {
          co_await scheduler_.delay(static_cast<common::u32>(
              hs_cycles / 30'000));
        }
        // Start -> established-and-ready, crypto cost model included, in
        // virtual cycles. Separate curves: the resumption speedup is the
        // whole point of the abbreviated path.
        const u64 cycles = (scheduler_.now_ms() - hs_start_ms) * 30'000;
        (session->resumed() ? hs_resumed_hist() : hs_full_hist())
            .record(cycles);
      }
    }

    // Backend connect with capped exponential backoff: a restarting backend
    // is a transient, not a reason to bounce the (already-paid-for) secure
    // session. TCP's own give-up (RST + was_reset) bounds each attempt.
    int backend = -1;
    if (usable) {
      u64 backoff = kBackendBackoffBaseMs;
      for (int attempt = 0; attempt <= kBackendRetryLimit; ++attempt) {
        if (attempt > 0) {
          ++stats_.backend_retries;
          backend_retry_counter().add();
          log_->append("backend-retry " + std::to_string(slot));
          co_await scheduler_.delay(static_cast<common::u32>(backoff));
          backoff = std::min(backoff * 2, kBackendBackoffMaxMs);
        }
        auto b = stack_.connect(config_.backend_ip, config_.backend_port);
        if (!b.ok()) continue;
        const int cand = *b;
        co_await WaitFor{[this, cand] {
          return stack_.is_established(cand) || stack_.was_reset(cand);
        }};
        if (stack_.is_established(cand)) {
          backend = cand;
          break;
        }
      }
      if (backend < 0) {
        // Fail closed: an orderly close with no reply would read as an
        // empty answer, not as the failure it is.
        log_->append("backend-dead " + std::to_string(slot));
        usable = false;
        abort_client = true;
      }
    }

    // Forwarding loop: client<->backend through the (optional) session.
    bool done = !usable;
    bool watchdogged = false;
    u64 last_progress_ms = scheduler_.now_ms();
    common::u64 crypto_cycles_owed = 0;  // accumulated cipher+MAC work
    // Backend-path RTT curve: the TCP stack completes passive samples on
    // ACKs (see TcpStack::last_rtt_ms); each new one lands in the
    // histogram. Samples from the connect handshake don't exist (only data
    // segments are stamped), so this starts at zero.
    u64 rtt_seen = backend >= 0 ? stack_.rtt_samples(backend) : 0;
    while (!done) {
      if (session) {
        (void)session->pump();
        if (session->failed()) {
          done = true;
        } else {
          auto data = session->read();
          if (data.ok()) {
            if (data->empty() && session->closed()) {
              done = true;
            } else if (!data->empty()) {
              (void)stack_.send(backend, *data);
              stats_.bytes_client_to_backend += data->size();
              forwarded_counter().add(data->size());
              crypto_cycles_owed +=
                  config_.crypto_cycles_per_byte * data->size();
              last_progress_ms = scheduler_.now_ms();
            }
          }
          auto n = stack_.recv(backend, fwd);
          if (n.ok()) {
            if (*n == 0) {
              (void)session->close();
              done = true;
            } else {
              (void)session->write(std::span<const u8>(fwd.data(), *n));
              stats_.bytes_backend_to_client += *n;
              forwarded_counter().add(*n);
              crypto_cycles_owed += config_.crypto_cycles_per_byte * *n;
              last_progress_ms = scheduler_.now_ms();
            }
          }
          // Pay off accumulated cipher work in whole virtual milliseconds.
          if (crypto_cycles_owed >= 30'000) {
            const common::u32 ms =
                static_cast<common::u32>(crypto_cycles_owed / 30'000);
            crypto_cycles_owed %= 30'000;
            co_await scheduler_.delay(ms);
          }
        }
      } else {
        // Plaintext pass-through (the E5 baseline build).
        auto n = dc_.sock_fastread(&sock, fwd);
        if (n.ok()) {
          if (*n == 0) {
            done = true;
          } else {
            (void)stack_.send(backend, std::span<const u8>(fwd.data(), *n));
            stats_.bytes_client_to_backend += *n;
            forwarded_counter().add(*n);
            last_progress_ms = scheduler_.now_ms();
          }
        }
        auto m = stack_.recv(backend, fwd);
        if (m.ok()) {
          if (*m == 0) {
            done = true;
          } else {
            (void)dc_.sock_fastwrite(&sock,
                                     std::span<const u8>(fwd.data(), *m));
            stats_.bytes_backend_to_client += *m;
            forwarded_counter().add(*m);
            last_progress_ms = scheduler_.now_ms();
          }
        }
        if (!dc_.tcp_tick(&sock)) done = true;
      }
      if (backend >= 0) {
        const u64 s = stack_.rtt_samples(backend);
        if (s != rtt_seen) {
          rtt_seen = s;
          forward_rtt_hist().record(stack_.last_rtt_ms(backend) * 30'000);
        }
      }
      // Per-slot watchdog: no bytes either direction for the whole idle
      // budget means a wedged peer (or lost tail) — kill the slot rather
      // than let it rot. Raised through the §4.1 error-handler path.
      if (!done && config_.idle_timeout_ms > 0 &&
          scheduler_.now_ms() - last_progress_ms >= config_.idle_timeout_ms) {
        watchdogged = true;
        done = true;
      }
      co_await Yield{};
    }

    if (watchdogged) {
      ++stats_.watchdog_aborts;
      watchdog_counter().add();
      log_->append("watchdog " + std::to_string(slot));
      trace_slot(telemetry::ServiceTrace::kWatchdogAbort, trace_conn,
                 static_cast<common::u32>(slot));
      errors_.raise(dynk::RuntimeErrorInfo{
          dynk::RuntimeErrorKind::kWatchdog,
          static_cast<common::u16>(slot), "idle forwarding slot"});
      abort_client = true;
    }
    if (backend >= 0) {
      if (watchdogged) {
        (void)stack_.abort(backend);
      } else {
        (void)stack_.close(backend);
      }
    }
    trace_slot(telemetry::ServiceTrace::kSlotClose, trace_conn,
               static_cast<common::u32>(slot), abort_client ? 1 : 0);
    if (abort_client) {
      dc_.sock_abort(&sock);
    } else {
      dc_.sock_close(&sock);
    }
    if (slab_mode) free_conn(slot);  // real free: the whole point of §14
    --stats_.connections_active;
    active_gauge().set(static_cast<telemetry::i64>(stats_.connections_active));
    ++stats_.connections_served;
    ++durable_state_.served;
    // Sized from the durable record's declared capacity, not a magic 8 that
    // silently under-counted handler_slots > 8 configurations; anything
    // past the array lands in the explicit overflow aggregate.
    if (slot < kDurableSlotCounters) {
      ++durable_state_.slot_cycles[slot];
    } else {
      ++durable_state_.slot_cycles_overflow;
    }
    commit_durable();
    served_counter().add();
    log_->append("done " + std::to_string(slot));
    co_await Yield{};
  }
}

// ---------------------------------------------------------------------------
// UnixRedirector — the original fork-per-connection structure
// ---------------------------------------------------------------------------

UnixRedirector::UnixRedirector(net::TcpStack& stack, RedirectorConfig config)
    : stack_(stack),
      config_(std::move(config)),
      bsd_(stack),
      // "Fork" freely: a workstation-sized process table.
      scheduler_(4096),
      session_cache_(config_.session_cache_capacity) {}

Status UnixRedirector::start() {
  auto fd = bsd_.socket_fd();
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  Status s = bsd_.bind_fd(listen_fd_, config_.listen_port);
  if (!s.is_ok()) return s;
  s = bsd_.listen_fd(listen_fd_, 16);
  if (!s.is_ok()) return s;
  return scheduler_.add(acceptor(), "acceptor");
}

void UnixRedirector::poll() {
  session_cache_.set_now(scheduler_.now_ms());
  scheduler_.tick();
}

dynk::Costate UnixRedirector::acceptor() {
  // The Figure 2(a)/§5.3 loop: accept, fork a child, loop immediately.
  while (true) {
    auto fd = bsd_.accept_fd(listen_fd_);
    if (fd.ok()) {
      log_.push_back("accepted fd " + std::to_string(*fd));
      if (!scheduler_.add(connection_process(*fd), "conn").is_ok()) {
        (void)bsd_.close_fd(*fd);  // out of process slots
      }
    }
    co_await Yield{};
  }
}

dynk::Costate UnixRedirector::connection_process(int fd) {
  ++stats_.connections_active;
  active_gauge().set(static_cast<telemetry::i64>(stats_.connections_active));
  const common::u32 trace_conn = bsd_.trace_conn_id(fd);
  trace_slot(telemetry::ServiceTrace::kSlotOpen, trace_conn,
             static_cast<common::u32>(fd));
  std::array<u8, 4096> buf{};
  issl::BsdStream stream(bsd_, fd);
  std::optional<issl::Session> session;
  bool usable = true;

  if (config_.secure) {
    issl::ServerIdentity id;
    id.psk = config_.psk;
    id.rsa = config_.rsa;
    if (config_.tls.resumption && config_.session_cache_capacity > 0) {
      id.session_cache = &session_cache_;
    }
    session.emplace(
        issl::issl_bind_server(stream, config_.tls, rng_, std::move(id)));
    const u64 hs_deadline =
        config_.handshake_timeout_ms > 0
            ? scheduler_.now_ms() + config_.handshake_timeout_ms
            : 0;
    while (!session->established() && !session->failed() && stream.open()) {
      if (hs_deadline != 0 && scheduler_.now_ms() >= hs_deadline) break;
      (void)session->pump();
      co_await Yield{};
    }
    if (!session->established()) {
      if (!session->failed() && hs_deadline != 0 &&
          scheduler_.now_ms() >= hs_deadline) {
        ++stats_.handshake_timeouts;
        hs_timeout_counter().add();
        log_.push_back("handshake timeout on fd " + std::to_string(fd));
      }
      ++stats_.handshake_failures;
      hs_fail_counter().add();
      log_.push_back("handshake failure on fd " + std::to_string(fd));
      usable = false;
    }
  }

  int backend = -1;
  if (usable) {
    auto b = stack_.connect(config_.backend_ip, config_.backend_port);
    if (b.ok()) {
      backend = *b;
      co_await WaitFor{[this, backend] {
        return stack_.is_established(backend) || stack_.was_reset(backend);
      }};
      usable = !stack_.was_reset(backend);
    } else {
      usable = false;
    }
  }

  bool done = !usable;
  while (!done) {
    if (session) {
      (void)session->pump();
      if (session->failed()) {
        done = true;
      } else {
        auto data = session->read();
        if (data.ok()) {
          if (data->empty() && session->closed()) {
            done = true;
          } else if (!data->empty()) {
            (void)stack_.send(backend, *data);
            stats_.bytes_client_to_backend += data->size();
            forwarded_counter().add(data->size());
          }
        }
        auto n = stack_.recv(backend, buf);
        if (n.ok()) {
          if (*n == 0) {
            (void)session->close();
            done = true;
          } else {
            (void)session->write(std::span<const u8>(buf.data(), *n));
            stats_.bytes_backend_to_client += *n;
            forwarded_counter().add(*n);
          }
        }
      }
    } else {
      auto n = bsd_.recv_fd(fd, buf);
      if (n.ok()) {
        if (*n == 0) {
          done = true;
        } else {
          (void)stack_.send(backend, std::span<const u8>(buf.data(), *n));
          stats_.bytes_client_to_backend += *n;
          forwarded_counter().add(*n);
        }
      }
      auto m = stack_.recv(backend, buf);
      if (m.ok()) {
        if (*m == 0) {
          done = true;
        } else {
          (void)bsd_.send_fd(fd, std::span<const u8>(buf.data(), *m));
          stats_.bytes_backend_to_client += *m;
          forwarded_counter().add(*m);
        }
      }
      if (!bsd_.open_fd(fd)) done = true;
    }
    co_await Yield{};
  }

  trace_slot(telemetry::ServiceTrace::kSlotClose, trace_conn,
             static_cast<common::u32>(fd));
  if (backend >= 0) (void)stack_.close(backend);
  (void)bsd_.close_fd(fd);
  --stats_.connections_active;
  active_gauge().set(static_cast<telemetry::i64>(stats_.connections_active));
  ++stats_.connections_served;
  served_counter().add();
  log_.push_back("closed fd " + std::to_string(fd));
  // exit(0): the child process terminates here.
}

// ---------------------------------------------------------------------------
// EchoBackend
// ---------------------------------------------------------------------------

EchoBackend::EchoBackend(net::TcpStack& stack, net::Port port,
                         std::function<u8(u8)> transform)
    : stack_(stack), port_(port), transform_(std::move(transform)) {}

Status EchoBackend::start() {
  auto l = stack_.listen(port_, 16);
  if (!l.ok()) return l.status();
  listener_ = *l;
  return Status::ok();
}

void EchoBackend::poll() {
  while (true) {
    auto c = stack_.accept(listener_);
    if (!c.ok()) break;
    conns_.push_back(*c);
  }
  u8 buf[1024];
  for (auto it = conns_.begin(); it != conns_.end();) {
    const int conn = *it;
    bool closed = false;
    while (true) {
      auto n = stack_.recv(conn, buf);
      if (!n.ok()) break;
      if (*n == 0) {
        (void)stack_.close(conn);
        closed = true;
        break;
      }
      if (transform_) {
        for (std::size_t i = 0; i < *n; ++i) buf[i] = transform_(buf[i]);
      }
      (void)stack_.send(conn, std::span<const u8>(buf, *n));
      bytes_served_ += *n;
    }
    if (closed || !stack_.is_open(conn)) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void EchoBackend::close_all() {
  for (int conn : conns_) (void)stack_.close(conn);
  conns_.clear();
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(net::TcpStack& stack, net::IpAddr server_ip,
               net::Port server_port, bool secure, const issl::Config& tls,
               std::vector<u8> psk, u64 rng_seed)
    : stack_(stack),
      server_ip_(server_ip),
      server_port_(server_port),
      secure_(secure),
      tls_(tls),
      psk_(std::move(psk)),
      rng_(rng_seed) {}

Status Client::start() {
  auto s = stack_.connect(server_ip_, server_port_);
  if (!s.ok()) return s.status();
  sock_ = *s;
  stream_ = std::make_unique<issl::TcpStream>(stack_, sock_);
  return Status::ok();
}

bool Client::poll() {
  if (sock_ < 0) return false;
  if (idle_give_up_polls_ > 0) {
    const bool hs = handshake_done();
    if (received_.size() != progress_rx_ || hs != progress_hs_) {
      progress_rx_ = received_.size();
      progress_hs_ = hs;
      polls_since_progress_ = 0;
    } else if (++polls_since_progress_ > idle_give_up_polls_) {
      // Read timeout: the server died holding this connection with nothing
      // in flight, so TCP alone would wait forever. Abort (RST) and fail.
      (void)stack_.abort(sock_);
      return false;
    }
  }
  if (!stack_.is_established(sock_)) {
    return stack_.is_open(sock_);  // still handshaking at the TCP level
  }
  if (secure_) {
    if (!session_) {
      session_.emplace(issl::issl_bind_client(
          *stream_, tls_, rng_, psk_,
          offered_.valid != 0 ? &offered_ : nullptr));
    }
    (void)session_->pump();
    if (session_->failed()) return false;
    if (session_->established()) {
      if (session_->ticket().valid != 0) ticket_ = session_->ticket();
      if (!pending_send_.empty()) {
        if (session_->write(pending_send_).ok()) pending_send_.clear();
      }
      auto data = session_->read();
      if (data.ok() && !data->empty()) {
        received_.insert(received_.end(), data->begin(), data->end());
      }
    }
    if (session_->closed()) return false;
  } else {
    if (!pending_send_.empty()) {
      if (stack_.send(sock_, pending_send_).ok()) pending_send_.clear();
    }
    u8 buf[1024];
    while (true) {
      auto n = stack_.recv(sock_, buf);
      if (!n.ok() || *n == 0) break;
      received_.insert(received_.end(), buf, buf + *n);
    }
    if (!stack_.is_open(sock_) && stack_.bytes_available(sock_) == 0) {
      return false;
    }
  }
  return true;
}

Status Client::send(std::span<const u8> payload) {
  pending_send_.insert(pending_send_.end(), payload.begin(), payload.end());
  return Status::ok();
}

bool Client::handshake_done() const {
  if (!secure_) return sock_ >= 0 && stack_.is_established(sock_);
  return session_.has_value() && session_->established();
}

bool Client::failed() const {
  if (session_.has_value() && session_->failed()) return true;
  return sock_ >= 0 && stack_.was_reset(sock_);
}

void Client::close() {
  if (session_ && session_->established()) (void)session_->close();
  if (sock_ >= 0) (void)stack_.close(sock_);
}

Status Client::reconnect() {
  close();
  session_.reset();
  stream_.reset();
  sock_ = -1;
  received_.clear();
  pending_send_.clear();
  send_done_ = false;
  polls_since_progress_ = 0;
  progress_rx_ = 0;
  progress_hs_ = false;
  // The earned ticket rides along so the next handshake can resume; dead
  // TCBs from previous connections are reclaimed once TCP is done with
  // them, keeping a reconnect-heavy client's socket table bounded.
  if (ticket_.valid != 0) offered_ = ticket_;
  (void)stack_.reap_dead();
  return start();
}

}  // namespace rmc::services

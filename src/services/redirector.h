// The network cryptographic service of the case study: a secure redirector
// (SSL terminator). Clients connect over issl; the redirector decrypts and
// forwards the stream to a plaintext backend, and relays responses back
// encrypted — the job of the "coprocessor cards that perform SSL functions"
// the paper cites (§2).
//
// Two builds, as in the paper:
//
//   UnixRedirector  — the original: BSD-socket facade, a "process" per
//                     connection (fork modelled as spawning a costatement in
//                     an effectively unbounded scheduler), RSA key exchange,
//                     growable log.
//
//   RmcRedirector   — the port, structured exactly like Figure 3: a fixed
//                     scheduler with N connection-handler costatements plus
//                     one tcp_tick driver; Dynamic C socket API; PSK key
//                     exchange (RSA dropped with the bignum package); all
//                     buffers statically sized; RingLog instead of a log
//                     file; runtime errors ignored via the error handler.
//
// The hard connection ceiling of the port (max N simultaneous clients, fixed
// at "compile time") is the subject of bench_connections (E4).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/ringlog.h"
#include "dynk/costate.h"
#include "dynk/error.h"
#include "dynk/persist.h"
#include "dynk/slab.h"
#include "dynk/xalloc.h"
#include "issl/issl.h"
#include "net/bsd.h"
#include "net/dcnet.h"
#include "net/simnet.h"
#include "net/tcp.h"

namespace rmc::services {

using common::u64;
using common::u8;

/// The redirector's battery-backed bookkeeping: everything the service must
/// not lose across a watchdog bite or power cut. Stored through a
/// DurableVar, so a torn update is detected and rolled back, never
/// half-applied. Trivially copyable by design — these are raw SRAM bytes.
/// Slot-counter capacity of the durable record. handler_slots is a runtime
/// knob with no upper bound, so the battery-backed array cannot silently
/// track it; 32 covers every configuration in the tree, and completions on
/// slots beyond it land in an explicit aggregate instead of vanishing.
inline constexpr std::size_t kDurableSlotCounters = 32;

struct RedirectorDurableState {
  /// Layout version of this struct. Bumped to 2 when slot_cycles grew from
  /// 8 to kDurableSlotCounters entries; the two-slot commit protocol treats
  /// an old-layout battery image as torn/stale and recovers cleanly.
  common::u32 schema = 2;
  common::u64 served = 0;      // completed sessions, across all boots
  common::u64 shed = 0;        // refused-at-ceiling, across all boots
  common::u64 generation = 0;  // boot count: +1 exactly once per boot
  net::IpAddr backend_ip = 0;  // last known-good backend address
  net::Port backend_port = 0;
  /// Per-handler-slot reuse counters (paper Figure 3 has three slots).
  /// Previously sized 8 and guarded with a bare `slot < 8`, which silently
  /// dropped accounting for handler_slots > 8 configurations.
  common::u32 slot_cycles[kDurableSlotCounters] = {};
  /// Completions on slots >= kDurableSlotCounters (never silently lost).
  common::u64 slot_cycles_overflow = 0;
};

struct RedirectorConfig {
  net::Port listen_port = 4433;
  net::IpAddr backend_ip = 0;
  net::Port backend_port = 8000;
  /// false = plaintext pass-through (the E5 baseline).
  bool secure = true;
  issl::Config tls = issl::Config::embedded_port();
  std::vector<u8> psk;                         // for PSK configs
  std::optional<crypto::RsaKeyPair> rsa;       // for RSA configs
  std::size_t handler_slots = 3;               // Figure 3: three handlers
  std::size_t log_capacity_bytes = 512;        // embedded SRAM budget

  /// CPU-cost model for the secure path (0 = crypto is free, the idealized
  /// default). When set, handlers stall their costatement for the virtual
  /// time the 30 MHz board would spend ciphering: `crypto_cycles_per_byte`
  /// per bulk byte (AES + MAC) and `crypto_cycles_handshake` once per
  /// session (key schedule + PRF + Finished MACs). bench_ssl_throughput
  /// feeds these from the E1 measurements, which is what surfaces the
  /// Goldberg-style secure-vs-plain gap on this substrate.
  common::u64 crypto_cycles_per_byte = 0;
  common::u64 crypto_cycles_handshake = 0;

  // --- Robustness (virtual-time budgets; 0 disables the guard) ------------
  /// A handler whose issl handshake has not completed after this long
  /// aborts the client (RST) and recycles its slot instead of pumping a
  /// silent peer forever.
  common::u64 handshake_timeout_ms = 5'000;
  /// Per-slot watchdog: a forwarding loop that moves no bytes in either
  /// direction for this long raises kWatchdog through the error dispatcher
  /// and aborts both sides.
  common::u64 idle_timeout_ms = 30'000;
  /// When every handler slot is busy, refuse (RST + log) excess established
  /// clients instead of letting them queue unanswered. Off by default: the
  /// paper's port simply let them wait, and E4 measures exactly that — the
  /// soak bench turns this on as the observable degradation mode.
  bool shed_when_busy = false;

  // --- Device-fault tolerance hooks (all optional; null/0 = legacy) -------
  /// Supervisor-owned battery-backed ring log: survives warm resets, so the
  /// post-mortem dump after a watchdog bite shows the pre-crash history.
  /// When null the redirector owns a fresh (volatile) log, as before.
  common::RingLog* battery_log = nullptr;
  /// Supervisor-owned durable bookkeeping (A/B-slot committed). When set,
  /// the constructor runs the warm-restart recovery path: restore counters
  /// and backend address, bump the generation, report torn updates.
  dynk::DurableVar<RedirectorDurableState>* durable = nullptr;
  /// xalloc arena modelling §5.2's no-free extended memory: each accepted
  /// session charges `session_xalloc_bytes`; exhaustion cannot be freed
  /// back, so the service requests a controlled restart to reclaim it.
  dynk::XallocArena* arena = nullptr;
  std::size_t session_xalloc_bytes = 0;

  // --- Production memory (DESIGN.md §14; paper-mode xalloc by default) -----
  /// kSlab routes per-connection state through `slab` instead of the no-free
  /// arena: alloc at accept, real free at slot close, exhaustion sheds the
  /// one connection (RST + counter) instead of requesting a board restart.
  /// kXalloc (the default) leaves every legacy path byte-identical.
  dynk::AllocatorKind allocator = dynk::AllocatorKind::kXalloc;
  /// Required when allocator == kSlab (typically supervisor-owned, rebuilt
  /// per boot like the arena).
  dynk::SlabAllocator* slab = nullptr;

  // --- Session resumption (DESIGN.md §10; all off by default) -------------
  /// Server-side resumption cache slots (0 = no cache, every offer misses).
  /// Only meaningful when tls.resumption is also on. Clamped to
  /// issl::kSessionCacheMaxEntries — the xalloc-style static ceiling.
  std::size_t session_cache_capacity = 0;
  /// Supervisor-owned durable snapshot of the cache: restored at boot,
  /// committed after every handshake that changes it, so a warm restart
  /// does not force every client back through the full RSA exchange. Only
  /// read/written when the cache is actually enabled — a disabled cache
  /// adds zero power-fault trip sites, keeping E10 sequences unchanged.
  dynk::DurableVar<issl::SessionCacheData>* durable_session_cache = nullptr;
  /// CPU charge for an abbreviated (resumed) handshake when the cost model
  /// is on; defaults to crypto_cycles_handshake when 0 and resumption off.
  common::u64 crypto_cycles_resumed_handshake = 0;
};

struct RedirectorStats {
  u64 connections_served = 0;   // completed (closed) sessions
  u64 connections_active = 0;
  u64 handshake_failures = 0;
  u64 bytes_client_to_backend = 0;
  u64 bytes_backend_to_client = 0;
  // Degradation paths (all also surfaced as telemetry counters).
  u64 handshake_timeouts = 0;   // subset of handshake_failures
  u64 backend_retries = 0;      // reconnect attempts beyond the first
  u64 connections_shed = 0;     // refused with RST while all slots busy
  u64 watchdog_aborts = 0;      // idle forwarding loops killed
  /// Sessions configured with a crypto engine (tls.engine) that ran in
  /// software because the engine did not answer its probe (stock board, or
  /// card pulled).
  u64 engine_fallbacks = 0;
  /// Slab-mode only: connections shed because the slab could not satisfy
  /// the per-connection recipe (graceful degradation — the antithesis of
  /// the xalloc path's restart_requested).
  u64 alloc_sheds = 0;
};

/// The embedded port (Figure 3 structure).
class RmcRedirector {
 public:
  /// `stack` is the board's TCP stack; `medium` is ticked by the tcp_tick
  /// driver costatement, making that costatement structurally load-bearing.
  RmcRedirector(net::TcpStack& stack, net::SimNet& medium,
                RedirectorConfig config);

  /// Install the costatements (handlers + driver). Fails if the scheduler
  /// cannot hold them — the compile-time limit of §5.3.
  common::Status start();

  /// One trip around the main loop (one scheduler tick).
  void poll();

  const RedirectorStats& stats() const { return stats_; }
  common::RingLog& log() { return *log_; }
  dynk::ErrorDispatcher& errors() { return errors_; }
  std::size_t handler_slots() const { return config_.handler_slots; }

  /// Durable bookkeeping as of the last commit (zeroed when no DurableVar
  /// is wired in).
  const RedirectorDurableState& durable_state() const { return durable_state_; }
  /// What the constructor's recovery read found (kEmpty on a cold boot).
  dynk::DurableLoadOutcome recovery_outcome() const { return recovery_; }
  /// True once the xalloc arena is spent: memory cannot be freed (§5.2), so
  /// the only way to reclaim it is the controlled restart the supervisor
  /// performs when it sees this.
  bool restart_requested() const { return restart_requested_; }

  /// Backend reconnect attempts beyond the first, with capped exponential
  /// backoff between them. When every attempt is refused the handler logs
  /// `backend-dead` and fails the client closed (RST).
  static constexpr int kBackendRetryLimit = 3;
  static constexpr u64 kBackendBackoffBaseMs = 50;
  static constexpr u64 kBackendBackoffMaxMs = 1'600;

  // --- Slab-mode per-connection recipe (DESIGN.md §14) ---------------------
  /// Handler bookkeeping: slot state struct the port kept static per slot.
  static constexpr std::size_t kConnStateBytes = 96;
  /// Forwarding scratch: in slab mode the handler's relay buffer lives in
  /// the slab (via SlabAllocator::view) instead of on the C stack.
  static constexpr std::size_t kForwardBufBytes = 512;

  /// Server-side resumption cache (capacity 0 unless configured). Hit/miss/
  /// eviction counters live here and in the issl.cache_* telemetry.
  issl::SessionCache& session_cache() { return session_cache_; }
  const issl::SessionCache& session_cache() const { return session_cache_; }

 private:
  dynk::Costate handler(std::size_t slot);
  dynk::Costate tick_driver();
  dynk::Costate shedder();
  /// Slab-mode: allocate the per-connection recipe (state, session, buf,
  /// window) into slots_[slot]. On any failure frees the partial recipe and
  /// returns false — the caller sheds that one connection.
  bool alloc_conn(std::size_t slot);
  /// Free whatever part of the recipe slot holds (reverse alloc order).
  void free_conn(std::size_t slot);
  /// Push durable_state_ through the two-slot commit (no-op when detached).
  void commit_durable();
  /// Commit the resumption cache to its DurableVar (no-op when the cache is
  /// disabled or no durable snapshot is wired in).
  void commit_session_cache();
  bool resumption_on() const {
    return config_.tls.resumption && config_.session_cache_capacity > 0;
  }

  net::TcpStack& stack_;
  RedirectorConfig config_;
  net::DcTcpApi dc_;
  dynk::Scheduler scheduler_;
  common::RingLog own_log_;
  common::RingLog* log_;  // battery_log when provided, else &own_log_
  dynk::ErrorDispatcher errors_;
  common::Xorshift64 rng_{0x52AB0B17};
  RedirectorStats stats_;
  RedirectorDurableState durable_state_;
  dynk::DurableLoadOutcome recovery_ = dynk::DurableLoadOutcome::kEmpty;
  bool restart_requested_ = false;
  issl::SessionCache session_cache_;
  // Static allocation, as the port was forced into (§5.2): one socket and
  // one session slot per handler, sized at construction, never freed.
  std::vector<net::tcp_Socket> sockets_;
  /// Slab-mode per-slot recipe handles (0 = not allocated). Sized to
  /// handler_slots at construction; unused (empty) in xalloc mode.
  struct ConnAlloc {
    dynk::SlabHandle state = 0;    // kConnStateBytes
    dynk::SlabHandle session = 0;  // issl::Session::sram_footprint(tls)
    dynk::SlabHandle buf = 0;      // kForwardBufBytes (used via view())
    dynk::SlabHandle window = 0;   // net::TcpStack::kConnSramBytes
  };
  std::vector<ConnAlloc> slots_;
};

/// The original Unix-style service.
class UnixRedirector {
 public:
  UnixRedirector(net::TcpStack& stack, RedirectorConfig config);

  common::Status start();
  void poll();

  const RedirectorStats& stats() const { return stats_; }
  const std::vector<std::string>& log() const { return log_; }
  issl::SessionCache& session_cache() { return session_cache_; }

 private:
  dynk::Costate acceptor();
  dynk::Costate connection_process(int fd);  // the "forked child"

  net::TcpStack& stack_;
  RedirectorConfig config_;
  net::BsdSocketApi bsd_;
  dynk::Scheduler scheduler_;
  common::Xorshift64 rng_{0x0EC0FFEE};
  RedirectorStats stats_;
  std::vector<std::string> log_;  // unbounded, as on a real filesystem
  int listen_fd_ = -1;
  issl::SessionCache session_cache_;
};

/// Plaintext TCP backend the redirector forwards to. Applies `transform`
/// to each byte (default: identity echo).
class EchoBackend {
 public:
  EchoBackend(net::TcpStack& stack, net::Port port,
              std::function<u8(u8)> transform = {});
  common::Status start();
  void poll();
  /// Close every tracked connection (scenario teardown: lets conns whose
  /// peer died get a clean TCP terminal instead of lingering half-open).
  void close_all();
  u64 bytes_served() const { return bytes_served_; }

 private:
  net::TcpStack& stack_;
  net::Port port_;
  std::function<u8(u8)> transform_;
  int listener_ = -1;
  std::vector<int> conns_;
  u64 bytes_served_ = 0;
};

/// Test/bench client: opens a TCP connection to the redirector, optionally
/// runs the issl client handshake, sends `payload`, collects the response.
class Client {
 public:
  Client(net::TcpStack& stack, net::IpAddr server_ip, net::Port server_port,
         bool secure, const issl::Config& tls, std::vector<u8> psk,
         u64 rng_seed = 0xC11E47);

  common::Status start();
  /// Drive one step. Returns true while still working.
  bool poll();

  common::Status send(std::span<const u8> payload);
  std::vector<u8>& received() { return received_; }
  bool handshake_done() const;
  bool failed() const;
  void close();

  /// Client-side read timeout: after `polls` poll() calls with no progress
  /// (no new bytes, no handshake transition), abort the connection and
  /// report failure. 0 (default) waits forever — the legacy behaviour. A
  /// real client needs this against a server that died holding an idle
  /// connection: with nothing in flight, TCP alone never notices.
  void set_idle_give_up(u64 polls) { idle_give_up_polls_ = polls; }

  // --- Session resumption -------------------------------------------------
  /// The ticket earned by the last completed handshake (valid=0 until one
  /// completes with resumption negotiated). Survives reconnect().
  const issl::ResumptionTicket& ticket() const { return ticket_; }
  /// Offer a ticket (e.g. from a previous Client) on the next handshake.
  void offer_ticket(const issl::ResumptionTicket& t) { offered_ = t; }
  /// True once the current session completed via the abbreviated path.
  bool resumed() const { return session_ && session_->resumed(); }
  /// Modeled handshake crypto cost of the current session (see
  /// issl::Session::handshake_cost_cycles).
  u64 handshake_cost_cycles() const {
    return session_ ? session_->handshake_cost_cycles() : 0;
  }
  /// Tear down the current connection and dial again, keeping the earned
  /// ticket so the new handshake can be abbreviated. The dead TCB is
  /// reaped once TCP lets go of it (see TcpStack::reap_dead) so
  /// reconnect-heavy clients do not grow the socket table without bound.
  common::Status reconnect();

 private:
  net::TcpStack& stack_;
  net::IpAddr server_ip_;
  net::Port server_port_;
  bool secure_;
  issl::Config tls_;
  std::vector<u8> psk_;
  common::Xorshift64 rng_;
  int sock_ = -1;
  std::unique_ptr<issl::TcpStream> stream_;
  std::optional<issl::Session> session_;
  std::vector<u8> received_;
  std::vector<u8> pending_send_;
  bool send_done_ = false;
  u64 idle_give_up_polls_ = 0;
  u64 polls_since_progress_ = 0;
  std::size_t progress_rx_ = 0;
  bool progress_hs_ = false;
  issl::ResumptionTicket offered_;  // offered on the next handshake
  issl::ResumptionTicket ticket_;   // earned by the last handshake
};

}  // namespace rmc::services

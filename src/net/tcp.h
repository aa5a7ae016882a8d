// TCP-lite: the transport the RMC2000 kit's software stack provides
// ("comes with software implementing TCP/IP, UDP and ICMP", paper §4) and
// the one the Unix side of the case study speaks.
//
// Implemented: 3-way handshake, cumulative ACKs, in-order delivery with
// dup-ACK on out-of-order segments, go-back-N retransmission with an
// exponentially backed-off RTO (base kRtoMs, doubling per consecutive loss
// up to kRtoMaxMs, with a small seeded jitter to de-synchronize competing
// flows), graceful FIN teardown in both directions, RST on unexpected
// segments, listener backlogs. A connection that exhausts kMaxRetx
// retransmissions gives up: it sends RST, latches was_reset(), and frees
// its resources instead of retrying forever. Timers and demultiplexing cost
// O(live connections), not O(every socket ever opened): a tick visits only
// TCBs that can still act, and a segment finds its connection through a
// 4-tuple index and its listener through a port index. Active opens never
// share a 4-tuple with a live connection (see connect()).
//
// Each connection holds its bytes in two common::ByteQueues: a send buffer
// whose front bytes are in flight (transmitted, unacked, aligned to
// snd_una) and whose tail is not yet sent, and a receive buffer. Either
// frees its storage when drained, and the send buffer is released when
// the connection closes, so a drained or dead TCB owns no buffer storage:
// only its fixed-size state stays resident until reaped. Not implemented
// (out of scope, documented in DESIGN.md): TIME_WAIT expiry, sliding receive
// windows, congestion control, SACK, urgent data.
//
// All calls are non-blocking: "blocking" behaviour is built by the service
// layer out of costatement waitfor loops, exactly as the port had to (§5.3).
#pragma once

#include <deque>
#include <map>
#include <span>
#include <vector>

#include "common/byte_queue.h"
#include "common/ringlog.h"
#include "common/status.h"
#include "net/simnet.h"

namespace rmc::net {

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kTimeWait,
};

const char* tcp_state_name(TcpState s);

class TcpStack : public NetworkEndpoint {
 public:
  static constexpr std::size_t kMss = 536;          // classic default MSS
  static constexpr std::size_t kWindow = 4 * kMss;  // fixed send window
  /// Modeled per-connection SRAM footprint of a socket: the send window
  /// (inflight + queue share) the stack may buffer for one established
  /// connection. The services layer charges this against its allocator per
  /// accepted connection (DESIGN.md §14) so the memory soak accounts for
  /// TCP buffers, not just application state.
  static constexpr std::size_t kConnSramBytes = kWindow;
  static constexpr u64 kRtoMs = 200;                // base RTO
  static constexpr u64 kRtoMaxMs = 3'200;           // backoff ceiling
  static constexpr int kMaxRetx = 8;                // then RST + was_reset
  /// FIN_WAIT_2 inactivity timeout. A peer that acked our FIN but never
  /// sends its own — typically because its host lost power mid-close —
  /// would otherwise leave the TCB half-open forever: FIN_WAIT_2 has nothing
  /// in flight, so the retransmission machinery never times out. After this
  /// much silence the connection is dropped quietly (no RST, no reset
  /// counters), like Linux's tcp_fin_timeout.
  static constexpr u64 kFinWait2TimeoutMs = 10'000;
  /// Embryonic-connection timeout. A SYN flood from spoofed sources parks
  /// one never-answering embryo per backlog slot; without a cap each holds
  /// its slot until SYN-ACK retransmission gives up (~19 s of backoff).
  /// After this long without the handshake ACK the embryo is dropped
  /// quietly (no RST — a spoofed source has nobody listening) and its
  /// backlog slot is reclaimed, like a short tcp_synack_retries horizon.
  static constexpr u64 kSynRcvdTimeoutMs = 2'000;
  /// Local ports for active opens (see connect()).
  static constexpr Port kEphemeralBase = 0xC000;
  static constexpr int kEphemeralPorts = 0x3FFF;

  TcpStack(SimNet& net, IpAddr addr, u64 seed = 7);

  /// Passive open. Returns the listener socket id.
  common::Result<int> listen(Port port, int backlog = 4);

  /// Active open: starts the handshake, returns the connection socket id
  /// immediately (poll is_established / state). The local port comes from
  /// [kEphemeralBase, kEphemeralBase + kEphemeralPorts), starting at a
  /// per-socket stride and moving up past any port whose 4-tuple a live
  /// connection still holds. A TIME_WAIT holder with nothing in flight gives
  /// its tuple up instead (it stays resident for state()/was_reset() but no
  /// longer sends or receives segments). kResourceExhausted if no port is
  /// free.
  common::Result<int> connect(IpAddr dst_ip, Port dst_port);

  /// Pop one established connection off a listener (kUnavailable if none).
  common::Result<int> accept(int listener);

  /// Queue bytes for transmission. Fails once the connection is closing.
  common::Result<std::size_t> send(int sock, std::span<const u8> data);

  /// Drain received bytes. Returns 0 exactly at EOF (peer FIN and buffer
  /// empty); kUnavailable when no data yet on a live connection.
  common::Result<std::size_t> recv(int sock, std::span<u8> out);

  std::size_t bytes_available(int sock) const;

  /// Graceful close: FIN after queued data drains.
  common::Status close(int sock);

  /// Hard abort: RST to the peer, resources freed now. The reset shows up
  /// on both sides via was_reset() — the redirector sheds excess
  /// connections and kills watchdogged slots through this.
  common::Status abort(int sock);

  TcpState state(int sock) const;
  bool is_established(int sock) const {
    const TcpState s = state(sock);
    return s == TcpState::kEstablished || s == TcpState::kCloseWait;
  }
  /// Connection still consuming resources (not fully torn down)?
  bool is_open(int sock) const {
    const TcpState s = state(sock);
    return s != TcpState::kClosed && s != TcpState::kTimeWait;
  }
  /// True if the connection died from RST or retransmission give-up.
  bool was_reset(int sock) const;

  /// Release one fully-dead, non-listener TCB (kClosed / kTimeWait). Dead
  /// TCBs cost no tick or lookup time, but each stays resident until
  /// reaped, so a reconnect-heavy client grows the table without bound.
  /// Opt-in and explicit because reaping forgets the socket's post-mortem
  /// state (was_reset etc.); callers reap only ids they are done querying.
  /// A reaped TIME_WAIT socket's 4-tuple is forgotten too: a later segment
  /// for it draws an RST. Returns false if the socket is still live (or
  /// unknown).
  bool reap(int sock);
  /// Reap every dead non-listener TCB; returns how many were released.
  std::size_t reap_dead();
  /// TCBs currently resident (listeners included) — tests watch this to
  /// prove reaping bounds the table.
  std::size_t tcb_count() const { return socks_.size(); }
  u64 tcbs_reaped() const { return tcbs_reaped_; }

  IpAddr address() const { return addr_; }

  /// Trace correlation id of a connection socket — the orderless 4-tuple
  /// hash shared with the peer stack and every layer above (see
  /// telemetry/trace.h). 0 for listeners and unknown sockets.
  u32 trace_conn_id(int sock) const;
  u64 retransmissions() const { return retransmissions_; }
  u64 resets_sent() const { return resets_sent_; }
  /// Connections that died from retransmission exhaustion.
  u64 retx_giveups() const { return retx_giveups_; }
  /// SYNs silently dropped because a listener's backlog was full.
  u64 syn_backlog_drops() const { return syn_backlog_drops_; }
  /// Current retransmission timeout of a live connection (tests observe the
  /// exponential backoff through this; 0 for unknown sockets).
  u64 rto_ms(int sock) const;

  /// Passive RTT sampling, Karn-style: at most one data segment is stamped
  /// at a time, the sample completes when a cumulative ACK covers its end
  /// sequence, and a retransmission invalidates the outstanding stamp (an
  /// ACK after go-back-N is ambiguous). Pure bookkeeping on existing
  /// segments — no wire, timer, or PRNG effect — so enabling nothing and
  /// reading these is behavior-neutral by construction.
  /// Most recent completed sample in virtual ms (0 until the first one).
  u64 last_rtt_ms(int sock) const;
  /// Completed samples on this connection — watch for increments to know
  /// last_rtt_ms() is fresh.
  u64 rtt_samples(int sock) const;

  /// Optional diagnostic sink: protocol-level events that would otherwise
  /// be invisible (backlog-full SYN drops, retransmission give-ups) get a
  /// log line here.
  void set_diag_log(common::RingLog* log) { diag_log_ = log; }

  /// Embryos dropped by kSynRcvdTimeoutMs.
  u64 embryonic_timeouts() const { return embryonic_timeouts_; }
  /// SYN_RCVD TCBs currently resident — the half-open backlog pressure a
  /// SYN flood creates.
  std::size_t half_open_count() const;

  // --- UDP (datagram, unreliable — no retransmission) --------------------
  struct Datagram {
    IpAddr src_ip = 0;
    Port src_port = 0;
    std::vector<u8> payload;
  };
  /// Open a UDP port for receiving. Fails if already bound.
  common::Status udp_bind(Port port);
  /// Fire-and-forget datagram.
  void udp_sendto(IpAddr dst_ip, Port dst_port, std::span<const u8> payload,
                  Port src_port);
  /// Pop the next datagram queued on `port` (kUnavailable when none).
  common::Result<Datagram> udp_recvfrom(Port port);

  // --- ICMP echo (ping) ----------------------------------------------------
  /// Send an echo request with the given sequence number.
  void ping(IpAddr dst, u32 seq);
  /// Echo replies received, and the highest reply sequence seen.
  u64 echo_replies() const { return echo_replies_; }
  u32 last_echo_seq() const { return last_echo_seq_; }
  u64 echo_requests_answered() const { return echo_requests_answered_; }

  // NetworkEndpoint
  void deliver(const Segment& segment) override;
  void on_tick(u64 now_ms) override;

 private:
  struct Tcb {
    TcpState state = TcpState::kClosed;
    IpAddr remote_ip = 0;
    Port local_port = 0;
    Port remote_port = 0;
    u32 iss = 0;       // initial send sequence
    u32 snd_una = 0;   // oldest unacked
    u32 snd_nxt = 0;   // next to send
    u32 rcv_nxt = 0;   // next expected
    // The first `inflight` bytes of send_buf are transmitted and unacked
    // (aligned to snd_una); the rest are not yet transmitted.
    common::ByteQueue send_buf;
    std::size_t inflight = 0;
    common::ByteQueue recv_buf;
    bool fin_pending = false;   // close() requested
    bool fin_sent = false;
    bool peer_fin = false;
    bool reset = false;
    u64 retx_deadline = 0;
    u64 fin_wait2_deadline = 0;  // armed on entering FIN_WAIT_2
    u64 syn_rcvd_deadline = 0;   // armed on embryo creation
    u64 rto_ms = kRtoMs;  // current (backed-off) RTO
    int retx_count = 0;
    // RTT sampling (see last_rtt_ms): one outstanding stamp at a time.
    bool rtt_pending = false;
    u32 rtt_seq = 0;        // sample completes when snd_una reaches this
    u64 rtt_sent_ms = 0;    // virtual send time of the stamped segment
    u64 last_rtt_ms = 0;
    u64 rtt_samples = 0;
    // Listener-only:
    int backlog = 0;
    std::vector<int> accept_queue;
  };

  Tcb* find(int sock);
  const Tcb* find(int sock) const;
  /// Demultiplexing key of a connection: remote ip, remote port, local port.
  static u64 tuple_key(IpAddr rip, Port rport, Port lport) {
    return (u64{rip} << 32) | (u64{rport} << 16) | lport;
  }
  static u64 tuple_key(const Tcb& tcb) {
    return tuple_key(tcb.remote_ip, tcb.remote_port, tcb.local_port);
  }
  /// A TCB that will never act again: CLOSED, or TIME_WAIT with its FIN
  /// acknowledged (nothing left to retransmit).
  static bool inert(const Tcb& tcb) {
    return tcb.state == TcpState::kClosed ||
           (tcb.state == TcpState::kTimeWait && tcb.retx_deadline == 0);
  }
  /// Register a just-created connection in the tuple index and tick list.
  void index_connection(int id, const Tcb& tcb);
  /// Do `tcb`'s tuple's segments reach it? Not once connect() retired it.
  bool holds_tuple(const Tcb& tcb) const;
  /// Drop `tcb`'s tuple from the index if `tcb` holds it.
  void unindex(const Tcb& tcb);

  /// Put one segment on the wire; its payload is copied once, from `payload`.
  void transmit(const Tcb& tcb, u32 seq, u8 flags,
                std::span<const u8> payload = {});
  /// Every connection state change funnels through here so the trace sees
  /// each transition exactly once (a = from, b = to).
  void transition(Tcb& tcb, TcpState to);
  u32 conn_trace_id(const Tcb& tcb) const;
  void pump(Tcb& tcb);            // send unsent bytes within the window
  void arm_retx(Tcb& tcb);
  void retransmit(Tcb& tcb);
  void kill(Tcb& tcb, bool reset);
  /// Drop accept-queue entries whose TCB is gone or fully dead. Without
  /// this, an embryo that timed out (or an accepted-but-reset peer) holds
  /// its backlog slot forever and a burst of `backlog` dead SYNs wedges the
  /// listener permanently — the SYN flood's lasting damage.
  void prune_accept_queue(Tcb& listener);
  void handle_listener(Tcb& listener, const Segment& seg);
  void handle_connection(Tcb& tcb, const Segment& seg);

  SimNet& net_;
  IpAddr addr_;
  common::Xorshift64 rng_;
  std::map<int, Tcb> socks_;
  // Indexes beside socks_, so a tick or a segment costs O(live connections)
  // however many dead TCBs are resident:
  std::vector<int> ticking_;        // ids that may still act, ascending
  std::map<u64, int> conns_;        // tuple_key -> its one non-CLOSED holder
  std::map<Port, int> listeners_;   // port -> LISTEN socket
  int next_id_ = 1;
  u64 now_ms_ = 0;
  u64 retransmissions_ = 0;
  u64 resets_sent_ = 0;
  u64 retx_giveups_ = 0;
  u64 tcbs_reaped_ = 0;
  u64 syn_backlog_drops_ = 0;
  common::RingLog* diag_log_ = nullptr;
  u64 embryonic_timeouts_ = 0;
  std::map<Port, std::deque<Datagram>> udp_ports_;
  u64 echo_replies_ = 0;
  u32 last_echo_seq_ = 0;
  u64 echo_requests_answered_ = 0;
};

}  // namespace rmc::net

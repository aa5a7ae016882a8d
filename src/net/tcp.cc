#include "net/tcp.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace rmc::net {

using common::ErrorCode;
using common::Result;
using common::Status;
using telemetry::TcpTrace;
using telemetry::TraceLayer;

// The trace audit (telemetry/trace.cc) mirrors these values because the
// dependency runs telemetry <- net; pin them here where both are visible.
static_assert(static_cast<u32>(TcpState::kClosed) == 0);
static_assert(static_cast<u32>(TcpState::kEstablished) == 4);
static_assert(static_cast<u32>(TcpState::kTimeWait) == 9);

namespace {
// Process-wide TCP health counters (all stacks aggregate; benches reset the
// registry between scenarios when they need per-run numbers).
telemetry::Counter& retx_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("tcp.retransmissions");
  return c;
}
telemetry::Counter& resets_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("tcp.resets_sent");
  return c;
}
telemetry::Counter& accepted_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("tcp.connections_accepted");
  return c;
}
telemetry::Counter& refused_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("tcp.connections_refused");
  return c;
}
telemetry::Counter& giveup_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("tcp.retx_giveups");
  return c;
}
telemetry::Counter& syn_drop_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("tcp.syn_drops_backlog_full");
  return c;
}
}  // namespace

const char* tcp_state_name(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

TcpStack::TcpStack(SimNet& net, IpAddr addr, u64 seed)
    : net_(net), addr_(addr), rng_(seed ^ addr) {
  net_.attach(addr, this);
}

TcpStack::Tcb* TcpStack::find(int sock) {
  auto it = socks_.find(sock);
  return it == socks_.end() ? nullptr : &it->second;
}
const TcpStack::Tcb* TcpStack::find(int sock) const {
  auto it = socks_.find(sock);
  return it == socks_.end() ? nullptr : &it->second;
}

int TcpStack::find_connection(IpAddr rip, Port rport, Port lport) const {
  for (const auto& [id, tcb] : socks_) {
    if (tcb.state != TcpState::kListen && tcb.state != TcpState::kClosed &&
        tcb.remote_ip == rip && tcb.remote_port == rport &&
        tcb.local_port == lport) {
      return id;
    }
  }
  return -1;
}

int TcpStack::find_listener(Port lport) const {
  for (const auto& [id, tcb] : socks_) {
    if (tcb.state == TcpState::kListen && tcb.local_port == lport) return id;
  }
  return -1;
}

Result<int> TcpStack::listen(Port port, int backlog) {
  if (find_listener(port) >= 0) {
    return Status(ErrorCode::kAlreadyExists,
                  "port already listening: " + std::to_string(port));
  }
  const int id = next_id_++;
  Tcb tcb;
  tcb.state = TcpState::kListen;
  tcb.local_port = port;
  tcb.backlog = backlog;
  socks_.emplace(id, std::move(tcb));
  return id;
}

Result<int> TcpStack::connect(IpAddr dst_ip, Port dst_port) {
  const int id = next_id_++;
  Tcb tcb;
  tcb.remote_ip = dst_ip;
  tcb.remote_port = dst_port;
  tcb.local_port = static_cast<Port>(0xC000 + (next_id_ * 13) % 0x3FFF);
  tcb.iss = rng_.next_u32();
  tcb.snd_una = tcb.iss;
  tcb.snd_nxt = tcb.iss + 1;  // SYN occupies one sequence number
  transition(tcb, TcpState::kSynSent);
  transmit(tcb, tcb.iss, TcpFlags::kSyn, {});
  auto [it, ok] = socks_.emplace(id, std::move(tcb));
  (void)ok;
  arm_retx(it->second);
  return id;
}

Result<int> TcpStack::accept(int listener) {
  Tcb* l = find(listener);
  if (l == nullptr || l->state != TcpState::kListen) {
    return Status(ErrorCode::kInvalidArgument, "not a listening socket");
  }
  prune_accept_queue(*l);
  for (std::size_t i = 0; i < l->accept_queue.size(); ++i) {
    const int id = l->accept_queue[i];
    const Tcb* c = find(id);
    if (c != nullptr && (c->state == TcpState::kEstablished ||
                         c->state == TcpState::kCloseWait)) {
      l->accept_queue.erase(l->accept_queue.begin() + static_cast<long>(i));
      accepted_counter().add();
      return id;
    }
  }
  return Status(ErrorCode::kUnavailable, "no pending connection");
}

Result<std::size_t> TcpStack::send(int sock, std::span<const u8> data) {
  Tcb* t = find(sock);
  if (t == nullptr) return Status(ErrorCode::kNotFound, "bad socket");
  if (t->state != TcpState::kEstablished &&
      t->state != TcpState::kCloseWait && t->state != TcpState::kSynSent &&
      t->state != TcpState::kSynRcvd) {
    return Status(ErrorCode::kAborted, "connection not writable");
  }
  if (t->fin_pending || t->fin_sent) {
    return Status(ErrorCode::kFailedPrecondition, "socket closed for writing");
  }
  t->send_queue.insert(t->send_queue.end(), data.begin(), data.end());
  pump(*t);
  return data.size();
}

Result<std::size_t> TcpStack::recv(int sock, std::span<u8> out) {
  Tcb* t = find(sock);
  if (t == nullptr) return Status(ErrorCode::kNotFound, "bad socket");
  if (t->reset) return Status(ErrorCode::kAborted, "connection reset");
  if (t->recv_queue.empty()) {
    if (t->peer_fin || t->state == TcpState::kClosed ||
        t->state == TcpState::kTimeWait) {
      return std::size_t{0};  // EOF
    }
    return Status(ErrorCode::kUnavailable, "no data");
  }
  const std::size_t n = std::min(out.size(), t->recv_queue.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = t->recv_queue.front();
    t->recv_queue.pop_front();
  }
  return n;
}

std::size_t TcpStack::bytes_available(int sock) const {
  const Tcb* t = find(sock);
  return t == nullptr ? 0 : t->recv_queue.size();
}

Status TcpStack::close(int sock) {
  Tcb* t = find(sock);
  if (t == nullptr) return Status(ErrorCode::kNotFound, "bad socket");
  if (t->state == TcpState::kListen) {
    // Reset embryonic connections still queued.
    for (int id : t->accept_queue) {
      if (Tcb* c = find(id)) kill(*c, /*reset=*/true);
    }
    t->state = TcpState::kClosed;
    return Status::ok();
  }
  if (t->state == TcpState::kClosed || t->fin_pending || t->fin_sent) {
    return Status::ok();
  }
  if (t->state == TcpState::kSynSent) {
    transition(*t, TcpState::kClosed);
    return Status::ok();
  }
  t->fin_pending = true;
  pump(*t);
  return Status::ok();
}

Status TcpStack::abort(int sock) {
  Tcb* t = find(sock);
  if (t == nullptr) return Status(ErrorCode::kNotFound, "bad socket");
  if (t->state == TcpState::kListen) return close(sock);
  kill(*t, /*reset=*/true);
  return Status::ok();
}

TcpState TcpStack::state(int sock) const {
  const Tcb* t = find(sock);
  return t == nullptr ? TcpState::kClosed : t->state;
}

bool TcpStack::was_reset(int sock) const {
  const Tcb* t = find(sock);
  return t != nullptr && t->reset;
}

bool TcpStack::reap(int sock) {
  auto it = socks_.find(sock);
  if (it == socks_.end()) return false;
  const TcpState s = it->second.state;
  if (s != TcpState::kClosed && s != TcpState::kTimeWait) return false;
  if (it->second.backlog > 0) return false;  // listeners are never reaped
  socks_.erase(it);
  ++tcbs_reaped_;
  return true;
}

std::size_t TcpStack::reap_dead() {
  std::size_t n = 0;
  for (auto it = socks_.begin(); it != socks_.end();) {
    const TcpState s = it->second.state;
    if ((s == TcpState::kClosed || s == TcpState::kTimeWait) &&
        it->second.backlog == 0) {
      it = socks_.erase(it);
      ++tcbs_reaped_;
      ++n;
    } else {
      ++it;
    }
  }
  return n;
}

u64 TcpStack::rto_ms(int sock) const {
  const Tcb* t = find(sock);
  return t == nullptr ? 0 : t->rto_ms;
}

u64 TcpStack::last_rtt_ms(int sock) const {
  const Tcb* t = find(sock);
  return t == nullptr ? 0 : t->last_rtt_ms;
}

u64 TcpStack::rtt_samples(int sock) const {
  const Tcb* t = find(sock);
  return t == nullptr ? 0 : t->rtt_samples;
}

u32 TcpStack::conn_trace_id(const Tcb& tcb) const {
  if (tcb.remote_ip == 0 && tcb.remote_port == 0) return 0;  // listener
  return telemetry::trace_conn_id(addr_, tcb.local_port, tcb.remote_ip,
                                  tcb.remote_port);
}

u32 TcpStack::trace_conn_id(int sock) const {
  const Tcb* t = find(sock);
  if (t == nullptr || t->state == TcpState::kListen) return 0;
  return conn_trace_id(*t);
}

void TcpStack::transition(Tcb& tcb, TcpState to) {
  auto& tracer = telemetry::Tracer::global();
  if (tracer.enabled() && tcb.state != to) {
    tracer.emit(TraceLayer::kTcp, TcpTrace::kState, conn_trace_id(tcb),
                static_cast<u32>(tcb.state), static_cast<u32>(to));
  }
  tcb.state = to;
}

// ---------------------------------------------------------------------------
// Wire side
// ---------------------------------------------------------------------------

void TcpStack::transmit(const Tcb& tcb, u32 seq, u8 flags,
                        std::vector<u8> payload) {
  Segment seg;
  seg.src_ip = addr_;
  seg.dst_ip = tcb.remote_ip;
  seg.src_port = tcb.local_port;
  seg.dst_port = tcb.remote_port;
  seg.seq = seq;
  seg.ack = tcb.rcv_nxt;
  seg.flags = flags;
  seg.payload = std::move(payload);
  net_.send(std::move(seg));
}

void TcpStack::arm_retx(Tcb& tcb) {
  if (tcb.retx_deadline == 0) tcb.retx_deadline = now_ms_ + tcb.rto_ms;
}

void TcpStack::pump(Tcb& tcb) {
  if (tcb.state != TcpState::kEstablished &&
      tcb.state != TcpState::kCloseWait) {
    return;
  }
  while (!tcb.send_queue.empty() && tcb.inflight.size() < kWindow) {
    const std::size_t n = std::min(
        {tcb.send_queue.size(), kMss, kWindow - tcb.inflight.size()});
    std::vector<u8> payload(tcb.send_queue.begin(),
                            tcb.send_queue.begin() + static_cast<long>(n));
    tcb.send_queue.erase(tcb.send_queue.begin(),
                         tcb.send_queue.begin() + static_cast<long>(n));
    transmit(tcb, tcb.snd_nxt, TcpFlags::kAck, payload);
    tcb.inflight.insert(tcb.inflight.end(), payload.begin(), payload.end());
    tcb.snd_nxt += static_cast<u32>(n);
    if (!tcb.rtt_pending) {
      // Stamp this fresh segment for RTT sampling; the ACK covering its end
      // sequence completes the sample (see last_rtt_ms in tcp.h).
      tcb.rtt_pending = true;
      tcb.rtt_seq = tcb.snd_nxt;
      tcb.rtt_sent_ms = now_ms_;
    }
    arm_retx(tcb);
  }
  if (tcb.fin_pending && !tcb.fin_sent && tcb.send_queue.empty()) {
    transmit(tcb, tcb.snd_nxt, TcpFlags::kFin | TcpFlags::kAck, {});
    tcb.snd_nxt += 1;  // FIN occupies one sequence number
    tcb.fin_sent = true;
    transition(tcb, tcb.state == TcpState::kCloseWait ? TcpState::kLastAck
                                                      : TcpState::kFinWait1);
    arm_retx(tcb);
  }
}

void TcpStack::retransmit(Tcb& tcb) {
  ++retransmissions_;
  retx_counter().add();
  ++tcb.retx_count;
  // Karn: an ACK arriving after a retransmission is ambiguous about which
  // transmission it acknowledges, so the outstanding RTT stamp is void.
  tcb.rtt_pending = false;
  auto& tracer = telemetry::Tracer::global();
  if (tcb.retx_count > kMaxRetx) {
    // Give up: the peer (or the wire) is gone. RST, latch was_reset, free.
    ++retx_giveups_;
    giveup_counter().add();
    if (diag_log_ != nullptr) {
      diag_log_->append("tcp retx-giveup port=" +
                        std::to_string(tcb.local_port));
    }
    if (tracer.enabled()) {
      tracer.emit(TraceLayer::kTcp, TcpTrace::kGiveUp, conn_trace_id(tcb),
                  static_cast<u32>(tcb.retx_count),
                  static_cast<u32>(tcb.rto_ms));
    }
    kill(tcb, /*reset=*/true);
    return;
  }
  if (tracer.enabled()) {
    tracer.emit(TraceLayer::kTcp, TcpTrace::kRetransmit, conn_trace_id(tcb),
                static_cast<u32>(tcb.retx_count),
                static_cast<u32>(tcb.rto_ms));
  }
  switch (tcb.state) {
    case TcpState::kSynSent:
      transmit(tcb, tcb.iss, TcpFlags::kSyn, {});
      break;
    case TcpState::kSynRcvd:
      transmit(tcb, tcb.iss, TcpFlags::kSyn | TcpFlags::kAck, {});
      break;
    default: {
      if (!tcb.inflight.empty()) {
        const std::size_t n = std::min(tcb.inflight.size(), kMss);
        std::vector<u8> payload(tcb.inflight.begin(),
                                tcb.inflight.begin() + static_cast<long>(n));
        transmit(tcb, tcb.snd_una, TcpFlags::kAck, std::move(payload));
      } else if (tcb.fin_sent) {
        transmit(tcb, tcb.snd_nxt - 1, TcpFlags::kFin | TcpFlags::kAck, {});
      }
      break;
    }
  }
  // Exponential backoff with jitter: each consecutive loss doubles the wait
  // (capped), and a small random skew keeps flows that lost the same burst
  // from retransmitting in lockstep.
  tcb.rto_ms = std::min(tcb.rto_ms * 2, kRtoMaxMs);
  tcb.retx_deadline =
      now_ms_ + tcb.rto_ms + rng_.next_below(static_cast<u32>(tcb.rto_ms / 8) + 1);
}

void TcpStack::kill(Tcb& tcb, bool reset) {
  if (reset && tcb.state != TcpState::kClosed) {
    transmit(tcb, tcb.snd_nxt, TcpFlags::kRst, {});
    ++resets_sent_;
    resets_counter().add();
    tcb.reset = true;
  }
  transition(tcb, TcpState::kClosed);
  tcb.retx_deadline = 0;
}

void TcpStack::prune_accept_queue(Tcb& listener) {
  for (std::size_t i = 0; i < listener.accept_queue.size();) {
    const Tcb* c = find(listener.accept_queue[i]);
    if (c == nullptr || c->state == TcpState::kClosed ||
        c->state == TcpState::kTimeWait) {
      listener.accept_queue.erase(listener.accept_queue.begin() +
                                  static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

void TcpStack::handle_listener(Tcb& listener, const Segment& seg) {
  if (!seg.has(TcpFlags::kSyn)) return;  // stray segment to a listener
  // Reclaim slots held by dead queue entries (timed-out embryos, peers that
  // reset before accept) before judging the backlog full.
  prune_accept_queue(listener);
  if (static_cast<int>(listener.accept_queue.size()) >= listener.backlog) {
    // Backlog full: drop the SYN (client will retransmit). This used to be
    // invisible; now it is counted and logged so a saturated service shows
    // up in telemetry instead of as mysteriously slow clients.
    ++syn_backlog_drops_;
    syn_drop_counter().add();
    refused_counter().add();
    if (diag_log_ != nullptr) {
      diag_log_->append("tcp syn-drop port=" +
                        std::to_string(listener.local_port) + " backlog-full");
    }
    auto& tracer = telemetry::Tracer::global();
    if (tracer.enabled()) {
      tracer.emit(TraceLayer::kTcp, TcpTrace::kSynDrop,
                  telemetry::trace_conn_id(addr_, listener.local_port,
                                           seg.src_ip, seg.src_port),
                  listener.local_port);
    }
    return;
  }
  const int id = next_id_++;
  Tcb conn;
  conn.remote_ip = seg.src_ip;
  conn.remote_port = seg.src_port;
  conn.local_port = listener.local_port;
  conn.rcv_nxt = seg.seq + 1;
  conn.iss = rng_.next_u32();
  conn.snd_una = conn.iss;
  conn.snd_nxt = conn.iss + 1;
  conn.syn_rcvd_deadline = now_ms_ + kSynRcvdTimeoutMs;
  transition(conn, TcpState::kSynRcvd);
  transmit(conn, conn.iss, TcpFlags::kSyn | TcpFlags::kAck, {});
  auto [it, ok] = socks_.emplace(id, std::move(conn));
  (void)ok;
  arm_retx(it->second);
  listener.accept_queue.push_back(id);
}

void TcpStack::handle_connection(int id, Tcb& tcb, const Segment& seg) {
  (void)id;
  if (seg.has(TcpFlags::kRst)) {
    tcb.reset = true;
    transition(tcb, TcpState::kClosed);
    return;
  }

  if (tcb.state == TcpState::kSynSent) {
    if (seg.has(TcpFlags::kSyn) && seg.has(TcpFlags::kAck) &&
        seg.ack == tcb.iss + 1) {
      tcb.rcv_nxt = seg.seq + 1;
      tcb.snd_una = seg.ack;
      transition(tcb, TcpState::kEstablished);
      tcb.retx_deadline = 0;
      tcb.retx_count = 0;
      tcb.rto_ms = kRtoMs;
      transmit(tcb, tcb.snd_nxt, TcpFlags::kAck, {});
      pump(tcb);
    }
    return;
  }

  // A retransmitted SYN-ACK on a live connection means our final handshake
  // ACK was lost; re-ACK so the peer can leave SynRcvd instead of backing
  // off to give-up. (In SynRcvd a duplicate SYN is covered by our own
  // SYN-ACK retransmission timer — nothing to do.)
  if (seg.has(TcpFlags::kSyn)) {
    if (tcb.state != TcpState::kSynRcvd) {
      transmit(tcb, tcb.snd_nxt, TcpFlags::kAck, {});
    }
    return;
  }

  // ACK processing (cumulative).
  if (seg.has(TcpFlags::kAck)) {
    const u32 acked = seg.ack - tcb.snd_una;
    const u32 outstanding = tcb.snd_nxt - tcb.snd_una;
    if (acked > 0 && acked <= outstanding) {
      u32 remaining = acked;
      if (tcb.state == TcpState::kSynRcvd) {
        // Our SYN consumed one unit that is not in the byte buffer.
        transition(tcb, TcpState::kEstablished);
        remaining -= 1;
      }
      const std::size_t pop =
          std::min<std::size_t>(remaining, tcb.inflight.size());
      tcb.inflight.erase(tcb.inflight.begin(),
                         tcb.inflight.begin() + static_cast<long>(pop));
      tcb.snd_una = seg.ack;
      // RTT sample completes once the cumulative ACK covers the stamped
      // sequence (serial-number arithmetic, same as the `acked` math above).
      if (tcb.rtt_pending && seg.ack - tcb.rtt_seq < 0x8000'0000u) {
        tcb.last_rtt_ms = now_ms_ - tcb.rtt_sent_ms;
        ++tcb.rtt_samples;
        tcb.rtt_pending = false;
      }
      tcb.retx_count = 0;
      tcb.rto_ms = kRtoMs;  // forward progress resets the backoff
      tcb.retx_deadline =
          (tcb.snd_una == tcb.snd_nxt) ? 0 : now_ms_ + tcb.rto_ms;
      // FIN fully acknowledged?
      if (tcb.fin_sent && tcb.snd_una == tcb.snd_nxt) {
        if (tcb.state == TcpState::kFinWait1) {
          transition(tcb, TcpState::kFinWait2);
          tcb.fin_wait2_deadline = now_ms_ + kFinWait2TimeoutMs;
        } else if (tcb.state == TcpState::kLastAck) {
          transition(tcb, TcpState::kClosed);
        }
      }
      pump(tcb);
    }
  }

  // In-order payload.
  if (!seg.payload.empty()) {
    if (seg.seq == tcb.rcv_nxt) {
      tcb.recv_queue.insert(tcb.recv_queue.end(), seg.payload.begin(),
                            seg.payload.end());
      tcb.rcv_nxt += static_cast<u32>(seg.payload.size());
      transmit(tcb, tcb.snd_nxt, TcpFlags::kAck, {});
    } else {
      // Out of order or duplicate: dup-ACK what we actually have.
      transmit(tcb, tcb.snd_nxt, TcpFlags::kAck, {});
    }
  }

  // FIN (its sequence position is after any payload in this segment).
  if (seg.has(TcpFlags::kFin)) {
    const u32 fin_seq = seg.seq + static_cast<u32>(seg.payload.size());
    if (fin_seq == tcb.rcv_nxt && !tcb.peer_fin) {
      tcb.rcv_nxt += 1;
      tcb.peer_fin = true;
      transmit(tcb, tcb.snd_nxt, TcpFlags::kAck, {});
      switch (tcb.state) {
        case TcpState::kEstablished:
          transition(tcb, TcpState::kCloseWait);
          break;
        case TcpState::kFinWait1:
          // Simultaneous close: our FIN not yet acked.
          transition(tcb, TcpState::kTimeWait);
          break;
        case TcpState::kFinWait2:
          transition(tcb, TcpState::kTimeWait);
          break;
        default:
          break;
      }
    } else if (fin_seq < tcb.rcv_nxt || tcb.peer_fin) {
      transmit(tcb, tcb.snd_nxt, TcpFlags::kAck, {});  // dup FIN: re-ACK
    }
  }
}

// ---------------------------------------------------------------------------
// UDP / ICMP
// ---------------------------------------------------------------------------

Status TcpStack::udp_bind(Port port) {
  if (udp_ports_.count(port)) {
    return Status(ErrorCode::kAlreadyExists, "UDP port in use");
  }
  udp_ports_[port];
  return Status::ok();
}

void TcpStack::udp_sendto(IpAddr dst_ip, Port dst_port,
                          std::span<const u8> payload, Port src_port) {
  Segment seg;
  seg.src_ip = addr_;
  seg.dst_ip = dst_ip;
  seg.protocol = IpProto::kUdp;
  seg.src_port = src_port;
  seg.dst_port = dst_port;
  seg.payload.assign(payload.begin(), payload.end());
  net_.send(std::move(seg));
}

Result<TcpStack::Datagram> TcpStack::udp_recvfrom(Port port) {
  auto it = udp_ports_.find(port);
  if (it == udp_ports_.end()) {
    return Status(ErrorCode::kFailedPrecondition, "UDP port not bound");
  }
  if (it->second.empty()) {
    return Status(ErrorCode::kUnavailable, "no datagram");
  }
  Datagram d = std::move(it->second.front());
  it->second.pop_front();
  return d;
}

void TcpStack::ping(IpAddr dst, u32 seq) {
  Segment seg;
  seg.src_ip = addr_;
  seg.dst_ip = dst;
  seg.protocol = IpProto::kIcmp;
  seg.flags = 8;  // echo request
  seg.seq = seq;
  net_.send(std::move(seg));
}

void TcpStack::deliver(const Segment& seg) {
  if (seg.dst_ip != addr_) return;

  if (seg.protocol == IpProto::kUdp) {
    auto it = udp_ports_.find(seg.dst_port);
    if (it == udp_ports_.end()) return;  // unreachable port: dropped
    it->second.push_back(Datagram{seg.src_ip, seg.src_port, seg.payload});
    return;
  }
  if (seg.protocol == IpProto::kIcmp) {
    if (seg.flags == 8) {  // echo request -> reply
      Segment reply;
      reply.src_ip = addr_;
      reply.dst_ip = seg.src_ip;
      reply.protocol = IpProto::kIcmp;
      reply.flags = 0;  // echo reply
      reply.seq = seg.seq;
      reply.payload = seg.payload;
      net_.send(std::move(reply));
      ++echo_requests_answered_;
    } else if (seg.flags == 0) {
      ++echo_replies_;
      last_echo_seq_ = seg.seq;
    }
    return;
  }

  const int conn = find_connection(seg.src_ip, seg.src_port, seg.dst_port);
  if (conn >= 0) {
    handle_connection(conn, socks_.at(conn), seg);
    return;
  }
  const int listener = find_listener(seg.dst_port);
  if (listener >= 0) {
    handle_listener(socks_.at(listener), seg);
    return;
  }
  // Nothing at this port: RST (so connects to dead ports fail fast).
  if (!seg.has(TcpFlags::kRst)) {
    Tcb ghost;
    ghost.remote_ip = seg.src_ip;
    ghost.remote_port = seg.src_port;
    ghost.local_port = seg.dst_port;
    ghost.rcv_nxt = seg.seq + 1;
    transmit(ghost, seg.ack, TcpFlags::kRst, {});
    ++resets_sent_;
    resets_counter().add();
  }
}

std::size_t TcpStack::half_open_count() const {
  std::size_t n = 0;
  for (const auto& [id, tcb] : socks_) {
    (void)id;
    if (tcb.state == TcpState::kSynRcvd) ++n;
  }
  return n;
}

void TcpStack::on_tick(u64 now_ms) {
  now_ms_ = now_ms;
  for (auto& [id, tcb] : socks_) {
    (void)id;
    if (tcb.state == TcpState::kClosed || tcb.state == TcpState::kListen) {
      continue;
    }
    if (tcb.retx_deadline != 0 && now_ms_ >= tcb.retx_deadline) {
      retransmit(tcb);
    }
    if (tcb.state == TcpState::kSynRcvd && now_ms_ >= tcb.syn_rcvd_deadline) {
      // Embryo never completed the handshake inside the cap. A spoofed
      // flood source will never answer, so there is nobody to RST; drop
      // quietly and let the accept-queue prune reclaim the backlog slot.
      ++embryonic_timeouts_;
      if (diag_log_ != nullptr) {
        diag_log_->append("tcp syn-rcvd timeout port=" +
                          std::to_string(tcb.local_port));
      }
      kill(tcb, /*reset=*/false);
      continue;
    }
    if (tcb.state == TcpState::kFinWait2 && now_ms_ >= tcb.fin_wait2_deadline) {
      // The peer acked our FIN but never closed its half; it is almost
      // certainly dead (a live peer would have something to say within the
      // timeout). Drop quietly — there is nobody to RST.
      if (diag_log_ != nullptr) {
        diag_log_->append("tcp fin-wait-2 timeout port=" +
                          std::to_string(tcb.local_port));
      }
      kill(tcb, /*reset=*/false);
      continue;
    }
    pump(tcb);
  }
}

}  // namespace rmc::net

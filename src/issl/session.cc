#include "issl/session.h"

#include <cstring>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace rmc::issl {

using common::ErrorCode;
using common::Result;
using common::Status;

namespace {
telemetry::Counter& hs_message_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.handshake_messages");
  return c;
}
telemetry::Counter& hs_complete_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.handshakes_completed");
  return c;
}
telemetry::Counter& hs_fail_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.handshakes_failed");
  return c;
}
telemetry::Counter& stall_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.stall_timeouts");
  return c;
}
// Registered lazily so runs that never exercise resumption or small-modulus
// RSA keep their metrics JSON bit-identical to earlier builds.
telemetry::Counter& hs_resumed_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.handshakes_resumed");
  return c;
}
telemetry::Counter& premaster_expand_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.premaster_expansions");
  return c;
}

constexpr u8 kMsgClientHello = 1;
constexpr u8 kMsgServerHello = 2;
constexpr u8 kMsgClientKeyExchange = 3;
constexpr u8 kMsgFinished = 4;

constexpr u8 kAlertCloseNotify = 0;
constexpr u8 kAlertHandshakeFailure = 1;

constexpr std::size_t kPremasterBytes = 48;
constexpr std::size_t kMasterBytes = 48;

void append_u16(std::vector<u8>& v, std::size_t n) {
  v.push_back(static_cast<u8>(n >> 8));
  v.push_back(static_cast<u8>(n & 0xFF));
}

std::size_t read_u16(std::span<const u8> b) {
  return (static_cast<std::size_t>(b[0]) << 8) | b[1];
}

// ---------------------------------------------------------------------------
// Deterministic crypto-cost model for the 30 MHz Rabbit-class target.
//
// handshake_cost_cycles() is exact virtual arithmetic over these constants,
// so bench JSON built from it is byte-reproducible; the constants are
// calibrated to the scale of the E1/E8 measurements (hand-assembled SHA-1
// compresses one 64-byte block in roughly 7k cycles on this core; bignum
// modmul is schoolbook over 16-bit limbs at ~12 cycles per limb-MAC). The
// model's job is the *ratio* between a full RSA handshake and an
// abbreviated one (E11), not cycle-exact emulation.
// ---------------------------------------------------------------------------
constexpr common::u64 kSha1BlockCycles = 7'000;
constexpr common::u64 kAesKeySetupCycles = 5'000;  // per direction schedule

common::u64 hmac_cycles(std::size_t msg_bytes) {
  return crypto::hmac_sha1_blocks(msg_bytes) * kSha1BlockCycles;
}

common::u64 prf_cycles(std::size_t out_bytes, std::size_t seed_bytes) {
  const common::u64 iterations = (out_bytes + 19) / 20;
  return iterations * 2 * hmac_cycles(seed_bytes + 24);
}

common::u64 modexp_cycles(std::size_t mod_bits, std::size_t exp_bits) {
  const common::u64 limbs = (mod_bits + 15) / 16;
  const common::u64 modmul = limbs * limbs * 12;
  return (static_cast<common::u64>(exp_bits) + exp_bits / 2) * modmul;
}
}  // namespace

const char* session_state_name(SessionState s) {
  switch (s) {
    case SessionState::kStart: return "START";
    case SessionState::kAwaitServerHello: return "AWAIT_SERVER_HELLO";
    case SessionState::kAwaitClientHello: return "AWAIT_CLIENT_HELLO";
    case SessionState::kAwaitClientKeyExchange: return "AWAIT_CKE";
    case SessionState::kAwaitFinished: return "AWAIT_FINISHED";
    case SessionState::kEstablished: return "ESTABLISHED";
    case SessionState::kClosed: return "CLOSED";
    case SessionState::kFailed: return "FAILED";
  }
  return "?";
}

std::size_t Session::sram_footprint(const Config& config) {
  // Per-session SRAM model for the 16-bit target. The fixed term covers the
  // state machine, transcript hash, record codec scratch, and the pending
  // record reassembly buffer the port keeps per session; the key-schedule
  // term is the two expanded AES schedules (11/13/15 round keys of 16 bytes
  // each direction, charged as 4x the raw key to round the per-direction
  // overhead up the way the port's static tables did); resumption adds a
  // ticket cache slot (master secret + ids + expiry bookkeeping).
  std::size_t bytes = 320;
  bytes += (config.aes_key_bits / 8) * 4;
  if (config.resumption) bytes += 64;
  return bytes;
}

Session::Session(Role role, const Config& config, ByteStream& stream,
                 common::Xorshift64& rng)
    : role_(role), config_(config), stream_(&stream), rng_(&rng),
      codec_(rng, config.engine) {
  // Bad configs fail here, visibly, instead of mid-handshake: the caller
  // sees failed() + kFailedPrecondition before a single byte hits the wire.
  if (!config.valid()) {
    state_ = SessionState::kFailed;
    error_ = Status(ErrorCode::kFailedPrecondition,
                    "invalid issl config (key size, rsa modulus < 96 bits, "
                    "or an engine with a non-128-bit key)");
  }
}

Session Session::client(const Config& config, ByteStream& stream,
                        common::Xorshift64& rng, std::vector<u8> psk,
                        const ResumptionTicket* ticket) {
  Session s(Role::kClient, config, stream, rng);
  s.psk_ = std::move(psk);
  if (ticket != nullptr) s.offered_ = *ticket;
  return s;
}

Session Session::server(const Config& config, ByteStream& stream,
                        common::Xorshift64& rng, ServerIdentity identity) {
  Session s(Role::kServer, config, stream, rng);
  s.identity_ = std::move(identity);
  if (s.state_ != SessionState::kFailed) {
    s.state_ = SessionState::kAwaitClientHello;
  }
  return s;
}

void Session::trace_hs(u8 event, common::u32 b) const {
  auto& tracer = telemetry::Tracer::global();
  if (!tracer.enabled()) return;
  tracer.emit(telemetry::TraceLayer::kIssl, event, stream_->trace_conn_id(),
              role_ == Role::kServer ? 1u : 0u, b);
}

Status Session::fail(Status status) {
  // Failures before the session is up count against the handshake.
  if (state_ != SessionState::kEstablished &&
      state_ != SessionState::kClosed && state_ != SessionState::kFailed) {
    hs_fail_counter().add();
    // A resumed handshake that dies before Finished suggests a poisoned
    // cache entry (master mismatch); drop it so the next attempt falls
    // back to the full handshake instead of failing the same way.
    if (role_ == Role::kServer && resumed_ &&
        identity_.session_cache != nullptr && have_session_id_) {
      identity_.session_cache->remove(session_id_);
    }
  }
  trace_hs(telemetry::IsslTrace::kFailed,
           static_cast<common::u32>(status.code()));
  state_ = SessionState::kFailed;
  error_ = status;
  (void)send_alert(kAlertHandshakeFailure);
  return status;
}

Status Session::send_alert(u8 code) {
  trace_hs(telemetry::IsslTrace::kAlertSent, code);
  const u8 body[1] = {code};
  auto wire = codec_.seal(RecordType::kAlert, body);
  if (!wire.ok()) return wire.status();
  auto n = stream_->write(*wire);
  return n.ok() ? Status::ok() : n.status();
}

Status Session::send_handshake(u8 msg_type, std::span<const u8> body) {
  std::vector<u8> msg;
  msg.push_back(msg_type);
  append_u16(msg, body.size());
  msg.insert(msg.end(), body.begin(), body.end());
  // Finished is sent under the session keys and is NOT part of the
  // transcript (both sides snapshot the hash at key derivation).
  if (msg_type != kMsgFinished) transcript_.update(msg);
  auto wire = codec_.seal(RecordType::kHandshake, msg);
  if (!wire.ok()) return wire.status();
  auto n = stream_->write(*wire);
  return n.ok() ? Status::ok() : n.status();
}

Status Session::flush_and_fill() {
  u8 buf[512];
  fill_bytes_ = 0;
  // Bounded intake per pump: a transport spraying garbage must hit record
  // validation (and fail the session) instead of growing the reassembly
  // buffer without limit. Intake also stops before a chunk could take the
  // codec past its reassembly bound, leaving the rest in the transport: an
  // honest burst of records (64 chunks are 32 KiB, two maximum records)
  // on top of a partial one must not read as an overflow. pump() pops
  // every complete record before the next fill, which leaves room for at
  // least one maximum record, so every pump still makes progress.
  for (int round = 0; round < 64; ++round) {
    if (codec_.buffered_bytes() + sizeof(buf) > kMaxReassemblyBytes) break;
    auto n = stream_->read(buf);
    if (!n.ok()) {
      if (n.status().code() == ErrorCode::kUnavailable) return Status::ok();
      return n.status();
    }
    if (*n == 0) {
      // Transport EOF. Mid-handshake that is a failure; established
      // sessions treat it as an unclean close.
      if (state_ == SessionState::kEstablished) {
        state_ = SessionState::kClosed;
        return Status::ok();
      }
      if (state_ != SessionState::kClosed && state_ != SessionState::kFailed &&
          state_ != SessionState::kStart) {
        return Status(ErrorCode::kAborted, "transport EOF mid-handshake");
      }
      return Status::ok();
    }
    fill_bytes_ += *n;
    Status s = codec_.feed(std::span<const u8>(buf, *n));
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

Status Session::pump() {
  if (state_ == SessionState::kFailed) return error_;

  // Progress baseline for the stall watchdog (captured before the kickoff
  // so the first pump's own ClientHello counts as progress).
  const u64 opened_before = codec_.records_opened();
  const std::size_t hs_before = hs_messages_;
  const SessionState state_before = state_;

  // Client kicks off the handshake on the first pump.
  if (role_ == Role::kClient && state_ == SessionState::kStart) {
    rng_->fill(client_random_);
    std::vector<u8> body(client_random_.begin(), client_random_.end());
    body.push_back(static_cast<u8>(config_.key_exchange));
    body.push_back(static_cast<u8>(config_.aes_key_bits / 8));
    bool offer = false;
    if (config_.resumption) {
      // Optional session-ID field: [id_len u8][id]. Only a ticket whose
      // cipher parameters match this config is worth offering.
      offer = offered_.valid != 0 &&
              offered_.key_exchange == static_cast<u8>(config_.key_exchange) &&
              offered_.key_bytes == config_.aes_key_bits / 8;
      body.push_back(offer ? static_cast<u8>(kSessionIdBytes) : 0);
      if (offer) {
        body.insert(body.end(), offered_.id, offered_.id + kSessionIdBytes);
      }
      offer_sent_ = true;
    }
    Status s = send_handshake(kMsgClientHello, body);
    if (!s.is_ok()) return fail(s);
    trace_hs(telemetry::IsslTrace::kHello, offer ? 1 : 0);
    state_ = SessionState::kAwaitServerHello;
  }

  Status s = flush_and_fill();
  if (!s.is_ok()) return fail(s);

  while (true) {
    auto record = codec_.pop();
    if (!record.ok()) return fail(record.status());
    if (!record->has_value()) break;
    s = handle_record(**record);
    if (!s.is_ok()) return fail(s);
    if (state_ == SessionState::kFailed || state_ == SessionState::kClosed) {
      break;
    }
  }

  // Stall watchdog. A silent peer mid-handshake — or a partial record whose
  // tail never arrives — must eventually fail the session rather than wedge
  // the caller's pump loop forever. Established and idle is legitimate, so
  // only no-progress pumps in those two situations count. Progress means a
  // complete record opened, a handshake message landed, or the state
  // machine advanced — NOT merely "some bytes arrived": a peer trickling
  // one byte per pump would otherwise reset the budget forever and evade
  // the limit entirely.
  const bool mid_handshake = state_ != SessionState::kEstablished &&
                             state_ != SessionState::kClosed &&
                             state_ != SessionState::kFailed;
  const bool partial_record =
      state_ == SessionState::kEstablished && codec_.buffered_bytes() > 0;
  const bool progress = codec_.records_opened() != opened_before ||
                        hs_messages_ != hs_before || state_ != state_before;
  if (progress || !(mid_handshake || partial_record)) {
    stall_pumps_ = 0;
  } else {
    ++stall_pumps_;
    const std::size_t limit = mid_handshake ? config_.handshake_stall_limit
                                            : config_.record_stall_limit;
    if (limit > 0 && stall_pumps_ >= limit) {
      stall_counter().add();
      return fail(Status(ErrorCode::kTimeout,
                         mid_handshake ? "handshake stalled past pump budget"
                                       : "record read stalled past pump budget"));
    }
  }
  return Status::ok();
}

Status Session::handle_record(Record& record) {
  switch (record.type) {
    case RecordType::kHandshake: {
      hs_reassembly_.insert(hs_reassembly_.end(), record.payload.begin(),
                            record.payload.end());
      while (hs_reassembly_.size() >= 3) {
        const u8 msg_type = hs_reassembly_[0];
        const std::size_t len =
            read_u16(std::span<const u8>(hs_reassembly_.data() + 1, 2));
        // Refuse the claimed length up front instead of buffering toward it:
        // a 64 KB "ClientHello" is an attack, not a big hello, and waiting
        // for its tail would hold reassembly memory for the whole stall
        // budget.
        if (len > kMaxHandshakeBody) {
          return Status(ErrorCode::kAborted, "oversized handshake message");
        }
        if (hs_reassembly_.size() < 3 + len) break;
        // Transcript covers every handshake message except Finished.
        if (msg_type != kMsgFinished) {
          transcript_.update(
              std::span<const u8>(hs_reassembly_.data(), 3 + len));
        }
        std::vector<u8> body(hs_reassembly_.begin() + 3,
                             hs_reassembly_.begin() + 3 +
                                 static_cast<long>(len));
        hs_reassembly_.erase(hs_reassembly_.begin(),
                             hs_reassembly_.begin() + 3 +
                                 static_cast<long>(len));
        ++hs_messages_;
        hs_message_counter().add();
        Status s = handle_handshake_message(msg_type, body);
        if (!s.is_ok()) return s;
      }
      return Status::ok();
    }
    case RecordType::kApplicationData:
      if (state_ != SessionState::kEstablished) {
        return Status(ErrorCode::kAborted, "application data before Finished");
      }
      if (app_rx_.empty()) {
        app_rx_ = std::move(record.payload);
      } else {
        app_rx_.insert(app_rx_.end(), record.payload.begin(),
                       record.payload.end());
      }
      return Status::ok();
    case RecordType::kAlert: {
      const u8 code = record.payload.empty() ? 255 : record.payload[0];
      trace_hs(telemetry::IsslTrace::kAlertRecv, code);
      if (code == kAlertCloseNotify) {
        state_ = SessionState::kClosed;
        return Status::ok();
      }
      state_ = SessionState::kFailed;
      error_ = Status(ErrorCode::kAborted,
                      "peer alert " + std::to_string(code));
      return Status::ok();
    }
  }
  return Status(ErrorCode::kInternal, "unknown record type");
}

Status Session::handle_handshake_message(u8 msg_type,
                                         std::span<const u8> body) {
  switch (msg_type) {
    case kMsgClientHello: return on_client_hello(body);
    case kMsgServerHello: return on_server_hello(body);
    case kMsgClientKeyExchange: return on_client_key_exchange(body);
    case kMsgFinished: return on_finished(body);
    default:
      return Status(ErrorCode::kAborted, "unknown handshake message");
  }
}

Status Session::on_client_hello(std::span<const u8> body) {
  if (role_ != Role::kServer || state_ != SessionState::kAwaitClientHello) {
    return Status(ErrorCode::kAborted, "unexpected ClientHello");
  }
  // 34 fixed bytes, optionally followed by [id_len u8][session id] from a
  // resumption-capable client. A resumption-off server still parses the
  // field (and answers resumed=0) so a resuming client can fall back.
  if (body.size() < 34) {
    return Status(ErrorCode::kAborted, "malformed ClientHello");
  }
  std::span<const u8> offered_id;
  if (body.size() > 34) {
    const std::size_t id_len = body[34];
    if ((id_len != 0 && id_len != kSessionIdBytes) ||
        body.size() != 35 + id_len) {
      return Status(ErrorCode::kAborted, "malformed ClientHello");
    }
    peer_offered_ = true;
    offered_id = body.subspan(35, id_len);
  }
  std::memcpy(client_random_.data(), body.data(), 32);
  trace_hs(telemetry::IsslTrace::kHello, peer_offered_ ? 1 : 0);
  const auto kx = static_cast<KeyExchange>(body[32]);
  const std::size_t key_bytes = body[33];
  // The negotiation reproduces the port's dropped features: an embedded
  // server (PSK/128) refuses an RSA or 256-bit request outright.
  if (kx != config_.key_exchange) {
    return Status(ErrorCode::kAborted, "key exchange not supported");
  }
  if (key_bytes * 8 != config_.aes_key_bits) {
    return Status(ErrorCode::kAborted, "key length not supported");
  }
  if (config_.key_exchange == KeyExchange::kRsa && !identity_.rsa) {
    return Status(ErrorCode::kFailedPrecondition, "server has no RSA key");
  }

  // Cache consult: resume only when the stored cipher parameters still
  // match what this config would negotiate.
  ResumptionTicket cached;
  bool resume = false;
  if (config_.resumption && identity_.session_cache != nullptr &&
      offered_id.size() == kSessionIdBytes &&
      identity_.session_cache->lookup(offered_id, &cached)) {
    resume = cached.key_exchange == static_cast<u8>(config_.key_exchange) &&
             cached.key_bytes == config_.aes_key_bits / 8;
  }

  rng_->fill(server_random_);
  std::vector<u8> reply(server_random_.begin(), server_random_.end());
  reply.push_back(static_cast<u8>(config_.key_exchange));
  reply.push_back(static_cast<u8>(config_.aes_key_bits / 8));
  if (peer_offered_) {
    // Trailer [resumed u8][id_len u8][id] — present iff the client offered,
    // placed before the RSA pubkey so the client can parse unambiguously.
    reply.push_back(resume ? 1 : 0);
    if (resume) {
      std::memcpy(session_id_.data(), offered_id.data(), kSessionIdBytes);
      have_session_id_ = true;
    } else if (config_.resumption) {
      // Full handshake, but assign a fresh ID the client may resume later.
      rng_->fill(session_id_);
      have_session_id_ = true;
    }
    reply.push_back(have_session_id_ ? static_cast<u8>(kSessionIdBytes) : 0);
    if (have_session_id_) {
      reply.insert(reply.end(), session_id_.begin(), session_id_.end());
    }
  }
  if (!resume && config_.key_exchange == KeyExchange::kRsa) {
    const auto n_bytes = identity_.rsa->pub.n.to_bytes();
    const auto e_bytes = identity_.rsa->pub.e.to_bytes();
    append_u16(reply, n_bytes.size());
    reply.insert(reply.end(), n_bytes.begin(), n_bytes.end());
    append_u16(reply, e_bytes.size());
    reply.insert(reply.end(), e_bytes.begin(), e_bytes.end());
  }
  Status s = send_handshake(kMsgServerHello, reply);
  if (!s.is_ok()) return s;

  if (resume) {
    // Abbreviated handshake: keys come straight from the cached master and
    // the fresh randoms; no ClientKeyExchange, and the server's Finished
    // goes out first.
    resumed_ = true;
    trace_hs(telemetry::IsslTrace::kResumed);
    master_.assign(cached.master, cached.master + kMasterBytes);
    s = derive_keys_and_activate();
    if (!s.is_ok()) return s;
    const auto mac = finished_mac(Role::kServer);
    hs_cost_cycles_ += hmac_cycles(mac.size() + 20);
    s = send_handshake(kMsgFinished, mac);
    if (!s.is_ok()) return s;
    trace_hs(telemetry::IsslTrace::kFinished);
    sent_finished_ = true;
    state_ = SessionState::kAwaitFinished;
    return Status::ok();
  }
  state_ = SessionState::kAwaitClientKeyExchange;
  return Status::ok();
}

Status Session::on_server_hello(std::span<const u8> body) {
  if (role_ != Role::kClient || state_ != SessionState::kAwaitServerHello) {
    return Status(ErrorCode::kAborted, "unexpected ServerHello");
  }
  if (body.size() < 34) {
    return Status(ErrorCode::kAborted, "malformed ServerHello");
  }
  std::memcpy(server_random_.data(), body.data(), 32);
  const auto kx = static_cast<KeyExchange>(body[32]);
  const std::size_t key_bytes = body[33];
  if (kx != config_.key_exchange || key_bytes * 8 != config_.aes_key_bits) {
    return Status(ErrorCode::kAborted, "server chose unsupported parameters");
  }

  std::span<const u8> rest = body.subspan(34);
  if (offer_sent_) {
    // We put the ID field on the wire, so the server's reply carries the
    // [resumed u8][id_len u8][id] trailer ahead of any pubkey.
    if (rest.size() < 2) {
      return Status(ErrorCode::kAborted, "truncated resumption trailer");
    }
    const u8 resumed_flag = rest[0];
    const std::size_t id_len = rest[1];
    if (resumed_flag > 1 || (id_len != 0 && id_len != kSessionIdBytes) ||
        rest.size() < 2 + id_len) {
      return Status(ErrorCode::kAborted, "malformed resumption trailer");
    }
    if (id_len == kSessionIdBytes) {
      std::memcpy(session_id_.data(), rest.data() + 2, kSessionIdBytes);
      have_session_id_ = true;
    }
    rest = rest.subspan(2 + id_len);
    if (resumed_flag == 1) {
      if (offered_.valid == 0 || !have_session_id_ ||
          std::memcmp(session_id_.data(), offered_.id, kSessionIdBytes) !=
              0) {
        return Status(ErrorCode::kAborted,
                      "server resumed a session we did not offer");
      }
      // Abbreviated handshake: no premaster, no ClientKeyExchange. Derive
      // the key block from the ticket's master secret and wait for the
      // server's Finished (it comes first on this path).
      resumed_ = true;
      trace_hs(telemetry::IsslTrace::kResumed);
      master_.assign(offered_.master, offered_.master + kMasterBytes);
      Status s = derive_keys_and_activate();
      if (!s.is_ok()) return s;
      state_ = SessionState::kAwaitFinished;
      return Status::ok();
    }
  }

  std::vector<u8> cke;
  if (config_.key_exchange == KeyExchange::kRsa) {
    if (rest.size() < 2) return Status(ErrorCode::kAborted, "bad pubkey");
    const std::size_t n_len = read_u16(rest);
    if (rest.size() < 2 + n_len + 2) {
      return Status(ErrorCode::kAborted, "bad pubkey");
    }
    crypto::RsaPublicKey pub;
    pub.n = crypto::BigNum::from_bytes(rest.subspan(2, n_len));
    const std::size_t e_len = read_u16(rest.subspan(2 + n_len));
    if (rest.size() < 2 + n_len + 2 + e_len) {
      return Status(ErrorCode::kAborted, "bad pubkey");
    }
    pub.e = crypto::BigNum::from_bytes(rest.subspan(4 + n_len, e_len));
    // The key is the server's to choose, so bound it before computing with
    // it: an odd modulus (as Montgomery modexp requires) of at most
    // kMaxRsaModulusBits and at least the 12 bytes PKCS#1 needs to carry a
    // seed, and an odd exponent in (1, n). Anything else would hand a
    // hostile server an unbounded modexp on the client. The floor is in
    // bytes because a key generated for kMinRsaModulusBits may come out
    // one bit short.
    if (!pub.n.is_odd() || pub.modulus_bytes() < kMinRsaModulusBits / 8 ||
        pub.n.bit_length() > kMaxRsaModulusBits || !pub.e.is_odd() ||
        pub.e <= crypto::BigNum(1) || pub.e >= pub.n) {
      return Status(ErrorCode::kAborted, "bad pubkey");
    }
    server_pubkey_ = pub;

    premaster_.resize(kPremasterBytes);
    rng_->fill(premaster_);
    const std::size_t max_chunk = pub.modulus_bytes() - 11;
    const std::size_t chunk = std::min(premaster_.size(), max_chunk);
    auto ct = crypto::rsa_encrypt(
        pub, std::span<const u8>(premaster_.data(), chunk), *rng_);
    if (!ct.ok()) return ct.status();
    hs_cost_cycles_ += modexp_cycles(pub.n.bit_length(), pub.e.bit_length());
    if (chunk < kPremasterBytes) {
      // Small modulus: only `chunk` bytes travel. Both sides expand that
      // seed to the full 48 bytes (see expand_premaster) — the old code
      // silently truncated the premaster instead, quietly weakening the
      // master-secret derivation.
      premaster_.resize(chunk);
      Status s = expand_premaster();
      if (!s.is_ok()) return s;
    }
    append_u16(cke, ct->size());
    cke.insert(cke.end(), ct->begin(), ct->end());
  } else {
    if (psk_.empty()) {
      return Status(ErrorCode::kFailedPrecondition, "client has no PSK");
    }
    premaster_ = psk_;
    const auto proof = crypto::Sha1::digest(psk_);
    hs_cost_cycles_ += crypto::sha1_blocks(psk_.size()) * kSha1BlockCycles;
    cke.insert(cke.end(), proof.begin(), proof.end());
  }
  Status s = send_handshake(kMsgClientKeyExchange, cke);
  if (!s.is_ok()) return s;
  trace_hs(telemetry::IsslTrace::kKeyExchange);

  s = derive_master_from_premaster();
  if (!s.is_ok()) return s;
  s = derive_keys_and_activate();
  if (!s.is_ok()) return s;
  const auto mac = finished_mac(Role::kClient);
  hs_cost_cycles_ += hmac_cycles(mac.size() + 20);
  s = send_handshake(kMsgFinished, mac);
  if (!s.is_ok()) return s;
  trace_hs(telemetry::IsslTrace::kFinished);
  sent_finished_ = true;
  state_ = SessionState::kAwaitFinished;
  return Status::ok();
}

Status Session::on_client_key_exchange(std::span<const u8> body) {
  if (role_ != Role::kServer ||
      state_ != SessionState::kAwaitClientKeyExchange) {
    return Status(ErrorCode::kAborted, "unexpected ClientKeyExchange");
  }
  if (config_.key_exchange == KeyExchange::kRsa) {
    if (body.size() < 2) return Status(ErrorCode::kAborted, "bad CKE");
    const std::size_t len = read_u16(body);
    if (body.size() < 2 + len) return Status(ErrorCode::kAborted, "bad CKE");
    auto pm = crypto::rsa_decrypt(identity_.rsa->priv, body.subspan(2, len));
    if (!pm.ok()) return Status(ErrorCode::kAborted, "premaster decrypt failed");
    hs_cost_cycles_ += modexp_cycles(identity_.rsa->priv.n.bit_length(),
                                     identity_.rsa->priv.d.bit_length());
    premaster_ = std::move(*pm);
    if (premaster_.size() > kPremasterBytes) {
      return Status(ErrorCode::kAborted, "oversized premaster");
    }
    if (premaster_.size() < kPremasterBytes) {
      // Mirror of the client's small-modulus path: expand the carried seed
      // to the full 48 bytes so both sides derive the same master secret.
      Status s = expand_premaster();
      if (!s.is_ok()) return s;
    }
  } else {
    const auto expect = crypto::Sha1::digest(identity_.psk);
    hs_cost_cycles_ +=
        crypto::sha1_blocks(identity_.psk.size()) * kSha1BlockCycles;
    if (body.size() != expect.size() ||
        !common::ct_equal(body, expect)) {
      return Status(ErrorCode::kAborted, "PSK proof mismatch");
    }
    premaster_ = identity_.psk;
  }
  trace_hs(telemetry::IsslTrace::kKeyExchange);
  Status s = derive_master_from_premaster();
  if (!s.is_ok()) return s;
  s = derive_keys_and_activate();
  if (!s.is_ok()) return s;
  state_ = SessionState::kAwaitFinished;
  return Status::ok();
}

Status Session::on_finished(std::span<const u8> body) {
  if (state_ != SessionState::kAwaitFinished) {
    return Status(ErrorCode::kAborted, "unexpected Finished");
  }
  const Role peer = role_ == Role::kClient ? Role::kServer : Role::kClient;
  const auto expect = finished_mac(peer);
  hs_cost_cycles_ += hmac_cycles(expect.size() + 20);
  if (body.size() != expect.size() || !common::ct_equal(body, expect)) {
    return Status(ErrorCode::kAborted, "Finished verification failed");
  }
  // Whoever has not yet sent their Finished answers now: the server on the
  // full handshake, the client on the abbreviated one (where the server's
  // Finished came attached to its hello).
  if (!sent_finished_) {
    const auto mac = finished_mac(role_);
    hs_cost_cycles_ += hmac_cycles(mac.size() + 20);
    Status s = send_handshake(kMsgFinished, mac);
    if (!s.is_ok()) return s;
    trace_hs(telemetry::IsslTrace::kFinished);
    sent_finished_ = true;
  }
  state_ = SessionState::kEstablished;
  trace_hs(telemetry::IsslTrace::kEstablished, resumed_ ? 1 : 0);
  hs_complete_counter().add();
  if (resumed_) hs_resumed_counter().add();
  // A full handshake against a resumption-capable pair ends with the server
  // caching the session under the ID it assigned in the hello.
  if (role_ == Role::kServer && !resumed_ && config_.resumption &&
      identity_.session_cache != nullptr && have_session_id_) {
    identity_.session_cache->insert(
        session_id_, master_, static_cast<u8>(config_.key_exchange),
        static_cast<u8>(config_.aes_key_bits / 8));
  }
  fill_ticket();
  return Status::ok();
}

Status Session::expand_premaster() {
  // Small-modulus RSA: only a seed's worth of premaster crossed the wire.
  // Both sides run the identical PRF expansion over it, so the derived
  // master secret still consumes a full-width premaster. Explicit and
  // counted — the predecessor silently truncated instead.
  std::vector<u8> seed(client_random_.begin(), client_random_.end());
  seed.insert(seed.end(), server_random_.begin(), server_random_.end());
  std::vector<u8> full(kPremasterBytes);
  const std::string label = "premaster expansion";
  crypto::prf_sha1(premaster_,
                   std::span<const u8>(
                       reinterpret_cast<const u8*>(label.data()),
                       label.size()),
                   seed, full);
  premaster_ = std::move(full);
  premaster_expanded_ = true;
  premaster_expand_counter().add();
  hs_cost_cycles_ += prf_cycles(kPremasterBytes, seed.size());
  return Status::ok();
}

Status Session::derive_master_from_premaster() {
  std::vector<u8> randoms(client_random_.begin(), client_random_.end());
  randoms.insert(randoms.end(), server_random_.begin(), server_random_.end());

  master_.resize(kMasterBytes);
  const std::string master_label = "master secret";
  crypto::prf_sha1(premaster_,
                   std::span<const u8>(
                       reinterpret_cast<const u8*>(master_label.data()),
                       master_label.size()),
                   randoms, master_);
  hs_cost_cycles_ += prf_cycles(kMasterBytes, randoms.size());
  return Status::ok();
}

Status Session::derive_keys_and_activate() {
  // Snapshot the transcript: ClientHello..ClientKeyExchange on the full
  // handshake, ClientHello..ServerHello on the abbreviated one. master_
  // must already be set (derive_master_from_premaster or the cached
  // ticket).
  crypto::Sha1 copy = transcript_;
  transcript_hash_ = copy.finish();

  std::vector<u8> randoms(client_random_.begin(), client_random_.end());
  randoms.insert(randoms.end(), server_random_.begin(), server_random_.end());

  const std::size_t key_len = config_.aes_key_bits / 8;
  std::vector<u8> key_block(20 + 20 + key_len + key_len);
  const std::string key_label = "key expansion";
  crypto::prf_sha1(master_,
                   std::span<const u8>(
                       reinterpret_cast<const u8*>(key_label.data()),
                       key_label.size()),
                   randoms, key_block);

  DirectionKeys client_dir, server_dir;
  std::memcpy(client_dir.mac_key.data(), key_block.data(), 20);
  std::memcpy(server_dir.mac_key.data(), key_block.data() + 20, 20);
  client_dir.aes_key.assign(key_block.begin() + 40,
                            key_block.begin() + 40 + static_cast<long>(key_len));
  server_dir.aes_key.assign(
      key_block.begin() + 40 + static_cast<long>(key_len),
      key_block.begin() + 40 + static_cast<long>(2 * key_len));

  hs_cost_cycles_ +=
      prf_cycles(key_block.size(), randoms.size()) + 2 * kAesKeySetupCycles;
  if (role_ == Role::kClient) {
    return codec_.activate_keys(client_dir, server_dir);
  }
  return codec_.activate_keys(server_dir, client_dir);
}

void Session::fill_ticket() {
  if (!config_.resumption || !have_session_id_ ||
      master_.size() != kMasterBytes) {
    return;
  }
  std::memcpy(ticket_.id, session_id_.data(), kSessionIdBytes);
  std::memcpy(ticket_.master, master_.data(), kMasterBytes);
  ticket_.key_exchange = static_cast<u8>(config_.key_exchange);
  ticket_.key_bytes = static_cast<u8>(config_.aes_key_bits / 8);
  ticket_.valid = 1;
}

std::array<u8, 20> Session::finished_mac(Role sender) const {
  std::vector<u8> msg(transcript_hash_.begin(), transcript_hash_.end());
  const std::string label =
      sender == Role::kClient ? "client finished" : "server finished";
  msg.insert(msg.end(), label.begin(), label.end());
  return crypto::hmac_sha1(master_, msg);
}

Result<std::size_t> Session::write(std::span<const u8> data) {
  if (state_ != SessionState::kEstablished) {
    return Status(ErrorCode::kFailedPrecondition,
                  std::string("session not established: ") +
                      session_state_name(state_));
  }
  std::size_t sent = 0;
  while (sent < data.size()) {
    const std::size_t n = std::min(data.size() - sent, kMaxRecordPayload);
    auto wire = codec_.seal(RecordType::kApplicationData,
                            data.subspan(sent, n));
    if (!wire.ok()) return wire.status();
    auto w = stream_->write(*wire);
    if (!w.ok()) return w.status();
    sent += n;
  }
  return sent;
}

Result<std::vector<u8>> Session::read() {
  if (!app_rx_.empty()) {
    std::vector<u8> out;
    out.swap(app_rx_);
    return out;
  }
  if (state_ == SessionState::kClosed) return std::vector<u8>{};
  if (state_ == SessionState::kFailed) return error_;
  return Status(ErrorCode::kUnavailable, "no application data");
}

Status Session::close() {
  if (state_ == SessionState::kClosed) return Status::ok();
  Status s = send_alert(kAlertCloseNotify);
  state_ = SessionState::kClosed;
  return s;
}

}  // namespace rmc::issl

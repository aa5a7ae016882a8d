// issl sessions: the handshake state machine and the application-data API.
//
// This reproduces the paper's described functionality: "issl is a
// cryptographic library that layers on top of the Unix sockets layer to
// provide secure point-to-point communications. After a normal unencrypted
// socket is created, the issl API allows a user to bind to the socket and
// then do secure read/writes on it" (§2), with both key exchanges: RSA
// (Unix build) and pre-shared key (the embedded port that dropped RSA).
//
// Handshake (SSL-3.0-shaped, not wire-compatible with any RFC):
//   C -> S  ClientHello        client_random, requested kx + key size
//                              [+ session-ID offer when resumption is on]
//   S -> C  ServerHello        server_random, confirmation (+ RSA pubkey)
//                              [+ resumed flag and assigned/confirmed ID]
//   C -> S  ClientKeyExchange  RSA(premaster)  or  SHA1(psk) proof
//           -- both sides derive the key block and switch on encryption --
//   C -> S  Finished           HMAC(master, transcript || "client finished")
//   S -> C  Finished           HMAC(master, transcript || "server finished")
//
// Abbreviated handshake (resumption cache hit, DESIGN.md §10): the server
// answers the offered session ID with resumed=1, both sides derive the key
// block directly from the *cached* master secret and the fresh randoms —
// no RSA encrypt/decrypt, no ClientKeyExchange — and exchange Finished
// (server first). This cuts the dominant cycle cost out of reconnects.
//
// Everything is non-blocking: call pump() whenever the underlying transport
// may have made progress (from a costatement loop on the embedded side, a
// scheduler loop on the Unix side).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/prng.h"
#include "common/status.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "issl/config.h"
#include "issl/record.h"
#include "issl/session_cache.h"
#include "issl/stream.h"

namespace rmc::issl {

enum class Role { kClient, kServer };

/// Hard bound on the attacker-controlled [u8 type][u16 len] handshake
/// message length field. The largest legitimate message is a ServerHello
/// carrying the resumption trailer plus an RSA public key — well under a
/// kilobyte even for oversized moduli — so a peer claiming more is not
/// speaking the protocol. Without this bound the reassembly buffer would
/// dutifully hold up to 65535 claimed bytes per message waiting for a tail
/// that never comes (the fuzzer's favourite wedge shape).
inline constexpr std::size_t kMaxHandshakeBody = 2048;

enum class SessionState {
  kStart,
  kAwaitServerHello,        // client
  kAwaitClientHello,        // server
  kAwaitClientKeyExchange,  // server
  kAwaitFinished,           // both (peer's Finished)
  kEstablished,
  kClosed,   // clean close_notify
  kFailed,
};

const char* session_state_name(SessionState s);

/// What a server needs to identify itself / accept clients.
struct ServerIdentity {
  std::optional<crypto::RsaKeyPair> rsa;  // required for KeyExchange::kRsa
  std::vector<u8> psk;                    // required for KeyExchange::kPsk
  /// Resumption cache (owned by the service, shared across sessions). Only
  /// consulted when Config::resumption is on; null = every offer misses.
  SessionCache* session_cache = nullptr;
};

class Session {
 public:
  /// Client endpoint. For PSK configs, `psk` must match the server's. With
  /// resumption enabled, a valid `ticket` from a previous session is
  /// offered in the ClientHello; the server may resume or fall back.
  static Session client(const Config& config, ByteStream& stream,
                        common::Xorshift64& rng, std::vector<u8> psk = {},
                        const ResumptionTicket* ticket = nullptr);

  /// Server endpoint.
  static Session server(const Config& config, ByteStream& stream,
                        common::Xorshift64& rng, ServerIdentity identity);

  /// Drive the session: flush pending handshake messages, consume transport
  /// bytes, advance the state machine. Call repeatedly. Failures latch.
  common::Status pump();

  SessionState state() const { return state_; }
  bool established() const { return state_ == SessionState::kEstablished; }
  bool failed() const { return state_ == SessionState::kFailed; }
  bool closed() const { return state_ == SessionState::kClosed; }
  const common::Status& error() const { return error_; }

  /// Send application data (established sessions only).
  common::Result<std::size_t> write(std::span<const u8> data);

  /// Receive application data: kUnavailable = nothing yet; an empty vector
  /// = peer sent close_notify and the session is drained.
  common::Result<std::vector<u8>> read();

  /// Graceful close: sends the close_notify alert.
  common::Status close();

  // Introspection for tests and benches.
  std::size_t handshake_messages_seen() const { return hs_messages_; }
  const Config& config() const { return config_; }
  /// Consecutive pumps that made no progress while waiting on the peer
  /// (see Config::handshake_stall_limit). Progress means a complete record
  /// (or handshake message) arrived — raw trickled bytes do not count.
  std::size_t stalled_pumps() const { return stall_pumps_; }

  /// True once this session completed via the abbreviated (resumed) path.
  bool resumed() const { return resumed_; }
  /// The ticket for resuming this session later. valid=0 until the
  /// handshake completes with resumption negotiated on both sides.
  const ResumptionTicket& ticket() const { return ticket_; }
  /// True when the RSA premaster could not be carried intact (small
  /// modulus) and both sides derived it by SHA-1 expansion instead of the
  /// old silent truncation.
  bool premaster_expanded() const { return premaster_expanded_; }

  /// Deterministic estimate of the 30 MHz target's handshake crypto cost,
  /// accumulated as the state machine performs each operation (modexp, PRF,
  /// Finished MACs). This is a *model* — see the constants in session.cc —
  /// but it is exact virtual arithmetic, so bench JSON built from it is
  /// byte-reproducible. E11 uses it for the full-vs-resumed comparison.
  common::u64 handshake_cost_cycles() const { return hs_cost_cycles_; }

  /// Record-layer crypto work so far (RecordCodec::work).
  const RecordWork& record_work() const { return codec_.work(); }
  /// The configured engine answered its probe and carries record crypto.
  bool uses_engine() const { return codec_.uses_engine(); }
  /// An engine was configured but failed its probe: records run in software.
  bool engine_fallback() const { return codec_.engine_fallback(); }

  /// Modeled per-session SRAM footprint on the 16-bit target for a session
  /// built from `config`: state machine + record codec working set, the
  /// expanded AES key schedules (both directions), and the resumption
  /// ticket cache slot when resumption is on. Like handshake_cost_cycles()
  /// this is a *model* (constants documented in session.cc), but it is
  /// deterministic arithmetic — the services layer charges it against the
  /// per-connection allocator so the memory soak sizes sessions honestly.
  static std::size_t sram_footprint(const Config& config);

 private:
  Session(Role role, const Config& config, ByteStream& stream,
          common::Xorshift64& rng);

  common::Status fail(common::Status status);
  /// Emit a handshake-stage trace event (telemetry::IsslTrace) on the
  /// transport's connection track; a = role, b = event-specific word.
  void trace_hs(u8 event, common::u32 b = 0) const;
  common::Status send_alert(u8 code);
  common::Status send_handshake(u8 msg_type, std::span<const u8> body);
  common::Status flush_and_fill();
  common::Status handle_record(Record& record);
  common::Status handle_handshake_message(u8 msg_type,
                                          std::span<const u8> body);
  common::Status on_client_hello(std::span<const u8> body);
  common::Status on_server_hello(std::span<const u8> body);
  common::Status on_client_key_exchange(std::span<const u8> body);
  common::Status on_finished(std::span<const u8> body);
  common::Status expand_premaster();
  common::Status derive_master_from_premaster();
  common::Status derive_keys_and_activate();
  void fill_ticket();
  std::array<u8, 20> finished_mac(Role sender) const;

  Role role_;
  Config config_;
  ByteStream* stream_;
  common::Xorshift64* rng_;
  RecordCodec codec_;
  SessionState state_ = SessionState::kStart;
  common::Status error_;

  ServerIdentity identity_;   // server side
  std::vector<u8> psk_;       // client side
  std::array<u8, 32> client_random_{};
  std::array<u8, 32> server_random_{};
  std::vector<u8> premaster_;
  std::vector<u8> master_;
  std::optional<crypto::RsaPublicKey> server_pubkey_;  // client side, from hello
  crypto::Sha1 transcript_;
  std::array<u8, 20> transcript_hash_{};  // snapshot at key derivation
  bool sent_finished_ = false;
  std::vector<u8> hs_reassembly_;  // partial handshake messages
  std::vector<u8> app_rx_;
  std::size_t hs_messages_ = 0;
  std::size_t stall_pumps_ = 0;  // consecutive no-progress pumps
  std::size_t fill_bytes_ = 0;   // transport bytes consumed by last pump

  // Resumption state (DESIGN.md §10).
  ResumptionTicket offered_;           // client: ticket offered in the hello
  bool offer_sent_ = false;            // client put the ID field on the wire
  bool peer_offered_ = false;          // server saw the ID field
  std::array<u8, kSessionIdBytes> session_id_{};  // assigned/confirmed ID
  bool have_session_id_ = false;
  bool resumed_ = false;
  ResumptionTicket ticket_;            // filled once established
  bool premaster_expanded_ = false;
  common::u64 hs_cost_cycles_ = 0;     // modeled 30 MHz crypto cost
};

}  // namespace rmc::issl

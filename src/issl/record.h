// issl record layer: authenticated encryption of application and handshake
// data, SSL-3.0-vintage construction (MAC-then-encrypt, AES-CBC, per-record
// IV, sequence numbers against replay/reorder).
//
// Wire format of one record:
//   u8  type        (1=handshake, 2=application data, 3=alert)
//   u8  version     (0x30, "issl 3.0")
//   u16 length      (big-endian; bytes after the header)
//   [length bytes]  IV(16) || AES-CBC(plaintext || HMAC-SHA1(seq||type||plaintext))
//
// Handshake records before keys are derived travel in the clear
// ("null cipher"), as in SSL: the codec starts in plaintext mode and
// switches to sealed mode when activate_keys() installs the key block.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/prng.h"
#include "common/status.h"
#include "crypto/aes.h"
#include "crypto/sha1.h"
#include "issl/config.h"
#include "issl/engine.h"
#include "issl/stream.h"

namespace rmc::issl {

using common::u16;
using common::u32;
using common::u64;

enum class RecordType : u8 {
  kHandshake = 1,
  kApplicationData = 2,
  kAlert = 3,
};

inline constexpr u8 kIsslVersion = 0x30;
inline constexpr std::size_t kRecordHeaderBytes = 4;
inline constexpr std::size_t kMaxRecordPayload = 16 * 1024;
/// Hard bound on the attacker-controlled wire length field: the largest
/// body a legitimate record can carry is a maximum payload plus one IV,
/// a 20-byte MAC and a full pad block (16 + 16384 + 20 + 12 = 16432); 64
/// bytes of headroom over kMaxRecordPayload covers that exactly. A header
/// claiming more is malformed by construction and poisons the codec before
/// a single body byte is buffered on its behalf.
inline constexpr std::size_t kMaxRecordLen = kMaxRecordPayload + 64;

struct Record {
  RecordType type;
  std::vector<u8> payload;  // decrypted/verified plaintext
};

/// Directional key material.
struct DirectionKeys {
  std::vector<u8> aes_key;            // 16/24/32 bytes
  std::array<u8, 20> mac_key{};
};

class RecordCodec {
 public:
  /// `backend` picks where bulk crypto nominally runs; kEngine additionally
  /// needs `engine`. The choice only matters once keys are activated: the
  /// null-cipher phase does no crypto, and activate_keys() resolves kEngine
  /// down to kC when the engine is null or unavailable (engine_fallback()).
  /// Wire bytes are backend-independent by construction — kEngine computes
  /// the same MAC-then-encrypt with the same RNG-drawn IVs, just on the
  /// offload hardware.
  explicit RecordCodec(common::Xorshift64& rng,
                       Backend backend = Backend::kC,
                       RecordEngine* engine = nullptr)
      : rng_(&rng), backend_(backend), engine_(engine),
        effective_backend_(backend) {}

  /// Switch from the null cipher to sealed mode.
  common::Status activate_keys(const DirectionKeys& send,
                               const DirectionKeys& recv);
  bool sealed() const { return sealed_; }

  /// Frame (and after activation, encrypt+MAC) one record.
  common::Result<std::vector<u8>> seal(RecordType type,
                                       std::span<const u8> plaintext);

  /// Feed raw stream bytes into the reassembly buffer. Decoding is lazy —
  /// see pop() — because a record may arrive *before* the keys that decrypt
  /// it are activated (the peer pipelines ClientKeyExchange and Finished).
  common::Status feed(std::span<const u8> bytes);

  /// Decode and verify the next complete record. ok(nullopt) = need more
  /// bytes; an error (malformed header, MAC/padding failure) poisons the
  /// codec permanently — the fail-closed behaviour a tampered connection
  /// must have.
  common::Result<std::optional<Record>> pop();

  u64 records_sealed() const { return seq_send_; }
  u64 records_opened() const { return seq_recv_; }
  /// A MAC/padding/header failure latched; every later pop() fails too.
  bool poisoned() const { return poisoned_; }
  /// Structurally malformed input this codec refused: bad header (version /
  /// type / length over kMaxRecordLen), reassembly overflow, or a sealed
  /// body whose shape cannot be honest (length not a block multiple, unpad
  /// failure, shorter than its MAC). MAC mismatches are counted separately
  /// (issl.mac_failures) — those bytes were well-formed, just not authentic.
  u64 malformed_records() const { return malformed_records_; }
  /// Bytes sitting in reassembly (a non-zero value that never completes a
  /// record means the tail was lost — the session's stall watchdog keys
  /// off this).
  std::size_t buffered_bytes() const { return rx_buffer_.size(); }

  /// The backend actually in use after fallback resolution (meaningful once
  /// sealed; before activation it reports the configured choice).
  Backend effective_backend() const { return effective_backend_; }
  /// kEngine was requested but the engine was missing/unavailable at key
  /// activation, so records run through kC instead.
  bool engine_fallback() const { return engine_fallback_; }
  /// Modeled 30 MHz cycles spent on record crypto (MAC + CBC + key setup),
  /// accumulated per sealed/opened record under the effective backend's
  /// cost model; for kEngine this is the driver's measured stall cycles.
  /// Exact integer arithmetic, so bench JSON built on it is reproducible.
  u64 crypto_cost_cycles() const { return crypto_cost_cycles_; }

 private:
  /// Record one refused-as-malformed input, mirrored into the global
  /// `issl.malformed_records` counter.
  void note_malformed();
  common::Result<std::vector<u8>> open_payload(RecordType type,
                                               std::span<const u8> wire);
  std::vector<u8> mac_input(u64 seq, RecordType type,
                            std::span<const u8> plaintext) const;
  common::Result<std::array<u8, 20>> record_mac(
      const DirectionKeys& keys, u64 seq, RecordType type,
      std::span<const u8> plaintext);
  common::Result<std::vector<u8>> backend_cbc(bool encrypt,
                                              const DirectionKeys& keys,
                                              const crypto::AesFast& cipher,
                                              std::span<const u8> iv,
                                              std::span<const u8> data);

  common::Xorshift64* rng_;
  Backend backend_;
  RecordEngine* engine_;
  Backend effective_backend_ = Backend::kC;
  bool engine_fallback_ = false;
  u64 crypto_cost_cycles_ = 0;
  bool sealed_ = false;
  bool poisoned_ = false;
  u64 malformed_records_ = 0;
  DirectionKeys send_keys_;
  DirectionKeys recv_keys_;
  std::optional<crypto::AesFast> send_cipher_;
  std::optional<crypto::AesFast> recv_cipher_;
  u64 seq_send_ = 0;
  u64 seq_recv_ = 0;
  std::vector<u8> rx_buffer_;
};

}  // namespace rmc::issl

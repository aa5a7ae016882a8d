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
//
// Each record lives in one buffer. seal() writes the header, the IV, the
// plaintext, the MAC and the padding straight into the wire vector it
// returns and CBC-encrypts that in place; open decrypts the body straight
// into the payload vector pop() returns, checks the padding and the MAC
// there and trims them off. Reassembly is a common::ByteQueue consumed by
// offset, which frees its storage whenever it drains: an idle codec, like
// a drained or dead TCB beneath it, holds no buffer storage.
#pragma once

#include <optional>
#include <vector>

#include "common/byte_queue.h"
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
/// The most undecoded bytes feed() will hold: two maximum records and
/// their headers with room to spare. More means the peer is not speaking
/// the protocol. A reader that pops every complete record before feeding
/// again never needs more, as long as it feeds no more than this minus
/// what is already buffered (Session::flush_and_fill stops there).
inline constexpr std::size_t kMaxReassemblyBytes = 2 * (kMaxRecordLen + 64);

struct Record {
  RecordType type;
  std::vector<u8> payload;  // decrypted/verified plaintext
};

/// Directional key material.
struct DirectionKeys {
  std::vector<u8> aes_key;            // 16/24/32 bytes
  std::array<u8, 20> mac_key{};
};

/// The record layer's crypto work in kernel units, counted the same whether
/// software or the engine did it; benches price it at measured kernel costs.
struct RecordWork {
  u64 key_schedules = 0;  // AES key expansions, one per direction
  u64 aes_blocks = 0;     // 16-byte CBC blocks, either direction
  u64 sha1_blocks = 0;    // SHA-1 compressions of each full HMAC
  bool operator==(const RecordWork&) const = default;
};

class RecordCodec {
 public:
  /// A non-null `engine` that answers its probe at activate_keys() carries
  /// record crypto; otherwise it runs in software. Wire bytes are the same
  /// either way: same MAC-then-encrypt, same RNG-drawn IVs.
  explicit RecordCodec(common::Xorshift64& rng, RecordEngine* engine = nullptr)
      : rng_(&rng), engine_(engine) {}

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

  /// The engine answered its probe at activate_keys().
  bool uses_engine() const { return use_engine_; }
  /// An engine was configured but failed its probe: records run in software.
  bool engine_fallback() const { return engine_fallback_; }
  /// Crypto work done so far: two key schedules at activation, then each
  /// sealed or opened record's CBC blocks and HMAC compressions.
  const RecordWork& work() const { return work_; }

 private:
  /// Record one refused-as-malformed input, mirrored into the global
  /// `issl.malformed_records` counter.
  void note_malformed();
  /// One direction's key material once activated: the raw keys (what the
  /// engine loads) and the host cipher and HMAC states built from them
  /// once, not per record.
  struct Direction {
    DirectionKeys keys;
    crypto::AesFast cipher;
    crypto::HmacSha1Key mac;
  };

  common::Result<std::vector<u8>> open_payload(RecordType type,
                                               std::span<const u8> wire);
  common::Result<std::array<u8, 20>> record_mac(
      const Direction& dir, u64 seq, RecordType type,
      std::span<const u8> plaintext);
  /// CBC `in` into `out` (same length; may be the same buffer).
  common::Status cbc(bool encrypt, const Direction& dir,
                     std::span<const u8> iv, std::span<const u8> in,
                     std::span<u8> out);

  common::Xorshift64* rng_;
  RecordEngine* engine_;
  bool use_engine_ = false;
  bool engine_fallback_ = false;
  RecordWork work_;
  bool sealed_ = false;
  bool poisoned_ = false;
  u64 malformed_records_ = 0;
  std::optional<Direction> send_;
  std::optional<Direction> recv_;
  u64 seq_send_ = 0;
  u64 seq_recv_ = 0;
  common::ByteQueue rx_buffer_;
};

}  // namespace rmc::issl

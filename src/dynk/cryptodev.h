// CryptoDev — the Dynamic C-style driver for the CryptoCell offload engine.
//
// The driver owns the engine's programming model the way a Dynamic C
// library owns a peripheral: it probes the identity register (a floating
// bus reads 0xFF, so a stock board without the expansion card fails the
// probe and every op reports kUnavailable), lays the descriptor ring and
// bounce buffers out in SRAM, manages the 8 hardware key slots as a
// content-addressed LRU cache so the record layer can stay key-stateless,
// and exposes two call styles:
//
//   * blocking — aes_cbc()/hmac_sha1() submit and spin the bus's tick()
//     until the busy bit clears (the simple foreground-loop shape);
//   * async — submit_*() then poll(quantum) from a costatement/cofunction:
//     poll ticks the bus a quantum at a time and returns kUnavailable
//     until the op completes, which is exactly the waitfor() idiom.
//
// Cycles the CPU spends waiting on the engine are accumulated in
// stall_cycles_total() (and the `cryptocell.stall_cycles` telemetry
// counter); completed data ops count in `cryptocell.ops`. The blocking API
// implements issl::RecordEngine, making CryptoDev the bridge between the
// issl record layer and the rabbit peripheral without issl ever linking
// against either.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "issl/engine.h"
#include "rabbit/cryptocell.h"
#include "rabbit/io.h"
#include "rabbit/memory.h"

namespace rmc::dynk {

using common::u16;
using common::u32;
using common::u64;
using common::u8;

class CryptoDev : public issl::RecordEngine {
 public:
  /// SRAM carve-out for the ring and bounce buffers. Defaults sit above the
  /// stack segment (0x8E000+) and below the top of SRAM, clear of the data
  /// segment the board maps at 0x80000.
  struct Layout {
    u32 ring = 0x90000;         // ring_capacity * 16 descriptor bytes
    u8 ring_capacity = 16;
    u32 key_staging = 0x90100;  // 64 B, key bytes for slot loads
    u32 iv = 0x90140;           // 16 B
    u32 digest = 0x90150;       // 20 B, HMAC output
    u32 src = 0x94000;          // kMaxDataBytes, op input
    u32 dst = 0x99000;          // kMaxDataBytes, op output
  };

  /// Largest single op: an issl record (16 KiB plaintext) plus MAC, padding
  /// and slack. Larger requests fail kInvalidArgument instead of clipping.
  static constexpr std::size_t kMaxDataBytes = 0x4800;

  /// Probes once at construction; re-probe with probe() after attaching or
  /// detaching hardware.
  CryptoDev(rabbit::IoBus& bus, rabbit::Memory& mem, u16 base, Layout layout);
  CryptoDev(rabbit::IoBus& bus, rabbit::Memory& mem, u16 base = 0x0100)
      : CryptoDev(bus, mem, base, Layout{}) {}

  /// Re-read the identity register; updates available().
  bool probe();
  bool available() const override { return present_; }

  // --- Blocking ops (issl::RecordEngine) ---------------------------------
  common::Result<std::vector<u8>> aes_cbc(bool encrypt,
                                          std::span<const u8> key,
                                          std::span<const u8> iv,
                                          std::span<const u8> data) override;
  common::Result<std::array<u8, 20>> hmac_sha1(
      std::span<const u8> key, std::span<const u8> message) override;

  // --- Async ops (cofunction-friendly) -----------------------------------
  /// Stage and start an op; at most one op may be outstanding
  /// (kFailedPrecondition otherwise, kUnavailable when no engine).
  common::Status submit_aes_cbc(bool encrypt, std::span<const u8> key,
                                std::span<const u8> iv,
                                std::span<const u8> data);
  common::Status submit_hmac_sha1(std::span<const u8> key,
                                  std::span<const u8> message);
  bool op_pending() const { return pending_.kind != Pending::kNone; }
  /// Advance the bus `quantum` cycles and check the status register:
  /// kUnavailable while the engine is still busy (call again — the waitfor
  /// shape), Ok once the op completed (fetch results with take_data() /
  /// take_digest()), or the mapped engine error.
  common::Status poll(u64 quantum = 256);
  /// Output of the completed AES op (valid after poll() returned Ok).
  std::vector<u8> take_data();
  /// Digest of the completed HMAC op (valid after poll() returned Ok).
  std::array<u8, 20> take_digest();

  // --- Introspection ------------------------------------------------------
  u64 stall_cycles_total() const { return stall_cycles_; }
  u64 ops_completed() const { return ops_; }
  u64 key_loads() const { return key_loads_; }
  u64 key_cache_hits() const { return key_cache_hits_; }
  u64 engine_errors() const { return engine_errors_; }

 private:
  struct Pending {
    enum Kind : u8 { kNone, kAes, kHmac } kind = kNone;
    std::size_t len = 0;
  };
  struct SlotCache {
    bool used = false;
    bool mac = false;
    std::vector<u8> key;
    u64 last_use = 0;
  };

  u8 rd(u16 reg);
  void wr(u16 reg, u8 value);
  void write_addr24(u32 desc_field_phys, u32 addr);
  /// Write descriptor `fields` into ring slot tail_ and advance tail_.
  void push_descriptor(rabbit::CryptoCellOp op, u8 slot, u32 src, u32 dst,
                       std::size_t len, u32 iv_addr);
  void program_ring();
  /// GO + spin until idle; classifies CCSR into a Status. Used for key
  /// loads and as the engine half of the blocking ops.
  common::Status run_to_completion();
  /// After an error latch: ack, soft-reset the engine (its ring halts at
  /// the bad descriptor), reprogram, and drop the key cache (slots were
  /// cleared by the reset).
  common::Status recover(const char* what);
  /// Ensure `key` occupies a hardware slot of the right kind; returns the
  /// slot index. Loads through the ring (blocking) on a cache miss,
  /// evicting the least-recently-used slot.
  common::Result<int> ensure_key(bool mac, std::span<const u8> key);
  common::Status stage_and_go(rabbit::CryptoCellOp op,
                              std::span<const u8> key,
                              std::span<const u8> iv,
                              std::span<const u8> data);

  rabbit::IoBus* bus_;
  rabbit::Memory* mem_;
  u16 base_;
  Layout layout_;
  bool present_ = false;
  bool ring_programmed_ = false;
  u8 tail_ = 0;
  Pending pending_;
  u64 lru_clock_ = 0;
  std::array<SlotCache, rabbit::CryptoCell::kKeySlots> slot_cache_;

  u64 stall_cycles_ = 0;
  u64 ops_ = 0;
  u64 key_loads_ = 0;
  u64 key_cache_hits_ = 0;
  u64 engine_errors_ = 0;
};

}  // namespace rmc::dynk

// Durable bookkeeping over battery-backed RAM (paper §4.3 extended).
//
// ProtectedVar protects a single in-RAM value across one interrupted store.
// The redirector needs more: counters and configuration that survive an
// unbounded sequence of watchdog bites and power cuts, with torn updates
// *detected* rather than silently half-applied. DurableVar<T> provides that
// with the classic two-slot commit protocol one writes for EEPROM/NVRAM:
//
//   slot = the one NOT holding the newest committed value
//   slot.valid = 0                       -> [durable.open]
//   slot.value = v   (multibyte, tearable at [durable.mid])
//   slot.seq   = newest_seq + 1
//   slot.sum   = fletcher32(value, seq)  -> [durable.commit]
//   slot.valid = 1                       <- the single-byte commit point
//
// A cut anywhere before the final byte leaves the previous slot untouched
// and committed; load() picks the valid slot with the good checksum and the
// highest sequence number. A started-vs-committed counter pair (also
// battery-backed) makes the tear observable: started != committed at load
// means the last write never landed, reported as kTornRecovered.
//
// Everything lives in ordinary members because in this model "battery-backed"
// means "owned by the supervisor object that outlives board resets" — the
// same trick BatteryFile uses for the ring log.
#pragma once

#include <cstring>
#include <type_traits>

#include "common/bytes.h"
#include "dynk/power.h"

namespace rmc::dynk {

/// Fletcher-32 over a raw byte span — cheap enough for an 8-bit part, strong
/// enough to catch a torn multibyte write.
inline common::u32 fletcher32(const common::u8* data, std::size_t len) {
  common::u32 a = 0xFFFF, b = 0xFFFF;
  while (len > 0) {
    std::size_t chunk = len > 359 ? 359 : len;
    len -= chunk;
    while (chunk-- > 0) {
      a += *data++;
      b += a;
    }
    a = (a & 0xFFFF) + (a >> 16);
    b = (b & 0xFFFF) + (b >> 16);
  }
  a = (a & 0xFFFF) + (a >> 16);
  b = (b & 0xFFFF) + (b >> 16);
  return (b << 16) | a;
}

enum class DurableLoadOutcome : common::u8 {
  kEmpty,          // nothing ever committed
  kClean,          // newest committed value, no interrupted write pending
  kTornRecovered,  // an interrupted write was detected; fell back to the
                   // newest committed value (possibly none -> value is T{})
};

inline const char* durable_outcome_name(DurableLoadOutcome o) {
  switch (o) {
    case DurableLoadOutcome::kEmpty: return "empty";
    case DurableLoadOutcome::kClean: return "clean";
    case DurableLoadOutcome::kTornRecovered: return "torn-recovered";
  }
  return "?";
}

template <typename T>
class DurableVar {
  static_assert(std::is_trivially_copyable_v<T>,
                "durable variables are raw battery-backed bytes");

 public:
  struct LoadResult {
    DurableLoadOutcome outcome = DurableLoadOutcome::kEmpty;
    T value{};
    common::u64 seq = 0;
  };

  DurableVar() = default;
  explicit DurableVar(PowerMonitor* mon) : mon_(mon) {}

  void attach_power(PowerMonitor* mon) { mon_ = mon; }

  /// Two-slot committed write. Returns false when a power cut interrupted
  /// it (the previous committed value is still intact and recoverable).
  bool store(const T& v) {
    ++writes_started_;
    Slot& dst = slots_[target_slot()];
    const common::u64 new_seq = newest_seq() + 1;
    dst.valid = 0;
    if (trip("durable.open")) return false;
    // Multibyte value write, tearable half-way.
    std::memcpy(reinterpret_cast<common::u8*>(&dst.value), &v, sizeof(T) / 2);
    if (trip("durable.mid")) return false;
    std::memcpy(reinterpret_cast<common::u8*>(&dst.value) + sizeof(T) / 2,
                reinterpret_cast<const common::u8*>(&v) + sizeof(T) / 2,
                sizeof(T) - sizeof(T) / 2);
    dst.seq = new_seq;
    dst.sum = slot_sum(dst);
    if (trip("durable.commit")) return false;
    dst.valid = 1;  // single-byte commit point
    ++writes_committed_;
    return true;
  }

  /// Recovery read: newest committed value plus what the write history says
  /// happened. Reconciles the started/committed counters so a detected tear
  /// is reported exactly once.
  LoadResult load() {
    LoadResult r;
    const Slot* best = nullptr;
    for (const Slot& s : slots_) {
      if (s.valid != 1 || s.sum != slot_sum(s)) continue;
      if (!best || s.seq > best->seq) best = &s;
    }
    const bool torn = writes_started_ != writes_committed_;
    writes_started_ = writes_committed_;
    if (best) {
      r.value = best->value;
      r.seq = best->seq;
      r.outcome =
          torn ? DurableLoadOutcome::kTornRecovered : DurableLoadOutcome::kClean;
    } else {
      r.outcome = torn ? DurableLoadOutcome::kTornRecovered
                       : DurableLoadOutcome::kEmpty;
    }
    return r;
  }

  /// Peek without reconciling (for invariant audits).
  common::u64 newest_seq() const {
    common::u64 best = 0;
    for (const Slot& s : slots_) {
      if (s.valid == 1 && s.sum == slot_sum(s) && s.seq > best) best = s.seq;
    }
    return best;
  }

  bool tear_pending() const { return writes_started_ != writes_committed_; }
  common::u64 writes_started() const { return writes_started_; }
  common::u64 writes_committed() const { return writes_committed_; }

 private:
  struct Slot {
    T value{};
    common::u64 seq = 0;
    common::u32 sum = 0;
    common::u8 valid = 0;
  };

  static common::u32 slot_sum(const Slot& s) {
    common::u8 buf[sizeof(T) + sizeof(common::u64)];
    std::memcpy(buf, &s.value, sizeof(T));
    std::memcpy(buf + sizeof(T), &s.seq, sizeof(common::u64));
    return fletcher32(buf, sizeof(buf));
  }

  /// Write into whichever slot is NOT the newest committed one.
  std::size_t target_slot() const {
    const common::u64 s0 = (slots_[0].valid == 1) ? slots_[0].seq : 0;
    const common::u64 s1 = (slots_[1].valid == 1) ? slots_[1].seq : 0;
    if (slots_[0].valid != 1) return 0;
    if (slots_[1].valid != 1) return 1;
    return s0 <= s1 ? 0 : 1;
  }

  bool trip(const char* site) { return mon_ && mon_->step(site); }

  Slot slots_[2];
  common::u64 writes_started_ = 0;
  common::u64 writes_committed_ = 0;
  PowerMonitor* mon_ = nullptr;
};

}  // namespace rmc::dynk

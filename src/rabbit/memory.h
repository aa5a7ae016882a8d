// Rabbit 2000 memory subsystem: 64 KiB logical address space over 1 MiB of
// physical memory via segment registers (the "bank switching" the paper's §4
// describes).
//
// Logical map (matches the paper's description: "The lower 50K is fixed, root
// memory, ... and the top 8K is bank-switched access to the remaining
// memory"):
//
//   0x0000 .. data_base-1    root segment   phys = logical
//   data_base .. stack_base-1 data segment  phys = logical + DATASEG*0x1000
//   stack_base .. 0xDFFF     stack segment  phys = logical + STACKSEG*0x1000
//   0xE000 .. 0xFFFF         XPC window     phys = logical + XPC*0x1000
//
// data_base / stack_base come from the two nibbles of SEGSIZE, as on the real
// part. All physical addresses wrap modulo 1 MiB.
//
// Translation fast path. Every segment boundary the hardware can express is
// 4 KiB-aligned (SEGSIZE nibbles select 4K pages, the XPC window sits at
// 0xE000), so the whole translation collapses to a 16-entry page->delta
// table: phys = (logical + page_delta_[logical >> 12]) & 0xFFFFF. The table
// is rebuilt on any SEGSIZE/DATASEG/STACKSEG write, and an XPC write updates
// the window's two entries — that write *is* the cache invalidation, so
// straight-line code pays one add+mask per access and bank switches stay
// exact.
//
// Physically, the RMC2000 kit has 512 KiB flash at 0x00000 and 128 KiB SRAM
// at 0x80000. We model one flat megabyte but track the flash boundary: CPU
// stores into flash are ignored (and counted), because that is what a real
// board does without the flash write-state-machine dance — a genuine porting
// hazard ("variables initialized in a declaration are stored in flash memory
// and cannot be changed", §4.1).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace rmc::rabbit {

using common::u8;
using common::u16;
using common::u32;
using common::u64;

/// Notified when a store lands in a physical page somebody decoded code
/// from (rabbit::Cpu's predecoded micro-op cache registers itself here).
/// The watch fires for CPU stores, loader pokes, and peripheral DMA alike —
/// anything that can make cached decodings stale.
class CodeWatch {
 public:
  virtual ~CodeWatch() = default;
  virtual void on_code_write(u32 phys) = 0;
};

class Memory {
 public:
  static constexpr u32 kPhysSize = 1U << 20;        // 1 MiB
  static constexpr u32 kFlashSize = 512U * 1024U;   // 0x00000..0x7FFFF
  static constexpr u16 kXpcWindowBase = 0xE000;
  static constexpr u32 kPageSize = 0x1000;          // translation granularity
  static constexpr u32 kPhysPages = kPhysSize / kPageSize;

  Memory();

  // --- Segment registers -------------------------------------------------
  void set_segsize(u8 v) { segsize_ = v; rebuild_page_map(); }
  void set_dataseg(u8 v) { dataseg_ = v; rebuild_page_map(); }
  void set_stackseg(u8 v) { stackseg_ = v; rebuild_page_map(); }
  /// The XPC window (pages 0xE and 0xF) maps through XPC whatever SEGSIZE
  /// says, so an XPC write moves only those two deltas.
  void set_xpc(u8 v) {
    xpc_ = v;
    const u32 delta = static_cast<u32>(v) << 12;
    page_delta_[0xE] = delta;  // 0xE000..0xEFFF
    page_delta_[0xF] = delta;  // 0xF000..0xFFFF
  }
  u8 segsize() const { return segsize_; }
  u8 dataseg() const { return dataseg_; }
  u8 stackseg() const { return stackseg_; }
  u8 xpc() const { return xpc_; }

  /// First logical address of the data segment (low nibble of SEGSIZE).
  u16 data_base() const { return static_cast<u16>((segsize_ & 0x0F) << 12); }
  /// First logical address of the stack segment (high nibble of SEGSIZE).
  u16 stack_base() const { return static_cast<u16>((segsize_ & 0xF0) << 8); }

  /// Translate a 16-bit logical address to a 20-bit physical address using
  /// the current segment registers (one table lookup; see header comment).
  u32 translate(u16 logical) const {
    return (static_cast<u32>(logical) + page_delta_[logical >> 12]) &
           (kPhysSize - 1);
  }

  // --- CPU-visible accesses (logical, translated) ------------------------
  u8 read(u16 logical) const { return phys_[translate(logical)]; }
  void write(u16 logical, u8 value) {
    const u32 phys = translate(logical);
    if (!flash_writable_ && phys < kFlashSize) {
      ++flash_write_faults_;
      return;
    }
    if (code_pages_[phys / kPageSize]) code_write(phys);
    phys_[phys] = value;
  }

  u16 read16(u16 logical) const {
    return common::make16(read(logical), read(static_cast<u16>(logical + 1)));
  }
  void write16(u16 logical, u16 value) {
    write(logical, common::lo8(value));
    write(static_cast<u16>(logical + 1), common::hi8(value));
  }

  // --- Loader / host accesses (physical, untranslated) -------------------
  u8 read_phys(u32 phys) const { return phys_[phys % kPhysSize]; }
  void write_phys(u32 phys, u8 value) {
    phys %= kPhysSize;
    if (code_pages_[phys / kPageSize]) code_write(phys);
    phys_[phys] = value;
  }
  void load(u32 phys, std::span<const u8> image);
  std::vector<u8> dump(u32 phys, std::size_t len) const;

  /// Number of CPU stores that targeted flash and were dropped.
  u64 flash_write_faults() const { return flash_write_faults_; }

  /// When false (default) the flash region is write-protected against CPU
  /// stores. The loader's write_phys/load always succeed.
  void set_flash_writable(bool writable) { flash_writable_ = writable; }

  // --- Code-cache coherence ----------------------------------------------
  /// Register the consumer of on_code_write callbacks (nullptr detaches).
  void set_code_watch(CodeWatch* watch) { watch_ = watch; }
  /// Mark a physical page as containing decoded code; every store into it
  /// fires the watch from then on (the watch invalidates per byte, so the
  /// mark must persist).
  void watch_code_page(u32 page) { code_pages_[page % kPhysPages] = 1; }

  /// Raw backing store + translation table, for the interpreter's inlined
  /// fetch path. The pointers stay valid for the Memory's lifetime; writes
  /// through raw_phys() bypass the flash guard and code watch, so the CPU
  /// core uses them for reads/fetches only.
  const u8* raw_phys() const { return phys_.data(); }
  const u32* page_deltas() const { return page_delta_.data(); }

 private:
  void rebuild_page_map();
  void code_write(u32 phys);

  std::vector<u8> phys_;
  std::array<u32, 16> page_delta_{};
  std::array<u8, kPhysPages> code_pages_{};
  u8 segsize_ = 0xD6;  // data segment at 0x6000, stack segment at 0xD000
  u8 dataseg_ = 0;
  u8 stackseg_ = 0;
  u8 xpc_ = 0;
  bool flash_writable_ = false;
  u64 flash_write_faults_ = 0;
  CodeWatch* watch_ = nullptr;
};

}  // namespace rmc::rabbit

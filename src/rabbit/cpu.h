// Rabbit 2000 CPU core: a cycle-counting interpreter for the Z80-derived
// instruction set the RMC2000's processor executes.
//
// Scope. We implement the Z80 core subset that our assembler (src/rasm) and
// compiler (src/dcc) emit, plus the Rabbit-specific instructions the paper's
// experiments rely on:
//   * `MUL`            — 16x16 signed multiply, HL:BC = BC * DE
//   * `BOOL HL`        — HL = (HL != 0)
//   * `LD XPC,A` / `LD A,XPC` — bank-switch the 8 KiB xmem window
//   * `LCALL` / `LJP` / `LRET` — far control flow across banks
// Standard Z80 encodings are used for the Z80 core. Rabbit-specific forms
// use ED-prefixed encodings of our own choosing (documented next to each
// case); we control both the assembler and this core, and make no claim of
// binary compatibility with real Rabbit ROM images.
//
// Dispatch. Two interchangeable execution paths produce the same
// architectural stream (DESIGN.md §15):
//   * kLegacy — the original one-switch-per-opcode `step()` loop; every
//     instruction decodes from scratch and peripherals tick per step.
//   * kFast   — `run()` predecodes instructions into per-physical-page
//     micro-op tables and dispatches them through computed gotos. It
//     fetches along the program: after an instruction that falls through,
//     the next micro-op is the slot its kind's constant length further on
//     in the same decode page, and the PC goes through the segment table
//     again only after a taken control transfer, an XPC write or a return
//     from step(). Per-step attribution lives in a second instance of the
//     loop, chosen once per run from whether an observer is attached.
//     Peripheral ticks are batched between I/O boundaries, which
//     is observationally identical because every peripheral's tick() is an
//     additive accumulator.
// The fast path only runs while interrupts are globally disabled and no
// breakpoints are set; anything needing per-step precision (EI/HALT/RETI,
// pending IRQs, breakpoints, illegal opcodes) drops to the legacy step.
// `RMC_DISPATCH=legacy|fast` selects the default at process start; the
// scripts/check.sh dispatch matrix holds the two paths to byte-identical
// bench JSON.
//
// Cycle model. Per-instruction costs follow the *shape* of the Rabbit 2000
// datasheet (register ops 2, immediate 4-ish, memory 5-13, call/ret 8-12,
// far calls ~19). Absolute values are approximations; the experiments in
// bench/ depend only on ratios between builds running on this same model.
//
// Flags. S, Z, H, P/V, N, C with conventional Z80 arithmetic semantics
// (P/V = overflow for add/sub/cp, parity for logicals). The undocumented
// X/Y copy bits are not modelled (bits 3/5 of F are only ever written by
// explicit F loads such as POP AF, and are preserved elsewhere).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "rabbit/io.h"
#include "rabbit/memory.h"

namespace rmc::rabbit {

/// Flag bit positions within F.
struct Flag {
  static constexpr u8 C = 0x01;  // carry
  static constexpr u8 N = 0x02;  // add/subtract
  static constexpr u8 PV = 0x04; // parity / overflow
  static constexpr u8 H = 0x10;  // half carry
  static constexpr u8 Z = 0x40;  // zero
  static constexpr u8 S = 0x80;  // sign
  /// Unmodelled bits 3/5: preserved by every flag-writing instruction,
  /// settable only through explicit F stores (POP AF, EX AF,AF').
  static constexpr u8 kUnmodelled = 0x28;
};

struct Registers {
  u8 a = 0, f = 0, b = 0, c = 0, d = 0, e = 0, h = 0, l = 0;
  u8 a2 = 0, f2 = 0, b2 = 0, c2 = 0, d2 = 0, e2 = 0, h2 = 0, l2 = 0;  // alt set
  u16 ix = 0, iy = 0, sp = 0, pc = 0;

  u16 af() const { return common::make16(f, a); }
  u16 bc() const { return common::make16(c, b); }
  u16 de() const { return common::make16(e, d); }
  u16 hl() const { return common::make16(l, h); }
  void set_af(u16 v) { f = common::lo8(v); a = common::hi8(v); }
  void set_bc(u16 v) { c = common::lo8(v); b = common::hi8(v); }
  void set_de(u16 v) { e = common::lo8(v); d = common::hi8(v); }
  void set_hl(u16 v) { l = common::lo8(v); h = common::hi8(v); }
};

/// Zero-virtual-call per-step attribution channel. An observer that can
/// accept raw array increments (telemetry::CycleProfiler) exposes one of
/// these; the CPU then attributes each step with two indexed adds instead
/// of a virtual on_step() and a region search. The pointers stay owned by
/// the observer, which may repoint them (e.g. on a profiler phase switch) —
/// the CPU re-reads them every step.
struct StepSink {
  const u16* region_of = nullptr;  // dense phys -> region index, 1 MiB entries
  u64* cycles = nullptr;           // per-region cycle accumulators
  u64* steps = nullptr;            // per-region step counts
};

/// Per-instruction observation hook (telemetry::CycleProfiler implements
/// this). `pc` is the logical PC *before* the instruction (or before the
/// interrupt/halt tick), `phys_pc` its physical translation under the
/// segment registers in force at fetch time, `cycles` the cost of this
/// step. The observer sees every cycle the CPU accounts — instruction,
/// interrupt dispatch, and halted idle ticks alike — so a consumer's totals
/// can be reconciled against cycles() exactly. When no observer is attached
/// the core behaves bit-identically to a build without the hook.
class CpuObserver {
 public:
  virtual ~CpuObserver() = default;
  virtual void on_step(u16 pc, u32 phys_pc, unsigned cycles) = 0;
  /// Optional fast path: return a StepSink to receive attributions as raw
  /// array increments instead of on_step() calls. Default: none.
  virtual const StepSink* step_sink() const { return nullptr; }
};

/// Reasons `run` stopped.
enum class StopReason {
  kRunning,      // never returned by run(); initial state
  kHalted,       // executed HALT
  kCycleLimit,   // exceeded the budget passed to run()
  kBreakpoint,   // hit an address registered with add_breakpoint()
  kIllegal,      // undecodable opcode
};

/// Interpreter execution strategies (see file header).
enum class DispatchMode { kLegacy, kFast };

class Cpu : public CodeWatch {
 public:
  Cpu(Memory& mem, IoBus& io) : mem_(mem), io_(io) {
    mem_.set_code_watch(this);
    dispatch_ = default_dispatch();
    reg8_ = {&regs_.b, &regs_.c, &regs_.d, &regs_.e,
             &regs_.h, &regs_.l, nullptr, &regs_.a};
  }
  ~Cpu() override { mem_.set_code_watch(nullptr); }
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  Registers& regs() { return regs_; }
  const Registers& regs() const { return regs_; }
  Memory& mem() { return mem_; }

  void reset();

  /// Execute one instruction (or service one interrupt). Returns cycles
  /// consumed. Peripherals are ticked by the same amount.
  unsigned step();

  /// Run until HALT / cycle budget / breakpoint / illegal opcode.
  StopReason run(u64 max_cycles);

  /// Select the execution strategy for subsequent run() calls. The
  /// process-wide default honors RMC_DISPATCH=legacy|fast (fast otherwise).
  void set_dispatch(DispatchMode m) { dispatch_ = m; }
  DispatchMode dispatch() const { return dispatch_; }
  static DispatchMode default_dispatch();

  u64 cycles() const { return cycles_; }
  u64 instructions_retired() const { return instructions_; }
  bool halted() const { return halted_; }
  void clear_halt() { halted_ = false; }
  bool iff() const { return iff_; }
  void set_iff(bool v) { iff_ = v; }

  /// Debug-hook trap counter: every RST 28h executed (Dynamic C inserts
  /// RST 28h before each C statement when debugging is enabled; the
  /// `-fnodebug` knob in src/dcc removes them).
  u64 debug_traps() const { return debug_traps_; }

  /// Attach / detach the per-instruction observer. Pass nullptr to detach.
  /// Observation is passive: it never alters cycle counts, flags, or memory.
  void set_observer(CpuObserver* observer) {
    observer_ = observer;
    sink_ = observer != nullptr ? observer->step_sink() : nullptr;
  }
  CpuObserver* observer() const { return observer_; }

  void add_breakpoint(u16 addr);
  void clear_breakpoints();

  /// Description of the last illegal opcode (for kIllegal stops).
  const std::string& illegal_message() const { return illegal_message_; }

  /// One-line state dump "PC=.. A=.. BC=.. ..." for debugging and traces.
  std::string state_line() const;

  // rabbit::CodeWatch — a store landed in a page we predecoded from.
  void on_code_write(u32 phys) override;

 private:
  // --- Predecoded micro-op cache (cpu_fast.cc) ---------------------------
  // One entry per physical byte that starts an instruction, lazily decoded,
  // keyed by physical address so bank switches never invalidate it. Entries
  // only become stale when the backing bytes change; Memory's code watch
  // reports that (on_code_write) and the page is wiped for re-decode.
  /// Longest decodable instruction: ED CD nn nn xpc (LCALL). Bounds both
  /// the page-edge rule (decode_uop caches no instruction starting in the
  /// last kMaxUopBytes-1 bytes of a page, so fast-path fetches never cross
  /// a 4 KiB page) and invalidation (a store can only stale decodings that
  /// start within kMaxUopBytes-1 bytes before it).
  static constexpr u32 kMaxUopBytes = 5;
  /// A decoded instruction's operands. Its length and cycle costs belong to
  /// its kind and are constants of the kind's handler. Eight bytes, so a
  /// slot is found by a shift and never straddles a cache line.
  struct alignas(8) Uop {
    u8 kind = 0;  // UKind; 0 = not decoded
    u8 a = 0;     // operand selector (register/condition/ALU op...)
    u8 b = 0;     // second operand selector
    u16 imm = 0;  // immediate / displacement
  };
  struct UopPage {
    std::array<Uop, Memory::kPageSize> ops;
  };

  /// Fast-dispatch inner loop: runs while cycles_ < limit and the state
  /// needs no per-step precision (no pending EI/HALT/interrupt window).
  /// Leaves the architectural state exactly as the same span of legacy
  /// step() calls would. Picks the observed or the unobserved instance of
  /// run_fast_loop once per call.
  void run_fast(u64 limit);
  template <bool kObserved>
  void run_fast_loop(u64 limit);
  void decode_uop(u32 phys, Uop& u) const;

  bool bp_hit(u16 pc) const;

  /// Per-step attribution: raw sink increments when the observer offers a
  /// StepSink, the virtual on_step() otherwise, nothing when detached.
  void observe(u16 pc0, u32 phys0, unsigned c) {
    if (sink_ != nullptr) {
      const u16 ri = sink_->region_of[phys0];
      sink_->cycles[ri] += c;
      sink_->steps[ri] += 1;
    } else if (observer_ != nullptr) {
      observer_->on_step(pc0, phys0, c);
    }
  }

  // Fetch helpers (advance PC).
  u8 fetch8() {
    const u8 v = mem_.read(regs_.pc);
    regs_.pc = static_cast<u16>(regs_.pc + 1);
    return v;
  }
  u16 fetch16() {
    const u8 lo = fetch8();
    const u8 hi = fetch8();
    return common::make16(lo, hi);
  }

  // Stack helpers.
  void push16(u16 v) {
    regs_.sp = static_cast<u16>(regs_.sp - 1);
    mem_.write(regs_.sp, common::hi8(v));
    regs_.sp = static_cast<u16>(regs_.sp - 1);
    mem_.write(regs_.sp, common::lo8(v));
  }
  u16 pop16() {
    const u8 lo = mem_.read(regs_.sp);
    regs_.sp = static_cast<u16>(regs_.sp + 1);
    const u8 hi = mem_.read(regs_.sp);
    regs_.sp = static_cast<u16>(regs_.sp + 1);
    return common::make16(lo, hi);
  }

  // Flag helpers. Each ALU helper composes the full F in one store; the
  // unmodelled bits 3/5 are carried over from the previous F verbatim.
  bool flag(u8 mask) const { return (regs_.f & mask) != 0; }
  void set_flag(u8 mask, bool v) {
    regs_.f = v ? (regs_.f | mask) : (regs_.f & static_cast<u8>(~mask));
  }
  static bool parity_even(u8 v) { return (std::popcount(v) & 1) == 0; }
  /// S|Z|parity-PV image of a value (H=N=C zero), for the logic group.
  static u8 szp(u8 value) {
    u8 f = static_cast<u8>(value & Flag::S);
    if (value == 0) f |= Flag::Z;
    if (parity_even(value)) f |= Flag::PV;
    return f;
  }

  // ALU. Inline and shared verbatim by both dispatch paths so their flag
  // streams cannot diverge.
  u8 alu_add8(u8 a, u8 b, bool carry_in) {
    const unsigned c = carry_in ? 1U : 0U;
    const unsigned r = static_cast<unsigned>(a) + b + c;
    const u8 res = static_cast<u8>(r);
    u8 f = static_cast<u8>(regs_.f & Flag::kUnmodelled);
    f |= static_cast<u8>(res & Flag::S);
    if (res == 0) f |= Flag::Z;
    if (((a & 0xF) + (b & 0xF) + c) > 0xFU) f |= Flag::H;
    f |= static_cast<u8>(((~(a ^ b)) & (a ^ res) & 0x80) >> 5);  // PV
    f |= static_cast<u8>((r >> 8) & 1);                          // C
    regs_.f = f;
    return res;
  }
  u8 alu_sub8(u8 a, u8 b, bool carry_in) {
    const unsigned c = carry_in ? 1U : 0U;
    const unsigned r = static_cast<unsigned>(a) - b - c;
    const u8 res = static_cast<u8>(r);
    u8 f = static_cast<u8>(regs_.f & Flag::kUnmodelled);
    f |= static_cast<u8>(res & Flag::S);
    if (res == 0) f |= Flag::Z;
    if ((a & 0xF) < ((b & 0xF) + c)) f |= Flag::H;
    f |= static_cast<u8>(((a ^ b) & (a ^ res) & 0x80) >> 5);  // PV
    f |= Flag::N;
    if (r > 0xFF) f |= Flag::C;  // borrow
    regs_.f = f;
    return res;
  }
  void alu_logic(u8 result, bool set_h) {
    u8 f = static_cast<u8>(regs_.f & Flag::kUnmodelled);
    f |= szp(result);
    if (set_h) f |= Flag::H;
    regs_.f = f;
  }
  u16 alu_add16(u16 a, u16 b) {  // ADD HL,ss (C,H,N only)
    const u32 r = static_cast<u32>(a) + b;
    u8 f = static_cast<u8>(regs_.f &
                           (Flag::kUnmodelled | Flag::S | Flag::Z | Flag::PV));
    if (((a & 0x0FFF) + (b & 0x0FFF)) > 0x0FFF) f |= Flag::H;
    if (r > 0xFFFF) f |= Flag::C;
    regs_.f = f;
    return static_cast<u16>(r);
  }
  u16 alu_adc16(u16 a, u16 b, bool carry_in) {  // ADC HL,ss (full flags)
    const u32 c = carry_in ? 1U : 0U;
    const u32 r = static_cast<u32>(a) + b + c;
    const u16 res = static_cast<u16>(r);
    u8 f = static_cast<u8>(regs_.f & Flag::kUnmodelled);
    if ((res & 0x8000) != 0) f |= Flag::S;
    if (res == 0) f |= Flag::Z;
    if (((a & 0x0FFF) + (b & 0x0FFF) + c) > 0x0FFF) f |= Flag::H;
    if (((~(a ^ b)) & (a ^ res) & 0x8000) != 0) f |= Flag::PV;
    if (r > 0xFFFF) f |= Flag::C;
    regs_.f = f;
    return res;
  }
  u16 alu_sbc16(u16 a, u16 b, bool carry_in) {
    const u32 c = carry_in ? 1U : 0U;
    const u32 r = static_cast<u32>(a) - b - c;
    const u16 res = static_cast<u16>(r);
    u8 f = static_cast<u8>(regs_.f & Flag::kUnmodelled);
    if ((res & 0x8000) != 0) f |= Flag::S;
    if (res == 0) f |= Flag::Z;
    if ((a & 0x0FFF) < ((b & 0x0FFF) + c)) f |= Flag::H;
    if (((a ^ b) & (a ^ res) & 0x8000) != 0) f |= Flag::PV;
    f |= Flag::N;
    if (r > 0xFFFF) f |= Flag::C;
    regs_.f = f;
    return res;
  }
  u8 alu_inc8(u8 v) {  // preserves C
    const u8 res = static_cast<u8>(v + 1);
    u8 f = static_cast<u8>(regs_.f & (Flag::kUnmodelled | Flag::C));
    if ((res & 0x80) != 0) f |= Flag::S;
    if (res == 0) f |= Flag::Z;
    if ((v & 0xF) == 0xF) f |= Flag::H;
    if (v == 0x7F) f |= Flag::PV;
    regs_.f = f;
    return res;
  }
  u8 alu_dec8(u8 v) {  // preserves C
    const u8 res = static_cast<u8>(v - 1);
    u8 f = static_cast<u8>(regs_.f & (Flag::kUnmodelled | Flag::C));
    if ((res & 0x80) != 0) f |= Flag::S;
    if (res == 0) f |= Flag::Z;
    if ((v & 0xF) == 0) f |= Flag::H;
    if (v == 0x80) f |= Flag::PV;
    f |= Flag::N;
    regs_.f = f;
    return res;
  }

  // Rotate/shift group (CB prefix): op is the (op>>3)&7 field (RLC RRC RL
  // RR SLA SRA - SRL); op 6 (SLL) is not provided by the Rabbit and callers
  // reject it.
  u8 rot_op(unsigned op, u8 v) {
    u8 res = v;
    bool carry = false;
    switch (op) {
      case 0:  // RLC
        carry = (v & 0x80) != 0;
        res = static_cast<u8>((v << 1) | (carry ? 1 : 0));
        break;
      case 1:  // RRC
        carry = (v & 0x01) != 0;
        res = static_cast<u8>((v >> 1) | (carry ? 0x80 : 0));
        break;
      case 2:  // RL
        carry = (v & 0x80) != 0;
        res = static_cast<u8>((v << 1) | (flag(Flag::C) ? 1 : 0));
        break;
      case 3:  // RR
        carry = (v & 0x01) != 0;
        res = static_cast<u8>((v >> 1) | (flag(Flag::C) ? 0x80 : 0));
        break;
      case 4:  // SLA
        carry = (v & 0x80) != 0;
        res = static_cast<u8>(v << 1);
        break;
      case 5:  // SRA
        carry = (v & 0x01) != 0;
        res = static_cast<u8>((v >> 1) | (v & 0x80));
        break;
      case 7:  // SRL
        carry = (v & 0x01) != 0;
        res = static_cast<u8>(v >> 1);
        break;
      default:
        break;
    }
    u8 f = static_cast<u8>(regs_.f & Flag::kUnmodelled);
    f |= szp(res);
    if (carry) f |= Flag::C;
    regs_.f = f;
    return res;
  }

  // Register-code decode (r = 0..7 -> B C D E H L (HL) A).
  u8 read_r(unsigned code);
  void write_r(unsigned code, u8 v);

  // 16-bit register-pair decode (0 BC, 1 DE, 2 HL, 3 SP).
  u16 rp_get(unsigned rp) const {
    switch (rp & 3) {
      case 0: return regs_.bc();
      case 1: return regs_.de();
      case 2: return regs_.hl();
      default: return regs_.sp;
    }
  }
  void rp_set(unsigned rp, u16 v) {
    switch (rp & 3) {
      case 0: regs_.set_bc(v); break;
      case 1: regs_.set_de(v); break;
      case 2: regs_.set_hl(v); break;
      default: regs_.sp = v; break;
    }
  }

  /// ALU-op dispatch shared by the fast handlers; `op` is the (op>>3)&7
  /// field (ADD ADC SUB SBC AND XOR OR CP). Call sites pass constants so
  /// the switch folds away.
  void alu8(unsigned op, u8 v) {
    Registers& r = regs_;
    switch (op & 7) {
      case 0: r.a = alu_add8(r.a, v, false); break;
      case 1: r.a = alu_add8(r.a, v, flag(Flag::C)); break;
      case 2: r.a = alu_sub8(r.a, v, false); break;
      case 3: r.a = alu_sub8(r.a, v, flag(Flag::C)); break;
      case 4: r.a &= v; alu_logic(r.a, true); break;
      case 5: r.a ^= v; alu_logic(r.a, false); break;
      case 6: r.a |= v; alu_logic(r.a, false); break;
      default: alu_sub8(r.a, v, false); break;  // CP
    }
  }

  // Condition-code decode (NZ Z NC C PO PE P M).
  bool cond(unsigned code) const {
    switch (code) {
      case 0: return !flag(Flag::Z);   // NZ
      case 1: return flag(Flag::Z);    // Z
      case 2: return !flag(Flag::C);   // NC
      case 3: return flag(Flag::C);    // C
      case 4: return !flag(Flag::PV);  // PO / LZ
      case 5: return flag(Flag::PV);   // PE / LO
      case 6: return !flag(Flag::S);   // P
      default: return flag(Flag::S);   // M
    }
  }

  // Prefix dispatchers. Each returns cycles consumed.
  unsigned exec_main(u8 op);
  unsigned exec_cb();
  unsigned exec_ed();
  unsigned exec_index(u16& xy);  // DD (IX) / FD (IY)
  unsigned exec_index_cb(u16 base);

  unsigned service_interrupt();
  unsigned illegal(u8 prefix, u8 op);

  Memory& mem_;
  IoBus& io_;
  Registers regs_;
  u64 cycles_ = 0;
  u64 instructions_ = 0;
  u64 debug_traps_ = 0;
  bool halted_ = false;
  bool iff_ = false;           // interrupt enable
  bool ei_delay_ = false;      // EI enables after the following instruction
  bool illegal_ = false;
  DispatchMode dispatch_ = DispatchMode::kFast;
  CpuObserver* observer_ = nullptr;
  const StepSink* sink_ = nullptr;
  std::string illegal_message_;
  std::vector<u16> breakpoints_;  // kept sorted (add_breakpoint)
  std::array<u8*, 8> reg8_{};  // register-code -> storage; [6] ((HL)) is null
  std::array<std::unique_ptr<UopPage>, Memory::kPhysPages> uop_pages_;
};

}  // namespace rmc::rabbit

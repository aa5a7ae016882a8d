// Fast-dispatch interpreter tests: fast-vs-legacy equivalence, the
// predecoded-cache coherence protocol (self-modifying code, targeted
// invalidation), the logical-address-space wrap and XPC-window fetch edge
// cases pinned for both dispatch modes, the zero-breakpoint hot-loop
// regression, every trigger that makes the fast loop translate its PC
// again instead of fetching the next slot (bank switches, the page edge and
// the step() hand-off), the fall-through of every encoding, and a seeded
// random-program differential.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/prng.h"
#include "rabbit/cpu.h"
#include "rabbit/memory.h"

namespace rmc::rabbit {
namespace {

using common::u16;
using common::u32;
using common::u64;
using common::u8;

struct BareMachine {
  Memory mem;
  IoBus io;
  Cpu cpu{mem, io};

  explicit BareMachine(DispatchMode mode) {
    mem.set_flash_writable(true);
    cpu.set_dispatch(mode);
    cpu.regs().sp = 0xDFF0;
    cpu.regs().pc = 0x0100;
  }

  void load(std::initializer_list<u8> code, u32 at = 0x0100) {
    for (u8 b : code) mem.write_phys(at++, b);
  }
  void load(const std::vector<u8>& code, u32 at = 0x0100) {
    for (u8 b : code) mem.write_phys(at++, b);
  }
};

// ---------------------------------------------------------------------------
// Memory edge cases (satellite: pin the wrap and XPC-window semantics)
// ---------------------------------------------------------------------------

// A 16-bit access at logical 0xFFFF wraps to logical 0x0000 — the *logical*
// address space wraps, so the two bytes land in different segments (XPC
// window, then root), not at adjacent physical addresses.
TEST(MemoryEdge, SixteenBitAccessWrapsLogicalSpace) {
  Memory m;
  m.set_flash_writable(true);  // both target phys addresses sit in flash
  m.set_xpc(0x10);  // 0xE000..0xFFFF -> phys 0x1E000..0x1FFFF
  m.write16(0xFFFF, 0xBEEF);
  EXPECT_EQ(m.read_phys(0x1FFFF), 0xEF);  // low byte via the XPC window
  EXPECT_EQ(m.read_phys(0x00000), 0xBE);  // high byte wrapped to root
  EXPECT_EQ(m.read16(0xFFFF), 0xBEEF);
  // And the wrap tracks XPC: move the window, the low byte moves with it.
  m.set_xpc(0x20);
  m.write_phys(0x2FFFF, 0x11);
  EXPECT_EQ(m.read16(0xFFFF), 0xBE11u);
}

// An instruction fetch spanning the 0xDFFF/0xE000 boundary reads its opcode
// from the stack segment and its operands through the XPC window — and a
// later XPC switch must change which operands the same logical PC sees.
// Run in both dispatch modes; in fast mode the page-edge guard forces this
// fetch down the slow path, which this test pins.
class DispatchMode2 : public ::testing::TestWithParam<DispatchMode> {};

TEST_P(DispatchMode2, Fetch16SpansXpcWindowAfterXpcSwitch) {
  BareMachine m(GetParam());
  // LD HL,nn with the opcode at logical 0xDFFF (identity-mapped) and the
  // immediate at 0xE000/0xE001 (XPC window).
  m.mem.write_phys(0xDFFF, 0x21);
  m.mem.set_xpc(0x10);
  m.mem.write_phys(0x1E000, 0x34);  // logical 0xE000
  m.mem.write_phys(0x1E001, 0x12);  // logical 0xE001
  m.cpu.regs().pc = 0xDFFF;
  m.cpu.run(1);  // budget 1: exactly one instruction executes
  EXPECT_EQ(m.cpu.regs().hl(), 0x1234);
  EXPECT_EQ(m.cpu.regs().pc, 0xE002);

  // Same logical PC, different XPC: the operand bytes come from the new
  // window mapping.
  m.mem.set_xpc(0x20);
  m.mem.write_phys(0x2E000, 0x78);
  m.mem.write_phys(0x2E001, 0x56);
  m.cpu.regs().pc = 0xDFFF;
  m.cpu.run(1);  // budget 1: exactly one instruction executes
  EXPECT_EQ(m.cpu.regs().hl(), 0x5678);
}

INSTANTIATE_TEST_SUITE_P(BothModes, DispatchMode2,
                         ::testing::Values(DispatchMode::kLegacy,
                                           DispatchMode::kFast));

// ---------------------------------------------------------------------------
// Fast vs legacy equivalence
// ---------------------------------------------------------------------------

// A program touching every dispatch family: 8/16-bit ALU, rotates, CB
// bit-ops, EX/EXX, IX/IY displacement ops, MUL/BOOL (Rabbit ED page),
// PUSH/POP, DJNZ, conditional flow, memory stores.
std::vector<u8> mixed_program() {
  return {
      0x3E, 0x1B,              // LD A,0x1B
      0x06, 0x05,              // LD B,5
      0x0E, 0xF0,              // LD C,0xF0
      0x11, 0x34, 0x12,        // LD DE,0x1234
      0x21, 0x00, 0x60,        // LD HL,0x6000
      0x70,                    // LD (HL),B
      0x34,                    // INC (HL)
      0x86,                    // ADD A,(HL)
      0x17,                    // RLA
      0xCB, 0x11,              // RL C
      0xCB, 0x6E,              // BIT 5,(HL)
      0xCB, 0xDE,              // SET 3,(HL)
      0xF7,                    // MUL (Rabbit: HL:BC = BC * DE)
      0xED, 0x44,              // NEG
      0xED, 0x4A,              // ADC HL,BC
      0xDD, 0x21, 0x10, 0x60,  // LD IX,0x6010
      0xDD, 0x36, 0x02, 0x7E,  // LD (IX+2),0x7E
      0xDD, 0x86, 0x02,        // ADD A,(IX+2)
      0xD5,                    // PUSH DE
      0xE5,                    // PUSH HL
      0xE1,                    // POP HL
      0xD1,                    // POP DE
      0x08,                    // EX AF,AF'
      0xD9,                    // EXX
      0x3E, 0x03,              // LD A,3
      0x3D,                    // DEC A          <- DJNZ-style loop below
      0x20, 0xFD,              // JR NZ,-3
      0x06, 0x04,              // LD B,4
      0x10, 0xFE,              // DJNZ -2
      0x76,                    // HALT
  };
}

/// FNV-1a over all 1 MiB, eight bytes a step.
u64 mem_digest(const Memory& m) {
  u64 h = 1469598103934665603ULL;
  const u8* p = m.raw_phys();
  for (u32 i = 0; i < Memory::kPhysSize; i += 8) {
    u64 word;
    std::memcpy(&word, p + i, sizeof word);
    h ^= word;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Everything the two dispatch modes must agree on after a run: every
/// register (alternate set included), XPC, the counters, the halt and
/// interrupt state, dropped flash stores and a digest of all 1 MiB.
std::vector<u64> machine_state(const BareMachine& m) {
  const Registers& r = m.cpu.regs();
  return {r.a,  r.f,  r.b,  r.c,  r.d,  r.e,  r.h,  r.l,
          r.a2, r.f2, r.b2, r.c2, r.d2, r.e2, r.h2, r.l2,
          r.ix, r.iy, r.sp, r.pc, m.mem.xpc(),
          m.cpu.cycles(), m.cpu.instructions_retired(),
          m.cpu.debug_traps(), m.cpu.halted(), m.cpu.iff(),
          m.mem.flash_write_faults(), mem_digest(m.mem)};
}

/// Runs both machines to the same budget and expects the same stop reason
/// and the same final state.
void run_both(BareMachine& fast, BareMachine& legacy, u64 budget) {
  EXPECT_EQ(fast.cpu.run(budget), legacy.cpu.run(budget));
  EXPECT_EQ(fast.cpu.illegal_message(), legacy.cpu.illegal_message());
  EXPECT_EQ(machine_state(fast), machine_state(legacy));
}

TEST(FastDispatch, MatchesLegacyOnMixedProgram) {
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  fast.load(mixed_program());
  legacy.load(mixed_program());
  run_both(fast, legacy, 100000);
  EXPECT_TRUE(fast.cpu.halted());
}

// Satellite regression: with zero breakpoints registered, a 1M-cycle run
// must retire exactly as many instructions under fast dispatch as under the
// legacy switch — the hoisted breakpoint check and the predecoded cache may
// not change what executes.
TEST(FastDispatch, MillionCycleRunRetiresSameInstructionCount) {
  // 16-bit counter loop: INC HL; LD A,H; OR L; JR NZ (6+2+4+5 cycles/iter).
  std::initializer_list<u8> loop = {
      0x21, 0x00, 0x00,  // LD HL,0
      0x23,              // INC HL
      0x7C,              // LD A,H
      0xB5,              // OR L
      0x20, 0xFB,        // JR NZ,-5
      0x76,              // HALT
  };
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  fast.load(loop);
  legacy.load(loop);
  fast.cpu.run(1'000'000);
  legacy.cpu.run(1'000'000);
  EXPECT_GT(fast.cpu.instructions_retired(), 200'000u);
  EXPECT_EQ(fast.cpu.instructions_retired(),
            legacy.cpu.instructions_retired());
  EXPECT_EQ(fast.cpu.cycles(), legacy.cpu.cycles());
  EXPECT_EQ(fast.cpu.regs().hl(), legacy.cpu.regs().hl());
}

// ---------------------------------------------------------------------------
// Predecode-cache coherence (targeted invalidation)
// ---------------------------------------------------------------------------

// Self-modifying code: pass 1 executes a NOP and overwrites it with INC A;
// pass 2 must execute the new byte. A stale predecoded uop would leave
// A == 0x3C.
TEST(FastDispatch, SelfModifyingCodeReDecodes) {
  BareMachine m(DispatchMode::kFast);
  m.load({
      0x3E, 0x3C,        // 0x0100: LD A,0x3C   (0x3C = INC A opcode)
      0x06, 0x02,        // 0x0102: LD B,2
      0x00,              // 0x0104: NOP         <- overwritten below
      0x32, 0x04, 0x01,  // 0x0105: LD (0x0104),A
      0x10, 0xFA,        // 0x0108: DJNZ -6 (back to 0x0104)
      0x76,              // 0x010A: HALT
  });
  EXPECT_EQ(m.cpu.run(100000), StopReason::kHalted);
  EXPECT_EQ(m.cpu.regs().a, 0x3D);  // INC A ran on the second pass
}

// A store into a watched code page must invalidate instructions that
// *start* up to kMaxUopBytes-1 before the written byte (a multi-byte
// instruction caches its immediate). Overwrite the immediate of an already-
// executed LD A,n and re-run it.
TEST(FastDispatch, StoreIntoCachedImmediateInvalidates) {
  BareMachine m(DispatchMode::kFast);
  m.load({
      0x3E, 0x11,  // 0x0100: LD A,0x11
      0x76,        // 0x0102: HALT
  });
  EXPECT_EQ(m.cpu.run(100000), StopReason::kHalted);
  EXPECT_EQ(m.cpu.regs().a, 0x11);

  m.mem.write_phys(0x0101, 0x22);  // patch the immediate byte only
  m.cpu.clear_halt();
  m.cpu.regs().pc = 0x0100;
  EXPECT_EQ(m.cpu.run(100000), StopReason::kHalted);
  EXPECT_EQ(m.cpu.regs().a, 0x22);
}

// A store into the slot right after the executing instruction, once that
// slot holds a decoding: the sequential fetch must see the invalidation.
// Pass 1 stores a NOP over the NOP at 0x0107 and decodes it; pass 2 stores
// INC C there. A stale slot would leave C == 0.
TEST(FastDispatch, StoreIntoNextSlotReDecodes) {
  const std::vector<u8> code = {
      0x3E, 0x00,        // 0x0100: LD A,0x00    (pass-1 value: NOP)
      0x06, 0x02,        // 0x0102: LD B,2
      0x32, 0x07, 0x01,  // 0x0104: LD (0x0107),A
      0x00,              // 0x0107: NOP          <- INC C on pass 2
      0x3E, 0x0C,        // 0x0108: LD A,0x0C    (INC C opcode)
      0x10, 0xF8,        // 0x010A: DJNZ -8 (back to 0x0104)
      0x76,              // 0x010C: HALT
  };
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  fast.load(code);
  legacy.load(code);
  run_both(fast, legacy, 100000);
  EXPECT_EQ(fast.cpu.regs().c, 1);
}

// ---------------------------------------------------------------------------
// Translation triggers: after these the fast loop must look the PC up again
// rather than fetch the next slot of the current decode page.
// ---------------------------------------------------------------------------

// Code in the XPC window, with XPC 0x10 (old bank, phys 0x1E000+) and
// XPC 0x20 (new bank, phys 0x2E000+) both mapping logical 0xE000.
constexpr u32 kOldBank = 0x10000;
constexpr u32 kNewBank = 0x20000;

void start_in_window(BareMachine& m, u16 pc) {
  m.mem.set_xpc(kOldBank >> 12);
  m.cpu.regs().pc = pc;
}

// LD XPC,A executed inside the window: the next instruction's logical
// address is the fall-through, but it now lives in the new bank.
TEST(TranslateTrigger, LdXpcInWindowFetchesFromNewBank) {
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  for (BareMachine* m : {&fast, &legacy}) {
    m->load({0x3E, 0x20,         // 0xE100: LD A,0x20
             0xED, 0x67},        // 0xE102: LD XPC,A
            kOldBank + 0xE100);
    m->load({0x3E, 0x11, 0x76}, kOldBank + 0xE104);  // LD A,0x11; HALT
    m->load({0x3E, 0x22, 0x76}, kNewBank + 0xE104);  // LD A,0x22; HALT
    start_in_window(*m, 0xE100);
  }
  run_both(fast, legacy, 100000);
  EXPECT_EQ(fast.cpu.regs().a, 0x22);
  EXPECT_EQ(fast.mem.xpc(), kNewBank >> 12);
}

// LJP to its own fall-through address in another bank.
TEST(TranslateTrigger, LjpToFallThroughInOtherBank) {
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  for (BareMachine* m : {&fast, &legacy}) {
    m->load({0xED, 0xC3, 0x05, 0xE1, kNewBank >> 12},  // 0xE100: LJP 0xE105
            kOldBank + 0xE100);
    m->load({0x3E, 0x11, 0x76}, kOldBank + 0xE105);  // LD A,0x11; HALT
    m->load({0x3E, 0x22, 0x76}, kNewBank + 0xE105);  // LD A,0x22; HALT
    start_in_window(*m, 0xE100);
  }
  run_both(fast, legacy, 100000);
  EXPECT_EQ(fast.cpu.regs().a, 0x22);
}

// LCALL to its own fall-through address in another bank, and an LRET back
// to the same logical address in the old bank: both land where the next
// slot of their own page would not.
TEST(TranslateTrigger, LcallAndLretToFallThroughInOtherBank) {
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  for (BareMachine* m : {&fast, &legacy}) {
    m->load({0xED, 0xCD, 0x05, 0xE1, kNewBank >> 12,  // 0xE100: LCALL 0xE105
             0x0E, 0x44,                              // 0xE105: LD C,0x44
             0x76},                                   // 0xE107: HALT
            kOldBank + 0xE100);
    m->load({0x3E, 0x22,   // 0xE105: LD A,0x22
             0xED, 0xC9,   // 0xE107: LRET
             0x0E, 0x99,   // 0xE109: LD C,0x99 (only if LRET fell through)
             0x76},        // 0xE10B: HALT
            kNewBank + 0xE105);
    start_in_window(*m, 0xE100);
  }
  run_both(fast, legacy, 100000);
  EXPECT_EQ(fast.cpu.regs().a, 0x22);
  EXPECT_EQ(fast.cpu.regs().c, 0x44);
  EXPECT_EQ(fast.mem.xpc(), kOldBank >> 12);
}

// Straight-line code runs into the page-edge slots (offsets 0xFFC-0xFFF,
// never cached) and on across the root -> data-segment boundary. With the
// board's DATASEG 0x7A, logical 0x6000 maps to phys 0x80000, not 0x06000:
// LD BC,nn at 0x5FFE takes its high byte from there, and the instruction
// after it must be fetched there too, through the slow-path hand-off and
// the translation that follows it.
TEST(TranslateTrigger, PageEdgeIntoRemappedDataSegment) {
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  for (BareMachine* m : {&fast, &legacy}) {
    m->mem.set_dataseg(0x7A);
    m->load({0x00, 0x00, 0x00, 0x00,  // 0x5FF0: NOPs
             0x00, 0x00, 0x00, 0x00,
             0x3E, 0x05,              // 0x5FF8: LD A,5
             0x3C,                    // 0x5FFA: INC A
             0x3C,                    // 0x5FFB: INC A (last cached offset)
             0x3C,                    // 0x5FFC: INC A (edge slot)
             0x3C,                    // 0x5FFD: INC A (edge slot)
             0x01, 0x77},             // 0x5FFE: LD BC,0x??77
            0x05FF0);
    m->load({0x80,                    // 0x6000: high byte of LD BC
             0x16, 0x22,              // 0x6001: LD D,0x22
             0x76},                   // 0x6003: HALT
            0x80000);
    // What an identity-mapped 0x6000 would hold instead.
    m->load({0x60, 0x16, 0x11, 0x76}, 0x06000);
    m->cpu.regs().pc = 0x5FF0;
  }
  run_both(fast, legacy, 100000);
  EXPECT_TRUE(fast.cpu.halted());
  EXPECT_EQ(fast.cpu.regs().a, 9);
  EXPECT_EQ(fast.cpu.regs().bc(), 0x8077);
  EXPECT_EQ(fast.cpu.regs().d, 0x22);
}

// A jump in the edge slots whose target's high byte lies across the same
// boundary: the target depends on which physical byte 0x6000 reads, and the
// jump leaves the page by translating, never by running off it.
TEST(TranslateTrigger, PageEdgeJumpReadsRemappedOperand) {
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  for (BareMachine* m : {&fast, &legacy}) {
    m->mem.set_dataseg(0x7A);
    m->load({0x00, 0x00, 0x00, 0x00,  // 0x5FF8: NOPs
             0x00, 0x00,
             0xC3, 0x10},             // 0x5FFE: JP 0x??10
            0x05FF8);
    m->load({0x70}, 0x80000);         // 0x6000 as mapped: JP 0x7010
    m->load({0x60}, 0x06000);         // identity-mapped 0x6000: JP 0x6010
    m->load({0x1E, 0x22, 0x76}, 0x81010);  // 0x7010: LD E,0x22; HALT
    m->load({0x1E, 0x11, 0x76}, 0x80010);  // 0x6010: LD E,0x11; HALT
    m->cpu.regs().pc = 0x5FF8;
  }
  run_both(fast, legacy, 100000);
  EXPECT_TRUE(fast.cpu.halted());
  EXPECT_EQ(fast.cpu.regs().e, 0x22);
}

// ---------------------------------------------------------------------------
// Every encoding, fast vs legacy
// ---------------------------------------------------------------------------

// Length in bytes of the instruction that starts with `op` (and `sub`, its
// second byte), from the Z80/Rabbit encoding rules rather than from the
// decoder. Exact for every encoding the fast path caches; an illegal or
// uncached one runs through the legacy step() in both modes either way.
u32 encoding_length(u8 op, u8 sub) {
  switch (op) {
    case 0xCB:
      return 2;
    case 0xED:
      if ((sub & 0xC7) == 0x43) return 4;        // LD (nn),rp / LD rp,(nn)
      if (sub == 0xC3 || sub == 0xCD) return 5;  // LJP / LCALL nn,xpc
      return 2;
    case 0xDD:
    case 0xFD:
      if (sub == 0x21 || sub == 0x22 || sub == 0x2A || sub == 0x36) return 4;
      if (sub == 0x34 || sub == 0x35) return 3;  // INC/DEC (IX+d)
      // LD r,(IX+d), LD (IX+d),r and ALU A,(IX+d).
      if (sub >= 0x40 && sub <= 0xBF && sub != 0x76 &&
          ((sub & 7) == 6 || (sub & 0xF8) == 0x70)) {
        return 3;
      }
      return 2;
    default:
      break;
  }
  if ((op & 0xC7) == 0x06 || (op & 0xC7) == 0xC6) return 2;  // r,n / ALU n
  if (op >= 0x10 && (op & 0xC7) == 0x00) return 2;  // DJNZ / JR / JR cc
  if (op == 0xD3 || op == 0xDB) return 2;            // OUT / IN (n)
  if ((op & 0xCF) == 0x01 || (op & 0xE7) == 0x22) return 3;  // nn forms
  if (op == 0xC3 || op == 0xCD) return 3;                     // JP / CALL
  if ((op & 0xC7) == 0xC2 || (op & 0xC7) == 0xC4) return 3;   // cc nn
  return 1;
}

// Every opcode of the main page and of the CB, ED, DD and FD pages, away
// from a page edge, with seeded operands, registers, flags and memory, and
// followed by the marker INC B; HALT. An instruction that falls through
// continues at the marker, so a micro-op that advanced by the wrong length
// shows in B, in the PC and in the counters; a taken transfer pushes or
// jumps relative to the same length. Each encoding runs twice, the second
// time with every flag inverted and B = 1, so each condition of JR/JP/CALL/
// RET and DJNZ's is both taken and not taken.
TEST(FastDispatch, EveryEncodingMatchesLegacy) {
  constexpr u32 kAt = 0x4100;  // 0x100 bytes into its 4 KiB page
  constexpr u64 kBudget = 200;
  common::Xorshift64 rng(26);
  // Logical = physical under the reset segment registers.
  std::vector<u8> image(0x10000);
  rng.fill(image);
  u64 fell_through = 0;
  for (const int prefix : {-1, 0xCB, 0xED, 0xDD, 0xFD}) {
    for (u32 x = 0; x < 256; ++x) {
      if (prefix < 0 && (x == 0xCB || x == 0xED || x == 0xDD || x == 0xFD)) {
        continue;
      }
      std::vector<u8> code(5);
      rng.fill(code);
      if (prefix < 0) {
        code[0] = static_cast<u8>(x);
      } else {
        code[0] = static_cast<u8>(prefix);
        code[1] = static_cast<u8>(x);
      }
      const u32 len = encoding_length(code[0], code[1]);
      code.resize(len);
      code.insert(code.end(), {0x04, 0x76});  // INC B; HALT
      Registers seeded;
      for (u8* reg : {&seeded.a, &seeded.f, &seeded.b, &seeded.c, &seeded.d,
                      &seeded.e, &seeded.h, &seeded.l, &seeded.a2,
                      &seeded.f2, &seeded.b2, &seeded.c2, &seeded.d2,
                      &seeded.e2, &seeded.h2, &seeded.l2}) {
        *reg = rng.next_u8();
      }
      for (u16* reg : {&seeded.ix, &seeded.iy, &seeded.sp}) {
        *reg = static_cast<u16>(rng.next_u32());
      }
      seeded.pc = kAt;
      for (const bool inverted : {false, true}) {
        Registers regs = seeded;
        if (inverted) {
          regs.f = static_cast<u8>(~regs.f);
          regs.b = 1;
        }
        BareMachine fast(DispatchMode::kFast);
        BareMachine legacy(DispatchMode::kLegacy);
        for (BareMachine* m : {&fast, &legacy}) {
          m->mem.load(0, image);
          m->load(code, kAt);
          m->cpu.regs() = regs;
        }
        SCOPED_TRACE(::testing::Message()
                     << "prefix " << prefix << " opcode " << x
                     << (inverted ? ", flags inverted" : ""));
        run_both(fast, legacy, kBudget);
        if (legacy.cpu.halted() && legacy.cpu.regs().pc == kAt + len + 2) {
          ++fell_through;
        }
      }
    }
  }
  // Not vacuous: 1,145 of the 2,540 runs reach the marker and halt there
  // (most of the rest are illegal ED/DD/FD encodings or taken transfers).
  EXPECT_GT(fell_through, 1100u);
}

// ---------------------------------------------------------------------------
// Seeded random programs, fast vs legacy
// ---------------------------------------------------------------------------

// All 1 MiB random (EI excluded, so the fast loop is not left at once),
// random segment registers, a start in root or in the XPC window: every
// opcode family, stores into code, bank switches and page edges come up
// somewhere. The targeted tests above stay: a random program rarely hits a
// given trigger with distinguishable bytes on both sides.
TEST(FastDispatch, RandomProgramsMatchLegacy) {
  constexpr u64 kSeeds = 300;
  constexpr u64 kBudget = 20000;
  std::vector<u8> image(Memory::kPhysSize);
  u64 fast_instructions = 0;
  for (u64 seed = 1; seed <= kSeeds; ++seed) {
    common::Xorshift64 rng(seed);
    rng.fill(image);
    for (u8& b : image) {
      if (b == 0xFB) b = 0x00;  // EI
    }
    const u8 xpc = rng.next_u8();
    const u8 dataseg = rng.next_u8();
    const u8 stackseg = rng.next_u8();
    const u16 pc = rng.chance(0.5)
                       ? static_cast<u16>(rng.next_below(0x6000))
                       : static_cast<u16>(0xE000 + rng.next_below(0x2000));
    BareMachine fast(DispatchMode::kFast);
    BareMachine legacy(DispatchMode::kLegacy);
    for (BareMachine* m : {&fast, &legacy}) {
      m->mem.load(0, image);
      m->mem.set_xpc(xpc);
      m->mem.set_dataseg(dataseg);
      m->mem.set_stackseg(stackseg);
      m->cpu.regs().pc = pc;
    }
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_both(fast, legacy, kBudget);
    fast_instructions += fast.cpu.instructions_retired();
  }
  // Not vacuous: the programs run for a while before HALT or an illegal
  // opcode stops them.
  EXPECT_GT(fast_instructions, kSeeds * 20);
}

}  // namespace
}  // namespace rmc::rabbit

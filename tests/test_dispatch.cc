// Fast-dispatch interpreter tests: fast-vs-legacy equivalence, the
// predecoded-cache coherence protocol (self-modifying code, targeted
// invalidation), the logical-address-space wrap and XPC-window fetch edge
// cases pinned for both dispatch modes, and the zero-breakpoint hot-loop
// regression.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

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

u64 mem_digest(const Memory& m) {
  u64 h = 1469598103934665603ULL;
  const u8* p = m.raw_phys();
  for (u32 i = 0; i < Memory::kPhysSize; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(FastDispatch, MatchesLegacyOnMixedProgram) {
  BareMachine fast(DispatchMode::kFast);
  BareMachine legacy(DispatchMode::kLegacy);
  fast.load(mixed_program());
  legacy.load(mixed_program());
  EXPECT_EQ(fast.cpu.run(100000), StopReason::kHalted);
  EXPECT_EQ(legacy.cpu.run(100000), StopReason::kHalted);

  const Registers& a = fast.cpu.regs();
  const Registers& b = legacy.cpu.regs();
  EXPECT_EQ(a.af(), b.af());
  EXPECT_EQ(a.bc(), b.bc());
  EXPECT_EQ(a.de(), b.de());
  EXPECT_EQ(a.hl(), b.hl());
  EXPECT_EQ(a.ix, b.ix);
  EXPECT_EQ(a.iy, b.iy);
  EXPECT_EQ(a.sp, b.sp);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(fast.cpu.cycles(), legacy.cpu.cycles());
  EXPECT_EQ(fast.cpu.instructions_retired(),
            legacy.cpu.instructions_retired());
  EXPECT_EQ(mem_digest(fast.mem), mem_digest(legacy.mem));
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

}  // namespace
}  // namespace rmc::rabbit

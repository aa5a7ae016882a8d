// Unit tests for the Rabbit 2000 core: memory translation / bank switching,
// flag semantics of the ALU, control flow, Rabbit-specific instructions
// (MUL, BOOL, XPC, LCALL/LRET), interrupts, and the board model.
#include <gtest/gtest.h>

#include "common/prng.h"
#include "rabbit/board.h"
#include "rabbit/cpu.h"
#include "rabbit/memory.h"
#include "rabbit/peripherals.h"

namespace rmc::rabbit {
namespace {

using common::u16;
using common::u32;
using common::u8;

// Convenience: run raw opcode bytes placed at 0x0100 on a bare CPU with
// writable "flash" so tests can poke anywhere.
struct BareMachine {
  Memory mem;
  IoBus io;
  Cpu cpu{mem, io};

  BareMachine() {
    mem.set_flash_writable(true);
    cpu.regs().sp = 0xDFF0;
    cpu.regs().pc = 0x0100;
  }

  void load(std::initializer_list<u8> code) {
    u16 a = 0x0100;
    for (u8 b : code) mem.write_phys(a++, b);
  }
  void step_n(int n) {
    for (int i = 0; i < n; ++i) cpu.step();
  }
};

// ---------------------------------------------------------------------------
// Memory / MMU
// ---------------------------------------------------------------------------

TEST(Memory, DefaultMappingIsIdentity) {
  Memory m;
  EXPECT_EQ(m.translate(0x0000), 0x0000u);
  EXPECT_EQ(m.translate(0x5FFF), 0x5FFFu);
  EXPECT_EQ(m.translate(0x6000), 0x6000u);
  EXPECT_EQ(m.translate(0xDFFF), 0xDFFFu);
  EXPECT_EQ(m.translate(0xE000), 0xE000u);
}

TEST(Memory, SegmentRegistersRelocate) {
  Memory m;
  m.set_segsize(0xD6);  // data base 0x6000, stack base 0xD000
  m.set_dataseg(0x7A);
  m.set_stackseg(0x81);
  EXPECT_EQ(m.translate(0x5FFF), 0x5FFFu);                // root untouched
  EXPECT_EQ(m.translate(0x6000), 0x6000u + 0x7A000u);     // = 0x80000
  EXPECT_EQ(m.translate(0xCFFF), 0xCFFFu + 0x7A000u);
  EXPECT_EQ(m.translate(0xD000), 0xD000u + 0x81000u);     // = 0x8E000
}

TEST(Memory, XpcWindowBankSwitches) {
  Memory m;
  m.set_xpc(0x02);
  EXPECT_EQ(m.translate(0xE000), 0xE000u + 0x2000u);
  m.set_xpc(0x10);
  EXPECT_EQ(m.translate(0xE000), 0xE000u + 0x10000u);
  // Same logical address, different banks -> different bytes.
  m.set_flash_writable(true);
  m.set_xpc(0x02);
  m.write(0xE000, 0xAA);
  m.set_xpc(0x10);
  m.write(0xE000, 0xBB);
  m.set_xpc(0x02);
  EXPECT_EQ(m.read(0xE000), 0xAA);
  m.set_xpc(0x10);
  EXPECT_EQ(m.read(0xE000), 0xBB);
}

// The page table against the logical map worked out from the registers:
// after each write of a seeded sequence of SEGSIZE, DATASEG, STACKSEG and
// XPC writes, one address in every 4 KiB page translates as the map in
// memory.h says. An XPC write updates only the window's two pages, so the
// sequence checks that both move and that no other page depends on XPC.
TEST(Memory, RandomSegmentWritesMatchReferenceMap) {
  common::Xorshift64 rng(0x5E65);
  Memory m;
  u8 segsize = m.segsize(), dataseg = m.dataseg(), stackseg = m.stackseg(),
     xpc = m.xpc();
  for (int write = 0; write < 2000; ++write) {
    const u8 v = rng.next_u8();
    switch (rng.next_below(4)) {
      case 0: m.set_segsize(segsize = v); break;
      case 1: m.set_dataseg(dataseg = v); break;
      case 2: m.set_stackseg(stackseg = v); break;
      default: m.set_xpc(xpc = v); break;
    }
    const u32 data_base = (segsize & 0x0Fu) << 12;
    const u32 stack_base = (segsize & 0xF0u) << 8;
    for (u32 page = 0; page < 16; ++page) {
      const u32 logical = (page << 12) | rng.next_below(0x1000);
      u32 seg = 0;  // root
      if (logical >= 0xE000) seg = xpc;
      else if (logical >= stack_base) seg = stackseg;
      else if (logical >= data_base) seg = dataseg;
      ASSERT_EQ(m.translate(static_cast<u16>(logical)),
                (logical + (seg << 12)) % Memory::kPhysSize)
          << "write " << write << ", logical 0x" << std::hex << logical;
    }
  }
}

TEST(Memory, PhysicalWrapsAtOneMegabyte) {
  Memory m;
  m.set_xpc(0xFF);
  const u32 phys = m.translate(0xFFFF);
  EXPECT_LT(phys, Memory::kPhysSize);
}

TEST(Memory, FlashWriteProtection) {
  Memory m;  // flash not writable by default
  m.write(0x0100, 0x42);
  EXPECT_EQ(m.read(0x0100), 0x00);
  EXPECT_EQ(m.flash_write_faults(), 1u);
  m.set_flash_writable(true);
  m.write(0x0100, 0x42);
  EXPECT_EQ(m.read(0x0100), 0x42);
}

TEST(Memory, SramAlwaysWritable) {
  Memory m;
  m.set_dataseg(0x7A);
  m.write(0x6000, 0x77);  // -> 0x80000, SRAM
  EXPECT_EQ(m.read(0x6000), 0x77);
  EXPECT_EQ(m.flash_write_faults(), 0u);
}

// ---------------------------------------------------------------------------
// CPU: loads, ALU, flags
// ---------------------------------------------------------------------------

TEST(Cpu, LdImmediateAndRegisterMoves) {
  BareMachine m;
  m.load({0x3E, 0x12,        // ld a, 12h
          0x47,              // ld b, a
          0x06, 0x34,        // ld b, 34h -- overwrite
          0x48});            // ld c, b
  m.step_n(4);
  EXPECT_EQ(m.cpu.regs().a, 0x12);
  EXPECT_EQ(m.cpu.regs().b, 0x34);
  EXPECT_EQ(m.cpu.regs().c, 0x34);
}

TEST(Cpu, AddSetsCarryAndOverflow) {
  BareMachine m;
  m.load({0x3E, 0x7F,   // ld a, 7Fh
          0xC6, 0x01}); // add a, 1 -> 0x80, overflow set, carry clear
  m.step_n(2);
  EXPECT_EQ(m.cpu.regs().a, 0x80);
  EXPECT_TRUE(m.cpu.regs().f & Flag::S);
  EXPECT_TRUE(m.cpu.regs().f & Flag::PV);
  EXPECT_FALSE(m.cpu.regs().f & Flag::C);
  EXPECT_FALSE(m.cpu.regs().f & Flag::Z);
}

TEST(Cpu, AddCarryWraps) {
  BareMachine m;
  m.load({0x3E, 0xFF, 0xC6, 0x01});  // ld a,0xFF; add a,1
  m.step_n(2);
  EXPECT_EQ(m.cpu.regs().a, 0x00);
  EXPECT_TRUE(m.cpu.regs().f & Flag::C);
  EXPECT_TRUE(m.cpu.regs().f & Flag::Z);
  EXPECT_FALSE(m.cpu.regs().f & Flag::PV);
}

TEST(Cpu, SubBorrowAndSign) {
  BareMachine m;
  m.load({0x3E, 0x05, 0xD6, 0x07});  // ld a,5; sub 7
  m.step_n(2);
  EXPECT_EQ(m.cpu.regs().a, 0xFE);
  EXPECT_TRUE(m.cpu.regs().f & Flag::C);
  EXPECT_TRUE(m.cpu.regs().f & Flag::S);
  EXPECT_TRUE(m.cpu.regs().f & Flag::N);
}

TEST(Cpu, CompareLeavesAIntact) {
  BareMachine m;
  m.load({0x3E, 0x42, 0xFE, 0x42});  // ld a,42h; cp 42h
  m.step_n(2);
  EXPECT_EQ(m.cpu.regs().a, 0x42);
  EXPECT_TRUE(m.cpu.regs().f & Flag::Z);
}

TEST(Cpu, LogicOpsClearCarryAndSetParity) {
  BareMachine m;
  m.load({0x37,              // scf
          0x3E, 0x0F,        // ld a, 0Fh
          0xE6, 0x03});      // and 03h -> 0x03 (2 bits, even parity)
  m.step_n(3);
  EXPECT_EQ(m.cpu.regs().a, 0x03);
  EXPECT_FALSE(m.cpu.regs().f & Flag::C);
  EXPECT_TRUE(m.cpu.regs().f & Flag::PV);
}

TEST(Cpu, XorClearsToZero) {
  BareMachine m;
  m.load({0x3E, 0x5A, 0xAF});  // ld a,5Ah; xor a
  m.step_n(2);
  EXPECT_EQ(m.cpu.regs().a, 0);
  EXPECT_TRUE(m.cpu.regs().f & Flag::Z);
}

TEST(Cpu, IncDecPreserveCarry) {
  BareMachine m;
  m.load({0x37,    // scf
          0x3C,    // inc a
          0x3D});  // dec a
  m.step_n(3);
  EXPECT_TRUE(m.cpu.regs().f & Flag::C);
}

TEST(Cpu, Add16SetsCarry) {
  BareMachine m;
  m.load({0x21, 0xFF, 0xFF,  // ld hl, 0xFFFF
          0x01, 0x02, 0x00,  // ld bc, 2
          0x09});            // add hl, bc
  m.step_n(3);
  EXPECT_EQ(m.cpu.regs().hl(), 0x0001);
  EXPECT_TRUE(m.cpu.regs().f & Flag::C);
}

TEST(Cpu, Sbc16ZeroFlag) {
  BareMachine m;
  m.load({0x21, 0x34, 0x12,  // ld hl, 0x1234
          0x11, 0x34, 0x12,  // ld de, 0x1234
          0xB7,              // or a (clear carry)
          0xED, 0x52});      // sbc hl, de
  m.step_n(4);
  EXPECT_EQ(m.cpu.regs().hl(), 0);
  EXPECT_TRUE(m.cpu.regs().f & Flag::Z);
}

TEST(Cpu, RotatesThroughCarry) {
  BareMachine m;
  m.load({0x3E, 0x81,        // ld a, 81h
          0x07});            // rlca -> 0x03, carry set
  m.step_n(2);
  EXPECT_EQ(m.cpu.regs().a, 0x03);
  EXPECT_TRUE(m.cpu.regs().f & Flag::C);
}

TEST(Cpu, CbShiftsAndBitOps) {
  BareMachine m;
  m.load({0x06, 0x81,        // ld b, 81h
          0xCB, 0x38,        // srl b -> 0x40, carry 1
          0xCB, 0x78,        // bit 7, b -> Z set (bit is 0)
          0xCB, 0xF8,        // set 7, b
          0xCB, 0x40});      // bit 0, b -> Z set
  m.step_n(5);
  EXPECT_EQ(m.cpu.regs().b, 0xC0);
  EXPECT_TRUE(m.cpu.regs().f & Flag::Z);
}

// ---------------------------------------------------------------------------
// CPU: memory operands, stack, control flow
// ---------------------------------------------------------------------------

TEST(Cpu, HlIndirectLoadStore) {
  BareMachine m;
  m.load({0x21, 0x00, 0x70,  // ld hl, 0x7000 (data segment)
          0x36, 0x99,        // ld (hl), 99h
          0x7E});            // ld a, (hl)
  m.step_n(3);
  EXPECT_EQ(m.cpu.regs().a, 0x99);
}

TEST(Cpu, IndexedAddressing) {
  BareMachine m;
  m.load({0xDD, 0x21, 0x00, 0x70,  // ld ix, 0x7000
          0xDD, 0x36, 0x05, 0xAB,  // ld (ix+5), ABh
          0xDD, 0x7E, 0x05});      // ld a, (ix+5)
  m.step_n(3);
  EXPECT_EQ(m.cpu.regs().a, 0xAB);
  EXPECT_EQ(m.mem.read(0x7005), 0xAB);
}

TEST(Cpu, IndexedNegativeDisplacement) {
  BareMachine m;
  m.load({0xDD, 0x21, 0x10, 0x70,  // ld ix, 0x7010
          0xDD, 0x36, 0xFE, 0x55,  // ld (ix-2), 55h
          0xDD, 0x46, 0xFE});      // ld b, (ix-2)
  m.step_n(3);
  EXPECT_EQ(m.mem.read(0x700E), 0x55);
  EXPECT_EQ(m.cpu.regs().b, 0x55);
}

TEST(Cpu, PushPopRoundTrip) {
  BareMachine m;
  m.load({0x01, 0x34, 0x12,  // ld bc, 0x1234
          0xC5,              // push bc
          0xD1});            // pop de
  m.step_n(3);
  EXPECT_EQ(m.cpu.regs().de(), 0x1234);
  EXPECT_EQ(m.cpu.regs().sp, 0xDFF0);
}

TEST(Cpu, CallAndReturn) {
  BareMachine m;
  m.load({0xCD, 0x10, 0x01,  // call 0x0110
          0x76});            // halt
  m.mem.write_phys(0x0110, 0x3E);  // ld a, 0x77
  m.mem.write_phys(0x0111, 0x77);
  m.mem.write_phys(0x0112, 0xC9);  // ret
  m.step_n(4);
  EXPECT_TRUE(m.cpu.halted());
  EXPECT_EQ(m.cpu.regs().a, 0x77);
}

TEST(Cpu, DjnzLoops) {
  BareMachine m;
  m.load({0x06, 0x05,   // ld b, 5
          0x3C,         // inc a      <- loop
          0x10, 0xFD}); // djnz -3
  while (!m.cpu.halted() && m.cpu.regs().pc < 0x0105) m.cpu.step();
  EXPECT_EQ(m.cpu.regs().a, 5);
  EXPECT_EQ(m.cpu.regs().b, 0);
}

TEST(Cpu, ConditionalJumpTakenAndNot) {
  BareMachine m;
  m.load({0xAF,              // xor a (Z set)
          0xCA, 0x08, 0x01,  // jp z, 0x0108
          0x3E, 0xFF,        // (skipped) ld a, FFh
          0x00, 0x00,
          0x3C});            // 0x0108: inc a
  m.step_n(3);
  EXPECT_EQ(m.cpu.regs().a, 1);
}

TEST(Cpu, LdirBlockCopy) {
  BareMachine m;
  // Source bytes at 0x7000, copy 4 to 0x7100.
  for (int i = 0; i < 4; ++i)
    m.mem.write(static_cast<u16>(0x7000 + i), static_cast<u8>(i + 1));
  m.load({0x21, 0x00, 0x70,  // ld hl, 0x7000
          0x11, 0x00, 0x71,  // ld de, 0x7100
          0x01, 0x04, 0x00,  // ld bc, 4
          0xED, 0xB0});      // ldir
  m.step_n(3 + 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(m.mem.read(static_cast<u16>(0x7100 + i)), i + 1);
  }
  EXPECT_EQ(m.cpu.regs().bc(), 0);
}

TEST(Cpu, ExxSwapsRegisterBanks) {
  BareMachine m;
  m.load({0x01, 0x11, 0x11,  // ld bc, 0x1111
          0xD9,              // exx
          0x01, 0x22, 0x22,  // ld bc, 0x2222
          0xD9});            // exx
  m.step_n(4);
  EXPECT_EQ(m.cpu.regs().bc(), 0x1111);
}

// ---------------------------------------------------------------------------
// Rabbit-specific instructions
// ---------------------------------------------------------------------------

TEST(Cpu, MulSignedProduct) {
  BareMachine m;
  m.load({0x01, 0xE8, 0x03,  // ld bc, 1000
          0x11, 0x64, 0x00,  // ld de, 100
          0xF7});            // mul -> HL:BC = 100000 = 0x186A0
  m.step_n(3);
  EXPECT_EQ(m.cpu.regs().hl(), 0x0001);
  EXPECT_EQ(m.cpu.regs().bc(), 0x86A0);
}

TEST(Cpu, MulNegativeOperand) {
  BareMachine m;
  m.load({0x01, 0xFF, 0xFF,  // ld bc, -1
          0x11, 0x07, 0x00,  // ld de, 7
          0xF7});            // mul -> -7
  m.step_n(3);
  const common::u32 prod =
      (static_cast<common::u32>(m.cpu.regs().hl()) << 16) | m.cpu.regs().bc();
  EXPECT_EQ(static_cast<common::i32>(prod), -7);
}

TEST(Cpu, BoolHlNormalizes) {
  BareMachine m;
  m.load({0x21, 0x00, 0x80,  // ld hl, 0x8000
          0xED, 0x90,        // bool hl -> 1
          0x21, 0x00, 0x00,  // ld hl, 0
          0xED, 0x90});      // bool hl -> 0, Z set
  m.step_n(2);
  EXPECT_EQ(m.cpu.regs().hl(), 1);
  m.step_n(2);
  EXPECT_EQ(m.cpu.regs().hl(), 0);
  EXPECT_TRUE(m.cpu.regs().f & Flag::Z);
}

TEST(Cpu, XpcRegisterInstructions) {
  BareMachine m;
  m.load({0x3E, 0x12,        // ld a, 12h
          0xED, 0x67,        // ld xpc, a
          0x3E, 0x00,        // ld a, 0
          0xED, 0x77});      // ld a, xpc
  m.step_n(4);
  EXPECT_EQ(m.cpu.regs().a, 0x12);
  EXPECT_EQ(m.mem.xpc(), 0x12);
}

TEST(Cpu, LcallSwitchesBankAndLretRestores) {
  BareMachine m;
  // Far function in physical bank: phys 0x20100 -> window 0xE100 with XPC
  // 0x12 ((0x20100>>12)-0xE = 0x12).
  m.mem.write_phys(0x20100, 0x3E);  // ld a, 99h
  m.mem.write_phys(0x20101, 0x99);
  m.mem.write_phys(0x20102, 0xED);  // lret
  m.mem.write_phys(0x20103, 0xC9);
  m.load({0xED, 0xCD, 0x00, 0xE1, 0x12,  // lcall 0xE100, 0x12
          0x76});                        // halt
  m.step_n(4);
  EXPECT_TRUE(m.cpu.halted());
  EXPECT_EQ(m.cpu.regs().a, 0x99);
  EXPECT_EQ(m.mem.xpc(), 0x00);  // restored by lret
}

TEST(Cpu, Rst28CountsDebugTraps) {
  BareMachine m;
  m.mem.write_phys(0x0028, 0xC9);  // ret at the debug vector
  m.load({0xEF, 0xEF, 0xEF, 0x76});  // rst 28h x3; halt
  m.step_n(7);
  EXPECT_EQ(m.cpu.debug_traps(), 3u);
  EXPECT_TRUE(m.cpu.halted());
}

// ---------------------------------------------------------------------------
// Cycle accounting
// ---------------------------------------------------------------------------

TEST(Cpu, CyclesAccumulate) {
  BareMachine m;
  m.load({0x00, 0x00, 0x3E, 0x01});  // nop; nop; ld a,1
  m.step_n(3);
  EXPECT_EQ(m.cpu.cycles(), 2u + 2u + 4u);
  EXPECT_EQ(m.cpu.instructions_retired(), 3u);
}

TEST(Cpu, MemoryOpsCostMoreThanRegisterOps) {
  BareMachine m1, m2;
  m1.load({0x78});  // ld a, b        (register)
  m2.load({0x7E});  // ld a, (hl)     (memory)
  m1.cpu.step();
  m2.cpu.step();
  EXPECT_LT(m1.cpu.cycles(), m2.cpu.cycles());
}

TEST(Cpu, IllegalOpcodeReported) {
  BareMachine m;
  m.load({0xED, 0x00});
  const StopReason r = m.cpu.run(100);
  EXPECT_EQ(r, StopReason::kIllegal);
  EXPECT_NE(m.cpu.illegal_message().find("illegal opcode"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Interrupts + peripherals
// ---------------------------------------------------------------------------

TEST(Board, SerialRxInterruptVectorsToHandler) {
  Board board;
  auto& mem = board.mem();
  mem.set_flash_writable(true);
  // Interrupt slot for serial (vector 1) at 0x0048: jp 0x0200.
  mem.write_phys(0x0048, 0xC3);
  mem.write_phys(0x0049, 0x00);
  mem.write_phys(0x004A, 0x02);
  // ISR at 0x0200: read SADR into A, store to 0x7000, reti.
  const u8 isr[] = {0xDB, 0xC0,        // in a, (SADR)
                    0x32, 0x00, 0x70,  // ld (0x7000), a
                    0xED, 0x4D};       // reti
  for (std::size_t i = 0; i < sizeof isr; ++i)
    mem.write_phys(0x0200 + i, isr[i]);
  // Main at 0x0100: enable serial RX irq, ei, spin.
  const u8 main_prog[] = {0x3E, 0x01,        // ld a, 1
                          0xD3, 0xC2,        // out (SACR), a
                          0xFB,              // ei
                          0x18, 0xFE};       // jr $
  for (std::size_t i = 0; i < sizeof main_prog; ++i)
    mem.write_phys(0x0100 + i, main_prog[i]);
  mem.set_flash_writable(false);

  board.cpu().regs().pc = 0x0100;
  board.run(100);  // let it enable interrupts and start spinning
  board.serial().host_send("K");
  board.run(200);
  EXPECT_EQ(board.mem().read(0x7000), 'K');
}

TEST(Board, TimerFiresPeriodically) {
  Board board;
  auto& t = board.timer();
  // Program the timer directly via the bus: period 2 ticks (128 cycles), run.
  board.io().write(Board::kTimerBase + 1, 2);
  board.io().write(Board::kTimerBase + 0, 0x01);
  board.io().tick(128 * 5);
  EXPECT_GE(t.expirations(), 4u);
}

TEST(Board, CallUsesSentinelReturn) {
  Board board;
  Image img;
  img.chunks.push_back({0x0100, {0x21, 0x2A, 0x00,   // ld hl, 42
                                 0xC9}});            // ret
  img.symbols["answer"] = 0x0100;
  board.load(img);
  auto res = board.call("answer");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->stop, StopReason::kHalted);
  EXPECT_EQ(res->hl, 42);
  EXPECT_GT(res->cycles, 0u);
}

TEST(Board, CallUnknownSymbolFails) {
  Board board;
  Image img;
  img.chunks.push_back({0x0100, {0xC9}});
  board.load(img);
  auto res = board.call("missing");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), common::ErrorCode::kNotFound);
}

// ---------------------------------------------------------------------------
// IoBus mapping edges
// ---------------------------------------------------------------------------

// Scriptable device: reads return `id`, writes are recorded.
struct StubDevice final : public IoDevice {
  u8 id;
  std::vector<std::pair<u16, u8>> writes;
  explicit StubDevice(u8 id_) : id(id_) {}
  u8 io_read(u16) override { return id; }
  void io_write(u16 port, u8 value) override { writes.push_back({port, value}); }
};

TEST(IoBus, UnclaimedPortsFloatAndAreCounted) {
  IoBus bus;
  EXPECT_EQ(bus.read(0x0123), 0xFF);  // floating bus
  EXPECT_EQ(bus.unclaimed_reads(), 1u);
  bus.write(0x0123, 0x42);  // dropped, nothing claims it
  EXPECT_EQ(bus.unclaimed_writes(), 1u);
}

TEST(IoBus, OverlappingRegistrationLaterWins) {
  IoBus bus;
  StubDevice under(0x11), over(0x22);
  bus.map(0x0100, 0x010F, &under);
  bus.map(0x0104, 0x0107, &over);  // jumper override shadows the middle

  EXPECT_EQ(bus.read(0x0100), 0x11);
  EXPECT_EQ(bus.read(0x0104), 0x22);
  EXPECT_EQ(bus.read(0x0107), 0x22);
  EXPECT_EQ(bus.read(0x0108), 0x11);
  bus.write(0x0105, 9);
  ASSERT_EQ(over.writes.size(), 1u);
  EXPECT_TRUE(under.writes.empty());
  EXPECT_EQ(bus.unclaimed_reads(), 0u);
}

TEST(IoBus, UnmapRestoresShadowedRangeAndReportsCount) {
  IoBus bus;
  StubDevice under(0x11), over(0x22);
  bus.map(0x0100, 0x010F, &under);
  bus.map(0x0104, 0x0107, &over);
  bus.map(0x0200, 0x0201, &over);  // same card claims a second range

  EXPECT_EQ(bus.unmap(&over), 2u);  // both ranges pulled
  EXPECT_EQ(bus.read(0x0104), 0x11);  // shadowed device visible again
  EXPECT_EQ(bus.read(0x0200), 0xFF);  // second range floats now
  EXPECT_EQ(bus.unmap(&over), 0u);  // already gone: no-op
  StubDevice stranger(0x33);
  EXPECT_EQ(bus.unmap(&stranger), 0u);  // never mapped: no-op

  EXPECT_EQ(bus.unmap(&under), 1u);
  EXPECT_EQ(bus.read(0x0100), 0xFF);  // bus fully bare again
}

TEST(Board, SerialTxCollectedByHost) {
  Board board;
  auto& mem = board.mem();
  mem.set_flash_writable(true);
  const u8 prog[] = {0x3E, 'h', 0xD3, 0xC0,   // out 'h'
                     0x3E, 'i', 0xD3, 0xC0,   // out 'i'
                     0x76};                   // halt
  for (std::size_t i = 0; i < sizeof prog; ++i)
    mem.write_phys(0x0100 + i, prog[i]);
  mem.set_flash_writable(false);
  board.cpu().regs().pc = 0x0100;
  board.run(1000);
  EXPECT_EQ(board.serial().host_collect(), "hi");
}

}  // namespace
}  // namespace rmc::rabbit

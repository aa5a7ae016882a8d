// Property-style ISA sweeps: every 8-bit ALU operation, rotate/shift, and
// 16-bit arithmetic form is executed on the CPU core over a grid of operand
// values and compared against independently computed golden results
// (including full flag semantics). This pins the interpreter far more
// densely than the hand-picked cases in test_rabbit.cc.
#include <gtest/gtest.h>

#include "rabbit/cpu.h"
#include "rabbit/memory.h"

namespace rmc::rabbit {
namespace {

using common::u16;
using common::u32;
using common::u8;

struct AluGolden {
  u8 result;
  bool s, z, h, pv, n, c;
};

bool parity_even(u8 v) { return (__builtin_popcount(v) & 1) == 0; }

// Independent (re-derived, not copied) golden models.
AluGolden golden_add(u8 a, u8 b, bool cin) {
  const unsigned r = unsigned{a} + b + (cin ? 1 : 0);
  const u8 res = static_cast<u8>(r);
  return {res,
          (res & 0x80) != 0,
          res == 0,
          ((a & 0xF) + (b & 0xF) + (cin ? 1 : 0)) > 0xF,
          ((a ^ res) & (b ^ res) & 0x80) != 0,  // overflow, alternative form
          false,
          r > 0xFF};
}

AluGolden golden_sub(u8 a, u8 b, bool cin) {
  const unsigned r = unsigned{a} - b - (cin ? 1 : 0);
  const u8 res = static_cast<u8>(r);
  const auto sa = static_cast<common::i8>(a);
  const auto sb = static_cast<common::i8>(b);
  const int wide = sa - sb - (cin ? 1 : 0);
  return {res,
          (res & 0x80) != 0,
          res == 0,
          (a & 0xF) < ((b & 0xF) + (cin ? 1 : 0)),
          wide < -128 || wide > 127,
          true,
          r > 0xFF};
}

class AluMachine {
 public:
  AluMachine() : cpu_(mem_, io_) {
    mem_.set_flash_writable(true);
    cpu_.regs().sp = 0xDFF0;
  }

  // Run "ld a,<a>; [scf] ; <op> b" with B=<b>; returns A and flags.
  AluGolden run(u8 opcode, u8 a, u8 b, bool carry_in) {
    cpu_.reset();
    cpu_.regs().sp = 0xDFF0;
    cpu_.regs().pc = 0x0100;
    cpu_.regs().a = a;
    cpu_.regs().b = b;
    cpu_.regs().f = carry_in ? Flag::C : 0;
    mem_.write_phys(0x0100, opcode);  // ALU A,B form
    cpu_.step();
    const u8 f = cpu_.regs().f;
    return {cpu_.regs().a,
            (f & Flag::S) != 0,
            (f & Flag::Z) != 0,
            (f & Flag::H) != 0,
            (f & Flag::PV) != 0,
            (f & Flag::N) != 0,
            (f & Flag::C) != 0};
  }

  Cpu& cpu() { return cpu_; }
  Memory& mem() { return mem_; }

 private:
  Memory mem_;
  IoBus io_;
  Cpu cpu_;
};

// Operand grid: denser near the interesting edges.
const u8 kGrid[] = {0x00, 0x01, 0x02, 0x0F, 0x10, 0x3C, 0x7E, 0x7F,
                    0x80, 0x81, 0xAA, 0xCD, 0xF0, 0xFE, 0xFF};

class AluSweep : public ::testing::TestWithParam<bool> {};  // param: carry_in

TEST_P(AluSweep, AddAdcAgainstGolden) {
  const bool cin = GetParam();
  AluMachine m;
  for (u8 a : kGrid) {
    for (u8 b : kGrid) {
      // ADD ignores incoming carry; ADC consumes it.
      const AluGolden want_add = golden_add(a, b, false);
      const AluGolden got_add = m.run(0x80, a, b, cin);
      EXPECT_EQ(got_add.result, want_add.result) << +a << "+" << +b;
      EXPECT_EQ(got_add.c, want_add.c) << +a << "+" << +b;
      EXPECT_EQ(got_add.z, want_add.z);
      EXPECT_EQ(got_add.s, want_add.s);
      EXPECT_EQ(got_add.pv, want_add.pv) << +a << "+" << +b;
      EXPECT_EQ(got_add.h, want_add.h);
      EXPECT_FALSE(got_add.n);

      const AluGolden want_adc = golden_add(a, b, cin);
      const AluGolden got_adc = m.run(0x88, a, b, cin);
      EXPECT_EQ(got_adc.result, want_adc.result) << +a << "+" << +b << "+" << cin;
      EXPECT_EQ(got_adc.c, want_adc.c);
      EXPECT_EQ(got_adc.pv, want_adc.pv);
    }
  }
}

TEST_P(AluSweep, SubSbcCpAgainstGolden) {
  const bool cin = GetParam();
  AluMachine m;
  for (u8 a : kGrid) {
    for (u8 b : kGrid) {
      const AluGolden want_sub = golden_sub(a, b, false);
      const AluGolden got_sub = m.run(0x90, a, b, cin);
      EXPECT_EQ(got_sub.result, want_sub.result) << +a << "-" << +b;
      EXPECT_EQ(got_sub.c, want_sub.c) << +a << "-" << +b;
      EXPECT_EQ(got_sub.s, want_sub.s);
      EXPECT_EQ(got_sub.pv, want_sub.pv) << +a << "-" << +b;
      EXPECT_TRUE(got_sub.n);

      const AluGolden want_sbc = golden_sub(a, b, cin);
      const AluGolden got_sbc = m.run(0x98, a, b, cin);
      EXPECT_EQ(got_sbc.result, want_sbc.result);
      EXPECT_EQ(got_sbc.c, want_sbc.c);

      // CP: flags of SUB, A preserved.
      const AluGolden got_cp = m.run(0xB8, a, b, cin);
      EXPECT_EQ(got_cp.result, a) << "cp must not modify A";
      EXPECT_EQ(got_cp.z, want_sub.z);
      EXPECT_EQ(got_cp.c, want_sub.c);
    }
  }
}

TEST_P(AluSweep, LogicOpsAgainstGolden) {
  const bool cin = GetParam();
  AluMachine m;
  for (u8 a : kGrid) {
    for (u8 b : kGrid) {
      struct {
        u8 opcode;
        u8 expect;
        bool h;
      } cases[] = {
          {0xA0, static_cast<u8>(a & b), true},   // AND
          {0xA8, static_cast<u8>(a ^ b), false},  // XOR
          {0xB0, static_cast<u8>(a | b), false},  // OR
      };
      for (const auto& c : cases) {
        const AluGolden got = m.run(c.opcode, a, b, cin);
        EXPECT_EQ(got.result, c.expect);
        EXPECT_FALSE(got.c) << "logic ops clear carry";
        EXPECT_EQ(got.z, c.expect == 0);
        EXPECT_EQ(got.s, (c.expect & 0x80) != 0);
        EXPECT_EQ(got.pv, parity_even(c.expect));
        EXPECT_EQ(got.h, c.h);
        EXPECT_FALSE(got.n);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CarryStates, AluSweep, ::testing::Bool());

// ---------------------------------------------------------------------------
// Rotate / shift sweep
// ---------------------------------------------------------------------------

struct RotCase {
  u8 cb_op;  // CB-prefixed opcode for register B
  const char* name;
  u8 (*model)(u8 v, bool cin, bool& cout);
};

// Print a case by name. gtest's default dumps the struct's bytes, which
// include the name and model pointers that move with ASLR, so the test
// names ctest discovers would change from one build to the next.
void PrintTo(const RotCase& rc, std::ostream* os) { *os << rc.name; }

u8 model_rlc(u8 v, bool, bool& cout) {
  cout = v & 0x80;
  return static_cast<u8>((v << 1) | (v >> 7));
}
u8 model_rrc(u8 v, bool, bool& cout) {
  cout = v & 1;
  return static_cast<u8>((v >> 1) | (v << 7));
}
u8 model_rl(u8 v, bool cin, bool& cout) {
  cout = v & 0x80;
  return static_cast<u8>((v << 1) | (cin ? 1 : 0));
}
u8 model_rr(u8 v, bool cin, bool& cout) {
  cout = v & 1;
  return static_cast<u8>((v >> 1) | (cin ? 0x80 : 0));
}
u8 model_sla(u8 v, bool, bool& cout) {
  cout = v & 0x80;
  return static_cast<u8>(v << 1);
}
u8 model_sra(u8 v, bool, bool& cout) {
  cout = v & 1;
  return static_cast<u8>((v >> 1) | (v & 0x80));
}
u8 model_srl(u8 v, bool, bool& cout) {
  cout = v & 1;
  return static_cast<u8>(v >> 1);
}

class RotSweep : public ::testing::TestWithParam<RotCase> {};

TEST_P(RotSweep, AllBytesBothCarryStates) {
  const RotCase& rc = GetParam();
  AluMachine m;
  for (int v = 0; v < 256; ++v) {
    for (bool cin : {false, true}) {
      m.cpu().reset();
      m.cpu().regs().pc = 0x0100;
      m.cpu().regs().b = static_cast<u8>(v);
      m.cpu().regs().f = cin ? Flag::C : 0;
      m.mem().write_phys(0x0100, 0xCB);
      m.mem().write_phys(0x0101, rc.cb_op);
      m.cpu().step();
      bool want_c = false;
      const u8 want = rc.model(static_cast<u8>(v), cin, want_c);
      EXPECT_EQ(m.cpu().regs().b, want) << rc.name << " v=" << v;
      EXPECT_EQ((m.cpu().regs().f & Flag::C) != 0, want_c)
          << rc.name << " v=" << v;
      EXPECT_EQ((m.cpu().regs().f & Flag::Z) != 0, want == 0);
      EXPECT_EQ((m.cpu().regs().f & Flag::PV) != 0, parity_even(want));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRotates, RotSweep,
    ::testing::Values(RotCase{0x00, "rlc", model_rlc},
                      RotCase{0x08, "rrc", model_rrc},
                      RotCase{0x10, "rl", model_rl},
                      RotCase{0x18, "rr", model_rr},
                      RotCase{0x20, "sla", model_sla},
                      RotCase{0x28, "sra", model_sra},
                      RotCase{0x38, "srl", model_srl}));

// ---------------------------------------------------------------------------
// 16-bit arithmetic sweep
// ---------------------------------------------------------------------------

const u16 kGrid16[] = {0x0000, 0x0001, 0x00FF, 0x0100, 0x0FFF, 0x1000,
                       0x7FFF, 0x8000, 0x8001, 0xAAAA, 0xFFFE, 0xFFFF};

TEST(Alu16, AddHlSweep) {
  AluMachine m;
  for (u16 a : kGrid16) {
    for (u16 b : kGrid16) {
      m.cpu().reset();
      m.cpu().regs().pc = 0x0100;
      m.cpu().regs().set_hl(a);
      m.cpu().regs().set_de(b);
      m.mem().write_phys(0x0100, 0x19);  // add hl, de
      m.cpu().step();
      EXPECT_EQ(m.cpu().regs().hl(), static_cast<u16>(a + b));
      EXPECT_EQ((m.cpu().regs().f & Flag::C) != 0,
                (u32{a} + b) > 0xFFFF);
    }
  }
}

TEST(Alu16, SbcHlSweep) {
  AluMachine m;
  for (u16 a : kGrid16) {
    for (u16 b : kGrid16) {
      for (bool cin : {false, true}) {
        m.cpu().reset();
        m.cpu().regs().pc = 0x0100;
        m.cpu().regs().set_hl(a);
        m.cpu().regs().set_de(b);
        m.cpu().regs().f = cin ? Flag::C : 0;
        m.mem().write_phys(0x0100, 0xED);
        m.mem().write_phys(0x0101, 0x52);  // sbc hl, de
        m.cpu().step();
        const u16 want = static_cast<u16>(a - b - (cin ? 1 : 0));
        EXPECT_EQ(m.cpu().regs().hl(), want);
        EXPECT_EQ((m.cpu().regs().f & Flag::C) != 0,
                  (u32{a} - b - (cin ? 1 : 0)) > 0xFFFF);
        EXPECT_EQ((m.cpu().regs().f & Flag::Z) != 0, want == 0);
      }
    }
  }
}

TEST(Alu16, MulSweepAgainstHost) {
  AluMachine m;
  for (u16 a : kGrid16) {
    for (u16 b : kGrid16) {
      m.cpu().reset();
      m.cpu().regs().pc = 0x0100;
      m.cpu().regs().set_bc(a);
      m.cpu().regs().set_de(b);
      m.mem().write_phys(0x0100, 0xF7);  // mul
      m.cpu().step();
      const auto want = static_cast<common::i32>(
                            static_cast<common::i16>(a)) *
                        static_cast<common::i16>(b);
      const u32 got = (u32{m.cpu().regs().hl()} << 16) | m.cpu().regs().bc();
      EXPECT_EQ(static_cast<common::i32>(got), want)
          << a << " * " << b;
    }
  }
}

TEST(Alu16, IncDecDontTouchFlags) {
  AluMachine m;
  for (u16 a : kGrid16) {
    m.cpu().reset();
    m.cpu().regs().pc = 0x0100;
    m.cpu().regs().set_bc(a);
    m.cpu().regs().f = Flag::C | Flag::Z | Flag::S;
    m.mem().write_phys(0x0100, 0x03);  // inc bc
    m.mem().write_phys(0x0101, 0x0B);  // dec bc
    m.cpu().step();
    EXPECT_EQ(m.cpu().regs().bc(), static_cast<u16>(a + 1));
    m.cpu().step();
    EXPECT_EQ(m.cpu().regs().bc(), a);
    EXPECT_EQ(m.cpu().regs().f, Flag::C | Flag::Z | Flag::S);
  }
}

// ---------------------------------------------------------------------------
// DAA: pin against BCD addition semantics
// ---------------------------------------------------------------------------

TEST(Daa, BcdAdditionProperty) {
  // For BCD digits a,b in 0..99: add binary, DAA, result must be the BCD
  // encoding of (a+b) % 100 with carry = (a+b) >= 100.
  AluMachine m;
  auto to_bcd = [](int v) {
    return static_cast<u8>(((v / 10) << 4) | (v % 10));
  };
  for (int a = 0; a < 100; a += 3) {
    for (int b = 0; b < 100; b += 7) {
      m.cpu().reset();
      m.cpu().regs().pc = 0x0100;
      m.cpu().regs().a = to_bcd(a);
      m.cpu().regs().b = to_bcd(b);
      m.mem().write_phys(0x0100, 0x80);  // add a, b
      m.mem().write_phys(0x0101, 0x27);  // daa
      m.cpu().step();
      m.cpu().step();
      const int sum = a + b;
      EXPECT_EQ(m.cpu().regs().a, to_bcd(sum % 100)) << a << "+" << b;
      EXPECT_EQ((m.cpu().regs().f & Flag::C) != 0, sum >= 100) << a << "+" << b;
    }
  }
}

}  // namespace
}  // namespace rmc::rabbit

#include "rabbit/cpu.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace rmc::rabbit {

void Cpu::reset() {
  regs_ = Registers{};
  cycles_ = 0;
  instructions_ = 0;
  debug_traps_ = 0;
  halted_ = false;
  iff_ = false;
  ei_delay_ = false;
  illegal_ = false;
  illegal_message_.clear();
  // The micro-op cache is keyed by physical address and coherent with the
  // backing bytes (Memory's code watch), so it survives resets.
}

DispatchMode Cpu::default_dispatch() {
  static const DispatchMode mode = [] {
    const char* env = std::getenv("RMC_DISPATCH");
    if (env != nullptr && std::string_view(env) == "legacy") {
      return DispatchMode::kLegacy;
    }
    return DispatchMode::kFast;
  }();
  return mode;
}

void Cpu::on_code_write(u32 phys) {
  // Only decodings that *cover* the written byte can go stale: an
  // instruction is at most kMaxUopBytes long and never cached across a page
  // boundary, so clearing the handful of slots ending at `phys` suffices.
  // Anything coarser (wiping the page) turns a data write that happens to
  // share a page with code into a 32 KiB fill — pathological for hot loops.
  const u32 page = phys / Memory::kPageSize;
  UopPage* p = uop_pages_[page].get();
  if (p == nullptr) return;
  const u32 off = phys & (Memory::kPageSize - 1);
  const u32 first = off >= kMaxUopBytes - 1 ? off - (kMaxUopBytes - 1) : 0;
  for (u32 i = first; i <= off; ++i) p->ops[i] = Uop{};
}

u8 Cpu::read_r(unsigned code) {
  switch (code) {
    case 0: return regs_.b;
    case 1: return regs_.c;
    case 2: return regs_.d;
    case 3: return regs_.e;
    case 4: return regs_.h;
    case 5: return regs_.l;
    case 6: return mem_.read(regs_.hl());
    default: return regs_.a;
  }
}

void Cpu::write_r(unsigned code, u8 v) {
  switch (code) {
    case 0: regs_.b = v; break;
    case 1: regs_.c = v; break;
    case 2: regs_.d = v; break;
    case 3: regs_.e = v; break;
    case 4: regs_.h = v; break;
    case 5: regs_.l = v; break;
    case 6: mem_.write(regs_.hl(), v); break;
    default: regs_.a = v; break;
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

unsigned Cpu::service_interrupt() {
  // iff_ first: with interrupts globally disabled no device can be taken,
  // so the (virtual, per-device) pending_irq scan is skipped entirely.
  if (!iff_) return 0;
  IoDevice* dev = io_.pending_irq();
  if (dev == nullptr) return 0;
  iff_ = false;
  halted_ = false;
  push16(regs_.pc);
  // Interrupt table: 8-byte slots starting at 0x0040; the board's crt0 is
  // expected to place a JP <isr> in the device's slot.
  regs_.pc = static_cast<u16>(0x0040 + dev->irq_vector() * 8);
  return 13;
}

unsigned Cpu::step() {
  // Observation state is captured before execution: the instruction at pc0
  // was fetched under the segment registers in force *now* (LD XPC,A inside
  // the instruction must not retroactively move its own attribution).
  const u16 pc0 = regs_.pc;
  const u32 phys0 = observer_ != nullptr ? mem_.translate(pc0) : 0;
  if (unsigned c = service_interrupt()) {
    cycles_ += c;
    io_.tick(c);
    observe(pc0, phys0, c);
    return c;
  }
  if (halted_) {
    cycles_ += 2;
    io_.tick(2);
    observe(pc0, phys0, 2);
    return 2;
  }
  const bool enable_after = ei_delay_;
  const u8 op = fetch8();
  unsigned c;
  switch (op) {
    case 0xCB: c = exec_cb(); break;
    case 0xED: c = exec_ed(); break;
    case 0xDD: {
      u16 ix = regs_.ix;
      c = exec_index(ix);
      regs_.ix = ix;
      break;
    }
    case 0xFD: {
      u16 iy = regs_.iy;
      c = exec_index(iy);
      regs_.iy = iy;
      break;
    }
    default: c = exec_main(op); break;
  }
  if (enable_after) {
    iff_ = true;
    ei_delay_ = false;
  }
  ++instructions_;
  cycles_ += c;
  io_.tick(c);
  observe(pc0, phys0, c);
  return c;
}

StopReason Cpu::run(u64 max_cycles) {
  const u64 limit = cycles_ + max_cycles;
  while (cycles_ < limit) {
    if (dispatch_ == DispatchMode::kFast && breakpoints_.empty() && !iff_ &&
        !ei_delay_ && !halted_ && !illegal_) {
      // Fast dispatch covers every span that needs no per-step precision;
      // it returns with the budget spent or a precision condition raised.
      run_fast(limit);
      if (illegal_) return StopReason::kIllegal;
      if (halted_ && !iff_) return StopReason::kHalted;
      continue;
    }
    if (!breakpoints_.empty() && bp_hit(regs_.pc)) {
      return StopReason::kBreakpoint;
    }
    step();
    if (illegal_) return StopReason::kIllegal;
    if (halted_ && !iff_) return StopReason::kHalted;
    // Halted with interrupts enabled: keep ticking devices until one fires
    // (step() advances 2 cycles per idle iteration).
  }
  return halted_ ? StopReason::kHalted : StopReason::kCycleLimit;
}

bool Cpu::bp_hit(u16 pc) const {
  return std::binary_search(breakpoints_.begin(), breakpoints_.end(), pc);
}

void Cpu::add_breakpoint(u16 addr) {
  const auto it =
      std::lower_bound(breakpoints_.begin(), breakpoints_.end(), addr);
  if (it == breakpoints_.end() || *it != addr) breakpoints_.insert(it, addr);
}

void Cpu::clear_breakpoints() { breakpoints_.clear(); }

unsigned Cpu::illegal(u8 prefix, u8 op) {
  illegal_ = true;
  char buf[64];
  if (prefix) {
    std::snprintf(buf, sizeof buf, "illegal opcode %02X %02X at %04X", prefix,
                  op, static_cast<unsigned>(regs_.pc - 2));
  } else {
    std::snprintf(buf, sizeof buf, "illegal opcode %02X at %04X", op,
                  static_cast<unsigned>(regs_.pc - 1));
  }
  illegal_message_ = buf;
  return 2;
}

unsigned Cpu::exec_main(u8 op) {
  Registers& r = regs_;
  // LD r,r' block (0x40-0x7F) minus HALT.
  if (op >= 0x40 && op <= 0x7F) {
    if (op == 0x76) {  // HALT
      halted_ = true;
      return 2;
    }
    const unsigned dst = (op >> 3) & 7;
    const unsigned src = op & 7;
    write_r(dst, read_r(src));
    return (dst == 6 || src == 6) ? 6 : 2;
  }
  // ALU A,r block (0x80-0xBF).
  if (op >= 0x80 && op <= 0xBF) {
    const unsigned src = op & 7;
    const u8 v = read_r(src);
    switch ((op >> 3) & 7) {
      case 0: r.a = alu_add8(r.a, v, false); break;
      case 1: r.a = alu_add8(r.a, v, flag(Flag::C)); break;
      case 2: r.a = alu_sub8(r.a, v, false); break;
      case 3: r.a = alu_sub8(r.a, v, flag(Flag::C)); break;
      case 4: r.a &= v; alu_logic(r.a, true); break;
      case 5: r.a ^= v; alu_logic(r.a, false); break;
      case 6: r.a |= v; alu_logic(r.a, false); break;
      case 7: alu_sub8(r.a, v, false); break;  // CP
    }
    return src == 6 ? 5 : 2;
  }

  switch (op) {
    case 0x00: return 2;  // NOP
    case 0x01: r.set_bc(fetch16()); return 6;
    case 0x11: r.set_de(fetch16()); return 6;
    case 0x21: r.set_hl(fetch16()); return 6;
    case 0x31: r.sp = fetch16(); return 6;

    case 0x02: mem_.write(r.bc(), r.a); return 7;
    case 0x12: mem_.write(r.de(), r.a); return 7;
    case 0x0A: r.a = mem_.read(r.bc()); return 6;
    case 0x1A: r.a = mem_.read(r.de()); return 6;

    case 0x03: r.set_bc(static_cast<u16>(r.bc() + 1)); return 2;
    case 0x13: r.set_de(static_cast<u16>(r.de() + 1)); return 2;
    case 0x23: r.set_hl(static_cast<u16>(r.hl() + 1)); return 2;
    case 0x33: r.sp = static_cast<u16>(r.sp + 1); return 2;
    case 0x0B: r.set_bc(static_cast<u16>(r.bc() - 1)); return 2;
    case 0x1B: r.set_de(static_cast<u16>(r.de() - 1)); return 2;
    case 0x2B: r.set_hl(static_cast<u16>(r.hl() - 1)); return 2;
    case 0x3B: r.sp = static_cast<u16>(r.sp - 1); return 2;

    case 0x04: case 0x0C: case 0x14: case 0x1C:
    case 0x24: case 0x2C: case 0x34: case 0x3C: {
      const unsigned dst = (op >> 3) & 7;
      write_r(dst, alu_inc8(read_r(dst)));
      return dst == 6 ? 8 : 2;
    }
    case 0x05: case 0x0D: case 0x15: case 0x1D:
    case 0x25: case 0x2D: case 0x35: case 0x3D: {
      const unsigned dst = (op >> 3) & 7;
      write_r(dst, alu_dec8(read_r(dst)));
      return dst == 6 ? 8 : 2;
    }
    case 0x06: case 0x0E: case 0x16: case 0x1E:
    case 0x26: case 0x2E: case 0x36: case 0x3E: {
      const unsigned dst = (op >> 3) & 7;
      write_r(dst, fetch8());
      return dst == 6 ? 7 : 4;
    }

    case 0x07: {  // RLCA
      const bool carry = (r.a & 0x80) != 0;
      r.a = static_cast<u8>((r.a << 1) | (carry ? 1 : 0));
      set_flag(Flag::C, carry);
      set_flag(Flag::N, false);
      set_flag(Flag::H, false);
      return 2;
    }
    case 0x0F: {  // RRCA
      const bool carry = (r.a & 1) != 0;
      r.a = static_cast<u8>((r.a >> 1) | (carry ? 0x80 : 0));
      set_flag(Flag::C, carry);
      set_flag(Flag::N, false);
      set_flag(Flag::H, false);
      return 2;
    }
    case 0x17: {  // RLA
      const bool carry = (r.a & 0x80) != 0;
      r.a = static_cast<u8>((r.a << 1) | (flag(Flag::C) ? 1 : 0));
      set_flag(Flag::C, carry);
      set_flag(Flag::N, false);
      set_flag(Flag::H, false);
      return 2;
    }
    case 0x1F: {  // RRA
      const bool carry = (r.a & 1) != 0;
      r.a = static_cast<u8>((r.a >> 1) | (flag(Flag::C) ? 0x80 : 0));
      set_flag(Flag::C, carry);
      set_flag(Flag::N, false);
      set_flag(Flag::H, false);
      return 2;
    }

    case 0x08: {  // EX AF,AF'
      std::swap(r.a, r.a2);
      std::swap(r.f, r.f2);
      return 2;
    }
    case 0xD9: {  // EXX
      std::swap(r.b, r.b2); std::swap(r.c, r.c2);
      std::swap(r.d, r.d2); std::swap(r.e, r.e2);
      std::swap(r.h, r.h2); std::swap(r.l, r.l2);
      return 2;
    }

    case 0x09: r.set_hl(alu_add16(r.hl(), r.bc())); return 2;
    case 0x19: r.set_hl(alu_add16(r.hl(), r.de())); return 2;
    case 0x29: r.set_hl(alu_add16(r.hl(), r.hl())); return 2;
    case 0x39: r.set_hl(alu_add16(r.hl(), r.sp)); return 2;

    case 0x10: {  // DJNZ d
      const auto d = static_cast<common::i8>(fetch8());
      r.b = static_cast<u8>(r.b - 1);
      if (r.b != 0) {
        r.pc = static_cast<u16>(r.pc + d);
        return 10;
      }
      return 5;
    }
    case 0x18: {  // JR d
      const auto d = static_cast<common::i8>(fetch8());
      r.pc = static_cast<u16>(r.pc + d);
      return 5;
    }
    case 0x20: case 0x28: case 0x30: case 0x38: {  // JR cc,d
      const auto d = static_cast<common::i8>(fetch8());
      if (cond((op >> 3) & 3)) {
        r.pc = static_cast<u16>(r.pc + d);
        return 5;
      }
      return 3;
    }

    case 0x22: {  // LD (nn),HL
      const u16 nn = fetch16();
      mem_.write16(nn, r.hl());
      return 13;
    }
    case 0x2A: {  // LD HL,(nn)
      const u16 nn = fetch16();
      r.set_hl(mem_.read16(nn));
      return 11;
    }
    case 0x32: mem_.write(fetch16(), r.a); return 10;
    case 0x3A: r.a = mem_.read(fetch16()); return 9;

    case 0x27: {  // DAA
      u8 correction = 0;
      bool carry = flag(Flag::C);
      if (flag(Flag::H) || (r.a & 0x0F) > 9) correction |= 0x06;
      if (carry || r.a > 0x99) {
        correction |= 0x60;
        carry = true;
      }
      const u8 before = r.a;
      r.a = flag(Flag::N) ? static_cast<u8>(r.a - correction)
                          : static_cast<u8>(r.a + correction);
      set_flag(Flag::S, (r.a & 0x80) != 0);
      set_flag(Flag::Z, r.a == 0);
      set_flag(Flag::H, ((before ^ r.a) & 0x10) != 0);
      set_flag(Flag::PV, parity_even(r.a));
      set_flag(Flag::C, carry);
      return 4;
    }
    case 0x2F:  // CPL
      r.a = static_cast<u8>(~r.a);
      set_flag(Flag::H, true);
      set_flag(Flag::N, true);
      return 2;
    case 0x37:  // SCF
      set_flag(Flag::C, true);
      set_flag(Flag::H, false);
      set_flag(Flag::N, false);
      return 2;
    case 0x3F:  // CCF
      set_flag(Flag::H, flag(Flag::C));
      set_flag(Flag::C, !flag(Flag::C));
      set_flag(Flag::N, false);
      return 2;

    case 0xC0: case 0xC8: case 0xD0: case 0xD8:
    case 0xE0: case 0xE8: case 0xF0: case 0xF8:  // RET cc
      if (cond((op >> 3) & 7)) {
        r.pc = pop16();
        return 8;
      }
      return 2;
    case 0xC9: r.pc = pop16(); return 8;  // RET

    case 0xC1: r.set_bc(pop16()); return 7;
    case 0xD1: r.set_de(pop16()); return 7;
    case 0xE1: r.set_hl(pop16()); return 7;
    case 0xF1: r.set_af(pop16()); return 7;
    case 0xC5: push16(r.bc()); return 10;
    case 0xD5: push16(r.de()); return 10;
    case 0xE5: push16(r.hl()); return 10;
    case 0xF5: push16(r.af()); return 10;

    case 0xC3: r.pc = fetch16(); return 7;  // JP nn
    case 0xC2: case 0xCA: case 0xD2: case 0xDA:
    case 0xE2: case 0xEA: case 0xF2: case 0xFA: {  // JP cc,nn
      const u16 nn = fetch16();
      if (cond((op >> 3) & 7)) r.pc = nn;
      return 7;
    }
    case 0xCD: {  // CALL nn
      const u16 nn = fetch16();
      push16(r.pc);
      r.pc = nn;
      return 12;
    }
    case 0xC4: case 0xCC: case 0xD4: case 0xDC:
    case 0xE4: case 0xEC: case 0xF4: case 0xFC: {  // CALL cc,nn
      const u16 nn = fetch16();
      if (cond((op >> 3) & 7)) {
        push16(r.pc);
        r.pc = nn;
        return 12;
      }
      return 6;
    }

    case 0xC6: r.a = alu_add8(r.a, fetch8(), false); return 4;
    case 0xCE: r.a = alu_add8(r.a, fetch8(), flag(Flag::C)); return 4;
    case 0xD6: r.a = alu_sub8(r.a, fetch8(), false); return 4;
    case 0xDE: r.a = alu_sub8(r.a, fetch8(), flag(Flag::C)); return 4;
    case 0xE6: r.a &= fetch8(); alu_logic(r.a, true); return 4;
    case 0xEE: r.a ^= fetch8(); alu_logic(r.a, false); return 4;
    case 0xF6: r.a |= fetch8(); alu_logic(r.a, false); return 4;
    case 0xFE: alu_sub8(r.a, fetch8(), false); return 4;  // CP n

    // RST vectors. RST 28h doubles as the Dynamic C debug hook: Dynamic C
    // inserts one before every C statement in debug builds; we count them so
    // benches can report debug-instrumentation overhead directly.
    case 0xC7: case 0xCF: case 0xD7: case 0xDF:
    case 0xE7: case 0xEF: case 0xFF: {
      if (op == 0xEF) ++debug_traps_;
      push16(r.pc);
      r.pc = static_cast<u16>(op & 0x38);
      return 10;
    }
    case 0xF7: {  // MUL (Rabbit): HL:BC = BC * DE, signed
      const auto prod = static_cast<common::i32>(
                            static_cast<common::i16>(r.bc())) *
                        static_cast<common::i16>(r.de());
      const auto up = static_cast<u32>(prod);
      r.set_bc(static_cast<u16>(up & 0xFFFF));
      r.set_hl(static_cast<u16>(up >> 16));
      return 12;
    }

    case 0xD3: io_.write(fetch8(), r.a); return 8;   // OUT (n),A
    case 0xDB: r.a = io_.read(fetch8()); return 8;   // IN A,(n)

    case 0xE3: {  // EX (SP),HL
      const u16 tmp = mem_.read16(r.sp);
      mem_.write16(r.sp, r.hl());
      r.set_hl(tmp);
      return 15;
    }
    case 0xE9: r.pc = r.hl(); return 4;  // JP (HL)
    case 0xEB: {                         // EX DE,HL
      const u16 tmp = r.de();
      r.set_de(r.hl());
      r.set_hl(tmp);
      return 2;
    }
    case 0xF9: r.sp = r.hl(); return 2;  // LD SP,HL

    case 0xF3: iff_ = false; return 2;            // DI
    case 0xFB: ei_delay_ = true; return 2;        // EI

    default:
      return illegal(0, op);
  }
}

unsigned Cpu::exec_cb() {
  const u8 op = fetch8();
  const unsigned reg = op & 7;
  const unsigned bit = (op >> 3) & 7;
  switch (op >> 6) {
    case 0: {  // rotate/shift group
      if (bit == 6) return illegal(0xCB, op);  // SLL unsupported on Rabbit
      write_r(reg, rot_op(bit, read_r(reg)));
      return reg == 6 ? 10 : 4;
    }
    case 1: {  // BIT b,r
      const u8 v = read_r(reg);
      set_flag(Flag::Z, (v & (1U << bit)) == 0);
      set_flag(Flag::H, true);
      set_flag(Flag::N, false);
      return reg == 6 ? 7 : 4;
    }
    case 2:  // RES b,r
      write_r(reg, static_cast<u8>(read_r(reg) & ~(1U << bit)));
      return reg == 6 ? 10 : 4;
    default:  // SET b,r
      write_r(reg, static_cast<u8>(read_r(reg) | (1U << bit)));
      return reg == 6 ? 10 : 4;
  }
}

unsigned Cpu::exec_ed() {
  Registers& r = regs_;
  const u8 op = fetch8();
  switch (op) {
    case 0x42: r.set_hl(alu_sbc16(r.hl(), r.bc(), flag(Flag::C))); return 4;
    case 0x52: r.set_hl(alu_sbc16(r.hl(), r.de(), flag(Flag::C))); return 4;
    case 0x62: r.set_hl(alu_sbc16(r.hl(), r.hl(), flag(Flag::C))); return 4;
    case 0x72: r.set_hl(alu_sbc16(r.hl(), r.sp, flag(Flag::C))); return 4;
    case 0x4A: r.set_hl(alu_adc16(r.hl(), r.bc(), flag(Flag::C))); return 4;
    case 0x5A: r.set_hl(alu_adc16(r.hl(), r.de(), flag(Flag::C))); return 4;
    case 0x6A: r.set_hl(alu_adc16(r.hl(), r.hl(), flag(Flag::C))); return 4;
    case 0x7A: r.set_hl(alu_adc16(r.hl(), r.sp, flag(Flag::C))); return 4;

    case 0x43: mem_.write16(fetch16(), r.bc()); return 13;
    case 0x53: mem_.write16(fetch16(), r.de()); return 13;
    case 0x63: mem_.write16(fetch16(), r.hl()); return 13;
    case 0x73: mem_.write16(fetch16(), r.sp); return 13;
    case 0x4B: r.set_bc(mem_.read16(fetch16())); return 13;
    case 0x5B: r.set_de(mem_.read16(fetch16())); return 13;
    case 0x6B: r.set_hl(mem_.read16(fetch16())); return 13;
    case 0x7B: r.sp = mem_.read16(fetch16()); return 13;

    case 0x44: {  // NEG
      const u8 a = r.a;
      r.a = alu_sub8(0, a, false);
      return 2;
    }
    case 0x4D:  // RETI: return + restore interrupt enable (the Rabbit's
                // ipset/ipres priority pop, collapsed to one level)
      r.pc = pop16();
      iff_ = true;
      return 8;

    // Rabbit bank-switch register access (real Rabbit 2000 encodings).
    case 0x67: mem_.set_xpc(r.a); return 4;  // LD XPC,A
    case 0x77: r.a = mem_.xpc(); return 4;   // LD A,XPC

    // Rabbit BOOL HL (our ED encoding): HL = (HL != 0) ? 1 : 0; Z/C updated.
    case 0x90: {
      const u16 v = r.hl();
      r.set_hl(v != 0 ? 1 : 0);
      set_flag(Flag::Z, v == 0);
      set_flag(Flag::C, false);
      set_flag(Flag::S, false);
      return 2;
    }

    // Far control flow (our ED encodings; semantics match Rabbit LCALL/LJP/
    // LRET: the callee's bank byte travels with the return address).
    case 0xC3: {  // LJP nn,xpc
      const u16 nn = fetch16();
      const u8 xpc = fetch8();
      r.pc = nn;
      mem_.set_xpc(xpc);
      return 10;
    }
    case 0xCD: {  // LCALL nn,xpc
      const u16 nn = fetch16();
      const u8 xpc = fetch8();
      push16(r.pc);
      push16(mem_.xpc());
      r.pc = nn;
      mem_.set_xpc(xpc);
      return 19;
    }
    case 0xC9: {  // LRET
      mem_.set_xpc(static_cast<u8>(pop16()));
      r.pc = pop16();
      return 13;
    }

    case 0xA0: case 0xA8: case 0xB0: case 0xB8: {  // LDI/LDD/LDIR/LDDR
      const int dir = (op & 0x08) ? -1 : 1;
      const bool repeat = (op & 0x10) != 0;
      mem_.write(r.de(), mem_.read(r.hl()));
      r.set_hl(static_cast<u16>(r.hl() + dir));
      r.set_de(static_cast<u16>(r.de() + dir));
      r.set_bc(static_cast<u16>(r.bc() - 1));
      set_flag(Flag::H, false);
      set_flag(Flag::N, false);
      set_flag(Flag::PV, r.bc() != 0);
      if (repeat && r.bc() != 0) {
        r.pc = static_cast<u16>(r.pc - 2);  // re-execute
        return 7;
      }
      return 10;
    }

    default:
      return illegal(0xED, op);
  }
}

unsigned Cpu::exec_index(u16& xy) {
  Registers& r = regs_;
  const u8 op = fetch8();

  // LD r,(IX+d) block.
  if (op >= 0x40 && op <= 0x7F && op != 0x76) {
    const unsigned dst = (op >> 3) & 7;
    const unsigned src = op & 7;
    if (src == 6) {
      const auto d = static_cast<common::i8>(fetch8());
      write_r(dst, mem_.read(static_cast<u16>(xy + d)));
      return 9;
    }
    if (dst == 6) {
      const auto d = static_cast<common::i8>(fetch8());
      mem_.write(static_cast<u16>(xy + d), read_r(src));
      return 10;
    }
    return illegal(0xDD, op);  // IXH/IXL halves not supported
  }
  // ALU A,(IX+d).
  if (op >= 0x80 && op <= 0xBF && (op & 7) == 6) {
    const auto d = static_cast<common::i8>(fetch8());
    const u8 v = mem_.read(static_cast<u16>(xy + d));
    switch ((op >> 3) & 7) {
      case 0: r.a = alu_add8(r.a, v, false); break;
      case 1: r.a = alu_add8(r.a, v, flag(Flag::C)); break;
      case 2: r.a = alu_sub8(r.a, v, false); break;
      case 3: r.a = alu_sub8(r.a, v, flag(Flag::C)); break;
      case 4: r.a &= v; alu_logic(r.a, true); break;
      case 5: r.a ^= v; alu_logic(r.a, false); break;
      case 6: r.a |= v; alu_logic(r.a, false); break;
      case 7: alu_sub8(r.a, v, false); break;
    }
    return 9;
  }

  switch (op) {
    case 0x21: xy = fetch16(); return 8;
    case 0x22: mem_.write16(fetch16(), xy); return 15;
    case 0x2A: xy = mem_.read16(fetch16()); return 13;
    case 0x23: xy = static_cast<u16>(xy + 1); return 4;
    case 0x2B: xy = static_cast<u16>(xy - 1); return 4;
    case 0x09: xy = alu_add16(xy, r.bc()); return 4;
    case 0x19: xy = alu_add16(xy, r.de()); return 4;
    case 0x29: xy = alu_add16(xy, xy); return 4;
    case 0x39: xy = alu_add16(xy, r.sp); return 4;
    case 0x34: {
      const auto d = static_cast<common::i8>(fetch8());
      const u16 addr = static_cast<u16>(xy + d);
      mem_.write(addr, alu_inc8(mem_.read(addr)));
      return 12;
    }
    case 0x35: {
      const auto d = static_cast<common::i8>(fetch8());
      const u16 addr = static_cast<u16>(xy + d);
      mem_.write(addr, alu_dec8(mem_.read(addr)));
      return 12;
    }
    case 0x36: {
      const auto d = static_cast<common::i8>(fetch8());
      const u8 n = fetch8();
      mem_.write(static_cast<u16>(xy + d), n);
      return 11;
    }
    case 0xE1: xy = pop16(); return 9;
    case 0xE5: push16(xy); return 12;
    case 0xE3: {
      const u16 tmp = mem_.read16(r.sp);
      mem_.write16(r.sp, xy);
      xy = tmp;
      return 15;
    }
    case 0xE9: r.pc = xy; return 6;
    case 0xF9: r.sp = xy; return 4;
    case 0xCB: return exec_index_cb(xy);
    default:
      return illegal(0xDD, op);
  }
}

unsigned Cpu::exec_index_cb(u16 base) {
  const auto d = static_cast<common::i8>(fetch8());
  const u8 op = fetch8();
  const u16 addr = static_cast<u16>(base + d);
  const unsigned bit = (op >> 3) & 7;
  if ((op & 7) != 6) return illegal(0xCB, op);
  switch (op >> 6) {
    case 0: {
      if (bit == 6) return illegal(0xCB, op);
      mem_.write(addr, rot_op(bit, mem_.read(addr)));
      return 13;
    }
    case 1: {
      set_flag(Flag::Z, (mem_.read(addr) & (1U << bit)) == 0);
      set_flag(Flag::H, true);
      set_flag(Flag::N, false);
      return 10;
    }
    case 2:
      mem_.write(addr, static_cast<u8>(mem_.read(addr) & ~(1U << bit)));
      return 13;
    default:
      mem_.write(addr, static_cast<u8>(mem_.read(addr) | (1U << bit)));
      return 13;
  }
}

std::string Cpu::state_line() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "PC=%04X SP=%04X AF=%04X BC=%04X DE=%04X HL=%04X IX=%04X "
                "IY=%04X XPC=%02X %c%c%c%c cyc=%llu",
                regs_.pc, regs_.sp, regs_.af(), regs_.bc(), regs_.de(),
                regs_.hl(), regs_.ix, regs_.iy, mem_.xpc(),
                flag(Flag::S) ? 'S' : '-', flag(Flag::Z) ? 'Z' : '-',
                flag(Flag::PV) ? 'V' : '-', flag(Flag::C) ? 'C' : '-',
                static_cast<unsigned long long>(cycles_));
  return buf;
}

}  // namespace rmc::rabbit

// Fast dispatch for rabbit::Cpu (DESIGN.md §15).
//
// Instructions are predecoded into 8-byte micro-ops cached per physical 4 KiB
// page and dispatched through computed gotos (GCC and Clang, which the
// build needs anyway for __int128). The cache is keyed by *physical* address:
// every segment boundary the hardware can express is 4 KiB-aligned, so as
// long as an instruction's bytes live in one logical page its physical image
// is contiguous under any SEGSIZE/DATASEG/STACKSEG/XPC setting and the
// decoding stays valid across bank switches. Instructions that might cross a
// page boundary (start offset > 0xFFF - 4) decode to kU_Slow and take the
// legacy per-step path instead of complicating the cache.
//
// Fetch follows the program. An instruction that falls through without
// touching the mapping is followed by the next slot of its own decode page
// (slot + its kind's constant length, so the next address waits on no
// load): no segment-table lookup, no page compare. The PC is
// translated again only after a taken control transfer (JP/JR/DJNZ/CALL/
// RET/RST, JP (HL)/(IX)/(IY), a repeating LDIR/LDDR step), after every XPC
// write (LD XPC,A, LJP, LCALL, LRET: the same logical PC may now live in
// another bank) and after a return from step(). The loop keeps the PC, the
// counters and the owed peripheral ticks in locals, and is instantiated
// twice: with and without per-step attribution, picked once per run().
//
// Correctness contract: a run_fast() span retires exactly the instruction
// stream the same span of legacy step() calls would — same architectural
// state, same cycle counts, same per-step attributions. The differences are
// purely in *when* peripherals tick: ticks are batched and flushed at every
// observable boundary (IN/OUT, fall-back to step(), and loop exit), which is
// equivalent because every peripheral tick() is an additive accumulator and
// nothing else consults device state in between (interrupts are globally
// disabled whenever this loop runs). scripts/check.sh holds the two paths to
// byte-identical bench JSON.
#include "rabbit/cpu.h"

#include <cassert>
#include <utility>

namespace rmc::rabbit {

namespace {
using common::i8;

constexpr u32 kPageMask = Memory::kPageSize - 1;
}  // namespace

// Micro-op kinds, each with the length in bytes of every instruction that
// decodes to it (0 for the two kinds that are not a cached instruction). The
// enum, the computed-goto table and kUopLen are generated from this single
// list, so a kind's length is written here and nowhere else. Blocks of eight
// ALU kinds are laid out in (op>>3)&7 order — ADD ADC SUB SBC AND XOR OR CP —
// and indexed arithmetically by the decoder.
#define RMC_UOP_LIST(X)                                                     \
  X(Invalid, 0) X(Slow, 0) X(Nop, 1)                                        \
  X(LdRR, 1) X(LdRMhl, 1) X(StMhlR, 1) X(LdRN, 2) X(StHlN, 2)               \
  X(LdABc, 1) X(LdADe, 1) X(StBcA, 1) X(StDeA, 1) X(LdANn, 3) X(StNnA, 3)   \
  X(LdBcI, 3) X(LdDeI, 3) X(LdHlI, 3) X(LdSpI, 3)                           \
  X(StIndHl, 3) X(LdHlInd, 3)                                               \
  X(IncBc, 1) X(IncDe, 1) X(IncHl, 1) X(IncSp, 1)                           \
  X(DecBc, 1) X(DecDe, 1) X(DecHl, 1) X(DecSp, 1)                           \
  X(IncR, 1) X(IncMhl, 1) X(DecR, 1) X(DecMhl, 1)                           \
  X(Rlca, 1) X(Rrca, 1) X(Rla, 1) X(Rra, 1)                                 \
  X(Daa, 1) X(Cpl, 1) X(Scf, 1) X(Ccf, 1)                                   \
  X(ExAf, 1) X(Exx, 1) X(ExDeHl, 1) X(ExSpHl, 1)                            \
  X(AddHlBc, 1) X(AddHlDe, 1) X(AddHlHl, 1) X(AddHlSp, 1)                   \
  X(Djnz, 2) X(Jr, 2) X(JrCc, 2)                                            \
  X(AddR, 1) X(AdcR, 1) X(SubR, 1) X(SbcR, 1)                               \
  X(AndR, 1) X(XorR, 1) X(OrR, 1) X(CpR, 1)                                 \
  X(AddMhl, 1) X(AdcMhl, 1) X(SubMhl, 1) X(SbcMhl, 1)                       \
  X(AndMhl, 1) X(XorMhl, 1) X(OrMhl, 1) X(CpMhl, 1)                         \
  X(AddN, 2) X(AdcN, 2) X(SubN, 2) X(SbcN, 2)                               \
  X(AndN, 2) X(XorN, 2) X(OrN, 2) X(CpN, 2)                                 \
  X(RetCc, 1) X(Ret, 1) X(PopBc, 1) X(PopDe, 1) X(PopHl, 1) X(PopAf, 1)     \
  X(PushBc, 1) X(PushDe, 1) X(PushHl, 1) X(PushAf, 1)                       \
  X(Jp, 3) X(JpCc, 3) X(JpHl, 1) X(Call, 3) X(CallCc, 3) X(Rst, 1)          \
  X(Mul, 1) X(Out, 2) X(In, 2) X(LdSpHl, 1) X(Di, 1)                        \
  X(CbRotR, 2) X(CbRotMhl, 2) X(CbBitR, 2) X(CbBitMhl, 2)                   \
  X(CbResR, 2) X(CbResMhl, 2) X(CbSetR, 2) X(CbSetMhl, 2)                   \
  X(SbcHlRp, 2) X(AdcHlRp, 2) X(EdStRp, 4) X(EdLdRp, 4)                     \
  X(Neg, 2) X(LdXpcA, 2) X(LdAXpc, 2) X(Bool, 2)                            \
  X(Ljp, 5) X(Lcall, 5) X(Lret, 2) X(BlockLd, 2)                            \
  X(IxLdRM, 3) X(IxStMR, 3)                                                 \
  X(IxAdd, 3) X(IxAdc, 3) X(IxSub, 3) X(IxSbc, 3)                           \
  X(IxAnd, 3) X(IxXor, 3) X(IxOr, 3) X(IxCp, 3)                             \
  X(IxLdI, 4) X(IxStInd, 4) X(IxLdInd, 4) X(IxInc, 2) X(IxDec, 2)           \
  X(IxAddRp, 2) X(IxIncM, 3) X(IxDecM, 3) X(IxStNI, 4)                      \
  X(IxPop, 2) X(IxPush, 2) X(IxExSp, 2) X(IxJp, 2) X(IxLdSp, 2)

enum UKind : u8 {
#define X(n, len) kU_##n,
  RMC_UOP_LIST(X)
#undef X
};

constexpr u8 kUopLen[] = {
#define X(n, len) len,
    RMC_UOP_LIST(X)
#undef X
};

void Cpu::decode_uop(u32 phys, Uop& u) const {
  u = Uop{};
  u.kind = kU_Slow;  // default: re-execute through the legacy step()
  // Page-edge rule: an instruction starting in the last kMaxUopBytes-1
  // bytes of its page might spill into the next logical page, which can map
  // anywhere, so it is never cached. This also keeps every sequential fetch
  // inside its decode page (run_fast_loop).
  if ((phys & kPageMask) > kPageMask + 1 - kMaxUopBytes) return;
  const auto rd = [&](u32 i) { return mem_.read_phys(phys + i); };
  const u8 op = rd(0);

  // DD/FD-prefixed (IX/IY) forms. The prefix flag travels in bit 7 of `a`.
  if (op == 0xDD || op == 0xFD) {
    const u8 iy = op == 0xFD ? 0x80 : 0x00;
    const u8 sub = rd(1);
    if (sub >= 0x40 && sub <= 0x7F && sub != 0x76) {
      const u8 dst = (sub >> 3) & 7;
      const u8 src = sub & 7;
      if (src == 6) {
        u.kind = kU_IxLdRM; u.a = static_cast<u8>(dst | iy); u.imm = rd(2);
      } else if (dst == 6) {
        u.kind = kU_IxStMR; u.a = static_cast<u8>(src | iy); u.imm = rd(2);
      }
      return;  // other register-register forms: illegal -> slow
    }
    if (sub >= 0x80 && sub <= 0xBF && (sub & 7) == 6) {
      u.kind = static_cast<u8>(kU_IxAdd + ((sub >> 3) & 7));
      u.a = iy; u.imm = rd(2);
      return;
    }
    switch (sub) {
      case 0x21: u.kind = kU_IxLdI; u.a = iy;
                 u.imm = common::make16(rd(2), rd(3)); break;
      case 0x22: u.kind = kU_IxStInd; u.a = iy;
                 u.imm = common::make16(rd(2), rd(3)); break;
      case 0x2A: u.kind = kU_IxLdInd; u.a = iy;
                 u.imm = common::make16(rd(2), rd(3)); break;
      case 0x23: u.kind = kU_IxInc; u.a = iy; break;
      case 0x2B: u.kind = kU_IxDec; u.a = iy; break;
      case 0x09: case 0x19: case 0x29: case 0x39:
        u.kind = kU_IxAddRp; u.a = static_cast<u8>(((sub >> 4) & 3) | iy);
        break;
      case 0x34: u.kind = kU_IxIncM; u.a = iy; u.imm = rd(2); break;
      case 0x35: u.kind = kU_IxDecM; u.a = iy; u.imm = rd(2); break;
      case 0x36: u.kind = kU_IxStNI; u.a = iy;
                 u.imm = common::make16(rd(2), rd(3));  // lo=d, hi=n
                 break;
      case 0xE1: u.kind = kU_IxPop; u.a = iy; break;
      case 0xE5: u.kind = kU_IxPush; u.a = iy; break;
      case 0xE3: u.kind = kU_IxExSp; u.a = iy; break;
      case 0xE9: u.kind = kU_IxJp; u.a = iy; break;
      case 0xF9: u.kind = kU_IxLdSp; u.a = iy; break;
      default: break;  // DD CB and illegals -> slow
    }
    return;
  }

  if (op == 0xCB) {
    const u8 sub = rd(1);
    const u8 reg = sub & 7;
    const u8 bit = (sub >> 3) & 7;
    switch (sub >> 6) {
      case 0:
        if (bit == 6) return;  // SLL: illegal -> slow
        if (reg == 6) { u.kind = kU_CbRotMhl; u.a = bit; }
        else { u.kind = kU_CbRotR; u.a = bit; u.b = reg; }
        break;
      case 1:
        if (reg == 6) { u.kind = kU_CbBitMhl; u.a = bit; }
        else { u.kind = kU_CbBitR; u.a = bit; u.b = reg; }
        break;
      case 2:
        if (reg == 6) { u.kind = kU_CbResMhl; u.a = bit; }
        else { u.kind = kU_CbResR; u.a = bit; u.b = reg; }
        break;
      default:
        if (reg == 6) { u.kind = kU_CbSetMhl; u.a = bit; }
        else { u.kind = kU_CbSetR; u.a = bit; u.b = reg; }
        break;
    }
    return;
  }

  if (op == 0xED) {
    const u8 sub = rd(1);
    switch (sub) {
      case 0x42: case 0x52: case 0x62: case 0x72:
        u.kind = kU_SbcHlRp; u.a = (sub >> 4) & 3; return;
      case 0x4A: case 0x5A: case 0x6A: case 0x7A:
        u.kind = kU_AdcHlRp; u.a = (sub >> 4) & 3; return;
      case 0x43: case 0x53: case 0x63: case 0x73:
        u.kind = kU_EdStRp; u.a = (sub >> 4) & 3;
        u.imm = common::make16(rd(2), rd(3));
        return;
      case 0x4B: case 0x5B: case 0x6B: case 0x7B:
        u.kind = kU_EdLdRp; u.a = (sub >> 4) & 3;
        u.imm = common::make16(rd(2), rd(3));
        return;
      case 0x44: u.kind = kU_Neg; return;
      case 0x67: u.kind = kU_LdXpcA; return;
      case 0x77: u.kind = kU_LdAXpc; return;
      case 0x90: u.kind = kU_Bool; return;
      case 0xC3:
        u.kind = kU_Ljp; u.imm = common::make16(rd(2), rd(3)); u.a = rd(4);
        return;
      case 0xCD:
        u.kind = kU_Lcall; u.imm = common::make16(rd(2), rd(3)); u.a = rd(4);
        return;
      case 0xC9: u.kind = kU_Lret; return;
      case 0xA0: case 0xA8: case 0xB0: case 0xB8:
        u.kind = kU_BlockLd; u.a = sub; return;
      default: return;  // RETI and illegals -> slow
    }
  }

  // Main page. LD r,r' block (0x40-0x7F) minus HALT.
  if (op >= 0x40 && op <= 0x7F) {
    if (op == 0x76) return;  // HALT -> slow (exits the fast loop)
    const u8 dst = (op >> 3) & 7;
    const u8 src = op & 7;
    if (src == 6) { u.kind = kU_LdRMhl; u.a = dst; }
    else if (dst == 6) { u.kind = kU_StMhlR; u.b = src; }
    else { u.kind = kU_LdRR; u.a = dst; u.b = src; }
    return;
  }
  // ALU A,r block (0x80-0xBF).
  if (op >= 0x80 && op <= 0xBF) {
    const u8 aluop = (op >> 3) & 7;
    const u8 src = op & 7;
    if (src == 6) { u.kind = static_cast<u8>(kU_AddMhl + aluop); }
    else { u.kind = static_cast<u8>(kU_AddR + aluop); u.b = src; }
    return;
  }

  switch (op) {
    case 0x00: u.kind = kU_Nop; return;
    case 0x01: u.kind = kU_LdBcI; u.imm = common::make16(rd(1), rd(2));
               return;
    case 0x11: u.kind = kU_LdDeI; u.imm = common::make16(rd(1), rd(2));
               return;
    case 0x21: u.kind = kU_LdHlI; u.imm = common::make16(rd(1), rd(2));
               return;
    case 0x31: u.kind = kU_LdSpI; u.imm = common::make16(rd(1), rd(2));
               return;

    case 0x02: u.kind = kU_StBcA; return;
    case 0x12: u.kind = kU_StDeA; return;
    case 0x0A: u.kind = kU_LdABc; return;
    case 0x1A: u.kind = kU_LdADe; return;

    case 0x03: u.kind = kU_IncBc; return;
    case 0x13: u.kind = kU_IncDe; return;
    case 0x23: u.kind = kU_IncHl; return;
    case 0x33: u.kind = kU_IncSp; return;
    case 0x0B: u.kind = kU_DecBc; return;
    case 0x1B: u.kind = kU_DecDe; return;
    case 0x2B: u.kind = kU_DecHl; return;
    case 0x3B: u.kind = kU_DecSp; return;

    case 0x04: case 0x0C: case 0x14: case 0x1C:
    case 0x24: case 0x2C: case 0x3C:
      u.kind = kU_IncR; u.a = (op >> 3) & 7; return;
    case 0x34: u.kind = kU_IncMhl; return;
    case 0x05: case 0x0D: case 0x15: case 0x1D:
    case 0x25: case 0x2D: case 0x3D:
      u.kind = kU_DecR; u.a = (op >> 3) & 7; return;
    case 0x35: u.kind = kU_DecMhl; return;
    case 0x06: case 0x0E: case 0x16: case 0x1E:
    case 0x26: case 0x2E: case 0x3E:
      u.kind = kU_LdRN; u.a = (op >> 3) & 7; u.imm = rd(1); return;
    case 0x36: u.kind = kU_StHlN; u.imm = rd(1); return;

    case 0x07: u.kind = kU_Rlca; return;
    case 0x0F: u.kind = kU_Rrca; return;
    case 0x17: u.kind = kU_Rla; return;
    case 0x1F: u.kind = kU_Rra; return;

    case 0x08: u.kind = kU_ExAf; return;
    case 0xD9: u.kind = kU_Exx; return;
    case 0xEB: u.kind = kU_ExDeHl; return;
    case 0xE3: u.kind = kU_ExSpHl; return;

    case 0x09: u.kind = kU_AddHlBc; return;
    case 0x19: u.kind = kU_AddHlDe; return;
    case 0x29: u.kind = kU_AddHlHl; return;
    case 0x39: u.kind = kU_AddHlSp; return;

    case 0x10: u.kind = kU_Djnz; u.imm = rd(1); return;
    case 0x18: u.kind = kU_Jr; u.imm = rd(1); return;
    case 0x20: case 0x28: case 0x30: case 0x38:
      u.kind = kU_JrCc; u.a = (op >> 3) & 3; u.imm = rd(1); return;

    case 0x22: u.kind = kU_StIndHl; u.imm = common::make16(rd(1), rd(2));
               return;
    case 0x2A: u.kind = kU_LdHlInd; u.imm = common::make16(rd(1), rd(2));
               return;
    case 0x32: u.kind = kU_StNnA; u.imm = common::make16(rd(1), rd(2));
               return;
    case 0x3A: u.kind = kU_LdANn; u.imm = common::make16(rd(1), rd(2));
               return;

    case 0x27: u.kind = kU_Daa; return;
    case 0x2F: u.kind = kU_Cpl; return;
    case 0x37: u.kind = kU_Scf; return;
    case 0x3F: u.kind = kU_Ccf; return;

    case 0xC0: case 0xC8: case 0xD0: case 0xD8:
    case 0xE0: case 0xE8: case 0xF0: case 0xF8:
      u.kind = kU_RetCc; u.a = (op >> 3) & 7; return;
    case 0xC9: u.kind = kU_Ret; return;

    case 0xC1: u.kind = kU_PopBc; return;
    case 0xD1: u.kind = kU_PopDe; return;
    case 0xE1: u.kind = kU_PopHl; return;
    case 0xF1: u.kind = kU_PopAf; return;
    case 0xC5: u.kind = kU_PushBc; return;
    case 0xD5: u.kind = kU_PushDe; return;
    case 0xE5: u.kind = kU_PushHl; return;
    case 0xF5: u.kind = kU_PushAf; return;

    case 0xC3: u.kind = kU_Jp; u.imm = common::make16(rd(1), rd(2)); return;
    case 0xC2: case 0xCA: case 0xD2: case 0xDA:
    case 0xE2: case 0xEA: case 0xF2: case 0xFA:
      u.kind = kU_JpCc; u.a = (op >> 3) & 7;
      u.imm = common::make16(rd(1), rd(2));
      return;
    case 0xCD: u.kind = kU_Call; u.imm = common::make16(rd(1), rd(2));
               return;
    case 0xC4: case 0xCC: case 0xD4: case 0xDC:
    case 0xE4: case 0xEC: case 0xF4: case 0xFC:
      u.kind = kU_CallCc; u.a = (op >> 3) & 7;
      u.imm = common::make16(rd(1), rd(2));
      return;

    case 0xC6: case 0xCE: case 0xD6: case 0xDE:
    case 0xE6: case 0xEE: case 0xF6: case 0xFE:
      u.kind = static_cast<u8>(kU_AddN + ((op >> 3) & 7)); u.imm = rd(1);
      return;

    case 0xC7: case 0xCF: case 0xD7: case 0xDF:
    case 0xE7: case 0xEF: case 0xFF:
      u.kind = kU_Rst; u.a = op & 0x38; u.b = op == 0xEF ? 1 : 0;
      return;
    case 0xF7: u.kind = kU_Mul; return;

    case 0xD3: u.kind = kU_Out; u.imm = rd(1); return;
    case 0xDB: u.kind = kU_In; u.imm = rd(1); return;

    case 0xE9: u.kind = kU_JpHl; return;
    case 0xF9: u.kind = kU_LdSpHl; return;

    case 0xF3: u.kind = kU_Di; return;

    default:
      // EI (0xFB) needs the one-instruction enable delay, illegals need the
      // diagnostic path: both re-execute through the legacy step().
      return;
  }
}

void Cpu::run_fast(u64 limit) {
  // Attribution is chosen once per call from whether an observer is
  // attached, so the unobserved loop carries no per-step attribution code.
  if (observer_ != nullptr) {
    run_fast_loop<true>(limit);
  } else {
    run_fast_loop<false>(limit);
  }
}

template <bool kObserved>
void Cpu::run_fast_loop(u64 limit) {
  Registers& r = regs_;
  const u32* const pd = mem_.page_deltas();
  [[maybe_unused]] const StepSink* const sink = sink_;
  [[maybe_unused]] CpuObserver* const obs = observer_;
  // Hot state lives in locals for the duration of the loop; it is synced
  // back to the members at every exit and around every legacy step() (which
  // reads regs_.pc and increments the counters itself). Peripheral ticks
  // are deferred: every cycle retired since tick_base is still owed to io_.
  u64 cyc = cycles_;
  u64 icount = instructions_;
  u64 tick_base = cyc;
  u16 pc = r.pc;  // logical PC of the executing instruction
  // Decode page of the executing instruction and its slot there. Safe to
  // hold across steps: pages are never freed, only their slots cleared
  // (on_code_write), and the executing micro-op is copied into `u`.
  UopPage* cur_page = nullptr;
  u32 cur_base = ~0U;
  Uop* slot = nullptr;
  Uop u{};

#define X(n, len) &&L_##n,
  static const void* const kJump[] = {RMC_UOP_LIST(X)};
#undef X

// A handler: its label, and its kind's length as the constant kLen in the
// scope of its body.
#define UOP(n)                                                          \
  L_##n:                                                                \
  if constexpr ([[maybe_unused]] constexpr u32 kLen = kUopLen[kU_##n];  \
                true)

// Logical address of the instruction after the executing one.
#define NEXT_PC() static_cast<u16>(pc + kLen)

// Physical address of the executing instruction.
#define PPC() (cur_base + static_cast<u32>(slot - cur_page->ops.data()))

// Translating fetch: the PC goes through the segment table and the decode
// page switches if it moved. Used on entry and after every taken control
// transfer, XPC write and step() return.
#define FETCH_TRANSLATE                                                    \
  if (cyc >= limit) goto out;                                              \
  {                                                                        \
    const u32 ppc__ =                                                      \
        (static_cast<u32>(pc) + pd[pc >> 12]) & (Memory::kPhysSize - 1);   \
    const u32 base__ = ppc__ & ~kPageMask;                                 \
    if (base__ != cur_base) {                                              \
      std::unique_ptr<UopPage>& page__ = uop_pages_[ppc__ / Memory::kPageSize]; \
      if (page__ == nullptr) page__ = std::make_unique<UopPage>();         \
      cur_page = page__.get();                                             \
      cur_base = base__;                                                   \
    }                                                                      \
    slot = &cur_page->ops[ppc__ & kPageMask];                              \
  }                                                                        \
  u = *slot /* by value: the op's own stores may invalidate the slot */

// Sequential fetch: the executing instruction fell through and left the
// mapping alone, so its successor is the next slot of the same decode page,
// kLen slots on. That slot is always inside the page: decode_uop caches no
// instruction that starts in the last kMaxUopBytes-1 bytes of a page, so a
// cached micro-op that falls through is at most 4 bytes long and ends in its
// page (the 5-byte LJP/LCALL switch banks and always translate).
#define FETCH_SEQUENTIAL                                                   \
  pc = NEXT_PC();                                                          \
  slot += kLen;                                                            \
  if (cyc >= limit) goto out;                                              \
  u = *slot

// The fetch expands at the end of EVERY handler (token threading): each
// opcode gets its own indirect-branch site, so the predictor learns
// per-predecessor successor patterns instead of fighting over one shared
// dispatch branch.
#define NEXT_TRANSLATE                             \
  do {                                             \
    FETCH_TRANSLATE;                               \
    goto* kJump[u.kind];                           \
  } while (0)
#define NEXT_SEQUENTIAL                            \
  do {                                             \
    FETCH_SEQUENTIAL;                              \
    goto* kJump[u.kind];                           \
  } while (0)

// Per-step accounting, identical in order and content to the legacy
// step() epilogue (instructions, cycles, tick, observe); the tick is merely
// deferred into cyc - tick_base. RETIRE then fetches sequentially,
// RETIRE_JUMP translates the new PC `target_`.
#define ACCOUNT(c_)                                \
  const unsigned c__ = (c_);                       \
  ++icount;                                        \
  cyc += c__;                                      \
  if constexpr (kObserved) {                       \
    const u32 ppc__ = PPC();                       \
    if (sink != nullptr) {                         \
      const u16 ri__ = sink->region_of[ppc__];     \
      sink->cycles[ri__] += c__;                   \
      sink->steps[ri__] += 1;                      \
    } else {                                       \
      obs->on_step(pc, ppc__, c__);                \
    }                                              \
  }
#define RETIRE(c_)                                 \
  do {                                             \
    ACCOUNT(c_);                                   \
    NEXT_SEQUENTIAL;                               \
  } while (0)
#define RETIRE_JUMP(c_, target_)                   \
  do {                                             \
    const u16 to__ = static_cast<u16>(target_);    \
    ACCOUNT(c_);                                   \
    pc = to__;                                     \
    NEXT_TRANSLATE;                                \
  } while (0)

#define FLUSH_TICKS()                              \
  do {                                             \
    if (cyc != tick_base) {                        \
      io_.tick(cyc - tick_base);                   \
      tick_base = cyc;                             \
    }                                              \
  } while (0)

translate:
  FETCH_TRANSLATE;
  goto* kJump[u.kind];

  UOP(Invalid) {
    // First execution from this byte since it was last written: decode the
    // slot (page-edge rule included), mark its page as code, and dispatch
    // the fresh micro-op.
    const u32 ppc = PPC();
    decode_uop(ppc, *slot);
    mem_.watch_code_page(ppc / Memory::kPageSize);
    u = *slot;
    assert(u.kind == kU_Ljp || u.kind == kU_Lcall ||
           (ppc & kPageMask) + kUopLen[u.kind] < Memory::kPageSize);
    goto* kJump[u.kind];
  }
  UOP(Slow) {
    r.pc = pc;
    goto slow_path;
  }

  UOP(Nop) { RETIRE(2); }

  // --- 8-bit loads --------------------------------------------------------
  UOP(LdRR) { *reg8_[u.a] = *reg8_[u.b]; RETIRE(2); }
  UOP(LdRMhl) { *reg8_[u.a] = mem_.read(r.hl()); RETIRE(6); }
  UOP(StMhlR) { mem_.write(r.hl(), *reg8_[u.b]); RETIRE(6); }
  UOP(LdRN) { *reg8_[u.a] = static_cast<u8>(u.imm); RETIRE(4); }
  UOP(StHlN) { mem_.write(r.hl(), static_cast<u8>(u.imm)); RETIRE(7); }
  UOP(LdABc) { r.a = mem_.read(r.bc()); RETIRE(6); }
  UOP(LdADe) { r.a = mem_.read(r.de()); RETIRE(6); }
  UOP(StBcA) { mem_.write(r.bc(), r.a); RETIRE(7); }
  UOP(StDeA) { mem_.write(r.de(), r.a); RETIRE(7); }
  UOP(LdANn) { r.a = mem_.read(u.imm); RETIRE(9); }
  UOP(StNnA) { mem_.write(u.imm, r.a); RETIRE(10); }

  // --- 16-bit loads -------------------------------------------------------
  UOP(LdBcI) { r.set_bc(u.imm); RETIRE(6); }
  UOP(LdDeI) { r.set_de(u.imm); RETIRE(6); }
  UOP(LdHlI) { r.set_hl(u.imm); RETIRE(6); }
  UOP(LdSpI) { r.sp = u.imm; RETIRE(6); }
  UOP(StIndHl) { mem_.write16(u.imm, r.hl()); RETIRE(13); }
  UOP(LdHlInd) { r.set_hl(mem_.read16(u.imm)); RETIRE(11); }

  // --- 16-bit inc/dec -----------------------------------------------------
  UOP(IncBc) { r.set_bc(static_cast<u16>(r.bc() + 1)); RETIRE(2); }
  UOP(IncDe) { r.set_de(static_cast<u16>(r.de() + 1)); RETIRE(2); }
  UOP(IncHl) { r.set_hl(static_cast<u16>(r.hl() + 1)); RETIRE(2); }
  UOP(IncSp) { r.sp = static_cast<u16>(r.sp + 1); RETIRE(2); }
  UOP(DecBc) { r.set_bc(static_cast<u16>(r.bc() - 1)); RETIRE(2); }
  UOP(DecDe) { r.set_de(static_cast<u16>(r.de() - 1)); RETIRE(2); }
  UOP(DecHl) { r.set_hl(static_cast<u16>(r.hl() - 1)); RETIRE(2); }
  UOP(DecSp) { r.sp = static_cast<u16>(r.sp - 1); RETIRE(2); }

  // --- 8-bit inc/dec ------------------------------------------------------
  UOP(IncR) { *reg8_[u.a] = alu_inc8(*reg8_[u.a]); RETIRE(2); }
  UOP(IncMhl) {
    mem_.write(r.hl(), alu_inc8(mem_.read(r.hl())));
    RETIRE(8);
  }
  UOP(DecR) { *reg8_[u.a] = alu_dec8(*reg8_[u.a]); RETIRE(2); }
  UOP(DecMhl) {
    mem_.write(r.hl(), alu_dec8(mem_.read(r.hl())));
    RETIRE(8);
  }

  // --- accumulator rotates / misc flag ops --------------------------------
  UOP(Rlca) {
    const bool carry = (r.a & 0x80) != 0;
    r.a = static_cast<u8>((r.a << 1) | (carry ? 1 : 0));
    set_flag(Flag::C, carry);
    set_flag(Flag::N, false);
    set_flag(Flag::H, false);
    RETIRE(2);
  }
  UOP(Rrca) {
    const bool carry = (r.a & 1) != 0;
    r.a = static_cast<u8>((r.a >> 1) | (carry ? 0x80 : 0));
    set_flag(Flag::C, carry);
    set_flag(Flag::N, false);
    set_flag(Flag::H, false);
    RETIRE(2);
  }
  UOP(Rla) {
    const bool carry = (r.a & 0x80) != 0;
    r.a = static_cast<u8>((r.a << 1) | (flag(Flag::C) ? 1 : 0));
    set_flag(Flag::C, carry);
    set_flag(Flag::N, false);
    set_flag(Flag::H, false);
    RETIRE(2);
  }
  UOP(Rra) {
    const bool carry = (r.a & 1) != 0;
    r.a = static_cast<u8>((r.a >> 1) | (flag(Flag::C) ? 0x80 : 0));
    set_flag(Flag::C, carry);
    set_flag(Flag::N, false);
    set_flag(Flag::H, false);
    RETIRE(2);
  }
  UOP(Daa) {
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
    RETIRE(4);
  }
  UOP(Cpl) {
    r.a = static_cast<u8>(~r.a);
    set_flag(Flag::H, true);
    set_flag(Flag::N, true);
    RETIRE(2);
  }
  UOP(Scf) {
    set_flag(Flag::C, true);
    set_flag(Flag::H, false);
    set_flag(Flag::N, false);
    RETIRE(2);
  }
  UOP(Ccf) {
    set_flag(Flag::H, flag(Flag::C));
    set_flag(Flag::C, !flag(Flag::C));
    set_flag(Flag::N, false);
    RETIRE(2);
  }

  // --- exchanges ----------------------------------------------------------
  UOP(ExAf) {
    std::swap(r.a, r.a2);
    std::swap(r.f, r.f2);
    RETIRE(2);
  }
  UOP(Exx) {
    std::swap(r.b, r.b2); std::swap(r.c, r.c2);
    std::swap(r.d, r.d2); std::swap(r.e, r.e2);
    std::swap(r.h, r.h2); std::swap(r.l, r.l2);
    RETIRE(2);
  }
  UOP(ExDeHl) {
    const u16 tmp = r.de();
    r.set_de(r.hl());
    r.set_hl(tmp);
    RETIRE(2);
  }
  UOP(ExSpHl) {
    const u16 tmp = mem_.read16(r.sp);
    mem_.write16(r.sp, r.hl());
    r.set_hl(tmp);
    RETIRE(15);
  }

  // --- 16-bit adds --------------------------------------------------------
  UOP(AddHlBc) { r.set_hl(alu_add16(r.hl(), r.bc())); RETIRE(2); }
  UOP(AddHlDe) { r.set_hl(alu_add16(r.hl(), r.de())); RETIRE(2); }
  UOP(AddHlHl) { r.set_hl(alu_add16(r.hl(), r.hl())); RETIRE(2); }
  UOP(AddHlSp) { r.set_hl(alu_add16(r.hl(), r.sp)); RETIRE(2); }

  // --- relative control flow ----------------------------------------------
  UOP(Djnz) {
    r.b = static_cast<u8>(r.b - 1);
    if (r.b != 0) RETIRE_JUMP(10, NEXT_PC() + static_cast<i8>(u.imm));
    RETIRE(5);
  }
  UOP(Jr) { RETIRE_JUMP(5, NEXT_PC() + static_cast<i8>(u.imm)); }
  UOP(JrCc) {
    if (cond(u.a)) RETIRE_JUMP(5, NEXT_PC() + static_cast<i8>(u.imm));
    RETIRE(3);
  }

  // --- ALU A,r / A,(HL) / A,n ---------------------------------------------
  UOP(AddR) { alu8(0, *reg8_[u.b]); RETIRE(2); }
  UOP(AdcR) { alu8(1, *reg8_[u.b]); RETIRE(2); }
  UOP(SubR) { alu8(2, *reg8_[u.b]); RETIRE(2); }
  UOP(SbcR) { alu8(3, *reg8_[u.b]); RETIRE(2); }
  UOP(AndR) { alu8(4, *reg8_[u.b]); RETIRE(2); }
  UOP(XorR) { alu8(5, *reg8_[u.b]); RETIRE(2); }
  UOP(OrR) { alu8(6, *reg8_[u.b]); RETIRE(2); }
  UOP(CpR) { alu8(7, *reg8_[u.b]); RETIRE(2); }
  UOP(AddMhl) { alu8(0, mem_.read(r.hl())); RETIRE(5); }
  UOP(AdcMhl) { alu8(1, mem_.read(r.hl())); RETIRE(5); }
  UOP(SubMhl) { alu8(2, mem_.read(r.hl())); RETIRE(5); }
  UOP(SbcMhl) { alu8(3, mem_.read(r.hl())); RETIRE(5); }
  UOP(AndMhl) { alu8(4, mem_.read(r.hl())); RETIRE(5); }
  UOP(XorMhl) { alu8(5, mem_.read(r.hl())); RETIRE(5); }
  UOP(OrMhl) { alu8(6, mem_.read(r.hl())); RETIRE(5); }
  UOP(CpMhl) { alu8(7, mem_.read(r.hl())); RETIRE(5); }
  UOP(AddN) { alu8(0, static_cast<u8>(u.imm)); RETIRE(4); }
  UOP(AdcN) { alu8(1, static_cast<u8>(u.imm)); RETIRE(4); }
  UOP(SubN) { alu8(2, static_cast<u8>(u.imm)); RETIRE(4); }
  UOP(SbcN) { alu8(3, static_cast<u8>(u.imm)); RETIRE(4); }
  UOP(AndN) { alu8(4, static_cast<u8>(u.imm)); RETIRE(4); }
  UOP(XorN) { alu8(5, static_cast<u8>(u.imm)); RETIRE(4); }
  UOP(OrN) { alu8(6, static_cast<u8>(u.imm)); RETIRE(4); }
  UOP(CpN) { alu8(7, static_cast<u8>(u.imm)); RETIRE(4); }

  // --- absolute control flow / stack --------------------------------------
  UOP(RetCc) {
    if (cond(u.a)) RETIRE_JUMP(8, pop16());
    RETIRE(2);
  }
  UOP(Ret) { RETIRE_JUMP(8, pop16()); }
  UOP(PopBc) { r.set_bc(pop16()); RETIRE(7); }
  UOP(PopDe) { r.set_de(pop16()); RETIRE(7); }
  UOP(PopHl) { r.set_hl(pop16()); RETIRE(7); }
  UOP(PopAf) { r.set_af(pop16()); RETIRE(7); }
  UOP(PushBc) { push16(r.bc()); RETIRE(10); }
  UOP(PushDe) { push16(r.de()); RETIRE(10); }
  UOP(PushHl) { push16(r.hl()); RETIRE(10); }
  UOP(PushAf) { push16(r.af()); RETIRE(10); }
  UOP(Jp) { RETIRE_JUMP(7, u.imm); }
  UOP(JpCc) {
    if (cond(u.a)) RETIRE_JUMP(7, u.imm);
    RETIRE(7);
  }
  UOP(JpHl) { RETIRE_JUMP(4, r.hl()); }
  UOP(Call) {
    push16(NEXT_PC());
    RETIRE_JUMP(12, u.imm);
  }
  UOP(CallCc) {
    if (cond(u.a)) {
      push16(NEXT_PC());
      RETIRE_JUMP(12, u.imm);
    }
    RETIRE(6);
  }
  UOP(Rst) {
    if (u.b != 0) ++debug_traps_;
    push16(NEXT_PC());
    RETIRE_JUMP(10, u.a);
  }
  UOP(Mul) {
    const auto prod =
        static_cast<common::i32>(static_cast<common::i16>(r.bc())) *
        static_cast<common::i16>(r.de());
    const auto up = static_cast<u32>(prod);
    r.set_bc(static_cast<u16>(up & 0xFFFF));
    r.set_hl(static_cast<u16>(up >> 16));
    RETIRE(12);
  }

  // --- I/O: flush deferred ticks first so devices see the same timeline
  // the per-step path would give them -------------------------------------
  UOP(Out) {
    FLUSH_TICKS();
    io_.write(u.imm, r.a);
    RETIRE(8);
  }
  UOP(In) {
    FLUSH_TICKS();
    r.a = io_.read(u.imm);
    RETIRE(8);
  }
  UOP(LdSpHl) { r.sp = r.hl(); RETIRE(2); }
  UOP(Di) {
    iff_ = false;
    RETIRE(2);
  }

  // --- CB prefix ----------------------------------------------------------
  UOP(CbRotR) {
    *reg8_[u.b] = rot_op(u.a, *reg8_[u.b]);
    RETIRE(4);
  }
  UOP(CbRotMhl) {
    mem_.write(r.hl(), rot_op(u.a, mem_.read(r.hl())));
    RETIRE(10);
  }
  UOP(CbBitR) {
    set_flag(Flag::Z, (*reg8_[u.b] & (1U << u.a)) == 0);
    set_flag(Flag::H, true);
    set_flag(Flag::N, false);
    RETIRE(4);
  }
  UOP(CbBitMhl) {
    set_flag(Flag::Z, (mem_.read(r.hl()) & (1U << u.a)) == 0);
    set_flag(Flag::H, true);
    set_flag(Flag::N, false);
    RETIRE(7);
  }
  UOP(CbResR) {
    *reg8_[u.b] = static_cast<u8>(*reg8_[u.b] & ~(1U << u.a));
    RETIRE(4);
  }
  UOP(CbResMhl) {
    mem_.write(r.hl(), static_cast<u8>(mem_.read(r.hl()) & ~(1U << u.a)));
    RETIRE(10);
  }
  UOP(CbSetR) {
    *reg8_[u.b] = static_cast<u8>(*reg8_[u.b] | (1U << u.a));
    RETIRE(4);
  }
  UOP(CbSetMhl) {
    mem_.write(r.hl(), static_cast<u8>(mem_.read(r.hl()) | (1U << u.a)));
    RETIRE(10);
  }

  // --- ED prefix ----------------------------------------------------------
  UOP(SbcHlRp) {
    r.set_hl(alu_sbc16(r.hl(), rp_get(u.a), flag(Flag::C)));
    RETIRE(4);
  }
  UOP(AdcHlRp) {
    r.set_hl(alu_adc16(r.hl(), rp_get(u.a), flag(Flag::C)));
    RETIRE(4);
  }
  UOP(EdStRp) {
    mem_.write16(u.imm, rp_get(u.a));
    RETIRE(13);
  }
  UOP(EdLdRp) {
    rp_set(u.a, mem_.read16(u.imm));
    RETIRE(13);
  }
  UOP(Neg) {
    const u8 a0 = r.a;
    r.a = alu_sub8(0, a0, false);
    RETIRE(2);
  }
  // Every XPC write translates the next fetch, even when the PC falls
  // through: the same logical PC may now map to another bank.
  UOP(LdXpcA) {
    mem_.set_xpc(r.a);
    RETIRE_JUMP(4, NEXT_PC());
  }
  UOP(LdAXpc) {
    r.a = mem_.xpc();
    RETIRE(4);
  }
  UOP(Bool) {
    const u16 v = r.hl();
    r.set_hl(v != 0 ? 1 : 0);
    set_flag(Flag::Z, v == 0);
    set_flag(Flag::C, false);
    set_flag(Flag::S, false);
    RETIRE(2);
  }
  UOP(Ljp) {
    mem_.set_xpc(u.a);
    RETIRE_JUMP(10, u.imm);
  }
  UOP(Lcall) {
    push16(NEXT_PC());
    push16(mem_.xpc());
    mem_.set_xpc(u.a);
    RETIRE_JUMP(19, u.imm);
  }
  UOP(Lret) {
    mem_.set_xpc(static_cast<u8>(pop16()));
    RETIRE_JUMP(13, pop16());
  }
  UOP(BlockLd) {
    // One LDI/LDD/LDIR/LDDR iteration; a repeating form re-executes this
    // same micro-op (pc stays put), matching the legacy pc -= 2 loop.
    const int dir = (u.a & 0x08) ? -1 : 1;
    const bool repeat = (u.a & 0x10) != 0;
    mem_.write(r.de(), mem_.read(r.hl()));
    r.set_hl(static_cast<u16>(r.hl() + dir));
    r.set_de(static_cast<u16>(r.de() + dir));
    r.set_bc(static_cast<u16>(r.bc() - 1));
    set_flag(Flag::H, false);
    set_flag(Flag::N, false);
    set_flag(Flag::PV, r.bc() != 0);
    if (repeat && r.bc() != 0) RETIRE_JUMP(7, pc);
    RETIRE(10);
  }

  // --- DD/FD (IX/IY) prefix -----------------------------------------------
  UOP(IxLdRM) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    *reg8_[u.a & 7] =
        mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm)));
    RETIRE(9);
  }
  UOP(IxStMR) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    mem_.write(static_cast<u16>(xy + static_cast<i8>(u.imm)),
               *reg8_[u.a & 7]);
    RETIRE(10);
  }
  UOP(IxAdd) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(0, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(9);
  }
  UOP(IxAdc) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(1, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(9);
  }
  UOP(IxSub) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(2, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(9);
  }
  UOP(IxSbc) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(3, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(9);
  }
  UOP(IxAnd) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(4, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(9);
  }
  UOP(IxXor) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(5, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(9);
  }
  UOP(IxOr) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(6, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(9);
  }
  UOP(IxCp) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    alu8(7, mem_.read(static_cast<u16>(xy + static_cast<i8>(u.imm))));
    RETIRE(9);
  }
  UOP(IxLdI) {
    ((u.a & 0x80) ? r.iy : r.ix) = u.imm;
    RETIRE(8);
  }
  UOP(IxStInd) {
    mem_.write16(u.imm, (u.a & 0x80) ? r.iy : r.ix);
    RETIRE(15);
  }
  UOP(IxLdInd) {
    ((u.a & 0x80) ? r.iy : r.ix) = mem_.read16(u.imm);
    RETIRE(13);
  }
  UOP(IxInc) {
    u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    xy = static_cast<u16>(xy + 1);
    RETIRE(4);
  }
  UOP(IxDec) {
    u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    xy = static_cast<u16>(xy - 1);
    RETIRE(4);
  }
  UOP(IxAddRp) {
    u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    const unsigned rp = u.a & 3;
    const u16 operand = rp == 2 ? xy
                      : rp == 0 ? r.bc()
                      : rp == 1 ? r.de()
                                : r.sp;
    xy = alu_add16(xy, operand);
    RETIRE(4);
  }
  UOP(IxIncM) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    const u16 addr = static_cast<u16>(xy + static_cast<i8>(u.imm));
    mem_.write(addr, alu_inc8(mem_.read(addr)));
    RETIRE(12);
  }
  UOP(IxDecM) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    const u16 addr = static_cast<u16>(xy + static_cast<i8>(u.imm));
    mem_.write(addr, alu_dec8(mem_.read(addr)));
    RETIRE(12);
  }
  UOP(IxStNI) {
    const u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    mem_.write(static_cast<u16>(xy + static_cast<i8>(u.imm & 0xFF)),
               static_cast<u8>(u.imm >> 8));
    RETIRE(11);
  }
  UOP(IxPop) {
    ((u.a & 0x80) ? r.iy : r.ix) = pop16();
    RETIRE(9);
  }
  UOP(IxPush) {
    push16((u.a & 0x80) ? r.iy : r.ix);
    RETIRE(12);
  }
  UOP(IxExSp) {
    u16& xy = (u.a & 0x80) ? r.iy : r.ix;
    const u16 tmp = mem_.read16(r.sp);
    mem_.write16(r.sp, xy);
    xy = tmp;
    RETIRE(15);
  }
  UOP(IxJp) { RETIRE_JUMP(6, (u.a & 0x80) ? r.iy : r.ix); }
  UOP(IxLdSp) {
    r.sp = (u.a & 0x80) ? r.iy : r.ix;
    RETIRE(4);
  }

slow_path:
  // Exact per-step execution for anything the fast path does not model
  // (page-edge fetches, EI/HALT/RETI, illegal opcodes). Ticks flush first
  // so the legacy step()'s immediate io_.tick lands in order; the counters
  // sync around step() because it increments the members directly. step()
  // may leave the PC and the mapping anywhere, so the next fetch translates.
  FLUSH_TICKS();
  cycles_ = cyc;
  instructions_ = icount;
  step();
  cyc = tick_base = cycles_;
  icount = instructions_;
  pc = r.pc;
  if (halted_ || iff_ || ei_delay_ || illegal_) return;
  goto translate;

out:
  r.pc = pc;
  cycles_ = cyc;
  instructions_ = icount;
  FLUSH_TICKS();

#undef RETIRE
#undef RETIRE_JUMP
#undef ACCOUNT
#undef FLUSH_TICKS
#undef UOP
#undef NEXT_SEQUENTIAL
#undef NEXT_TRANSLATE
#undef FETCH_SEQUENTIAL
#undef FETCH_TRANSLATE
#undef PPC
#undef NEXT_PC
}

}  // namespace rmc::rabbit

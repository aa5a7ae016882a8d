// onboard_aes: AES-128 blocks encrypted on the simulated Rabbit by E1's
// pair of builds — the hand assembly (rasm) and the debug-built MiniDynC
// port (dcc) — through services::AesOnBoard, four asm blocks to one C block,
// each build rekeyed every 16 of its blocks. Every ciphertext is checked
// against the host crypto::Aes.
#include <optional>

#include "common/prng.h"
#include "crypto/aes.h"
#include "harness.h"
#include "rabbit/board.h"
#include "services/aes_port.h"

namespace perfbench {
namespace {

using namespace rmc;

using Block = std::array<u8, 16>;

constexpr u64 kBlocksPerKey = 16;
constexpr u64 kAsmPerC = 4;

/// One build on its own board, with its inputs and expected outputs.
struct Build {
  std::optional<services::AesOnBoard> aes;
  Layer layer = Layer::kRabbitAsm;
  std::vector<Block> keys;
  std::vector<Block> plain;
  std::vector<Block> expect;
  u64 next = 0;  // block index within the repetition
};

class AesWorkload final : public Workload {
 public:
  explicit AesWorkload(const Options& opts)
      : opts_(opts), c_blocks_(opts.smoke ? 4 : 16) {}

  Phases prepare(u64 /*sample*/) override {
    Phases phases;
    error_.clear();
    u64 t0 = now_ns();
    auto asm_aes = services::AesOnBoard::create_from_repo(
        services::AesImpl::kHandAssembly, opts_.root);
    phases["rasm.build_s"] = (now_ns() - t0) / 1e9;
    t0 = now_ns();
    auto c_aes = services::AesOnBoard::create_from_repo(
        services::AesImpl::kCompiledC, opts_.root,
        dcc::CodegenOptions::debug_defaults());
    phases["dcc.build_s"] = (now_ns() - t0) / 1e9;
    if (!asm_aes.ok() || !c_aes.ok()) {
      error_ = !asm_aes.ok() ? asm_aes.status().to_string()
                             : c_aes.status().to_string();
      return phases;
    }
    asm_.aes.emplace(std::move(*asm_aes));
    asm_.layer = Layer::kRabbitAsm;
    c_.aes.emplace(std::move(*c_aes));
    c_.layer = Layer::kRabbitC;
    inputs(asm_, c_blocks_ * kAsmPerC, derive(opts_.seed, 30));
    inputs(c_, c_blocks_, derive(opts_.seed, 31));
    return phases;
  }

  void build() override {}
  std::string error() const override { return error_; }

  u64 input_digest() const override {
    u64 h = fnv1a(std::array<u8, 0>{});
    for (const Build* b : {&asm_, &c_}) {
      for (const Block& k : b->keys) h = fnv1a(k, h);
      for (const Block& p : b->plain) h = fnv1a(p, h);
    }
    return h;
  }

  RepResult run(Tracer& tr) override {
    RepResult r;
    if (!error_.empty()) {
      r.finished = false;
      return r;
    }
    asm_.next = c_.next = 0;
    const u64 asm_ins0 = ins(asm_), c_ins0 = ins(c_);
    const u64 asm_cyc0 = cyc(asm_), c_cyc0 = cyc(c_);
    const u64 traps0 = c_.aes->debug_traps() + asm_.aes->debug_traps();
    u64 board_cycles = 0;
    for (u64 i = 0; i < c_blocks_; ++i) {
      for (u64 j = 0; j < kAsmPerC; ++j) board_cycles += block(tr, asm_, r);
      board_cycles += block(tr, c_, r);
    }
    r.board_s = rabbit::Board::seconds(board_cycles);
    r.counts["rabbit.instructions.asm"] = ins(asm_) - asm_ins0;
    r.counts["rabbit.instructions.c_debug"] = ins(c_) - c_ins0;
    r.counts["rabbit.cycles.asm"] = cyc(asm_) - asm_cyc0;
    r.counts["rabbit.cycles.c_debug"] = cyc(c_) - c_cyc0;
    r.counts["rabbit.blocks.asm"] = asm_.next;
    r.counts["rabbit.blocks.c_debug"] = c_.next;
    r.counts["rabbit.debug_traps"] =
        c_.aes->debug_traps() + asm_.aes->debug_traps() - traps0;
    return r;
  }

 private:
  static u64 ins(Build& b) {
    return b.aes->board().cpu().instructions_retired();
  }
  static u64 cyc(Build& b) { return b.aes->board().cpu().cycles(); }

  static void inputs(Build& b, u64 blocks, u64 seed) {
    common::Xorshift64 rng(seed);
    b.keys.assign((blocks + kBlocksPerKey - 1) / kBlocksPerKey, Block{});
    for (Block& k : b.keys) rng.fill(k);
    b.plain.assign(blocks, Block{});
    b.expect.assign(blocks, Block{});
    for (u64 i = 0; i < blocks; ++i) {
      rng.fill(b.plain[i]);
      auto host = crypto::Aes::create(b.keys[i / kBlocksPerKey]);
      host->encrypt_block(b.plain[i], b.expect[i]);
    }
  }

  /// One op: the next block of `b` (rekeying first every 16 blocks).
  /// Returns the board cycles it took.
  u64 block(Tracer& tr, Build& b, RepResult& r) {
    const u64 i = b.next++;
    const u32 span = tr.reserve_id();
    const u32 op = static_cast<u32>(++next_op_);
    const u64 t0 = now_ns();
    bool ok = true;
    u64 cycles = 0;
    if (i % kBlocksPerKey == 0) {
      tr.call(b.layer, span, op, [&] {
        auto c = b.aes->set_key(b.keys[i / kBlocksPerKey]);
        ok = c.ok();
        if (ok) cycles += *c;
      });
    }
    Block out{};
    tr.call(b.layer, span, op, [&] {
      auto c = b.aes->encrypt(b.plain[i], out);
      ok = ok && c.ok();
      if (c.ok()) cycles += *c;
    });
    const u64 t1 = now_ns();
    tr.record(Layer::kOp, span, 0, op, t0, t1);
    ok = ok && out == b.expect[i];
    r.op_us.push_back((t1 - t0) / 1e3);
    r.op_board_ms.push_back(static_cast<double>(cycles) /
                            (rabbit::Board::kClockHz / 1e3));
    ++r.ops;
    if (ok) {
      r.verified_bytes += out.size();
    } else {
      ++r.failed;
    }
    return cycles;
  }

  Options opts_;
  u64 c_blocks_;  // C blocks per repetition; asm runs kAsmPerC times as many
  Build asm_;
  Build c_;
  std::string error_;
  u64 next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_aes_workload(const Options& opts) {
  if (opts.workload != "onboard_aes") return nullptr;
  return std::make_unique<AesWorkload>(opts);
}

}  // namespace perfbench

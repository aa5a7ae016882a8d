// The AES porting testbench of the paper's Section 6: "a testbench that
// pumped keys through the two implementations of the AES cipher".
//
// `AesOnBoard` wraps one AES implementation running on the simulated
// RMC2000 — either the hand assembly (asm/aes_hand.asm) or the MiniDynC
// port (dc/aes.dc) compiled under a chosen set of optimization knobs — and
// exposes set_key / encrypt with cycle accounting. Tests verify both against
// the host C++ AES; the benches sweep them for E1/E2/E3.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "dcc/codegen.h"
#include "rabbit/board.h"

namespace rmc::services {

using common::u64;
using common::u8;

/// Which implementation to load onto the board.
enum class AesImpl {
  kHandAssembly,  // asm/aes_hand.asm via rasm
  kCompiledC,     // dc/aes.dc via dcc (with options)
};

class AesOnBoard {
 public:
  /// Invoked after the image is loaded but before aes_init runs — the window
  /// where a telemetry::CycleProfiler can bind the image's symbol map and
  /// attach to the CPU so that *every* cycle (init included) is attributed.
  using BoardHook = std::function<void(rabbit::Board&, const rabbit::Image&)>;

  /// Loads and initializes: resolves the image's six entry points and
  /// buffers once (a missing one fails with kNotFound), then runs aes_init.
  /// `source` is the full text of the .asm or .dc file. For kHandAssembly
  /// the options are ignored.
  static common::Result<AesOnBoard> create(
      AesImpl impl, const std::string& source,
      const dcc::CodegenOptions& options = {},
      const BoardHook& pre_init = {});

  /// Convenience: reads the repository's canonical source file
  /// (asm/aes_hand.asm or dc/aes.dc) from `repo_root`.
  static common::Result<AesOnBoard> create_from_repo(
      AesImpl impl, const std::string& repo_root,
      const dcc::CodegenOptions& options = {},
      const BoardHook& pre_init = {});

  /// Expand a 16-byte key on the target. Returns cycles consumed.
  common::Result<u64> set_key(std::span<const u8> key);

  /// Encrypt one 16-byte block on the target. Returns cycles consumed and
  /// writes the ciphertext to `out`.
  common::Result<u64> encrypt(std::span<const u8> in, std::span<u8> out);

  /// Total code+table bytes of the loaded image (E3's size metric).
  std::size_t image_bytes() const { return image_bytes_; }
  /// Cycles the one-time aes_init took.
  u64 init_cycles() const { return init_cycles_; }
  /// Debug trap count so far (nonzero only for debug-built C).
  u64 debug_traps() { return board_->cpu().debug_traps(); }

  rabbit::Board& board() { return *board_; }
  const rabbit::Board& board() const { return *board_; }

 private:
  AesOnBoard() = default;

  void write_buffer(common::u16 addr, std::span<const u8> data);
  void read_buffer(common::u16 addr, std::span<u8> data);
  /// Call the routine at `addr`; a stop other than HALT at the sentinel
  /// fails with kInternal naming `what`.
  common::Result<u64> call(common::u16 addr, const char* what);

  std::unique_ptr<rabbit::Board> board_;
  // Logical addresses of the entry points and buffers, resolved in create().
  common::u16 fn_set_key_ = 0, fn_encrypt_ = 0;
  common::u16 buf_key_ = 0, buf_in_ = 0, buf_out_ = 0;
  std::size_t image_bytes_ = 0;
  u64 init_cycles_ = 0;
};

/// Read a whole file; convenience for loading the canonical sources.
common::Result<std::string> read_text_file(const std::string& path);

}  // namespace rmc::services

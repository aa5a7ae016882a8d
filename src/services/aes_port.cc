#include "services/aes_port.h"

#include <fstream>
#include <sstream>

#include "rasm/assembler.h"

namespace rmc::services {

using common::ErrorCode;
using common::Result;
using common::Status;

Result<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(ErrorCode::kNotFound, "cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Result<AesOnBoard> AesOnBoard::create(AesImpl impl, const std::string& source,
                                      const dcc::CodegenOptions& options,
                                      const BoardHook& pre_init) {
  AesOnBoard ab;
  ab.board_ = std::make_unique<rabbit::Board>();

  rabbit::Image image;
  // Per-implementation symbols: init, set_key, encrypt, then the key, input
  // and output buffers.
  std::array<const char*, 6> names{};
  if (impl == AesImpl::kHandAssembly) {
    auto out = rasm::assemble(source);
    if (!out.ok()) return out.status();
    image = std::move(out->image);
    names = {"aes_init", "aes_set_key", "aes_encrypt",
             "key_buf",  "in_buf",      "out_buf"};
    // Size metric: code only (tables are computed into RAM at init; the
    // `ds` reservations emit zero bytes into root chunks but we exclude
    // data-segment chunks entirely).
    for (const auto& chunk : image.chunks) {
      if (chunk.phys_addr < 0x6000) ab.image_bytes_ += chunk.bytes.size();
    }
  } else {
    auto out = dcc::compile(source, options);
    if (!out.ok()) return out.status();
    image = std::move(out->image);
    names = {"f_aes_init", "f_aes_set_key", "f_aes_encrypt",
             "g_aes_key",  "g_aes_in",      "g_aes_out"};
    ab.image_bytes_ = out->code_bytes;
  }

  std::array<common::u16, 6> addr{};
  for (std::size_t i = 0; i < names.size(); ++i) {
    common::u32 a = 0;
    if (!image.find_symbol(names[i], a)) {
      return Status(ErrorCode::kNotFound,
                    std::string("missing symbol: ") + names[i]);
    }
    addr[i] = static_cast<common::u16>(a);
  }
  ab.fn_set_key_ = addr[1];
  ab.fn_encrypt_ = addr[2];
  ab.buf_key_ = addr[3];
  ab.buf_in_ = addr[4];
  ab.buf_out_ = addr[5];

  ab.board_->load(image);
  if (pre_init) pre_init(*ab.board_, image);
  auto init = ab.call(addr[0], "aes_init");
  if (!init.ok()) return init.status();
  ab.init_cycles_ = *init;
  return ab;
}

Result<AesOnBoard> AesOnBoard::create_from_repo(
    AesImpl impl, const std::string& repo_root,
    const dcc::CodegenOptions& options, const BoardHook& pre_init) {
  const std::string path =
      repo_root + (impl == AesImpl::kHandAssembly ? "/asm/aes_hand.asm"
                                                  : "/dc/aes.dc");
  auto source = read_text_file(path);
  if (!source.ok()) return source.status();
  return create(impl, *source, options, pre_init);
}

void AesOnBoard::write_buffer(common::u16 addr, std::span<const u8> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    board_->mem().write(static_cast<common::u16>(addr + i), data[i]);
  }
}

void AesOnBoard::read_buffer(common::u16 addr, std::span<u8> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = board_->mem().read(static_cast<common::u16>(addr + i));
  }
}

Result<u64> AesOnBoard::call(common::u16 addr, const char* what) {
  const rabbit::CallResult res = board_->call(addr, 500'000'000);
  if (res.stop != rabbit::StopReason::kHalted) {
    return Status(ErrorCode::kInternal,
                  std::string(what) + " did not complete: " +
                      board_->cpu().illegal_message());
  }
  return res.cycles;
}

Result<u64> AesOnBoard::set_key(std::span<const u8> key) {
  if (key.size() != 16) {
    return Status(ErrorCode::kInvalidArgument, "key must be 16 bytes");
  }
  write_buffer(buf_key_, key);
  return call(fn_set_key_, "set_key");
}

Result<u64> AesOnBoard::encrypt(std::span<const u8> in, std::span<u8> out) {
  if (in.size() != 16 || out.size() != 16) {
    return Status(ErrorCode::kInvalidArgument, "block must be 16 bytes");
  }
  write_buffer(buf_in_, in);
  auto cycles = call(fn_encrypt_, "encrypt");
  if (!cycles.ok()) return cycles;
  read_buffer(buf_out_, out);
  return cycles;
}

}  // namespace rmc::services

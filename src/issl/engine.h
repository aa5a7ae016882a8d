// RecordEngine — the record layer's view of a crypto offload engine.
//
// A session whose Config::engine answers its probe routes bulk record
// crypto through whatever implements this interface; in practice that is
// dynk::CryptoDev driving the rabbit::CryptoCell peripheral. The interface
// is deliberately key-stateless — callers pass key bytes on every op and the
// implementation is free to cache them in hardware key slots — so the
// record layer needs no slot-lifecycle knowledge and the engine can be
// swapped per session.
//
// Header-only on purpose: issl depends on the *shape* of an engine, never on
// dynk or rabbit, which keeps the library layering acyclic (dynk includes
// this header and links nothing from issl).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace rmc::issl {

using common::u8;

class RecordEngine {
 public:
  virtual ~RecordEngine() = default;

  /// True when the hardware answered its identity probe. A false engine is
  /// treated like a missing one: the record layer falls back to software.
  virtual bool available() const = 0;

  /// AES-128-CBC over a whole record (data length a multiple of 16).
  /// Errors (engine absent, key rejected, length bad) are surfaced as a
  /// Status, never by truncating output.
  virtual common::Result<std::vector<u8>> aes_cbc(
      bool encrypt, std::span<const u8> key, std::span<const u8> iv,
      std::span<const u8> data) = 0;

  /// HMAC-SHA1 of `message` under `key` (key length 1..64 bytes).
  virtual common::Result<std::array<u8, 20>> hmac_sha1(
      std::span<const u8> key, std::span<const u8> message) = 0;
};

}  // namespace rmc::issl

// issl build configurations (paper §2):
//
//   "By default, issl supports key lengths of 128, 192, or 256 bits ...
//    but to keep our implementation simple, we only implemented 128-bit
//    keys ... our final port did not implement the RSA cipher because it
//    relied on a fairly complex bignum library."
//
// `unix_default()` is the full-featured original; `embedded_port()` is the
// configuration the paper actually shipped on the RMC2000: AES-128 only,
// RSA replaced with a pre-shared key, static allocation. The drop is a
// *configuration*, not a fork — both run through the same code.
#pragma once

#include <cstddef>

namespace rmc::issl {

class RecordEngine;  // issl/engine.h — crypto offload

enum class KeyExchange {
  kRsa,  // RSA-encrypted premaster secret (needs the bignum package)
  kPsk,  // pre-shared key (what the port fell back to)
};

/// RSA modulus bounds, shared by the server's Config::valid() and the
/// client's check of the public key a ServerHello carries. PKCS#1 type-2
/// needs 11 bytes of framing, so below a 12-byte (96-bit) modulus the
/// premaster cannot carry a single byte. The ceiling caps the modexp a
/// hostile server can make a client run.
inline constexpr std::size_t kMinRsaModulusBits = 96;
inline constexpr std::size_t kMaxRsaModulusBits = 4096;

struct Config {
  KeyExchange key_exchange = KeyExchange::kRsa;
  std::size_t aes_key_bits = 128;  // 128 / 192 / 256
  std::size_t rsa_modulus_bits = 256;  // small for simulation speed

  // Record-layer crypto offload (e.g. dynk::CryptoDev), used when it answers
  // its probe at key activation. One that does not falls back to software,
  // so a service configured for offload still runs on a stock board
  // (Session::engine_fallback()). Wire bytes are the same either way.
  RecordEngine* engine = nullptr;

  // Session resumption (DESIGN.md §10). Off by default: the hello messages
  // then carry the original 34-byte bodies and the wire is bit-identical to
  // a build without this feature. When on, ClientHello grows an optional
  // session-ID field, the server answers with an assigned/confirmed ID, and
  // a cache hit runs the abbreviated handshake (no RSA, no premaster —
  // straight to Finished from the cached master secret). Both sides must
  // enable it; a resuming client talking to a legacy server falls back to
  // the full handshake.
  bool resumption = false;

  // Robustness budgets, counted in pump() calls — the session has no clock
  // of its own, and service loops pump roughly once per virtual
  // millisecond. A pump "stalls" when it made no *protocol* progress (no
  // complete record opened, no handshake message, no state advance) while
  // the session was mid-handshake, or while a partial record sat in
  // reassembly (an established, idle session never stalls). Raw trickled
  // bytes deliberately do not count as progress — a peer drip-feeding one
  // byte per pump must still exhaust the budget. Exceeding the
  // budget fails the session with kTimeout instead of wedging the caller's
  // costatement forever. The defaults comfortably clear TCP's worst-case
  // backed-off retransmission horizon (~19 s to give-up); 0 disables.
  std::size_t handshake_stall_limit = 30'000;
  std::size_t record_stall_limit = 30'000;

  bool valid() const {
    if (aes_key_bits != 128 && aes_key_bits != 192 && aes_key_bits != 256) {
      return false;
    }
    // Reject an out-of-bounds modulus at construction instead of failing
    // mid-handshake.
    if (key_exchange == KeyExchange::kRsa &&
        (rsa_modulus_bits < kMinRsaModulusBits ||
         rsa_modulus_bits > kMaxRsaModulusBits)) {
      return false;
    }
    // The offload engine is AES-128 only (like the paper's embedded port).
    if (engine != nullptr && aes_key_bits != 128) return false;
    return true;
  }

  static Config unix_default() {
    Config c;
    c.key_exchange = KeyExchange::kRsa;
    c.aes_key_bits = 256;
    return c;
  }
  static Config embedded_port() {
    Config c;
    c.key_exchange = KeyExchange::kPsk;  // RSA dropped with the bignum package
    c.aes_key_bits = 128;                // only key length kept
    return c;
  }
};

}  // namespace rmc::issl

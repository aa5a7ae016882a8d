#include "issl/record.h"

#include "crypto/modes.h"
#include "telemetry/metrics.h"

namespace rmc::issl {

using common::ErrorCode;
using common::Result;
using common::Status;

namespace {
telemetry::Counter& sealed_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.records_sealed");
  return c;
}
telemetry::Counter& opened_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.records_opened");
  return c;
}
telemetry::Counter& mac_fail_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.mac_failures");
  return c;
}
// Registered lazily (first engine-configured session) so stock-software
// runs keep their metrics JSON bit-identical to earlier builds.
telemetry::Counter& engine_fallback_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.engine_fallbacks");
  return c;
}
// Registered on the first malformed record, so runs that never see one keep
// the instrument out of their metrics JSON.
telemetry::Counter& malformed_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("issl.malformed_records");
  return c;
}

// ---------------------------------------------------------------------------
// Per-backend record-crypto cost model (30 MHz Rabbit-class target).
//
// Calibrated to the scale E1/E8 measure on the simulated core: the direct C
// port runs one AES block in ~70k cycles and one SHA-1 compression in ~21k;
// the hand-assembly rewrite gets AES to ~7k and SHA-1 to ~7k (the paper's
// "order of magnitude" gap). Like the handshake model in session.cc this is
// exact virtual arithmetic — its job is the asm/C/engine *ratio* in E14's
// table, not cycle-exact emulation. The engine backend needs no constants
// here: its cost is the driver's measured stall cycles.
// ---------------------------------------------------------------------------
struct SoftwareCost {
  u64 aes_block_cycles;
  u64 sha1_block_cycles;
  u64 aes_setup_cycles;  // per-direction key schedule at activation
};
constexpr SoftwareCost kCCost{70'000, 21'000, 50'000};
constexpr SoftwareCost kAsmCost{7'000, 7'000, 5'000};

u64 sha1_blocks(std::size_t bytes) { return (bytes + 9 + 63) / 64; }

u64 software_hmac_cycles(const SoftwareCost& c, std::size_t msg_bytes) {
  return (1 + sha1_blocks(msg_bytes) + 1 + sha1_blocks(20)) *
         c.sha1_block_cycles;
}
}  // namespace

void RecordCodec::note_malformed() {
  ++malformed_records_;
  malformed_counter().add();
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kC: return "c";
    case Backend::kAsm: return "asm";
    case Backend::kEngine: return "engine";
  }
  return "?";
}

Status RecordCodec::activate_keys(const DirectionKeys& send,
                                  const DirectionKeys& recv) {
  auto send_cipher = crypto::AesFast::create(send.aes_key);
  if (!send_cipher.ok()) return send_cipher.status();
  auto recv_cipher = crypto::AesFast::create(recv.aes_key);
  if (!recv_cipher.ok()) return recv_cipher.status();
  send_keys_ = send;
  recv_keys_ = recv;
  send_cipher_ = std::move(*send_cipher);
  recv_cipher_ = std::move(*recv_cipher);
  sealed_ = true;

  // Resolve the backend now that crypto is about to start. A configured
  // engine that is missing or failed its probe degrades to the C port —
  // the stock-board behavior — rather than failing the session.
  effective_backend_ = backend_;
  if (backend_ == Backend::kEngine &&
      (engine_ == nullptr || !engine_->available())) {
    effective_backend_ = Backend::kC;
    engine_fallback_ = true;
    engine_fallback_counter().add();
  }
  if (effective_backend_ == Backend::kC) {
    crypto_cost_cycles_ += 2 * kCCost.aes_setup_cycles;
  } else if (effective_backend_ == Backend::kAsm) {
    crypto_cost_cycles_ += 2 * kAsmCost.aes_setup_cycles;
  }
  // kEngine: schedule expansion happens inside the engine's key-load op;
  // the stall-cycle delta of the first record picks it up.
  return Status::ok();
}

std::vector<u8> RecordCodec::mac_input(u64 seq, RecordType type,
                                       std::span<const u8> plaintext) const {
  std::vector<u8> msg;
  msg.reserve(9 + plaintext.size());
  for (int i = 7; i >= 0; --i) msg.push_back(static_cast<u8>(seq >> (8 * i)));
  msg.push_back(static_cast<u8>(type));
  msg.insert(msg.end(), plaintext.begin(), plaintext.end());
  return msg;
}

common::Result<std::array<u8, 20>> RecordCodec::record_mac(
    const DirectionKeys& keys, u64 seq, RecordType type,
    std::span<const u8> plaintext) {
  const auto msg = mac_input(seq, type, plaintext);
  switch (effective_backend_) {
    case Backend::kEngine: {
      const u64 before = engine_->stall_cycles_total();
      auto digest = engine_->hmac_sha1(keys.mac_key, msg);
      crypto_cost_cycles_ += engine_->stall_cycles_total() - before;
      return digest;
    }
    case Backend::kAsm:
      crypto_cost_cycles_ += software_hmac_cycles(kAsmCost, msg.size());
      break;
    case Backend::kC:
      crypto_cost_cycles_ += software_hmac_cycles(kCCost, msg.size());
      break;
  }
  return crypto::hmac_sha1(keys.mac_key, msg);
}

common::Result<std::vector<u8>> RecordCodec::backend_cbc(
    bool encrypt, const DirectionKeys& keys, const crypto::AesFast& cipher,
    std::span<const u8> iv, std::span<const u8> data) {
  switch (effective_backend_) {
    case Backend::kEngine: {
      const u64 before = engine_->stall_cycles_total();
      auto out = engine_->aes_cbc(encrypt, keys.aes_key, iv, data);
      crypto_cost_cycles_ += engine_->stall_cycles_total() - before;
      return out;
    }
    case Backend::kAsm:
      crypto_cost_cycles_ +=
          (data.size() / crypto::kAesBlockBytes) * kAsmCost.aes_block_cycles;
      break;
    case Backend::kC:
      crypto_cost_cycles_ +=
          (data.size() / crypto::kAesBlockBytes) * kCCost.aes_block_cycles;
      break;
  }
  return encrypt ? crypto::cbc_encrypt(cipher, iv, data)
                 : crypto::cbc_decrypt(cipher, iv, data);
}

Result<std::vector<u8>> RecordCodec::seal(RecordType type,
                                          std::span<const u8> plaintext) {
  if (plaintext.size() > kMaxRecordPayload) {
    return Status(ErrorCode::kInvalidArgument, "record too large");
  }
  std::vector<u8> body;
  if (!sealed_) {
    body.assign(plaintext.begin(), plaintext.end());
  } else {
    // plaintext || MAC, padded, CBC under a fresh IV.
    const auto mac = record_mac(send_keys_, seq_send_, type, plaintext);
    if (!mac.ok()) return mac.status();
    std::vector<u8> with_mac(plaintext.begin(), plaintext.end());
    with_mac.insert(with_mac.end(), mac->begin(), mac->end());
    const auto padded = crypto::pkcs7_pad(with_mac, crypto::kAesBlockBytes);
    std::vector<u8> iv(crypto::kAesBlockBytes);
    rng_->fill(iv);
    auto ct = backend_cbc(true, send_keys_, *send_cipher_, iv, padded);
    if (!ct.ok()) return ct.status();
    body = std::move(iv);
    body.insert(body.end(), ct->begin(), ct->end());
  }
  ++seq_send_;
  sealed_counter().add();

  std::vector<u8> wire;
  wire.reserve(kRecordHeaderBytes + body.size());
  wire.push_back(static_cast<u8>(type));
  wire.push_back(kIsslVersion);
  wire.push_back(static_cast<u8>(body.size() >> 8));
  wire.push_back(static_cast<u8>(body.size() & 0xFF));
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

Result<std::vector<u8>> RecordCodec::open_payload(RecordType type,
                                                  std::span<const u8> wire) {
  if (!sealed_) {
    ++seq_recv_;
    opened_counter().add();
    return std::vector<u8>(wire.begin(), wire.end());
  }
  if (wire.size() < 2 * crypto::kAesBlockBytes ||
      (wire.size() % crypto::kAesBlockBytes) != 0) {
    note_malformed();
    return Status(ErrorCode::kDataLoss, "bad sealed record length");
  }
  const auto iv = wire.subspan(0, crypto::kAesBlockBytes);
  const auto ct = wire.subspan(crypto::kAesBlockBytes);
  const auto padded = backend_cbc(false, recv_keys_, *recv_cipher_, iv, ct);
  if (!padded.ok()) return padded.status();
  auto unpadded = crypto::pkcs7_unpad(*padded, crypto::kAesBlockBytes);
  if (!unpadded.ok()) {
    note_malformed();
    return unpadded.status();
  }
  if (unpadded->size() < crypto::kSha1DigestBytes) {
    note_malformed();
    return Status(ErrorCode::kDataLoss, "record shorter than its MAC");
  }
  const std::size_t data_len = unpadded->size() - crypto::kSha1DigestBytes;
  std::span<const u8> data(unpadded->data(), data_len);
  std::span<const u8> mac(unpadded->data() + data_len,
                          crypto::kSha1DigestBytes);
  const auto expect = record_mac(recv_keys_, seq_recv_, type, data);
  if (!expect.ok()) return expect.status();
  if (!common::ct_equal(mac, *expect)) {
    mac_fail_counter().add();
    return Status(ErrorCode::kDataLoss, "record MAC mismatch");
  }
  ++seq_recv_;
  opened_counter().add();
  return std::vector<u8>(data.begin(), data.end());
}

Status RecordCodec::feed(std::span<const u8> bytes) {
  if (poisoned_) {
    return Status(ErrorCode::kDataLoss, "record stream poisoned");
  }
  // Defense in depth: more buffered bytes than two maximum records can ever
  // need means the peer is not speaking the protocol.
  if (rx_buffer_.size() + bytes.size() > 2 * (kMaxRecordLen + 64)) {
    note_malformed();
    poisoned_ = true;
    return Status(ErrorCode::kDataLoss, "record reassembly overflow");
  }
  rx_buffer_.insert(rx_buffer_.end(), bytes.begin(), bytes.end());
  return Status::ok();
}

Result<std::optional<Record>> RecordCodec::pop() {
  if (poisoned_) {
    return Status(ErrorCode::kDataLoss, "record stream poisoned");
  }
  if (rx_buffer_.size() < kRecordHeaderBytes) return std::optional<Record>{};
  const u8 type_byte = rx_buffer_[0];
  const u8 version = rx_buffer_[1];
  const std::size_t len =
      (static_cast<std::size_t>(rx_buffer_[2]) << 8) | rx_buffer_[3];
  if (version != kIsslVersion || type_byte < 1 || type_byte > 3 ||
      len > kMaxRecordLen) {
    note_malformed();
    poisoned_ = true;
    return Status(ErrorCode::kDataLoss, "malformed record header");
  }
  if (rx_buffer_.size() < kRecordHeaderBytes + len) {
    return std::optional<Record>{};  // need more bytes
  }
  const RecordType type = static_cast<RecordType>(type_byte);
  auto payload = open_payload(
      type, std::span<const u8>(rx_buffer_.data() + kRecordHeaderBytes, len));
  rx_buffer_.erase(
      rx_buffer_.begin(),
      rx_buffer_.begin() + static_cast<long>(kRecordHeaderBytes + len));
  if (!payload.ok()) {
    poisoned_ = true;
    return payload.status();
  }
  return std::optional<Record>(Record{type, std::move(*payload)});
}

}  // namespace rmc::issl

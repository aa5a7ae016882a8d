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

void put_header(std::vector<u8>& wire, RecordType type, std::size_t body_len) {
  wire.push_back(static_cast<u8>(type));
  wire.push_back(kIsslVersion);
  wire.push_back(static_cast<u8>(body_len >> 8));
  wire.push_back(static_cast<u8>(body_len & 0xFF));
}
}  // namespace

void RecordCodec::note_malformed() {
  ++malformed_records_;
  malformed_counter().add();
}

Status RecordCodec::activate_keys(const DirectionKeys& send,
                                  const DirectionKeys& recv) {
  auto send_cipher = crypto::AesFast::create(send.aes_key);
  if (!send_cipher.ok()) return send_cipher.status();
  auto recv_cipher = crypto::AesFast::create(recv.aes_key);
  if (!recv_cipher.ok()) return recv_cipher.status();
  send_ = Direction{send, *send_cipher, crypto::HmacSha1Key(send.mac_key)};
  recv_ = Direction{recv, *recv_cipher, crypto::HmacSha1Key(recv.mac_key)};
  sealed_ = true;
  work_.key_schedules += 2;

  // Probe now that crypto is about to start. A configured engine that
  // failed its probe degrades to software — the stock-board behavior —
  // rather than failing the session.
  use_engine_ = engine_ != nullptr && engine_->available();
  if (engine_ != nullptr && !use_engine_) {
    engine_fallback_ = true;
    engine_fallback_counter().add();
  }
  return Status::ok();
}

common::Result<std::array<u8, 20>> RecordCodec::record_mac(
    const Direction& dir, u64 seq, RecordType type,
    std::span<const u8> plaintext) {
  // The MAC covers seq (8 bytes, big-endian) || type || plaintext.
  std::array<u8, 9> header{};
  for (int i = 0; i < 8; ++i) {
    header[i] = static_cast<u8>(seq >> (56 - 8 * i));
  }
  header[8] = static_cast<u8>(type);
  work_.sha1_blocks +=
      crypto::hmac_sha1_blocks(header.size() + plaintext.size());
  if (use_engine_) {
    // The engine API takes the message as one buffer.
    std::vector<u8> msg(header.begin(), header.end());
    msg.insert(msg.end(), plaintext.begin(), plaintext.end());
    return engine_->hmac_sha1(dir.keys.mac_key, msg);
  }
  crypto::Sha1 inner = dir.mac.begin();
  inner.update(header);
  inner.update(plaintext);
  return dir.mac.finish(inner);
}

Status RecordCodec::cbc(bool encrypt, const Direction& dir,
                        std::span<const u8> iv, std::span<const u8> in,
                        std::span<u8> out) {
  work_.aes_blocks += in.size() / crypto::kAesBlockBytes;
  if (use_engine_) {
    // The engine returns its output in a buffer of its own.
    auto result = engine_->aes_cbc(encrypt, dir.keys.aes_key, iv, in);
    if (!result.ok()) return result.status();
    if (result->size() != out.size()) {
      return Status(ErrorCode::kInternal, "engine CBC output length");
    }
    std::copy(result->begin(), result->end(), out.begin());
    return Status::ok();
  }
  if (encrypt) {
    crypto::cbc_encrypt(dir.cipher, iv, in, out);
  } else {
    crypto::cbc_decrypt(dir.cipher, iv, in, out);
  }
  return Status::ok();
}

Result<std::vector<u8>> RecordCodec::seal(RecordType type,
                                          std::span<const u8> plaintext) {
  if (plaintext.size() > kMaxRecordPayload) {
    return Status(ErrorCode::kInvalidArgument, "record too large");
  }
  std::vector<u8> wire;
  if (!sealed_) {
    wire.reserve(kRecordHeaderBytes + plaintext.size());
    put_header(wire, type, plaintext.size());
    wire.insert(wire.end(), plaintext.begin(), plaintext.end());
  } else {
    // header || IV || CBC(plaintext || MAC || PKCS#7 fill of 1..16 bytes),
    // laid out in the wire vector and encrypted there in place.
    const auto mac = record_mac(*send_, seq_send_, type, plaintext);
    if (!mac.ok()) return mac.status();
    const std::size_t unpadded = plaintext.size() + mac->size();
    const std::size_t pad =
        crypto::kAesBlockBytes - unpadded % crypto::kAesBlockBytes;
    const std::size_t body_len = crypto::kAesBlockBytes + unpadded + pad;
    wire.reserve(kRecordHeaderBytes + body_len);
    put_header(wire, type, body_len);
    wire.resize(kRecordHeaderBytes + crypto::kAesBlockBytes);
    const std::span<u8> iv = std::span<u8>(wire).subspan(kRecordHeaderBytes);
    rng_->fill(iv);
    wire.insert(wire.end(), plaintext.begin(), plaintext.end());
    wire.insert(wire.end(), mac->begin(), mac->end());
    wire.insert(wire.end(), pad, static_cast<u8>(pad));
    // No reallocation since the reserve, so `iv` still points into wire.
    const std::span<u8> padded = std::span<u8>(wire).subspan(
        kRecordHeaderBytes + crypto::kAesBlockBytes);
    if (Status s = cbc(true, *send_, iv, padded, padded); !s.is_ok()) {
      return s;
    }
  }
  ++seq_send_;
  sealed_counter().add();
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
  // Decrypt straight into the payload; check the PKCS#7 fill and the MAC
  // where they landed, then trim them off.
  const auto iv = wire.subspan(0, crypto::kAesBlockBytes);
  const auto ct = wire.subspan(crypto::kAesBlockBytes);
  std::vector<u8> payload(ct.size());
  if (Status s = cbc(false, *recv_, iv, ct, payload); !s.is_ok()) return s;
  const u8 pad = payload.back();
  if (pad == 0 || pad > crypto::kAesBlockBytes) {
    note_malformed();
    return Status(ErrorCode::kDataLoss, "bad padding byte");
  }
  for (std::size_t i = payload.size() - pad; i < payload.size(); ++i) {
    if (payload[i] != pad) {
      note_malformed();
      return Status(ErrorCode::kDataLoss, "inconsistent padding");
    }
  }
  if (payload.size() - pad < crypto::kSha1DigestBytes) {
    note_malformed();
    return Status(ErrorCode::kDataLoss, "record shorter than its MAC");
  }
  const std::size_t data_len =
      payload.size() - pad - crypto::kSha1DigestBytes;
  const std::span<const u8> data(payload.data(), data_len);
  const std::span<const u8> mac(payload.data() + data_len,
                                crypto::kSha1DigestBytes);
  const auto expect = record_mac(*recv_, seq_recv_, type, data);
  if (!expect.ok()) return expect.status();
  if (!common::ct_equal(mac, *expect)) {
    mac_fail_counter().add();
    return Status(ErrorCode::kDataLoss, "record MAC mismatch");
  }
  payload.resize(data_len);
  ++seq_recv_;
  opened_counter().add();
  return payload;
}

Status RecordCodec::feed(std::span<const u8> bytes) {
  if (poisoned_) {
    return Status(ErrorCode::kDataLoss, "record stream poisoned");
  }
  // Defense in depth: more buffered bytes than two maximum records can ever
  // need means the peer is not speaking the protocol.
  if (rx_buffer_.size() + bytes.size() > kMaxReassemblyBytes) {
    note_malformed();
    poisoned_ = true;
    return Status(ErrorCode::kDataLoss, "record reassembly overflow");
  }
  rx_buffer_.append(bytes);
  return Status::ok();
}

Result<std::optional<Record>> RecordCodec::pop() {
  if (poisoned_) {
    return Status(ErrorCode::kDataLoss, "record stream poisoned");
  }
  if (rx_buffer_.size() < kRecordHeaderBytes) return std::optional<Record>{};
  const u8* head = rx_buffer_.data();
  const u8 type_byte = head[0];
  const u8 version = head[1];
  const std::size_t len = (static_cast<std::size_t>(head[2]) << 8) | head[3];
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
  auto payload =
      open_payload(type, std::span<const u8>(head + kRecordHeaderBytes, len));
  rx_buffer_.consume(kRecordHeaderBytes + len);
  if (!payload.ok()) {
    poisoned_ = true;
    return payload.status();
  }
  return std::optional<Record>(Record{type, std::move(*payload)});
}

}  // namespace rmc::issl

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

common::Result<std::vector<u8>> RecordCodec::cbc(bool encrypt,
                                                  const Direction& dir,
                                                  std::span<const u8> iv,
                                                  std::span<const u8> data) {
  work_.aes_blocks += data.size() / crypto::kAesBlockBytes;
  if (use_engine_) return engine_->aes_cbc(encrypt, dir.keys.aes_key, iv, data);
  return encrypt ? crypto::cbc_encrypt(dir.cipher, iv, data)
                 : crypto::cbc_decrypt(dir.cipher, iv, data);
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
    const auto mac = record_mac(*send_, seq_send_, type, plaintext);
    if (!mac.ok()) return mac.status();
    std::vector<u8> with_mac(plaintext.begin(), plaintext.end());
    with_mac.insert(with_mac.end(), mac->begin(), mac->end());
    const auto padded = crypto::pkcs7_pad(with_mac, crypto::kAesBlockBytes);
    std::vector<u8> iv(crypto::kAesBlockBytes);
    rng_->fill(iv);
    auto ct = cbc(true, *send_, iv, padded);
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
  const auto padded = cbc(false, *recv_, iv, ct);
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
  const auto expect = record_mac(*recv_, seq_recv_, type, data);
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

// issl tests: record-layer properties (confidentiality framing, MAC
// rejection, sequence binding, the MAC input checked against the reference
// HMAC, a sealed record checked against one composed from the reference
// CBC and PKCS#7, malformed padding told apart from a MAC failure), full
// handshakes over the simulated network in both key-exchange modes,
// negotiation failures that reproduce the paper's dropped features, data
// transfer under packet loss and in bursts past one pump's intake, and
// clean close semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto_reference.h"
#include "issl/issl.h"
#include "net/simnet.h"
#include "net/tcp.h"
#include "telemetry/metrics.h"

namespace rmc::issl {
namespace {

using common::ErrorCode;
using common::Status;
using common::u8;
using net::IpAddr;
using net::Port;
using net::SimNet;
using net::TcpStack;

constexpr IpAddr kServerIp = 1;
constexpr IpAddr kClientIp = 2;
constexpr Port kTlsPort = 4433;

std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

// ---------------------------------------------------------------------------
// Record layer in isolation (loopback buffer stream)
// ---------------------------------------------------------------------------

class PipeStream final : public ByteStream {
 public:
  common::Result<std::size_t> write(std::span<const u8> data) override {
    buf_.insert(buf_.end(), data.begin(), data.end());
    return data.size();
  }
  common::Result<std::size_t> read(std::span<u8> out) override {
    if (buf_.empty()) {
      return common::Status(ErrorCode::kUnavailable, "empty");
    }
    const std::size_t n = std::min(out.size(), buf_.size());
    std::copy(buf_.begin(), buf_.begin() + static_cast<long>(n), out.begin());
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(n));
    return n;
  }
  bool open() const override { return true; }
  void close() override {}

  std::vector<u8> buf_;
};

DirectionKeys test_keys(u8 fill) {
  DirectionKeys k;
  k.aes_key.assign(16, fill);
  k.mac_key.fill(static_cast<u8>(fill ^ 0xFF));
  return k;
}

// Pop expecting a complete, valid record.
Record pop_record(RecordCodec& codec) {
  auto r = codec.pop();
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r.ok() && r->has_value());
  return (r.ok() && r->has_value()) ? **r : Record{RecordType::kAlert, {}};
}

TEST(Record, PlaintextModeRoundTrip) {
  common::Xorshift64 rng(1);
  RecordCodec a(rng), b(rng);
  auto wire = a.seal(RecordType::kHandshake, bytes_of("hello"));
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(b.feed(*wire).is_ok());
  Record rec = pop_record(b);
  EXPECT_EQ(rec.type, RecordType::kHandshake);
  EXPECT_EQ(rec.payload, bytes_of("hello"));
}

TEST(Record, SealedRoundTripAndCiphertextHidesPlaintext) {
  common::Xorshift64 rng(2);
  RecordCodec sender(rng), receiver(rng);
  ASSERT_TRUE(sender.activate_keys(test_keys(1), test_keys(2)).is_ok());
  ASSERT_TRUE(receiver.activate_keys(test_keys(2), test_keys(1)).is_ok());
  const auto msg = bytes_of("attack at dawn, repeatedly, attack at dawn");
  auto wire = sender.seal(RecordType::kApplicationData, msg);
  ASSERT_TRUE(wire.ok());
  // Plaintext must not appear in the sealed bytes.
  const std::string wire_str(wire->begin(), wire->end());
  EXPECT_EQ(wire_str.find("attack"), std::string::npos);
  ASSERT_TRUE(receiver.feed(*wire).is_ok());
  EXPECT_EQ(pop_record(receiver).payload, msg);
}

TEST(Record, TamperedCiphertextRejectedAndPoisons) {
  common::Xorshift64 rng(3);
  RecordCodec sender(rng), receiver(rng);
  ASSERT_TRUE(sender.activate_keys(test_keys(1), test_keys(2)).is_ok());
  ASSERT_TRUE(receiver.activate_keys(test_keys(2), test_keys(1)).is_ok());
  auto wire = sender.seal(RecordType::kApplicationData, bytes_of("secret"));
  ASSERT_TRUE(wire.ok());
  (*wire)[wire->size() - 3] ^= 0x40;
  ASSERT_TRUE(receiver.feed(*wire).is_ok());
  auto popped = receiver.pop();
  EXPECT_FALSE(popped.ok());
  EXPECT_EQ(popped.status().code(), ErrorCode::kDataLoss);
  // Poisoned: even a good record is now refused (fail closed).
  auto wire2 = sender.seal(RecordType::kApplicationData, bytes_of("more"));
  ASSERT_TRUE(wire2.ok());
  EXPECT_FALSE(receiver.feed(*wire2).is_ok());
  EXPECT_FALSE(receiver.pop().ok());
}

TEST(Record, ReplayedRecordRejected) {
  // The sequence number is in the MAC: feeding the same sealed record twice
  // must fail the second time.
  common::Xorshift64 rng(4);
  RecordCodec sender(rng), receiver(rng);
  ASSERT_TRUE(sender.activate_keys(test_keys(1), test_keys(2)).is_ok());
  ASSERT_TRUE(receiver.activate_keys(test_keys(2), test_keys(1)).is_ok());
  auto wire = sender.seal(RecordType::kApplicationData, bytes_of("pay $100"));
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(receiver.feed(*wire).is_ok());
  EXPECT_EQ(pop_record(receiver).payload, bytes_of("pay $100"));
  ASSERT_TRUE(receiver.feed(*wire).is_ok());  // replay the same bytes
  EXPECT_FALSE(receiver.pop().ok());          // sequence-bound MAC rejects
}

TEST(Record, FragmentedDeliveryReassembles) {
  common::Xorshift64 rng(5);
  RecordCodec sender(rng), receiver(rng);
  auto wire = sender.seal(RecordType::kHandshake, bytes_of("fragmented"));
  ASSERT_TRUE(wire.ok());
  for (std::size_t i = 0; i + 1 < wire->size(); ++i) {
    ASSERT_TRUE(receiver.feed(std::span<const u8>(&(*wire)[i], 1)).is_ok());
    auto partial = receiver.pop();
    ASSERT_TRUE(partial.ok());
    EXPECT_FALSE(partial->has_value()) << "record complete too early at " << i;
  }
  ASSERT_TRUE(
      receiver.feed(std::span<const u8>(&wire->back(), 1)).is_ok());
  EXPECT_EQ(pop_record(receiver).payload, bytes_of("fragmented"));
}

TEST(Record, MalformedHeaderPoisons) {
  common::Xorshift64 rng(6);
  RecordCodec receiver(rng);
  const u8 junk[] = {0x77, 0x77, 0x00, 0x01, 0x00};
  ASSERT_TRUE(receiver.feed(junk).is_ok());
  EXPECT_FALSE(receiver.pop().ok());
}

TEST(Record, MacMatchesReferenceOverSeqTypeAndPlaintext) {
  // Under the CBC layer each record carries HMAC-SHA1(mac_key, seq || type
  // || plaintext), seq a big-endian u64. Seal and open share the codec's MAC
  // code, so a round trip cannot see what it covers: decrypt with the
  // reference AES and recompute the MAC with the reference HMAC instead.
  common::Xorshift64 rng(8);
  RecordCodec sender(rng);
  const DirectionKeys keys = test_keys(1);
  ASSERT_TRUE(sender.activate_keys(keys, test_keys(2)).is_ok());
  auto aes = crypto::Aes::create(keys.aes_key);
  ASSERT_TRUE(aes.ok());
  const std::pair<RecordType, std::vector<u8>> records[] = {
      {RecordType::kApplicationData, bytes_of("first")},
      {RecordType::kHandshake, std::vector<u8>(100, 0x5A)},
      {RecordType::kAlert, {}},
  };
  for (common::u64 seq = 0; seq < std::size(records); ++seq) {
    const auto& [type, plaintext] = records[seq];
    auto wire = sender.seal(type, plaintext);
    ASSERT_TRUE(wire.ok());
    const std::span<const u8> body(*wire);
    const auto padded = crypto::reference::cbc_decrypt(
        *aes, body.subspan(kRecordHeaderBytes, crypto::kAesBlockBytes),
        body.subspan(kRecordHeaderBytes + crypto::kAesBlockBytes));
    auto unpadded =
        crypto::reference::pkcs7_unpad(padded, crypto::kAesBlockBytes);
    ASSERT_TRUE(unpadded.ok());
    ASSERT_EQ(unpadded->size(), plaintext.size() + crypto::kSha1DigestBytes);
    EXPECT_TRUE(
        std::equal(plaintext.begin(), plaintext.end(), unpadded->begin()));
    std::vector<u8> mac_input;
    for (int i = 7; i >= 0; --i) {
      mac_input.push_back(static_cast<u8>(seq >> (8 * i)));
    }
    mac_input.push_back(static_cast<u8>(type));
    mac_input.insert(mac_input.end(), plaintext.begin(), plaintext.end());
    const auto want = crypto::reference::hmac_sha1(keys.mac_key, mac_input);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           unpadded->end() - crypto::kSha1DigestBytes))
        << "record " << seq;
  }
}

TEST(Record, WrongKeysFailMac) {
  common::Xorshift64 rng(7);
  RecordCodec sender(rng), receiver(rng);
  ASSERT_TRUE(sender.activate_keys(test_keys(1), test_keys(2)).is_ok());
  ASSERT_TRUE(receiver.activate_keys(test_keys(9), test_keys(8)).is_ok());
  auto wire = sender.seal(RecordType::kApplicationData, bytes_of("x"));
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(receiver.feed(*wire).is_ok());
  EXPECT_FALSE(receiver.pop().ok());
}

TEST(Record, WorkFollowsTheWireShape) {
  common::Xorshift64 rng(8);
  RecordCodec sender(rng), receiver(rng);
  // Null-cipher records do no crypto; activation expands one key schedule
  // per direction.
  auto clear = sender.seal(RecordType::kHandshake, bytes_of("hello"));
  ASSERT_TRUE(clear.ok() && receiver.feed(*clear).is_ok());
  pop_record(receiver);
  EXPECT_EQ(sender.work(), RecordWork{});
  EXPECT_EQ(receiver.work(), RecordWork{});
  ASSERT_TRUE(sender.activate_keys(test_keys(1), test_keys(2)).is_ok());
  ASSERT_TRUE(receiver.activate_keys(test_keys(2), test_keys(1)).is_ok());

  // A seal and its peer's open each add CBC over the body after the header
  // and the IV, and a full HMAC over seq||type (9 bytes) and the payload.
  RecordWork expect{2, 0, 0};
  for (std::size_t p = 0; p <= 100; ++p) {
    SCOPED_TRACE(p);
    auto wire = sender.seal(RecordType::kApplicationData,
                            std::vector<u8>(p, 0x5A));
    ASSERT_TRUE(wire.ok() && receiver.feed(*wire).is_ok());
    pop_record(receiver);
    expect.aes_blocks += (wire->size() - kRecordHeaderBytes - 16) / 16;
    expect.sha1_blocks += 3 + (p + 18 + 63) / 64;
    EXPECT_EQ(sender.work(), expect);
    EXPECT_EQ(receiver.work(), expect);
  }
}

std::vector<u8> mac_input(common::u64 seq, RecordType type,
                          std::span<const u8> plaintext) {
  std::vector<u8> in;
  for (int i = 7; i >= 0; --i) in.push_back(static_cast<u8>(seq >> (8 * i)));
  in.push_back(static_cast<u8>(type));
  in.insert(in.end(), plaintext.begin(), plaintext.end());
  return in;
}

// header || body, the way the wire frames every record.
std::vector<u8> framed(RecordType type, std::span<const u8> body) {
  std::vector<u8> wire(kRecordHeaderBytes + body.size());
  wire[0] = static_cast<u8>(type);
  wire[1] = kIsslVersion;
  wire[2] = static_cast<u8>(body.size() >> 8);
  wire[3] = static_cast<u8>(body.size() & 0xFF);
  std::copy(body.begin(), body.end(), wire.begin() + kRecordHeaderBytes);
  return wire;
}

TEST(Record, SealMatchesComposedReference) {
  // The codec lays a record out in its wire vector and encrypts it in
  // place; the oracle composes the same record one fresh vector per step:
  // header || IV || CBC(pkcs7_pad(plaintext || HMAC(seq || type ||
  // plaintext))). The IV is whatever the codec drew, read off the wire.
  for (const std::size_t key_bytes : {16, 24, 32}) {
    SCOPED_TRACE(key_bytes);
    common::Xorshift64 key_rng(key_bytes);
    DirectionKeys keys;
    keys.aes_key.resize(key_bytes);
    key_rng.fill(keys.aes_key);
    key_rng.fill(keys.mac_key);
    common::Xorshift64 rng(61);
    RecordCodec sender(rng), receiver(rng);
    ASSERT_TRUE(sender.activate_keys(keys, test_keys(3)).is_ok());
    ASSERT_TRUE(receiver.activate_keys(test_keys(3), keys).is_ok());
    auto aes = crypto::Aes::create(keys.aes_key);
    ASSERT_TRUE(aes.ok());
    std::vector<std::size_t> sizes(101);
    for (std::size_t p = 0; p <= 100; ++p) sizes[p] = p;
    sizes.push_back(1'000);
    sizes.push_back(kMaxRecordPayload);
    common::u64 seq = 0;
    for (const std::size_t size : sizes) {
      SCOPED_TRACE(size);
      std::vector<u8> plaintext(size);
      key_rng.fill(plaintext);
      const RecordType type = size % 2 == 0 ? RecordType::kApplicationData
                                            : RecordType::kHandshake;
      auto wire = sender.seal(type, plaintext);
      ASSERT_TRUE(wire.ok());
      ASSERT_GE(wire->size(), kRecordHeaderBytes + crypto::kAesBlockBytes);
      const std::span<const u8> iv(wire->data() + kRecordHeaderBytes,
                                   crypto::kAesBlockBytes);
      std::vector<u8> inner = plaintext;
      const auto mac = crypto::reference::hmac_sha1(
          keys.mac_key, mac_input(seq++, type, plaintext));
      inner.insert(inner.end(), mac.begin(), mac.end());
      std::vector<u8> body(iv.begin(), iv.end());
      const auto ct = crypto::reference::cbc_encrypt(
          *aes, iv,
          crypto::reference::pkcs7_pad(inner, crypto::kAesBlockBytes));
      body.insert(body.end(), ct.begin(), ct.end());
      EXPECT_EQ(*wire, framed(type, body));

      ASSERT_TRUE(receiver.feed(*wire).is_ok());
      const Record opened = pop_record(receiver);
      EXPECT_EQ(opened.type, type);
      EXPECT_EQ(opened.payload, plaintext);
    }
    EXPECT_EQ(receiver.buffered_bytes(), 0u);
  }
}

common::u64 malformed_count() {
  const auto* c =
      telemetry::Registry::global().find_counter("issl.malformed_records");
  return c != nullptr ? c->value() : 0;
}

common::u64 mac_failure_count() {
  const auto* c =
      telemetry::Registry::global().find_counter("issl.mac_failures");
  return c != nullptr ? c->value() : 0;
}

TEST(Record, BadPaddingIsMalformedNotMacFailure) {
  // Bodies whose decrypted tail cannot be honest PKCS#7, or that leave no
  // room for the MAC, are refused as malformed before any MAC is computed:
  // they count in malformed_records(), never in issl.mac_failures.
  const DirectionKeys keys = test_keys(4);
  auto aes = crypto::Aes::create(keys.aes_key);
  ASSERT_TRUE(aes.ok());
  const std::vector<u8> iv(crypto::kAesBlockBytes, 0x3C);
  struct Case {
    const char* name;
    std::vector<u8> plaintext;  // decrypted body, padding included
  };
  std::vector<Case> cases;
  std::vector<u8> p(48, 0x11);
  p.back() = 0;
  cases.push_back({"pad byte 0", p});
  p.back() = 17;
  cases.push_back({"pad byte 17", p});
  std::fill(p.end() - 6, p.end(), u8{6});
  p[p.size() - 4] = 0x99;
  cases.push_back({"inconsistent fill", p});
  std::vector<u8> short_body(32, 0x22);
  std::fill(short_body.end() - 16, short_body.end(), u8{16});
  cases.push_back({"shorter than its MAC", short_body});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    common::Xorshift64 rng(5);
    RecordCodec receiver(rng);
    ASSERT_TRUE(receiver.activate_keys(test_keys(9), keys).is_ok());
    std::vector<u8> body = iv;
    const auto ct = crypto::reference::cbc_encrypt(*aes, iv, c.plaintext);
    body.insert(body.end(), ct.begin(), ct.end());
    const common::u64 malformed_before = malformed_count();
    const common::u64 mac_failures_before = mac_failure_count();
    ASSERT_TRUE(
        receiver.feed(framed(RecordType::kApplicationData, body)).is_ok());
    const auto r = receiver.pop();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kDataLoss);
    EXPECT_EQ(receiver.malformed_records(), 1u);
    EXPECT_EQ(malformed_count(), malformed_before + 1);
    EXPECT_EQ(mac_failure_count(), mac_failures_before);
    EXPECT_TRUE(receiver.poisoned());
  }
}

// ---------------------------------------------------------------------------
// Session-level fail-closed behaviour under wire corruption
// ---------------------------------------------------------------------------

// One direction of a duplex link: writes go to `out`, reads come from `in`.
// Cross-wiring two of these over a pair of PipeStreams gives the test a
// hand on the raw wire bytes between two live sessions.
class HalfStream final : public ByteStream {
 public:
  HalfStream(PipeStream& out, PipeStream& in) : out_(out), in_(in) {}
  common::Result<std::size_t> write(std::span<const u8> data) override {
    return out_.write(data);
  }
  common::Result<std::size_t> read(std::span<u8> o) override {
    return in_.read(o);
  }
  bool open() const override { return true; }
  void close() override {}

 private:
  PipeStream& out_;
  PipeStream& in_;
};

TEST(SessionTest, FlippedCiphertextBitFailsClosedWithExactlyOneMacFailure) {
  PipeStream c2s, s2c;
  HalfStream client_end(c2s, s2c), server_end(s2c, c2s);
  common::Xorshift64 client_rng(31), server_rng(32);
  const auto psk = bytes_of("tamper-key");
  auto client =
      issl_bind_client(client_end, Config::embedded_port(), client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server =
      issl_bind_server(server_end, Config::embedded_port(), server_rng, id);
  for (int i = 0;
       i < 200 && !(client.established() && server.established()); ++i) {
    (void)client.pump();
    (void)server.pump();
  }
  ASSERT_TRUE(client.established() && server.established());

  const common::u64 before = mac_failure_count();
  ASSERT_TRUE(issl_write(client, bytes_of("launch code 0000")).ok());
  // Flip one bit of the IV (right after the 4-byte record header): CBC
  // turns that into a single flipped plaintext bit in the first block, so
  // padding stays valid and the corruption reaches the MAC check itself.
  ASSERT_GT(c2s.buf_.size(), 4u);
  c2s.buf_[4] ^= 0x01;

  std::vector<u8> leaked;
  for (int i = 0; i < 50; ++i) {
    (void)server.pump();
    auto r = issl_read(server);
    if (r.ok() && !r->empty()) leaked = *r;
  }
  // The tampered record must never surface as plaintext, the session must
  // poison itself, and the failure must be attributed exactly once.
  EXPECT_TRUE(leaked.empty());
  EXPECT_TRUE(server.failed());
  EXPECT_EQ(mac_failure_count(), before + 1);

  // Fail closed stays closed: even a freshly sealed, valid record from the
  // honest peer is refused after the poisoning.
  ASSERT_TRUE(issl_write(client, bytes_of("legitimate retry")).ok());
  for (int i = 0; i < 50; ++i) {
    (void)server.pump();
    EXPECT_FALSE(issl_read(server).ok());
  }
  EXPECT_TRUE(server.failed());
}

TEST(SessionTest, FourMaximumRecordsInOneBurstArriveIntact) {
  // Nothing makes a writer wait for its reader: four maximum records
  // (65,744 wire bytes) sit in the transport before the server pumps. Each
  // pump may take only what the reassembly bound leaves room for, on top
  // of the partial record the previous pump left, and must leave the rest
  // queued rather than read it as an overflow and poison an honest peer.
  PipeStream c2s, s2c;
  HalfStream client_end(c2s, s2c), server_end(s2c, c2s);
  common::Xorshift64 client_rng(43), server_rng(44);
  const auto psk = bytes_of("burst-key");
  auto client =
      issl_bind_client(client_end, Config::embedded_port(), client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server =
      issl_bind_server(server_end, Config::embedded_port(), server_rng, id);
  for (int i = 0;
       i < 200 && !(client.established() && server.established()); ++i) {
    (void)client.pump();
    (void)server.pump();
  }
  ASSERT_TRUE(client.established() && server.established());

  std::vector<u8> burst(4 * kMaxRecordPayload);
  common::Xorshift64 fill(45);
  fill.fill(burst);
  ASSERT_TRUE(issl_write(client, burst).ok());
  EXPECT_EQ(c2s.buf_.size(), 65'744u);
  const common::u64 malformed_before = malformed_count();
  std::vector<u8> got;
  for (int i = 0; i < 20 && got.size() < burst.size(); ++i) {
    ASSERT_TRUE(server.pump().is_ok()) << "after " << got.size() << " bytes";
    auto r = issl_read(server);
    if (r.ok()) got.insert(got.end(), r->begin(), r->end());
  }
  EXPECT_FALSE(server.failed());
  EXPECT_EQ(got, burst);
  EXPECT_EQ(malformed_count(), malformed_before);
}

// ---------------------------------------------------------------------------
// Full sessions over the simulated network
// ---------------------------------------------------------------------------

struct TlsHarness {
  SimNet net{99};
  TcpStack server_stack{net, kServerIp};
  TcpStack client_stack{net, kClientIp};
  common::Xorshift64 server_rng{11};
  common::Xorshift64 client_rng{22};
  int server_sock = -1;
  int client_sock = -1;
  std::unique_ptr<TcpStream> server_stream;
  std::unique_ptr<TcpStream> client_stream;

  void connect_transport() {
    auto l = server_stack.listen(kTlsPort);
    ASSERT_TRUE(l.ok());
    auto c = client_stack.connect(kServerIp, kTlsPort);
    ASSERT_TRUE(c.ok());
    client_sock = *c;
    net.tick(20);
    auto sc = server_stack.accept(*l);
    ASSERT_TRUE(sc.ok());
    server_sock = *sc;
    server_stream = std::make_unique<TcpStream>(server_stack, server_sock);
    client_stream = std::make_unique<TcpStream>(client_stack, client_sock);
  }

  // Pump both sessions + network until both established (or give up).
  bool drive(Session& client, Session& server, int rounds = 400) {
    for (int i = 0; i < rounds; ++i) {
      (void)client.pump();
      (void)server.pump();
      net.tick(1);
      if (client.established() && server.established()) return true;
      if (client.failed() && server.failed()) return false;
    }
    return client.established() && server.established();
  }
};

TEST(SessionTest, PskHandshakeEstablishes) {
  TlsHarness h;
  h.connect_transport();
  const auto psk = bytes_of("embedded-shared-secret");
  auto client = issl_bind_client(*h.client_stream, Config::embedded_port(),
                                 h.client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  EXPECT_TRUE(h.drive(client, server));
  EXPECT_EQ(client.state(), SessionState::kEstablished);
  EXPECT_EQ(server.state(), SessionState::kEstablished);
}

TEST(SessionTest, RsaHandshakeEstablishes) {
  TlsHarness h;
  h.connect_transport();
  Config cfg = Config::unix_default();
  auto client = issl_bind_client(*h.client_stream, cfg, h.client_rng);
  ServerIdentity id;
  id.rsa = crypto::rsa_generate(cfg.rsa_modulus_bits, h.server_rng);
  auto server = issl_bind_server(*h.server_stream, cfg, h.server_rng, id);
  EXPECT_TRUE(h.drive(client, server));
}

TEST(SessionTest, SecureEchoTransfersData) {
  TlsHarness h;
  h.connect_transport();
  const auto psk = bytes_of("k");
  auto client = issl_bind_client(*h.client_stream, Config::embedded_port(),
                                 h.client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  ASSERT_TRUE(h.drive(client, server));

  const auto msg = bytes_of("GET /balance HTTP/1.0");
  ASSERT_TRUE(issl_write(client, msg).ok());
  std::vector<u8> got;
  for (int i = 0; i < 200 && got.empty(); ++i) {
    h.net.tick(1);
    (void)server.pump();
    auto r = issl_read(server);
    if (r.ok()) got = *r;
  }
  EXPECT_EQ(got, msg);

  // And back.
  const auto reply = bytes_of("200 OK balance=42");
  ASSERT_TRUE(issl_write(server, reply).ok());
  got.clear();
  for (int i = 0; i < 200 && got.empty(); ++i) {
    h.net.tick(1);
    (void)client.pump();
    auto r = issl_read(client);
    if (r.ok()) got = *r;
  }
  EXPECT_EQ(got, reply);
}

TEST(SessionTest, PlaintextNeverOnTheWireAfterHandshake) {
  // Sniff every segment: the application payload must not appear.
  class Sniffer : public net::NetworkEndpoint {
   public:
    std::string all_bytes;
    void deliver(const net::Segment& s) override {
      all_bytes.append(s.payload.begin(), s.payload.end());
    }
    void on_tick(common::u64) override {}
  };
  TlsHarness h;
  h.connect_transport();
  const auto psk = bytes_of("sniffer-psk");
  auto client = issl_bind_client(*h.client_stream, Config::embedded_port(),
                                 h.client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  ASSERT_TRUE(h.drive(client, server));
  // Mirror all server-bound traffic to a sniffer address is not possible on
  // this point-to-point medium, so instead check the TCP payload the server
  // *received* via the record bytes: tap the stream by sealing and checking
  // the sealed wire (already covered) — here we check end-to-end that the
  // secret string does not appear in any segment payload counter. Simplest
  // honest check: encrypt, deliver, and scan the receive-side raw TCP data.
  const std::string secret = "SSN=123-45-6789";
  ASSERT_TRUE(issl_write(client, bytes_of(secret)).ok());
  // Capture raw TCP bytes at the server *before* the session consumes them.
  std::string raw;
  for (int i = 0; i < 100; ++i) {
    h.net.tick(1);
    u8 buf[512];
    auto n = h.server_stack.recv(h.server_sock, buf);
    if (n.ok() && *n > 0) raw.append(reinterpret_cast<char*>(buf), *n);
  }
  EXPECT_EQ(raw.find(secret), std::string::npos);
  EXPECT_GT(raw.size(), secret.size());  // something did arrive, encrypted
}

TEST(SessionTest, EmbeddedServerRefusesRsaClient) {
  // The port dropped RSA; a full-featured client asking for it must be
  // turned away (kx negotiation failure), not silently downgraded.
  TlsHarness h;
  h.connect_transport();
  auto client = issl_bind_client(*h.client_stream, Config::unix_default(),
                                 h.client_rng);
  ServerIdentity id;
  id.psk = bytes_of("psk-only-server");
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  EXPECT_FALSE(h.drive(client, server, 200));
  EXPECT_TRUE(server.failed());
  for (int i = 0; i < 100 && !client.failed(); ++i) {
    h.net.tick(1);
    (void)client.pump();
  }
  EXPECT_TRUE(client.failed());  // received handshake_failure alert
}

TEST(SessionTest, EmbeddedServerRefuses256BitRequest) {
  TlsHarness h;
  h.connect_transport();
  Config want256 = Config::embedded_port();
  want256.aes_key_bits = 256;  // the port only implemented 128
  auto client = issl_bind_client(*h.client_stream, want256, h.client_rng,
                                 bytes_of("p"));
  ServerIdentity id;
  id.psk = bytes_of("p");
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  EXPECT_FALSE(h.drive(client, server, 200));
  EXPECT_TRUE(server.failed());
}

TEST(SessionTest, WrongPskFailsHandshake) {
  TlsHarness h;
  h.connect_transport();
  auto client = issl_bind_client(*h.client_stream, Config::embedded_port(),
                                 h.client_rng, bytes_of("alpha"));
  ServerIdentity id;
  id.psk = bytes_of("beta");
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  EXPECT_FALSE(h.drive(client, server, 200));
  EXPECT_TRUE(server.failed());
}

TEST(SessionTest, HandshakeSurvivesPacketLoss) {
  TlsHarness h;
  h.connect_transport();
  h.net.set_loss_probability(0.2);
  const auto psk = bytes_of("lossy");
  auto client = issl_bind_client(*h.client_stream, Config::embedded_port(),
                                 h.client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  EXPECT_TRUE(h.drive(client, server, 20'000));  // TCP hides the loss
}

TEST(SessionTest, CleanCloseDeliversEmptyRead) {
  TlsHarness h;
  h.connect_transport();
  const auto psk = bytes_of("bye");
  auto client = issl_bind_client(*h.client_stream, Config::embedded_port(),
                                 h.client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  ASSERT_TRUE(h.drive(client, server));
  ASSERT_TRUE(issl_close(client).is_ok());
  for (int i = 0; i < 100 && !server.closed(); ++i) {
    h.net.tick(1);
    (void)server.pump();
  }
  EXPECT_TRUE(server.closed());
  auto r = issl_read(server);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());  // clean EOF
}

TEST(SessionTest, WriteBeforeEstablishedFails) {
  TlsHarness h;
  h.connect_transport();
  auto client = issl_bind_client(*h.client_stream, Config::embedded_port(),
                                 h.client_rng, bytes_of("x"));
  EXPECT_FALSE(issl_write(client, bytes_of("too soon")).ok());
}

TEST(SessionTest, LargeTransferAcrossManyRecords) {
  TlsHarness h;
  h.connect_transport();
  const auto psk = bytes_of("bulk");
  auto client = issl_bind_client(*h.client_stream, Config::embedded_port(),
                                 h.client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);
  ASSERT_TRUE(h.drive(client, server));
  std::vector<u8> big(50'000);
  common::Xorshift64 fill(5);
  fill.fill(big);
  ASSERT_TRUE(issl_write(client, big).ok());
  std::vector<u8> got;
  for (int i = 0; i < 5'000 && got.size() < big.size(); ++i) {
    h.net.tick(1);
    (void)server.pump();
    auto r = issl_read(server);
    if (r.ok()) got.insert(got.end(), r->begin(), r->end());
  }
  EXPECT_EQ(got, big);
}

TEST(ConfigTest, RejectsRsaModulusBelowPremasterFloor) {
  Config cfg = Config::unix_default();
  cfg.rsa_modulus_bits = 96;  // the 12-byte PKCS#1 floor: one premaster byte
  EXPECT_TRUE(cfg.valid());
  cfg.rsa_modulus_bits = 95;
  EXPECT_FALSE(cfg.valid());
  cfg.rsa_modulus_bits = 64;
  EXPECT_FALSE(cfg.valid());
  // The floor is an RSA-framing constraint; PSK has no premaster to carry.
  cfg.key_exchange = KeyExchange::kPsk;
  EXPECT_TRUE(cfg.valid());
}

TEST(ConfigTest, RejectsRsaModulusAboveClientCeiling) {
  // Server and client share kMaxRsaModulusBits: a server configured past it
  // would only produce keys every client refuses.
  Config cfg = Config::unix_default();
  cfg.rsa_modulus_bits = kMaxRsaModulusBits;
  EXPECT_TRUE(cfg.valid());
  cfg.rsa_modulus_bits = kMaxRsaModulusBits + 1;
  EXPECT_FALSE(cfg.valid());
  cfg.key_exchange = KeyExchange::kPsk;
  EXPECT_TRUE(cfg.valid());
}

// An offload engine that never answers its probe: a service asked for
// offload on a board without the hardware.
class AbsentEngine final : public RecordEngine {
 public:
  bool available() const override { return false; }
  common::Result<std::vector<u8>> aes_cbc(bool, std::span<const u8>,
                                          std::span<const u8>,
                                          std::span<const u8>) override {
    return Status(ErrorCode::kUnavailable, "no engine");
  }
  common::Result<std::array<u8, 20>> hmac_sha1(std::span<const u8>,
                                               std::span<const u8>) override {
    return Status(ErrorCode::kUnavailable, "no engine");
  }
};

TEST(ConfigTest, RejectsEngineBackendWithWideKeys) {
  AbsentEngine engine;
  Config cfg = Config::embedded_port();
  cfg.engine = &engine;
  EXPECT_TRUE(cfg.valid());  // AES-128: the engine's one key size
  cfg.aes_key_bits = 256;
  EXPECT_FALSE(cfg.valid());  // offload hardware is AES-128 only
  cfg.engine = nullptr;
  EXPECT_TRUE(cfg.valid());  // software handles 256 fine
}

TEST(SessionTest, EngineWithWideKeysFailsAtConstruction) {
  TlsHarness h;
  h.connect_transport();
  AbsentEngine engine;
  Config cfg = Config::embedded_port();
  cfg.engine = &engine;
  cfg.aes_key_bits = 256;  // no engine takes this key
  auto client = issl_bind_client(*h.client_stream, cfg, h.client_rng,
                                 bytes_of("psk"));
  EXPECT_TRUE(client.failed());  // before any pump: rejected at construction
  EXPECT_EQ(client.error().code(), common::ErrorCode::kFailedPrecondition);
}

TEST(SessionTest, NullEngineFallsBackToSoftwareAndInterops) {
  TlsHarness h;
  h.connect_transport();
  const auto psk = bytes_of("offload-psk");
  AbsentEngine engine;
  Config cfg = Config::embedded_port();
  cfg.engine = &engine;  // asked for offload, the board has none
  auto client = issl_bind_client(*h.client_stream, cfg, h.client_rng, psk);
  ServerIdentity id;
  id.psk = psk;
  auto server = issl_bind_server(*h.server_stream, Config::embedded_port(),
                                 h.server_rng, id);  // plain software peer
  ASSERT_TRUE(h.drive(client, server));
  EXPECT_TRUE(client.engine_fallback());
  EXPECT_FALSE(client.uses_engine());
  EXPECT_FALSE(server.engine_fallback());  // no engine asked for

  const auto msg = bytes_of("still works in software");
  ASSERT_TRUE(client.write(msg).ok());
  std::vector<u8> got;
  for (int i = 0; i < 200 && got.size() < msg.size(); ++i) {
    (void)client.pump();
    (void)server.pump();
    h.net.tick(1);
    auto r = server.read();
    if (r.ok()) got.insert(got.end(), r->begin(), r->end());
  }
  EXPECT_EQ(got, msg);
}

TEST(SessionTest, StateNames) {
  EXPECT_STREQ(session_state_name(SessionState::kEstablished), "ESTABLISHED");
  EXPECT_STREQ(session_state_name(SessionState::kFailed), "FAILED");
}

// ---------------------------------------------------------------------------
// Stall watchdog boundaries (regression: the old watchdog reset whenever any
// raw bytes arrived, so a one-byte-per-pump peer could evade it forever)
// ---------------------------------------------------------------------------

TEST(SessionTest, StallBudgetBoundaryFailsOnLimitNotBefore) {
  // Client against a silent server: the first pump sends ClientHello
  // (progress), every later pump stalls. limit-1 stalled pumps must leave
  // the session alive; the limit-th must fail it with kTimeout.
  PipeStream c2s, s2c;
  HalfStream client_end(c2s, s2c);
  common::Xorshift64 rng(41);
  Config cfg = Config::embedded_port();
  cfg.handshake_stall_limit = 25;
  auto client = issl_bind_client(client_end, cfg, rng, bytes_of("k"));
  ASSERT_TRUE(client.pump().is_ok());  // ClientHello out: progress
  for (std::size_t i = 0; i + 1 < cfg.handshake_stall_limit; ++i) {
    ASSERT_TRUE(client.pump().is_ok()) << "failed early at stall pump " << i;
  }
  EXPECT_EQ(client.stalled_pumps(), cfg.handshake_stall_limit - 1);
  EXPECT_FALSE(client.failed());
  auto s = client.pump();  // crosses the budget
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_TRUE(client.failed());
}

TEST(SessionTest, OneByteTricklePerPumpStillHitsTheStallBudget) {
  // Drip a valid ClientHello into the server one byte per pump. Bytes are
  // arriving every single pump, but no complete record ever lands within
  // the budget — the server must still time the handshake out.
  PipeStream c2s, s2c;
  HalfStream client_end(c2s, s2c), server_end(s2c, c2s);
  common::Xorshift64 crng(42), srng(43);
  auto client =
      issl_bind_client(client_end, Config::embedded_port(), crng, bytes_of("k"));
  ASSERT_TRUE(client.pump().is_ok());
  const std::vector<u8> hello = std::move(c2s.buf_);
  c2s.buf_.clear();
  Config scfg = Config::embedded_port();
  scfg.handshake_stall_limit = 10;  // far fewer pumps than hello has bytes
  ASSERT_GT(hello.size(), scfg.handshake_stall_limit + 1);
  ServerIdentity id;
  id.psk = bytes_of("k");
  auto server = issl_bind_server(server_end, scfg, srng, id);
  common::Status last = common::Status::ok();
  std::size_t fed = 0;
  while (fed < hello.size() && last.is_ok()) {
    c2s.buf_.push_back(hello[fed++]);
    last = server.pump();
  }
  EXPECT_FALSE(last.is_ok());
  EXPECT_EQ(last.code(), ErrorCode::kTimeout);
  EXPECT_LT(fed, hello.size());  // gave up before the record completed
  EXPECT_TRUE(server.failed());
}

TEST(SessionTest, PartialRecordTailNeverArrivingFailsWithTimeout) {
  // Established + idle never stalls, but a partial record sitting in
  // reassembly is a promise the peer must keep: if the tail never arrives,
  // the record budget fails the session instead of wedging the reader.
  PipeStream c2s, s2c;
  HalfStream client_end(c2s, s2c), server_end(s2c, c2s);
  common::Xorshift64 crng(44), srng(45);
  auto client =
      issl_bind_client(client_end, Config::embedded_port(), crng, bytes_of("k"));
  Config scfg = Config::embedded_port();
  scfg.record_stall_limit = 15;
  ServerIdentity id;
  id.psk = bytes_of("k");
  auto server = issl_bind_server(server_end, scfg, srng, id);
  for (int i = 0; i < 200 && !(client.established() && server.established());
       ++i) {
    (void)client.pump();
    (void)server.pump();
  }
  ASSERT_TRUE(client.established() && server.established());
  // Idle-established: pumps forever without stalling.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(server.pump().is_ok());
  EXPECT_EQ(server.stalled_pumps(), 0u);
  // Now deliver only a header fragment of a real record.
  ASSERT_TRUE(issl_write(client, bytes_of("half a record")).ok());
  const std::vector<u8> full = std::move(c2s.buf_);
  c2s.buf_.assign(full.begin(), full.begin() + 3);
  common::Status last = common::Status::ok();
  for (int i = 0; i < 100 && last.is_ok(); ++i) last = server.pump();
  EXPECT_FALSE(last.is_ok());
  EXPECT_EQ(last.code(), ErrorCode::kTimeout);
}

// ---------------------------------------------------------------------------
// Premaster transport vs small RSA moduli (regression: silent truncation)
// ---------------------------------------------------------------------------

common::u64 premaster_expansions() {
  const auto* c =
      telemetry::Registry::global().find_counter("issl.premaster_expansions");
  return c != nullptr ? c->value() : 0;
}

TEST(SessionTest, SmallRsaModulusExpandsPremasterOnBothSides) {
  // A 256-bit modulus can carry at most 21 premaster bytes under PKCS#1.
  // The old code silently keyed the whole session off that truncated seed;
  // now both sides must expand the carried seed to the full 48 bytes (and
  // say so), and the session must actually interoperate.
  TlsHarness h;
  h.connect_transport();
  Config cfg = Config::unix_default();
  ASSERT_EQ(cfg.rsa_modulus_bits, 256u);
  auto client = issl_bind_client(*h.client_stream, cfg, h.client_rng);
  ServerIdentity id;
  id.rsa = crypto::rsa_generate(cfg.rsa_modulus_bits, h.server_rng);
  auto server = issl_bind_server(*h.server_stream, cfg, h.server_rng, id);
  const common::u64 before = premaster_expansions();
  ASSERT_TRUE(h.drive(client, server));
  EXPECT_TRUE(client.premaster_expanded());
  EXPECT_TRUE(server.premaster_expanded());
  EXPECT_EQ(premaster_expansions(), before + 2);
  // Matching masters or nothing: prove it with an application-data echo.
  const auto msg = bytes_of("expanded but interoperable");
  ASSERT_TRUE(issl_write(client, msg).ok());
  std::vector<u8> got;
  for (int i = 0; i < 200 && got.empty(); ++i) {
    h.net.tick(1);
    (void)server.pump();
    auto r = issl_read(server);
    if (r.ok()) got = *r;
  }
  EXPECT_EQ(got, msg);
}

TEST(SessionTest, LargeRsaModulusCarriesFullPremasterUnexpanded) {
  TlsHarness h;
  h.connect_transport();
  Config cfg = Config::unix_default();
  cfg.rsa_modulus_bits = 512;  // 53-byte chunk >= 48: full premaster fits
  auto client = issl_bind_client(*h.client_stream, cfg, h.client_rng);
  ServerIdentity id;
  id.rsa = crypto::rsa_generate(cfg.rsa_modulus_bits, h.server_rng);
  auto server = issl_bind_server(*h.server_stream, cfg, h.server_rng, id);
  ASSERT_TRUE(h.drive(client, server));
  EXPECT_FALSE(client.premaster_expanded());
  EXPECT_FALSE(server.premaster_expanded());
}

TEST(SessionTest, TinyRsaModulusFailsClearlyInsteadOfTruncating) {
  // Below 12 modulus bytes PKCS#1 type-2 cannot carry a single payload
  // byte; the client must refuse with kFailedPrecondition up front.
  TlsHarness h;
  h.connect_transport();
  Config cfg = Config::unix_default();
  cfg.rsa_modulus_bits = 64;
  auto client = issl_bind_client(*h.client_stream, cfg, h.client_rng);
  ServerIdentity id;
  id.rsa = crypto::rsa_generate(cfg.rsa_modulus_bits, h.server_rng);
  auto server = issl_bind_server(*h.server_stream, cfg, h.server_rng, id);
  EXPECT_FALSE(h.drive(client, server, 200));
  EXPECT_TRUE(client.failed());
  EXPECT_EQ(client.error().code(), ErrorCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// The client bounds the RSA public key a ServerHello carries
// ---------------------------------------------------------------------------

// One plaintext handshake record holding a ServerHello for unix_default()
// (RSA, AES-256) with public key (n, e) as raw big-endian bytes.
std::vector<u8> server_hello_record(std::span<const u8> n,
                                    std::span<const u8> e) {
  std::vector<u8> body(32, 0x5A);  // server_random
  body.push_back(static_cast<u8>(KeyExchange::kRsa));
  body.push_back(256 / 8);
  for (std::span<const u8> field : {n, e}) {
    body.push_back(static_cast<u8>(field.size() >> 8));
    body.push_back(static_cast<u8>(field.size()));
    body.insert(body.end(), field.begin(), field.end());
  }
  std::vector<u8> msg = {2 /* ServerHello */, static_cast<u8>(body.size() >> 8),
                         static_cast<u8>(body.size())};
  msg.insert(msg.end(), body.begin(), body.end());
  std::vector<u8> record = {static_cast<u8>(RecordType::kHandshake),
                            kIsslVersion, static_cast<u8>(msg.size() >> 8),
                            static_cast<u8>(msg.size())};
  record.insert(record.end(), msg.begin(), msg.end());
  return record;
}

// Handshake message types in the client's plaintext output records.
std::vector<u8> handshake_types_sent(const std::vector<u8>& wire) {
  std::vector<u8> types;
  for (std::size_t at = 0; at + kRecordHeaderBytes <= wire.size();) {
    const std::size_t len = (std::size_t{wire[at + 2]} << 8) | wire[at + 3];
    if (wire[at] == static_cast<u8>(RecordType::kHandshake) && len > 0) {
      types.push_back(wire[at + kRecordHeaderBytes]);
    }
    at += kRecordHeaderBytes + len;
  }
  return types;
}

struct HelloOutcome {
  Status error;
  bool sent_key_exchange = false;
};

// A unix_default() client answered by one crafted ServerHello.
HelloOutcome answer_client_with(const crypto::BigNum& n,
                                std::span<const u8> e) {
  PipeStream c2s, s2c;
  HalfStream client_end(c2s, s2c);
  common::Xorshift64 rng(41);
  auto client = issl_bind_client(client_end, Config::unix_default(), rng);
  (void)client.pump();  // ClientHello out
  const auto n_bytes = n.to_bytes();
  const auto record = server_hello_record(n_bytes, e);
  s2c.buf_.insert(s2c.buf_.end(), record.begin(), record.end());
  for (int i = 0; i < 8; ++i) (void)client.pump();
  const auto types = handshake_types_sent(c2s.buf_);
  return {client.failed() ? client.error() : Status::ok(),
          std::find(types.begin(), types.end(), 3 /* ClientKeyExchange */) !=
              types.end()};
}

TEST(ServerKeyBounds, WellFormedKeysAtBothModulusLimitsGetAKeyExchange) {
  // The positive control: the harness sees a ClientKeyExchange when the
  // key is acceptable, so its absence below means a refusal.
  // 89 bits is the narrowest 12-byte modulus: a key generated for the
  // 96-bit floor can come out one bit short, and must still be accepted.
  const auto e = crypto::BigNum(65537).to_bytes();
  for (std::size_t bits : {std::size_t{89}, kMinRsaModulusBits,
                           std::size_t{256}, kMaxRsaModulusBits}) {
    const crypto::BigNum n =
        (crypto::BigNum(1) << (bits - 1)) + crypto::BigNum(0x10001);
    const auto out = answer_client_with(n, e);
    EXPECT_TRUE(out.error.is_ok()) << bits << ": " << out.error.to_string();
    EXPECT_TRUE(out.sent_key_exchange) << bits;
  }
}

// A real 256-bit modulus for the refusals that are about e, or about n's
// parity next to a real one.
const crypto::BigNum& real_modulus() {
  static const crypto::BigNum n = [] {
    common::Xorshift64 keygen(43);
    return crypto::rsa_generate(256, keygen).pub.n;
  }();
  return n;
}

void expect_bad_pubkey(const crypto::BigNum& n, std::span<const u8> e) {
  const auto out = answer_client_with(n, e);
  EXPECT_EQ(out.error.code(), ErrorCode::kAborted) << out.error.to_string();
  EXPECT_EQ(out.error.message(), "bad pubkey");
  EXPECT_FALSE(out.sent_key_exchange);
}

TEST(ServerKeyBounds, EvenModulusRefused) {
  expect_bad_pubkey(real_modulus() + crypto::BigNum(1),
                    crypto::BigNum(65537).to_bytes());
}

TEST(ServerKeyBounds, ModulusBelowTwelveBytesRefused) {
  // 88 bits = 11 bytes: PKCS#1 framing alone fills it.
  const crypto::BigNum n_88_bits =
      (crypto::BigNum(1) << 87) + crypto::BigNum(0x10001);
  expect_bad_pubkey(n_88_bits, crypto::BigNum(65537).to_bytes());
}

TEST(ServerKeyBounds, ModulusPastTheCeilingRefused) {
  const crypto::BigNum n_4104_bits =
      (crypto::BigNum(1) << 4103) + crypto::BigNum(1);
  expect_bad_pubkey(n_4104_bits, crypto::BigNum(65537).to_bytes());
}

TEST(ServerKeyBounds, UnitExponentRefused) {
  expect_bad_pubkey(real_modulus(), crypto::BigNum(1).to_bytes());
}

TEST(ServerKeyBounds, ExponentEqualToModulusRefused) {
  expect_bad_pubkey(real_modulus(), real_modulus().to_bytes());
}

TEST(ServerKeyBounds, EvenExponentRefused) {
  expect_bad_pubkey(real_modulus(), crypto::BigNum(65536).to_bytes());
}

TEST(ServerKeyBounds, WidestExponentTheHandshakeBodyCarriesRefused) {
  // 1,900 bytes of 0xFF fit under kMaxHandshakeBody, so the key check
  // itself (e < n) is what refuses this one.
  expect_bad_pubkey(real_modulus(), std::vector<u8>(1900, 0xFF));
}

TEST(ServerKeyBounds, EightKibExponentRefused) {
  // The ServerHello outgrows kMaxHandshakeBody, so the handshake framing
  // refuses it ("oversized handshake message") before the key is parsed.
  const auto out =
      answer_client_with(real_modulus(), std::vector<u8>(8 * 1024, 0xFF));
  EXPECT_EQ(out.error.code(), ErrorCode::kAborted) << out.error.to_string();
  EXPECT_FALSE(out.sent_key_exchange);
}

}  // namespace
}  // namespace rmc::issl

// Unit tests for src/common: byte helpers, hex codecs, Status/Result,
// RingLog (the paper's circular-buffer logging fix), the PRNGs, and the
// ByteQueue FIFO under TCP and the record layer.
#include <gtest/gtest.h>

#include "common/byte_queue.h"
#include "common/bytes.h"
#include "common/prng.h"
#include "common/ringlog.h"
#include "common/status.h"

namespace rmc::common {
namespace {

TEST(Bytes, Make16RoundTrip) {
  EXPECT_EQ(make16(0x34, 0x12), 0x1234);
  EXPECT_EQ(lo8(0x1234), 0x34);
  EXPECT_EQ(hi8(0x1234), 0x12);
  for (unsigned v = 0; v <= 0xFFFF; v += 257) {
    EXPECT_EQ(make16(lo8(static_cast<u16>(v)), hi8(static_cast<u16>(v))), v);
  }
}

TEST(Bytes, LoadStore16LittleEndian) {
  u8 buf[2];
  store16le(buf, 0xBEEF);
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[1], 0xBE);
  EXPECT_EQ(load16le(buf), 0xBEEF);
}

TEST(Bytes, LoadStore32BothEndiannesses) {
  u8 buf[4];
  store32le(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(load32le(buf), 0x01020304u);
  store32be(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(load32be(buf), 0x01020304u);
}

TEST(Bytes, Rotl32) {
  EXPECT_EQ(rotl32(0x80000000u, 1), 1u);
  EXPECT_EQ(rotl32(0x12345678u, 0), 0x12345678u);
  EXPECT_EQ(rotl32(0x12345678u, 32), 0x12345678u);
  EXPECT_EQ(rotr32(rotl32(0xDEADBEEFu, 13), 13), 0xDEADBEEFu);
}

TEST(Bytes, HexRoundTrip) {
  const std::vector<u8> data = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  EXPECT_EQ(to_hex(data), "deadbeef007f");
  EXPECT_EQ(from_hex("deadbeef007f"), data);
  EXPECT_EQ(from_hex("DE AD be ef 00 7f"), data);
}

TEST(Bytes, FromHexRejectsMalformed) {
  EXPECT_TRUE(from_hex("abc").empty());   // odd nibbles
  EXPECT_TRUE(from_hex("zz").empty());    // non-hex
}

TEST(Bytes, HexdumpShape) {
  std::vector<u8> data(20, 0x41);
  const std::string dump = hexdump(data, 0x100);
  EXPECT_NE(dump.find("000100"), std::string::npos);
  EXPECT_NE(dump.find("|AAAAAAAAAAAAAAAA|"), std::string::npos);
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
}

TEST(Bytes, ConstantTimeEqual) {
  const std::vector<u8> a = {1, 2, 3};
  const std::vector<u8> b = {1, 2, 3};
  const std::vector<u8> c = {1, 2, 4};
  const std::vector<u8> d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = make_error(ErrorCode::kTimeout, "handshake stalled");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_EQ(s.to_string(), "timeout: handshake stalled");
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(ok.status().is_ok());

  Result<int> bad(make_error(ErrorCode::kNotFound, "nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kNotFound);
}

TEST(RingLog, RetainsEverythingUnderCapacity) {
  RingLog log(1024);
  log.append("alpha");
  log.append("beta");
  EXPECT_EQ(log.entry_count(), 2u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.entries()[0], "alpha");
}

TEST(RingLog, EvictsOldestFirst) {
  RingLog log(10);
  log.append("aaaa");  // 4
  log.append("bbbb");  // 8
  log.append("cccc");  // would be 12 -> evict "aaaa"
  const auto e = log.entries();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], "bbbb");
  EXPECT_EQ(e[1], "cccc");
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(RingLog, OversizeEntryTruncatedToCapacity) {
  RingLog log(8);
  log.append("0123456789abcdef");
  ASSERT_EQ(log.entry_count(), 1u);
  EXPECT_EQ(log.entries()[0], "01234567");
}

TEST(RingLog, TotalAppendedCountsEvicted) {
  RingLog log(4);
  for (int i = 0; i < 100; ++i) log.append("xx");
  EXPECT_EQ(log.total_appended(), 100u);
  EXPECT_EQ(log.entry_count(), 2u);
  EXPECT_EQ(log.used_bytes(), 4u);
}

TEST(Prng, Xorshift64Deterministic) {
  Xorshift64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, XorshiftZeroSeedStillAdvances) {
  Xorshift64 g(0);
  EXPECT_NE(g.next(), 0u);
}

TEST(Prng, ChanceBounds) {
  Xorshift64 g(1);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(g.chance(0.0));
    EXPECT_TRUE(g.chance(1.0));
  }
}

TEST(Prng, ChanceRoughlyCalibrated) {
  Xorshift64 g(123);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += g.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Prng, Rmc16RandMatchesLcgRecurrence) {
  Rmc16Rand r(1);
  u16 x = 1;
  for (int i = 0; i < 50; ++i) {
    x = static_cast<u16>(25173U * x + 13849U);
    EXPECT_EQ(r.next(), x);
  }
}

TEST(Prng, FillCoversBuffer) {
  Xorshift64 g(99);
  std::vector<u8> buf(64, 0);
  g.fill(buf);
  int nonzero = 0;
  for (u8 b : buf) nonzero += (b != 0);
  EXPECT_GT(nonzero, 32);  // all-zero fill would indicate a broken generator
}

// ---------------------------------------------------------------------------
// ByteQueue
// ---------------------------------------------------------------------------

std::vector<u8> live(const ByteQueue& q) {
  return std::vector<u8>(q.data(), q.data() + q.size());
}

TEST(ByteQueue, AppendAndConsumeAcrossCompaction) {
  // Seeded appends and consumes of every size leave the live bytes at
  // every offset when an append compacts or grows the storage; every byte
  // must come out once, in order.
  ByteQueue q;
  Xorshift64 rng(23);
  std::vector<u8> sent, got;
  for (int round = 0; round < 2'000; ++round) {
    std::vector<u8> chunk(rng.next_below(600));
    rng.fill(chunk);
    q.append(chunk);
    sent.insert(sent.end(), chunk.begin(), chunk.end());
    const std::size_t n = rng.next_below(static_cast<u32>(q.size()) + 1);
    got.insert(got.end(), q.data(), q.data() + n);
    q.consume(n);
    ASSERT_EQ(q.size(), sent.size() - got.size()) << round;
  }
  got.insert(got.end(), q.data(), q.data() + q.size());
  q.consume(q.size());
  EXPECT_EQ(got, sent);
}

TEST(ByteQueue, CompactsBeforeGrowing) {
  // 60 consumed bytes sit in front of 4 live ones. An append that fits
  // once those 4 move to the front must not grow the storage.
  ByteQueue q;
  std::vector<u8> first(64);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = static_cast<u8>(i);
  q.append(first);
  const std::size_t cap = q.capacity();
  q.consume(60);
  const std::vector<u8> second(cap - 4, 0xAB);
  q.append(second);
  EXPECT_EQ(q.capacity(), cap);
  std::vector<u8> want(cap, 0xAB);
  std::copy(first.end() - 4, first.end(), want.begin());
  EXPECT_EQ(live(q), want);
  // One byte more than the storage holds grows it, keeping every byte.
  q.append(std::vector<u8>{0xCD});
  EXPECT_GT(q.capacity(), cap);
  want.push_back(0xCD);
  EXPECT_EQ(live(q), want);
}

TEST(ByteQueue, DrainedQueueHoldsNoStorage) {
  ByteQueue q;
  EXPECT_EQ(q.capacity(), 0u);
  q.append(std::vector<u8>(1'000, 7));
  q.consume(400);
  EXPECT_GE(q.capacity(), 1'000u);  // live bytes keep their storage
  q.consume(600);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
  q.append(std::vector<u8>{1, 2, 3});
  EXPECT_EQ(live(q), (std::vector<u8>{1, 2, 3}));
  q.consume(3);
  EXPECT_EQ(q.capacity(), 0u);
}

}  // namespace
}  // namespace rmc::common

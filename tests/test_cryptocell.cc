// CryptoCell offload engine (DESIGN.md §12): register-level peripheral
// behavior, the dynk::CryptoDev driver on top of it, and the issl record
// layer's engine dispatch — including every absent/pulled-card
// fault path a stock board (no expansion card) exercises.
#include <gtest/gtest.h>

#include "common/prng.h"
#include "crypto/sha1.h"
#include "crypto_reference.h"
#include "dynk/cryptodev.h"
#include "issl/record.h"
#include "rabbit/board.h"
#include "rabbit/cryptocell.h"

namespace rmc {
namespace {

using common::u16;
using common::u32;
using common::u64;
using common::u8;
using rabbit::CryptoCell;
using rabbit::CryptoCellError;
using rabbit::CryptoCellOp;

// ---------------------------------------------------------------------------
// Peripheral, driven at the register level (no driver, no CPU)
// ---------------------------------------------------------------------------

// A bare engine over a Memory, with helpers that play the driver's role by
// hand: lay descriptors in a ring at kRing, stage data, ring the doorbell.
struct EngineRig {
  static constexpr u16 kBase = 0x0100;
  static constexpr u32 kRing = 0x90000;
  static constexpr u32 kData = 0x91000;
  static constexpr u32 kOut = 0x92000;
  static constexpr u32 kIv = 0x93000;
  static constexpr u32 kKeyBuf = 0x93800;  // keys stage separately from data:
  // descriptors execute at GO, so the key bytes must still be there then

  rabbit::Memory mem;
  rabbit::CryptoCell cc{kBase, mem};
  u8 tail = 0;

  u8 rd(u16 reg) { return cc.io_read(static_cast<u16>(kBase + reg)); }
  void wr(u16 reg, u8 v) { cc.io_write(static_cast<u16>(kBase + reg), v); }

  void program_ring(u8 capacity = 8) {
    wr(3, kRing & 0xFF);
    wr(4, (kRing >> 8) & 0xFF);
    wr(5, (kRing >> 16) & 0x0F);
    wr(6, capacity);
  }

  void poke(u32 addr, std::span<const u8> bytes) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      mem.write_phys(addr + static_cast<u32>(i), bytes[i]);
    }
  }
  std::vector<u8> peek(u32 addr, std::size_t n) {
    std::vector<u8> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = mem.read_phys(addr + static_cast<u32>(i));
    }
    return out;
  }

  void addr24(u32 field, u32 addr) {
    mem.write_phys(field, addr & 0xFF);
    mem.write_phys(field + 1, (addr >> 8) & 0xFF);
    mem.write_phys(field + 2, (addr >> 16) & 0x0F);
  }

  /// Fill ring slot `tail` and advance the tail register.
  void push(u8 op, u8 slot, u32 src, u32 dst, std::size_t len, u32 iv = 0,
            u8 flags = 0) {
    const u32 d = kRing + tail * static_cast<u32>(CryptoCell::kDescriptorBytes);
    mem.write_phys(d + 0, op);
    mem.write_phys(d + 1, slot);
    addr24(d + 2, src);
    addr24(d + 5, dst);
    mem.write_phys(d + 8, len & 0xFF);
    mem.write_phys(d + 9, (len >> 8) & 0xFF);
    addr24(d + 10, iv);
    mem.write_phys(d + 13, flags);
    mem.write_phys(d + 14, 0);
    mem.write_phys(d + 15, 0);
    tail = static_cast<u8>((tail + 1) % 8);
    wr(8, tail);
  }

  u8 desc_status(u8 slot) {
    return mem.read_phys(kRing +
                         slot * static_cast<u32>(CryptoCell::kDescriptorBytes) +
                         14);
  }

  /// GO, then tick until the busy bit clears (bounded so a broken model
  /// fails the test instead of hanging it).
  u8 go_and_drain() {
    wr(2, CryptoCell::kCtrlGo);
    for (int i = 0; i < 10'000 && (rd(1) & CryptoCell::kStatusBusy); ++i) {
      cc.tick(1'000);
    }
    return rd(1);
  }

  void load_aes_key(std::span<const u8> key, u8 slot = 0) {
    poke(kKeyBuf, key);
    push(static_cast<u8>(CryptoCellOp::kLoadAesKey), slot, kKeyBuf, 0,
         key.size());
  }
  void load_mac_key(std::span<const u8> key, u8 slot = 1) {
    poke(kKeyBuf, key);
    push(static_cast<u8>(CryptoCellOp::kLoadMacKey), slot, kKeyBuf, 0,
         key.size());
  }
};

TEST(CryptoCellHw, IdentityReadsAndStockBoardFloats) {
  EngineRig rig;
  EXPECT_EQ(rig.rd(0), CryptoCell::kIdValue);
  EXPECT_EQ(rig.rd(1), 0);  // idle, no latches

  rabbit::Board stock;  // no attach_cryptocell(): nothing claims the range
  const u64 strays = stock.io().unclaimed_reads();
  EXPECT_EQ(stock.io().read(rabbit::Board::kCryptoCellBase), 0xFF);
  EXPECT_EQ(stock.io().unclaimed_reads(), strays + 1);
}

TEST(CryptoCellHw, AesCbcEncryptMatchesSoftware) {
  EngineRig rig;
  rig.program_ring();
  std::array<u8, 16> key{}, iv{};
  common::Xorshift64 rng(7);
  rng.fill(key);
  rng.fill(iv);
  std::vector<u8> pt(48);
  rng.fill(pt);

  rig.load_aes_key(key);
  rig.poke(EngineRig::kData, pt);
  rig.poke(EngineRig::kIv, iv);
  rig.push(static_cast<u8>(CryptoCellOp::kAesCbcEncrypt), 0, EngineRig::kData,
           EngineRig::kOut, pt.size(), EngineRig::kIv);
  const u8 status = rig.go_and_drain();
  EXPECT_EQ(status, CryptoCell::kStatusDone);

  auto cipher = crypto::AesFast::create(key);
  ASSERT_TRUE(cipher.ok());
  EXPECT_EQ(rig.peek(EngineRig::kOut, pt.size()),
            crypto::reference::cbc_encrypt(*cipher, iv, pt));
  EXPECT_EQ(rig.desc_status(0), 1);  // key load ok
  EXPECT_EQ(rig.desc_status(1), 1);  // encrypt ok
  EXPECT_EQ(rig.rd(7), 2);           // head consumed both
  EXPECT_EQ(rig.cc.ops_completed(), 2u);
  EXPECT_EQ(rig.cc.key_loads(), 1u);

  rig.wr(1, CryptoCell::kStatusDone);  // ack
  EXPECT_EQ(rig.rd(1), 0);
}

TEST(CryptoCellHw, AesCbcDecryptRoundTrips) {
  EngineRig rig;
  rig.program_ring();
  std::array<u8, 16> key{}, iv{};
  common::Xorshift64 rng(11);
  rng.fill(key);
  rng.fill(iv);
  std::vector<u8> pt(64);
  rng.fill(pt);
  auto cipher = crypto::AesFast::create(key);
  ASSERT_TRUE(cipher.ok());
  const std::vector<u8> ct = crypto::reference::cbc_encrypt(*cipher, iv, pt);

  rig.load_aes_key(key);
  rig.poke(EngineRig::kData, ct);
  rig.poke(EngineRig::kIv, iv);
  rig.push(static_cast<u8>(CryptoCellOp::kAesCbcDecrypt), 0, EngineRig::kData,
           EngineRig::kOut, ct.size(), EngineRig::kIv);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusDone);
  EXPECT_EQ(rig.peek(EngineRig::kOut, pt.size()), pt);
}

TEST(CryptoCellHw, HmacSha1MatchesSoftware) {
  EngineRig rig;
  rig.program_ring();
  std::vector<u8> mac_key(20, 0x5A);
  std::vector<u8> msg(100);
  common::Xorshift64 rng(13);
  rng.fill(msg);

  rig.load_mac_key(mac_key);
  rig.poke(EngineRig::kData, msg);
  rig.push(static_cast<u8>(CryptoCellOp::kHmacSha1), 1, EngineRig::kData,
           EngineRig::kOut, msg.size());
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusDone);

  const auto want = crypto::hmac_sha1(mac_key, msg);
  const auto got = rig.peek(EngineRig::kOut, want.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
}

TEST(CryptoCellHw, StaysBusyForModeledCyclesThenLatchesDone) {
  EngineRig rig;
  rig.program_ring();
  std::array<u8, 16> key{};
  rig.load_aes_key(key);
  rig.wr(2, CryptoCell::kCtrlGo);

  // Cost of the key load under default timing: descriptor fetch 120 +
  // descriptor DMA 16/4 + key DMA 16/4 + schedule 220 = 348 cycles.
  EXPECT_EQ(rig.rd(1), CryptoCell::kStatusBusy);
  rig.cc.tick(347);
  EXPECT_EQ(rig.rd(1), CryptoCell::kStatusBusy);  // one cycle short
  rig.cc.tick(1);
  EXPECT_EQ(rig.rd(1), CryptoCell::kStatusDone);
  EXPECT_EQ(rig.cc.busy_cycles_total(), 348u);
}

TEST(CryptoCellHw, ErrorHaltsRingAtOffendingDescriptor) {
  EngineRig rig;
  rig.program_ring();
  std::array<u8, 16> key{}, iv{};
  std::vector<u8> pt(16, 1);
  rig.load_aes_key(key);                       // slot 0: ok
  rig.push(0x77, 0, EngineRig::kData, 0, 16);  // slot 1: no such op
  rig.poke(EngineRig::kData, pt);
  rig.poke(EngineRig::kIv, iv);
  rig.push(static_cast<u8>(CryptoCellOp::kAesCbcEncrypt), 0, EngineRig::kData,
           EngineRig::kOut, pt.size(), EngineRig::kIv);  // slot 2: never runs

  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusError);
  EXPECT_EQ(rig.rd(9), static_cast<u8>(CryptoCellError::kBadOp));
  EXPECT_EQ(rig.rd(7), 1);          // head parked on the bad descriptor
  EXPECT_EQ(rig.desc_status(1), 2); // error writeback
  EXPECT_EQ(rig.desc_status(2), 0); // halted before the good one
  EXPECT_EQ(rig.cc.errors(), 1u);

  // Fix the descriptor in place, ack, and GO again: the ring resumes.
  rig.mem.write_phys(EngineRig::kRing + 1 * CryptoCell::kDescriptorBytes + 0,
                     static_cast<u8>(CryptoCellOp::kAesCbcEncrypt));
  rig.addr24(EngineRig::kRing + 1 * CryptoCell::kDescriptorBytes + 5,
             EngineRig::kOut);
  rig.addr24(EngineRig::kRing + 1 * CryptoCell::kDescriptorBytes + 10,
             EngineRig::kIv);
  rig.wr(1, CryptoCell::kStatusError);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusDone);
  EXPECT_EQ(rig.rd(7), 3);
}

TEST(CryptoCellHw, GoWithoutRingConfigLatchesMisconfig) {
  EngineRig rig;  // capacity register still 0
  rig.wr(2, CryptoCell::kCtrlGo);
  EXPECT_EQ(rig.rd(1), CryptoCell::kStatusError);
  EXPECT_EQ(rig.rd(9), static_cast<u8>(CryptoCellError::kRingMisconfig));
}

TEST(CryptoCellHw, ValidationErrors) {
  EngineRig rig;
  rig.program_ring();

  // AES data op on a slot never loaded.
  rig.push(static_cast<u8>(CryptoCellOp::kAesCbcEncrypt), 3, EngineRig::kData,
           EngineRig::kOut, 16, EngineRig::kIv);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusError);
  EXPECT_EQ(rig.rd(9), static_cast<u8>(CryptoCellError::kBadKeySlot));
  rig.wr(2, CryptoCell::kCtrlReset);

  // AES length not a block multiple.
  rig.tail = 0;
  rig.program_ring();
  std::array<u8, 16> key{};
  rig.load_aes_key(key);
  rig.push(static_cast<u8>(CryptoCellOp::kAesCbcEncrypt), 0, EngineRig::kData,
           EngineRig::kOut, 24, EngineRig::kIv);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusError);
  EXPECT_EQ(rig.rd(9), static_cast<u8>(CryptoCellError::kBadLength));
  rig.wr(2, CryptoCell::kCtrlReset);

  // Key loads with out-of-spec lengths (AES-128 only; MAC keys <= 64 B).
  rig.tail = 0;
  rig.program_ring();
  std::vector<u8> wide_key(32, 1);
  rig.load_aes_key(wide_key);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusError);
  EXPECT_EQ(rig.rd(9), static_cast<u8>(CryptoCellError::kBadLength));
  rig.wr(2, CryptoCell::kCtrlReset);

  rig.tail = 0;
  rig.program_ring();
  std::vector<u8> long_mac(65, 1);
  rig.load_mac_key(long_mac);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusError);
  EXPECT_EQ(rig.rd(9), static_cast<u8>(CryptoCellError::kBadLength));

  // Slot index beyond the slot file.
  rig.wr(2, CryptoCell::kCtrlReset);
  rig.tail = 0;
  rig.program_ring();
  rig.push(static_cast<u8>(CryptoCellOp::kHmacSha1), CryptoCell::kKeySlots,
           EngineRig::kData, EngineRig::kOut, 16);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusError);
  EXPECT_EQ(rig.rd(9), static_cast<u8>(CryptoCellError::kBadKeySlot));
}

TEST(CryptoCellHw, SoftResetClearsKeySlotsAndConfig) {
  EngineRig rig;
  rig.program_ring();
  std::array<u8, 16> key{};
  rig.load_aes_key(key);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusDone);

  rig.wr(2, CryptoCell::kCtrlReset);
  EXPECT_EQ(rig.rd(1), 0);
  EXPECT_EQ(rig.rd(6), 0);  // ring config gone
  EXPECT_EQ(rig.rd(7), 0);

  // The slot the reset wiped no longer carries a key.
  rig.tail = 0;
  rig.program_ring();
  rig.push(static_cast<u8>(CryptoCellOp::kAesCbcEncrypt), 0, EngineRig::kData,
           EngineRig::kOut, 16, EngineRig::kIv);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusError);
  EXPECT_EQ(rig.rd(9), static_cast<u8>(CryptoCellError::kBadKeySlot));
}

TEST(CryptoCellHw, IrqLineFollowsEnableAndLatches) {
  EngineRig rig;
  rig.program_ring();
  std::array<u8, 16> key{};
  rig.load_aes_key(key);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusDone);
  EXPECT_FALSE(rig.cc.irq_pending());  // completion IRQ disabled by default

  rig.wr(2, CryptoCell::kCtrlIrqEnable);
  EXPECT_TRUE(rig.cc.irq_pending());  // latch still set
  rig.wr(1, CryptoCell::kStatusDone);
  EXPECT_FALSE(rig.cc.irq_pending());

  rig.load_aes_key(key);
  EXPECT_EQ(rig.go_and_drain(), CryptoCell::kStatusDone);
  EXPECT_TRUE(rig.cc.irq_pending());
  rig.wr(2, CryptoCell::kCtrlIrqDisable);
  EXPECT_FALSE(rig.cc.irq_pending());
  EXPECT_EQ(rig.cc.irq_vector(), rabbit::Board::kCryptoCellIrqVector);
}

// ---------------------------------------------------------------------------
// Driver (dynk::CryptoDev) over a board-attached engine
// ---------------------------------------------------------------------------

TEST(CryptoDevDriver, AbsentEngineFailsEveryOpWithoutHanging) {
  rabbit::Board board;  // stock: probe reads the floating bus
  dynk::CryptoDev dev(board.io(), board.mem());
  EXPECT_FALSE(dev.available());

  const std::vector<u8> key(16, 1), iv(16, 2), data(16, 3);
  auto enc = dev.aes_cbc(true, key, iv, data);
  EXPECT_EQ(enc.status().code(), common::ErrorCode::kUnavailable);
  auto mac = dev.hmac_sha1(key, data);
  EXPECT_EQ(mac.status().code(), common::ErrorCode::kUnavailable);
  EXPECT_EQ(dev.submit_aes_cbc(true, key, iv, data).code(),
            common::ErrorCode::kUnavailable);
  EXPECT_EQ(dev.poll().code(), common::ErrorCode::kUnavailable);
}

TEST(CryptoDevDriver, ProbeSucceedsAfterAttach) {
  rabbit::Board board;
  dynk::CryptoDev dev(board.io(), board.mem());
  EXPECT_FALSE(dev.available());

  board.attach_cryptocell();
  EXPECT_TRUE(dev.probe());
  EXPECT_TRUE(dev.available());
  const std::vector<u8> key(16, 1), iv(16, 2), data(32, 3);
  auto enc = dev.aes_cbc(true, key, iv, data);
  ASSERT_TRUE(enc.ok());

  auto cipher = crypto::AesFast::create(std::span<const u8>(key));
  ASSERT_TRUE(cipher.ok());
  EXPECT_EQ(*enc, crypto::reference::cbc_encrypt(*cipher, iv, data));
}

TEST(CryptoDevDriver, BlockingOpsMatchSoftwareCrypto) {
  rabbit::Board board;
  board.attach_cryptocell();
  dynk::CryptoDev dev(board.io(), board.mem());
  ASSERT_TRUE(dev.available());

  common::Xorshift64 rng(17);
  std::vector<u8> key(16), iv(16), pt(480), mac_key(20), msg(333);
  rng.fill(key);
  rng.fill(iv);
  rng.fill(pt);
  rng.fill(mac_key);
  rng.fill(msg);

  auto ct = dev.aes_cbc(true, key, iv, pt);
  ASSERT_TRUE(ct.ok());
  auto cipher = crypto::AesFast::create(std::span<const u8>(key));
  ASSERT_TRUE(cipher.ok());
  EXPECT_EQ(*ct, crypto::reference::cbc_encrypt(*cipher, iv, pt));

  auto back = dev.aes_cbc(false, key, iv, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);

  auto digest = dev.hmac_sha1(mac_key, msg);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(*digest, crypto::hmac_sha1(mac_key, msg));

  EXPECT_EQ(dev.ops_completed(), 3u);
  EXPECT_GT(dev.stall_cycles_total(), 0u);
}

TEST(CryptoDevDriver, KeySlotCacheHitsAndEvicts) {
  rabbit::Board board;
  board.attach_cryptocell();
  dynk::CryptoDev dev(board.io(), board.mem());
  const std::vector<u8> iv(16, 0), data(16, 9);

  std::vector<u8> key(16, 0);
  ASSERT_TRUE(dev.aes_cbc(true, key, iv, data).ok());
  ASSERT_TRUE(dev.aes_cbc(true, key, iv, data).ok());
  EXPECT_EQ(dev.key_loads(), 1u);  // second op reused the slot
  EXPECT_EQ(dev.key_cache_hits(), 1u);

  // Enough distinct keys to evict the whole 8-slot file, then the first key
  // again: it must reload.
  for (u8 k = 1; k <= rabbit::CryptoCell::kKeySlots; ++k) {
    std::vector<u8> other(16, k);
    ASSERT_TRUE(dev.aes_cbc(true, other, iv, data).ok());
  }
  EXPECT_EQ(dev.key_loads(), 1u + rabbit::CryptoCell::kKeySlots);
  ASSERT_TRUE(dev.aes_cbc(true, key, iv, data).ok());
  EXPECT_EQ(dev.key_loads(), 2u + rabbit::CryptoCell::kKeySlots);
}

TEST(CryptoDevDriver, AsyncSubmitPollTakesResult) {
  rabbit::Board board;
  rabbit::CryptoCellTiming slow;
  slow.aes_block_cycles = 100'000;  // guarantee poll sees the busy engine
  board.attach_cryptocell(slow);
  dynk::CryptoDev dev(board.io(), board.mem());

  common::Xorshift64 rng(19);
  std::vector<u8> key(16), iv(16), pt(64);
  rng.fill(key);
  rng.fill(iv);
  rng.fill(pt);

  ASSERT_TRUE(dev.submit_aes_cbc(true, key, iv, pt).is_ok());
  EXPECT_TRUE(dev.op_pending());
  // A second submit while one is in flight is a caller bug.
  EXPECT_EQ(dev.submit_hmac_sha1(key, pt).code(),
            common::ErrorCode::kFailedPrecondition);

  common::Status st = dev.poll(64);
  EXPECT_EQ(st.code(), common::ErrorCode::kUnavailable);  // still ciphering
  int polls = 1;
  while (!st.is_ok()) {
    ASSERT_EQ(st.code(), common::ErrorCode::kUnavailable);
    ASSERT_LT(polls++, 100'000);
    st = dev.poll(4096);
  }
  auto cipher = crypto::AesFast::create(std::span<const u8>(key));
  ASSERT_TRUE(cipher.ok());
  EXPECT_EQ(dev.take_data(), crypto::reference::cbc_encrypt(*cipher, iv, pt));
  EXPECT_FALSE(dev.op_pending());
}

TEST(CryptoDevDriver, RejectsOversizeAndUnalignedRequests) {
  rabbit::Board board;
  board.attach_cryptocell();
  dynk::CryptoDev dev(board.io(), board.mem());
  const std::vector<u8> key(16, 1), iv(16, 2);

  std::vector<u8> huge(dynk::CryptoDev::kMaxDataBytes + 16, 0);
  EXPECT_EQ(dev.aes_cbc(true, key, iv, huge).status().code(),
            common::ErrorCode::kInvalidArgument);
  std::vector<u8> ragged(24, 0);
  EXPECT_EQ(dev.aes_cbc(true, key, iv, ragged).status().code(),
            common::ErrorCode::kInvalidArgument);
}

TEST(CryptoDevDriver, RecoversAfterEngineError) {
  rabbit::Board board;
  board.attach_cryptocell();
  dynk::CryptoDev dev(board.io(), board.mem());

  // A 65-byte MAC key passes the driver but the engine rejects the load;
  // the driver must ack + reset + keep working.
  std::vector<u8> long_key(65, 7), msg(32, 1);
  auto bad = dev.hmac_sha1(long_key, msg);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(dev.engine_errors(), 1u);

  std::vector<u8> good_key(20, 7);
  auto digest = dev.hmac_sha1(good_key, msg);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(*digest, crypto::hmac_sha1(good_key, msg));
}

TEST(CryptoDevDriver, CardPulledMidOpFailsInsteadOfSpinning) {
  rabbit::Board board;
  rabbit::CryptoCellTiming slow;
  slow.aes_block_cycles = 1'000'000;
  board.attach_cryptocell(slow);
  dynk::CryptoDev dev(board.io(), board.mem());

  const std::vector<u8> key(16, 1), iv(16, 2), data(16, 3);
  ASSERT_TRUE(dev.submit_aes_cbc(true, key, iv, data).is_ok());
  board.detach_cryptocell();  // yank the card while the op is in flight

  EXPECT_EQ(dev.poll().code(), common::ErrorCode::kUnavailable);
  EXPECT_FALSE(dev.available());
  EXPECT_FALSE(dev.op_pending());
  // Blocking calls after the pull fail promptly too (no busy-bit spin).
  EXPECT_EQ(dev.aes_cbc(true, key, iv, data).status().code(),
            common::ErrorCode::kUnavailable);
}

TEST(CryptoDevDriver, BoardResetSoftResetsEngine) {
  rabbit::Board board;
  auto& cc = board.attach_cryptocell();
  dynk::CryptoDev dev(board.io(), board.mem());
  const std::vector<u8> key(16, 1), iv(16, 2), data(16, 3);
  ASSERT_TRUE(dev.aes_cbc(true, key, iv, data).ok());
  EXPECT_EQ(cc.key_loads(), 1u);

  board.warm_reset(rabbit::ResetCause::kSoft);
  // The reset wiped the engine's slots; the driver's cache is now stale, so
  // it must re-probe before trusting it.
  EXPECT_TRUE(dev.probe());
  ASSERT_TRUE(dev.aes_cbc(true, key, iv, data).ok());
  EXPECT_EQ(cc.key_loads(), 2u);  // reloaded, not served from a ghost slot
}

// ---------------------------------------------------------------------------
// issl record layer: engine dispatch and fallback
// ---------------------------------------------------------------------------

issl::DirectionKeys test_keys(u8 fill) {
  issl::DirectionKeys k;
  k.aes_key.assign(16, fill);
  k.mac_key.fill(static_cast<u8>(fill ^ 0x55));
  return k;
}

TEST(IsslEngineBackend, WireBytesIdenticalToSoftwareBackends) {
  rabbit::Board board;
  board.attach_cryptocell();
  dynk::CryptoDev dev(board.io(), board.mem());

  // Same RNG seed => same IV draws; the wire must come out bit-identical
  // whether software or the engine does the arithmetic.
  common::Xorshift64 rng_c(99), rng_eng(99);
  issl::RecordCodec c(rng_c);
  issl::RecordCodec e(rng_eng, &dev);
  for (issl::RecordCodec* codec : {&c, &e}) {
    ASSERT_TRUE(codec->activate_keys(test_keys(1), test_keys(2)).is_ok());
  }
  EXPECT_TRUE(e.uses_engine());
  EXPECT_FALSE(e.engine_fallback());
  EXPECT_FALSE(c.uses_engine());

  std::vector<u8> msg(200);
  common::Xorshift64 rng(3);
  rng.fill(msg);
  auto wire_c = c.seal(issl::RecordType::kApplicationData, msg);
  auto wire_e = e.seal(issl::RecordType::kApplicationData, msg);
  ASSERT_TRUE(wire_c.ok());
  ASSERT_TRUE(wire_e.ok());
  EXPECT_EQ(*wire_c, *wire_e);

  // And an engine-backed receiver opens a software-sealed record.
  common::Xorshift64 rng_rx(77);
  issl::RecordCodec rx(rng_rx, &dev);
  ASSERT_TRUE(rx.activate_keys(test_keys(2), test_keys(1)).is_ok());
  ASSERT_TRUE(rx.feed(*wire_c).is_ok());
  auto rec = rx.pop();
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->payload, msg);

  // The engine does the same work, counted the same way.
  EXPECT_EQ(e.work(), c.work());
}

TEST(IsslEngineBackend, FallsBackToCWhenEngineMissing) {
  // The driver is configured, but the board is stock: the probe fails.
  rabbit::Board stock;
  dynk::CryptoDev absent(stock.io(), stock.mem());
  common::Xorshift64 rng1(5);
  issl::RecordCodec dead_eng(rng1, &absent);
  ASSERT_TRUE(dead_eng.activate_keys(test_keys(1), test_keys(2)).is_ok());
  EXPECT_FALSE(dead_eng.uses_engine());
  EXPECT_TRUE(dead_eng.engine_fallback());

  // No engine configured at all is plain software, not a fallback.
  common::Xorshift64 rng2(5);
  issl::RecordCodec plain(rng2);
  ASSERT_TRUE(plain.activate_keys(test_keys(1), test_keys(2)).is_ok());
  EXPECT_FALSE(plain.uses_engine());
  EXPECT_FALSE(plain.engine_fallback());

  // The fallback still produces the exact software wire (same seed, same
  // draws).
  const std::vector<u8> msg(48, 0xAB);
  auto w1 = dead_eng.seal(issl::RecordType::kApplicationData, msg);
  auto w2 = plain.seal(issl::RecordType::kApplicationData, msg);
  ASSERT_TRUE(w1.ok() && w2.ok());
  EXPECT_EQ(*w1, *w2);
}

}  // namespace
}  // namespace rmc

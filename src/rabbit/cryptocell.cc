#include "rabbit/cryptocell.h"

#include "crypto/modes.h"
#include "crypto/sha1.h"

namespace rmc::rabbit {

namespace {
// SHA-1 block count including the 9+ bytes of trailer padding, matching the
// arithmetic the issl cost model uses for software HMAC.
u64 sha1_blocks(std::size_t bytes) { return (bytes + 9 + 63) / 64; }
}  // namespace

u32 CryptoCell::read_addr24(u32 phys) const {
  return static_cast<u32>(mem_->read_phys(phys)) |
         (static_cast<u32>(mem_->read_phys(phys + 1)) << 8) |
         (static_cast<u32>(mem_->read_phys(phys + 2)) << 16);
}

u64 CryptoCell::dma_cycles(u64 bytes) const {
  const u64 rate = timing_.dma_bytes_per_cycle ? timing_.dma_bytes_per_cycle : 1;
  return (bytes + rate - 1) / rate;
}

u8 CryptoCell::io_read(u16 port) {
  switch (port - base_) {
    case 0: return kIdValue;
    case 1: {
      u8 s = 0;
      if (busy()) s |= kStatusBusy;
      if (done_latch_) s |= kStatusDone;
      if (error_latch_) s |= kStatusError;
      return s;
    }
    case 3: return static_cast<u8>(ring_base_ & 0xFF);
    case 4: return static_cast<u8>((ring_base_ >> 8) & 0xFF);
    case 5: return static_cast<u8>((ring_base_ >> 16) & 0xFF);
    case 6: return ring_capacity_;
    case 7: return head_;
    case 8: return tail_;
    case 9: return static_cast<u8>(errcode_);
    default: return 0;
  }
}

void CryptoCell::io_write(u16 port, u8 value) {
  switch (port - base_) {
    case 1:  // CCSR ack: 1-bits clear the matching latches
      if (value & kStatusDone) done_latch_ = false;
      if (value & kStatusError) error_latch_ = false;
      return;
    case 2:  // CCCR
      if (value & kCtrlReset) {
        soft_reset();
        return;
      }
      if (value & kCtrlIrqEnable) irq_enabled_ = true;
      if (value & kCtrlIrqDisable) irq_enabled_ = false;
      if (value & kCtrlGo) go();
      return;
    case 3:
      ring_base_ = (ring_base_ & 0xFFFF00u) | value;
      return;
    case 4:
      ring_base_ = (ring_base_ & 0xFF00FFu) | (static_cast<u32>(value) << 8);
      return;
    case 5:
      ring_base_ =
          (ring_base_ & 0x00FFFFu) | (static_cast<u32>(value & 0x0F) << 16);
      return;
    case 6:
      ring_capacity_ = value;
      return;
    case 8:
      tail_ = value;
      return;
    default:
      return;  // read-only or unused register: dropped, as on silicon
  }
}

void CryptoCell::soft_reset() {
  ring_base_ = 0;
  ring_capacity_ = 0;
  head_ = 0;
  tail_ = 0;
  irq_enabled_ = false;
  done_latch_ = false;
  error_latch_ = false;
  error_pending_ = false;
  irq_on_done_ = false;
  errcode_ = CryptoCellError::kNone;
  pending_cycles_ = 0;
  for (auto& slot : slots_) slot = KeySlot{};
}

void CryptoCell::go() {
  if (ring_capacity_ == 0 || head_ >= ring_capacity_ ||
      tail_ >= ring_capacity_) {
    errcode_ = CryptoCellError::kRingMisconfig;
    error_latch_ = true;  // nothing queued: latch immediately
    ++errors_;
    return;
  }
  while (head_ != tail_) {
    const u32 desc = ring_base_ + head_ * static_cast<u32>(kDescriptorBytes);
    const CryptoCellError err = execute(desc);
    mem_->write_phys(desc + 14, err == CryptoCellError::kNone ? 1 : 2);
    if (mem_->read_phys(desc + 13) & 0x01) irq_on_done_ = true;
    if (err != CryptoCellError::kNone) {
      // Halt at the offending descriptor; the driver soft-resets to recover.
      errcode_ = err;
      error_pending_ = true;
      ++errors_;
      break;
    }
    head_ = static_cast<u8>((head_ + 1) % ring_capacity_);
    ++ops_completed_;
  }
  if (pending_cycles_ == 0) {
    // Zero modeled cost (e.g. all work already done): complete immediately.
    if (error_pending_) {
      error_latch_ = true;
      error_pending_ = false;
    } else {
      done_latch_ = true;
    }
  }
}

CryptoCellError CryptoCell::execute(u32 desc) {
  u64 cost = timing_.descriptor_fetch_cycles + dma_cycles(kDescriptorBytes);
  const auto op = static_cast<CryptoCellOp>(mem_->read_phys(desc + 0));
  const u8 slot_idx = mem_->read_phys(desc + 1);
  const u32 src = read_addr24(desc + 2);
  const u32 dst = read_addr24(desc + 5);
  const std::size_t len = static_cast<std::size_t>(mem_->read_phys(desc + 8)) |
                          (static_cast<std::size_t>(mem_->read_phys(desc + 9))
                           << 8);
  const u32 iv_addr = read_addr24(desc + 10);

  const auto charge = [&](u64 c) {
    pending_cycles_ += c;
    busy_cycles_total_ += c;
  };

  if (slot_idx >= kKeySlots) {
    charge(cost);
    return CryptoCellError::kBadKeySlot;
  }
  KeySlot& slot = slots_[slot_idx];

  switch (op) {
    case CryptoCellOp::kLoadAesKey: {
      if (len != 16) {  // the engine is AES-128 only
        charge(cost);
        return CryptoCellError::kBadLength;
      }
      std::array<u8, 16> key;
      for (std::size_t i = 0; i < key.size(); ++i) {
        key[i] = mem_->read_phys(src + static_cast<u32>(i));
      }
      auto aes = crypto::AesFast::create(key);
      if (!aes.ok()) {
        charge(cost);
        return CryptoCellError::kBadLength;
      }
      slot = KeySlot{};
      slot.aes = std::move(*aes);
      charge(cost + dma_cycles(len) + timing_.key_load_cycles);
      ++key_loads_;
      return CryptoCellError::kNone;
    }
    case CryptoCellOp::kLoadMacKey: {
      if (len == 0 || len > 64) {
        charge(cost);
        return CryptoCellError::kBadLength;
      }
      slot = KeySlot{};
      slot.mac = true;
      slot.mac_key_len = len;
      for (std::size_t i = 0; i < len; ++i) {
        slot.mac_key[i] = mem_->read_phys(src + static_cast<u32>(i));
      }
      charge(cost + dma_cycles(len) + timing_.key_load_cycles);
      ++key_loads_;
      return CryptoCellError::kNone;
    }
    case CryptoCellOp::kAesCbcEncrypt:
    case CryptoCellOp::kAesCbcDecrypt: {
      if (len == 0 || (len % crypto::kAesBlockBytes) != 0) {
        charge(cost);
        return CryptoCellError::kBadLength;
      }
      if (!slot.aes.has_value() || slot.mac) {
        charge(cost);
        return CryptoCellError::kBadKeySlot;
      }
      std::vector<u8> data(len);
      for (std::size_t i = 0; i < len; ++i) {
        data[i] = mem_->read_phys(src + static_cast<u32>(i));
      }
      std::array<u8, crypto::kAesBlockBytes> iv;
      for (std::size_t i = 0; i < iv.size(); ++i) {
        iv[i] = mem_->read_phys(iv_addr + static_cast<u32>(i));
      }
      if (op == CryptoCellOp::kAesCbcEncrypt) {
        crypto::cbc_encrypt(*slot.aes, iv, data, data);
      } else {
        crypto::cbc_decrypt(*slot.aes, iv, data, data);
      }
      for (std::size_t i = 0; i < data.size(); ++i) {
        mem_->write_phys(dst + static_cast<u32>(i), data[i]);
      }
      charge(cost + dma_cycles(2 * len + crypto::kAesBlockBytes) +
             (len / crypto::kAesBlockBytes) * timing_.aes_block_cycles);
      return CryptoCellError::kNone;
    }
    case CryptoCellOp::kHmacSha1: {
      if (!slot.loaded() || !slot.mac) {
        charge(cost);
        return CryptoCellError::kBadKeySlot;
      }
      std::vector<u8> msg(len);
      for (std::size_t i = 0; i < len; ++i) {
        msg[i] = mem_->read_phys(src + static_cast<u32>(i));
      }
      const auto digest = crypto::hmac_sha1(
          std::span<const u8>(slot.mac_key.data(), slot.mac_key_len), msg);
      for (std::size_t i = 0; i < digest.size(); ++i) {
        mem_->write_phys(dst + static_cast<u32>(i), digest[i]);
      }
      // Inner hash: key-pad block + message blocks; outer hash: key-pad
      // block + the 20-byte inner digest — the shape of the software model.
      charge(cost + dma_cycles(len + crypto::kSha1DigestBytes) +
             (1 + sha1_blocks(len) + 1 + sha1_blocks(20)) *
                 timing_.sha1_block_cycles);
      return CryptoCellError::kNone;
    }
  }
  charge(cost);
  return CryptoCellError::kBadOp;
}

void CryptoCell::tick(u64 cycles) {
  if (pending_cycles_ == 0) return;
  if (cycles >= pending_cycles_) {
    pending_cycles_ = 0;
    if (error_pending_) {
      error_latch_ = true;
      error_pending_ = false;
    } else {
      done_latch_ = true;
    }
  } else {
    pending_cycles_ -= cycles;
  }
}

}  // namespace rmc::rabbit

// ByteQueue — the one byte FIFO of the TCP and issl data paths.
//
// A vector plus a read offset: append() writes at the back, consume()
// advances the front without moving anything. Live bytes move to the front
// only when an append would otherwise grow the storage. Consuming the last
// live byte frees the storage, so an idle connection or record codec holds
// no heap.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace rmc::common {

class ByteQueue {
 public:
  /// Queue `bytes` behind the live ones.
  void append(std::span<const u8> bytes) {
    if (bytes.empty()) return;
    if (head_ > 0 && buf_.size() + bytes.size() > buf_.capacity()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(head_));
      head_ = 0;
    }
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// The live bytes, oldest first; valid until the next append or consume.
  const u8* data() const { return buf_.data() + head_; }
  std::size_t size() const { return buf_.size() - head_; }
  bool empty() const { return size() == 0; }
  /// Bytes of storage held, live or not.
  std::size_t capacity() const { return buf_.capacity(); }

  /// Drop the oldest `n` live bytes (n <= size()).
  void consume(std::size_t n) {
    assert(n <= size());
    head_ += n;
    if (head_ == buf_.size()) {
      std::vector<u8>().swap(buf_);
      head_ = 0;
    }
  }

 private:
  std::vector<u8> buf_;
  std::size_t head_ = 0;  // first live byte
};

}  // namespace rmc::common

// Append-only array whose elements never move.
//
// Storage is a list of blocks, each allocated once at its full size: four
// that double from kFirstBlock elements, then blocks of kBlock elements. An
// element's address is fixed for the array's lifetime, growth never copies
// or moves anything, and n elements cost a few allocations plus one per
// kBlock elements (a std::deque of the same elements makes one per 512
// bytes). The blocks stop doubling so that the newest block's unused room
// stays small: that room is often resident, because the allocator hands out
// memory that earlier, freed allocations already touched.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace daris::common {

template <typename T>
class StableArray {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    const Slot s = locate(i);
    return blocks_[s.block][s.offset];
  }
  const T& operator[](std::size_t i) const {
    const Slot s = locate(i);
    return blocks_[s.block][s.offset];
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (blocks_.empty() || blocks_.back().size() == blocks_.back().capacity()) {
      const std::size_t b = blocks_.size();
      blocks_.emplace_back();
      blocks_.back().reserve(b < kDoublings ? kFirstBlock << b : kBlock);
    }
    ++size_;
    // Within the reserved capacity: never reallocates.
    return blocks_.back().emplace_back(std::forward<Args>(args)...);
  }

 private:
  static constexpr std::size_t kFirstBlock = 16;
  static constexpr std::size_t kDoublings = 4;  // blocks of 16, 32, 64, 128
  static constexpr std::size_t kBlock = kFirstBlock << kDoublings;  // 256
  /// Elements held by the doubling blocks.
  static constexpr std::size_t kGrown =
      kFirstBlock * ((std::size_t{1} << kDoublings) - 1);

  struct Slot {
    std::size_t block;
    std::size_t offset;
  };
  /// Doubling block b starts at element kFirstBlock * (2^b - 1), so element
  /// i < kGrown lives in block floor(log2(i / kFirstBlock + 1)); the fixed
  /// blocks follow from element kGrown on.
  static Slot locate(std::size_t i) {
    if (i >= kGrown) {
      const std::size_t j = i - kGrown;
      return {kDoublings + j / kBlock, j % kBlock};
    }
    const unsigned long long q = i / kFirstBlock + 1;
    const auto b = static_cast<std::size_t>(63 - __builtin_clzll(q));
    return {b, i - kFirstBlock * ((std::size_t{1} << b) - 1)};
  }

  std::vector<std::vector<T>> blocks_;
  std::size_t size_ = 0;
};

}  // namespace daris::common

// Flat sorted interval set for the TCP receiver's out-of-order reassembly
// buffer.
//
// Under loss, every arriving out-of-order segment used to insert a node
// into a std::map — one allocation per packet on exactly the code path the
// paper's loss-heavy experiments hammer. Blocks here live in one sorted
// vector (disjoint, merged on insert). A deep buffer holds thousands of
// islands, so the vector keeps a free prefix: the in-order drain advances a
// head index instead of shifting, and an insert or merge shifts the shorter
// side of the change. Repairs land near the front, new islands near the
// back, so neither moves more than a few entries. Capacity is given back
// once the live blocks shrink to an eighth of it (see compact()), so a
// recovered connection does not keep its worst episode's buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cebinae {

class IntervalSet {
 public:
  struct Block {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;  // exclusive
  };

  [[nodiscard]] bool empty() const { return head_ == blocks_.size(); }
  [[nodiscard]] std::size_t size() const { return blocks_.size() - head_; }
  [[nodiscard]] const Block& operator[](std::size_t i) const { return blocks_[head_ + i]; }
  [[nodiscard]] std::size_t capacity() const { return blocks_.capacity(); }

  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (std::size_t i = head_; i < blocks_.size(); ++i) total += blocks_[i].end - blocks_[i].begin;
    return total;
  }

  // Index of the first block with begin >= seq (== size() when none).
  [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const {
    const auto first = blocks_.begin() + static_cast<std::ptrdiff_t>(head_);
    const auto it = std::lower_bound(first, blocks_.end(), seq,
                                     [](const Block& b, std::uint64_t s) { return b.begin < s; });
    return static_cast<std::size_t>(it - first);
  }

  // Insert [begin, end), merging with any overlapping or touching
  // neighbors; returns the resulting merged block.
  Block add(std::uint64_t begin, std::uint64_t end) {
    std::size_t i = head_ + lower_bound(begin);
    if (i > head_ && blocks_[i - 1].end >= begin) {
      --i;
      blocks_[i].end = std::max(blocks_[i].end, end);
    } else {
      i = insert_at(i, Block{begin, end});
    }
    std::size_t j = i + 1;
    while (j < blocks_.size() && blocks_[j].begin <= blocks_[i].end) {
      blocks_[i].end = std::max(blocks_[i].end, blocks_[j].end);
      ++j;
    }
    const Block merged = blocks_[erase_after(i, j)];
    compact();
    return merged;
  }

  // Consume every block now contiguous with `cursor` (begin <= cursor),
  // folding their ends into it — the receiver's in-order drain.
  void drain_into(std::uint64_t& cursor) {
    while (head_ < blocks_.size() && blocks_[head_].begin <= cursor) {
      cursor = std::max(cursor, blocks_[head_].end);
      ++head_;
    }
    compact();
  }

 private:
  // Both shifts below move whichever side of the change is shorter: the
  // live blocks before it (into or out of the free prefix) or after it.

  // Inserts `b` at position `i` of blocks_; returns where it landed.
  std::size_t insert_at(std::size_t i, const Block& b) {
    const auto at = blocks_.begin() + static_cast<std::ptrdiff_t>(i);
    if (head_ > 0 && i - head_ < blocks_.size() - i) {
      const auto first = blocks_.begin() + static_cast<std::ptrdiff_t>(head_);
      std::move(first, at, first - 1);
      --head_;
      *(at - 1) = b;
      return i - 1;
    }
    blocks_.insert(at, b);
    return i;
  }

  // Erases blocks_[i + 1, j); returns the new position of blocks_[i].
  std::size_t erase_after(std::size_t i, std::size_t j) {
    const std::size_t n = j - i - 1;
    if (n == 0) return i;
    const auto first = blocks_.begin() + static_cast<std::ptrdiff_t>(i + 1);
    const auto last = blocks_.begin() + static_cast<std::ptrdiff_t>(j);
    if (i + 1 - head_ < blocks_.size() - j) {
      std::move_backward(blocks_.begin() + static_cast<std::ptrdiff_t>(head_), first, last);
      head_ += n;
      return i + n;
    }
    blocks_.erase(first, last);
    return i;
  }

  // Drops the free prefix once it outgrows the live blocks, so moving them
  // costs no more than the blocks consumed since the last compaction. When
  // the capacity is also at least kShrinkMinCapacity and 8x the live
  // blocks, the live blocks move into a vector of their own size instead.
  // Doubling back to the old capacity takes fewer allocations than the 7/8
  // of it in inserts, so an insert still costs O(1) allocations amortized.
  void compact() {
    if (head_ <= size()) return;
    const auto live = blocks_.begin() + static_cast<std::ptrdiff_t>(head_);
    if (blocks_.capacity() >= kShrinkMinCapacity && blocks_.capacity() >= 8 * size()) {
      blocks_ = std::vector<Block>(live, blocks_.end());
    } else {
      blocks_.erase(blocks_.begin(), live);
    }
    head_ = 0;
  }

  static constexpr std::size_t kShrinkMinCapacity = 64;

  // Live blocks are blocks_[head_, end): sorted by begin, pairwise
  // disjoint. drain_into consumes from the front by advancing head_.
  std::vector<Block> blocks_;
  std::size_t head_ = 0;
};

}  // namespace cebinae

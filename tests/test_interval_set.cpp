#include "tcp/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace cebinae {
namespace {

TEST(IntervalSet, StartsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.total_bytes(), 0u);
}

TEST(IntervalSet, AddDisjointKeepsSorted) {
  IntervalSet s;
  s.add(30, 40);
  s.add(10, 20);
  s.add(50, 60);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].begin, 10u);
  EXPECT_EQ(s[1].begin, 30u);
  EXPECT_EQ(s[2].begin, 50u);
  EXPECT_EQ(s.total_bytes(), 30u);
}

TEST(IntervalSet, AddMergesBackward) {
  IntervalSet s;
  s.add(10, 20);
  const IntervalSet::Block b = s.add(20, 30);  // touching: merge
  EXPECT_EQ(b.begin, 10u);
  EXPECT_EQ(b.end, 30u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(IntervalSet, AddMergesForwardAcrossMultipleBlocks) {
  IntervalSet s;
  s.add(10, 20);
  s.add(30, 40);
  s.add(50, 60);
  const IntervalSet::Block b = s.add(15, 55);  // spans all three
  EXPECT_EQ(b.begin, 10u);
  EXPECT_EQ(b.end, 60u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.total_bytes(), 50u);
}

TEST(IntervalSet, AddContainedIsAbsorbed) {
  IntervalSet s;
  s.add(10, 50);
  const IntervalSet::Block b = s.add(20, 30);
  EXPECT_EQ(b.begin, 10u);
  EXPECT_EQ(b.end, 50u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(IntervalSet, LowerBound) {
  IntervalSet s;
  s.add(10, 20);
  s.add(30, 40);
  EXPECT_EQ(s.lower_bound(0), 0u);
  EXPECT_EQ(s.lower_bound(10), 0u);
  EXPECT_EQ(s.lower_bound(11), 1u);
  EXPECT_EQ(s.lower_bound(30), 1u);
  EXPECT_EQ(s.lower_bound(31), 2u);
}

TEST(IntervalSet, DrainIntoConsumesContiguousPrefix) {
  IntervalSet s;
  s.add(10, 20);
  s.add(20, 30);  // merged with previous
  s.add(40, 50);
  std::uint64_t cursor = 10;
  s.drain_into(cursor);
  EXPECT_EQ(cursor, 30u);  // stopped at the hole [30, 40)
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].begin, 40u);
}

TEST(IntervalSet, DrainIntoFoldsOverlappingOldData) {
  IntervalSet s;
  s.add(5, 15);
  std::uint64_t cursor = 20;  // already past the whole block
  s.drain_into(cursor);
  EXPECT_EQ(cursor, 20u);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, DrainIntoNoopWhenGapRemains) {
  IntervalSet s;
  s.add(100, 200);
  std::uint64_t cursor = 50;
  s.drain_into(cursor);
  EXPECT_EQ(cursor, 50u);
  EXPECT_EQ(s.size(), 1u);
}

// Draining all but a few of 10,000 islands gives the vector's capacity
// back, and the blocks left are the same.
TEST(IntervalSet, CapacityFollowsLiveBlocks) {
  constexpr std::uint64_t kIslands = 10'000;
  constexpr std::uint64_t kLeft = 5;
  IntervalSet s;
  for (std::uint64_t k = 0; k < kIslands; ++k) s.add(10 * k + 1, 10 * k + 5);
  ASSERT_EQ(s.size(), kIslands);
  ASSERT_GE(s.capacity(), kIslands);

  std::uint64_t cursor = 10 * (kIslands - kLeft);
  s.drain_into(cursor);
  EXPECT_EQ(cursor, 10 * (kIslands - kLeft));
  ASSERT_EQ(s.size(), kLeft);
  EXPECT_LE(s.capacity(), std::max<std::size_t>(64, 8 * s.size()));
  for (std::uint64_t i = 0; i < kLeft; ++i) {
    const std::uint64_t k = kIslands - kLeft + i;
    EXPECT_EQ(s[i].begin, 10 * k + 1);
    EXPECT_EQ(s[i].end, 10 * k + 5);
  }
  // The shrunk set keeps working: a repair below, a new island above.
  s.add(10 * (kIslands - kLeft) + 5, 10 * (kIslands - kLeft) + 11);
  s.add(10 * kIslands + 1, 10 * kIslands + 5);
  ASSERT_EQ(s.size(), kLeft);
  EXPECT_EQ(s[0].begin, 10 * (kIslands - kLeft) + 1);
  EXPECT_EQ(s[0].end, 10 * (kIslands - kLeft + 1) + 5);
  EXPECT_EQ(s[kLeft - 1].begin, 10 * kIslands + 1);
}

// Differential test against a byte-set model: every byte the set holds is
// one flag over a window of kSpace bytes, and the expected blocks are the
// maximal runs of set flags. A seeded mix adds ranges near both ends of
// the live span and wide ranges that merge many blocks, and drains from a
// cursor that advances through the window, so the free prefix fills and
// empties (both sides of every shift are exercised) and the set compacts.
class IntervalSetDifferential {
 public:
  static constexpr std::uint64_t kSpace = 1 << 12;

  explicit IntervalSetDifferential(std::uint64_t seed) : rng_(seed), bytes_(kSpace, false) {}

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      step();
      check();
    }
  }

  std::size_t max_blocks() const { return max_blocks_; }
  std::size_t drains() const { return drains_; }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  // The model's maximal runs, in order.
  std::vector<IntervalSet::Block> runs() const {
    std::vector<IntervalSet::Block> out;
    for (std::uint64_t b = 0; b < kSpace; ++b) {
      if (!bytes_[b]) continue;
      std::uint64_t e = b;
      while (e < kSpace && bytes_[e]) ++e;
      out.push_back({b, e});
      b = e;
    }
    return out;
  }

  void check() {
    const std::vector<IntervalSet::Block> want = runs();
    ASSERT_EQ(set_.size(), want.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(set_[i].begin, want[i].begin) << "block " << i;
      ASSERT_EQ(set_[i].end, want[i].end) << "block " << i;
      total += want[i].end - want[i].begin;
    }
    EXPECT_EQ(set_.total_bytes(), total);
    EXPECT_EQ(set_.empty(), want.empty());
    const std::uint64_t probe = pick(kSpace + 1);
    std::size_t lb = 0;
    while (lb < want.size() && want[lb].begin < probe) ++lb;
    EXPECT_EQ(set_.lower_bound(probe), lb);
    max_blocks_ = std::max(max_blocks_, want.size());
  }

  // Adds [b, e) to both and checks the merged block add() returns.
  void add(std::uint64_t b, std::uint64_t e) {
    e = std::min(e, kSpace);
    if (b >= e) return;
    const IntervalSet::Block got = set_.add(b, e);
    for (std::uint64_t x = b; x < e; ++x) bytes_[x] = true;
    std::uint64_t mb = b;
    while (mb > 0 && bytes_[mb - 1]) --mb;
    std::uint64_t me = e;
    while (me < kSpace && bytes_[me]) ++me;
    EXPECT_EQ(got.begin, mb);
    EXPECT_EQ(got.end, me);
  }

  void drain(std::uint64_t cursor) {
    std::uint64_t got = cursor;
    set_.drain_into(got);
    // Model: runs starting at or below the cursor fold into it, in order.
    for (const IntervalSet::Block& r : runs()) {
      if (r.begin > cursor) break;
      cursor = std::max(cursor, r.end);
      for (std::uint64_t x = r.begin; x < r.end; ++x) bytes_[x] = false;
    }
    EXPECT_EQ(got, cursor);
    ++drains_;
  }

  void step() {
    // The live span: blocks sit between the cursor and the highest byte.
    const std::vector<IntervalSet::Block> live = runs();
    const std::uint64_t lo = live.empty() ? cursor_ : live.front().begin;
    const std::uint64_t hi = live.empty() ? cursor_ : live.back().end;
    const std::uint64_t len = 1 + pick(6);
    switch (pick(20)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
      case 6:
      case 7:
      case 8:
      case 9: {  // a new island above the top, or one touching it
        const std::uint64_t b = hi + pick(8);
        add(b, b + len);
        break;
      }
      case 10:
      case 11:
      case 12: {  // a repair near the bottom
        const std::uint64_t b = lo + pick(24);
        add(b, b + len);
        break;
      }
      case 13:
      case 14: {  // anywhere in the span
        const std::uint64_t b = lo + pick(hi - lo + 1);
        add(b, b + len);
        break;
      }
      case 15: {  // wide: merges many blocks
        const std::uint64_t b = lo + pick(hi - lo + 1);
        add(b, b + pick((hi - lo) / 4 + 1) + 1);
        break;
      }
      case 16:
      case 17: {  // in-order arrival: the cursor moves up to the lowest hole or into it
        const std::uint64_t to = pick(3) == 0 ? lo : lo + pick(4);
        cursor_ = std::min(kSpace, std::max(cursor_, to));
        drain(cursor_);
        break;
      }
      default:  // a drain that reaches nothing new
        drain(cursor_);
        break;
    }
    // Start over near the window's end, with blocks still live below it.
    if (hi + 64 > kSpace) {
      drain(kSpace);
      cursor_ = 0;
    }
  }

  std::mt19937_64 rng_;
  IntervalSet set_;
  std::vector<bool> bytes_;
  std::uint64_t cursor_ = 0;
  std::size_t max_blocks_ = 0;
  std::size_t drains_ = 0;
};

TEST(IntervalSet, DifferentialAgainstByteSet) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    IntervalSetDifferential d(seed);
    d.run(4'000);
    EXPECT_GT(d.max_blocks(), 40u);
    EXPECT_GT(d.drains(), 500u);
  }
}

}  // namespace
}  // namespace cebinae

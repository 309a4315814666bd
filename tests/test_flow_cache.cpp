#include "core/flow_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_set>
#include <vector>

#include "sim/random.hpp"

namespace cebinae {
namespace {

FlowId flow(std::uint32_t i) { return FlowId{i, i + 1'000'000, 5000, 5000}; }

TEST(FlowCache, CountsSingleFlow) {
  FlowCache cache(2, 64);
  EXPECT_TRUE(cache.add(flow(1), 100));
  EXPECT_TRUE(cache.add(flow(1), 200));
  EXPECT_EQ(cache.bytes_for(flow(1)), std::optional<std::uint64_t>(300));
  EXPECT_EQ(cache.occupied_slots(), 1u);
}

TEST(FlowCache, PollReturnsAndResets) {
  FlowCache cache(2, 64);
  cache.add(flow(1), 100);
  cache.add(flow(2), 50);
  auto entries = cache.poll_and_reset();
  EXPECT_EQ(entries.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.bytes;
  EXPECT_EQ(total, 150u);
  EXPECT_EQ(cache.occupied_slots(), 0u);
  EXPECT_FALSE(cache.bytes_for(flow(1)).has_value());
}

TEST(FlowCache, ExactKeysNeverMisattribute) {
  // The paper's "never make unfairness worse": a flow's counter only ever
  // reflects its own bytes, regardless of collisions.
  FlowCache cache(1, 4);  // tiny: plenty of collisions
  RandomStream rng(1);
  std::map<std::uint32_t, std::uint64_t> truth;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t f = static_cast<std::uint32_t>(rng.uniform_int(1, 50));
    if (cache.add(flow(f), 10)) truth[f] += 10;
  }
  for (const auto& e : cache.poll_and_reset()) {
    EXPECT_EQ(e.bytes, truth[e.flow.src]) << "flow " << e.flow.src;
  }
}

TEST(FlowCache, OverflowGoesUncounted) {
  FlowCache cache(1, 1);  // a single slot
  EXPECT_TRUE(cache.add(flow(1), 10));
  bool second_counted = cache.add(flow(2), 10);
  EXPECT_FALSE(second_counted);
  EXPECT_EQ(cache.uncounted_packets(), 1u);
}

TEST(FlowCache, LaterStagesAbsorbCollisions) {
  // With enough stages every distinct flow finds a slot eventually.
  FlowCache deep(4, 256);
  int counted = 0;
  for (std::uint32_t f = 1; f <= 256; ++f) {
    if (deep.add(flow(f), 1)) ++counted;
  }
  FlowCache shallow(1, 256);
  int counted_shallow = 0;
  for (std::uint32_t f = 1; f <= 256; ++f) {
    if (shallow.add(flow(f), 1)) ++counted_shallow;
  }
  EXPECT_GT(counted, counted_shallow);
  EXPECT_GT(counted, 240);  // 4 stages of 256 slots: almost everything fits
}

TEST(FlowCache, HeavyHitterSurvivesContention) {
  // One elephant among many mice: after poll-and-reset cycles, the elephant
  // must (with overwhelming probability) be counted, and its count must
  // dominate.
  FlowCache cache(2, 128);
  RandomStream rng(7);
  for (int round = 0; round < 10; ++round) {
    for (int pkt = 0; pkt < 5000; ++pkt) {
      // Elephant sends 30% of packets.
      if (pkt % 3 == 0) {
        cache.add(flow(0), kMtuBytes);
      } else {
        cache.add(flow(static_cast<std::uint32_t>(rng.uniform_int(1, 400))), 100);
      }
    }
    auto entries = cache.poll_and_reset();
    std::uint64_t max_bytes = 0;
    FlowId max_flow;
    for (const auto& e : entries) {
      if (e.bytes > max_bytes) {
        max_bytes = e.bytes;
        max_flow = e.flow;
      }
    }
    EXPECT_EQ(max_flow, flow(0)) << "round " << round;
  }
}

TEST(FlowCache, ReclaimAfterResetGivesFreshStart) {
  FlowCache cache(1, 1);
  cache.add(flow(1), 10);
  EXPECT_FALSE(cache.add(flow(2), 10));  // blocked by flow 1
  (void)cache.poll_and_reset();
  EXPECT_TRUE(cache.add(flow(2), 10));  // slot is free again
}

TEST(FlowCache, StagesHashIndependently) {
  // If stages used the same hash, a flow colliding in stage 0 would collide
  // in every stage. Verify that for a tiny 2-stage cache, pairs that share a
  // stage-0 slot usually do not share the stage-1 slot.
  FlowCache cache(2, 64);
  int both_counted = 0;
  int trials = 0;
  for (std::uint32_t a = 0; a < 300; a += 2) {
    FlowCache fresh(2, 64);
    fresh.add(flow(a), 1);
    fresh.add(flow(a + 1), 1);
    auto entries = fresh.poll_and_reset();
    ++trials;
    if (entries.size() == 2) ++both_counted;
  }
  EXPECT_GT(both_counted, trials * 9 / 10);
}

TEST(ClassifyTop, CountAtThresholdIsTopAndJustBelowIsNot) {
  // δf = 0.25 makes the threshold (1 − δf)·c_max = 750 exact in doubles.
  const std::vector<FlowCache::Entry> entries = {
      {flow(1), 1000}, {flow(2), 750}, {flow(3), 749}, {flow(4), 1}};
  const TopFlows top = classify_top(entries, 0.25);
  EXPECT_EQ(top.flows, (std::unordered_set<FlowId, FlowIdHash>{flow(1), flow(2)}));
  EXPECT_EQ(top.bytes, 1750.0);

  const TopFlows none = classify_top({}, 0.25);
  EXPECT_TRUE(none.flows.empty());
  EXPECT_EQ(none.bytes, 0.0);
}

class FlowCacheGeometry : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FlowCacheGeometry, CapacityBound) {
  const auto [stages, slots] = GetParam();
  FlowCache cache(static_cast<std::uint32_t>(stages), static_cast<std::uint32_t>(slots));
  for (std::uint32_t f = 0; f < 10000; ++f) cache.add(flow(f), 1);
  EXPECT_LE(cache.occupied_slots(), static_cast<std::uint64_t>(stages) * slots);
  auto entries = cache.poll_and_reset();
  EXPECT_EQ(entries.size(), std::min<std::size_t>(entries.size(),
                                                  static_cast<std::size_t>(stages) * slots));
}

INSTANTIATE_TEST_SUITE_P(Geometries, FlowCacheGeometry,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(64, 512, 2048)));

}  // namespace
}  // namespace cebinae

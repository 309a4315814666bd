#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

namespace cebinae {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Milliseconds(30), [&] { order.push_back(3); });
  s.schedule(Milliseconds(10), [&] { order.push_back(1); });
  s.schedule(Milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Milliseconds(30));
}

TEST(Scheduler, TiesBreakInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, NowAdvancesDuringExecution) {
  Scheduler s;
  Time seen = Time::zero();
  s.schedule(Seconds(2), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Seconds(2));
}

TEST(Scheduler, ReentrantScheduling) {
  Scheduler s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) s.schedule(Milliseconds(1), tick);
  };
  s.schedule(Milliseconds(1), tick);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), Milliseconds(5));
}

TEST(Scheduler, ZeroDelayRunsAfterCurrentEvent) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Milliseconds(1), [&] {
    order.push_back(1);
    s.schedule(Time::zero(), [&] { order.push_back(2); });
    order.push_back(3);
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventId id = s.schedule(Milliseconds(1), [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelDefaultIdIsNoop) {
  Scheduler s;
  s.cancel(EventId());  // must not crash or affect anything
  bool fired = false;
  s.schedule(Milliseconds(1), [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunUntilStopsAtLimit) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Milliseconds(10), [&] { order.push_back(1); });
  s.schedule(Milliseconds(30), [&] { order.push_back(2); });
  s.run_until(Milliseconds(20));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), Milliseconds(20));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, RunUntilIncludesBoundary) {
  Scheduler s;
  bool fired = false;
  s.schedule(Milliseconds(20), [&] { fired = true; });
  s.run_until(Milliseconds(20));
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunUntilAdvancesClockEvenWhenIdle) {
  Scheduler s;
  s.run_until(Seconds(5));
  EXPECT_EQ(s.now(), Seconds(5));
}

TEST(Scheduler, ExecutedEventCountExcludesCancelled) {
  Scheduler s;
  for (int i = 0; i < 3; ++i) s.schedule(Milliseconds(i + 1), [] {});
  EventId id = s.schedule(Milliseconds(9), [] {});
  s.cancel(id);
  s.run();
  EXPECT_EQ(s.executed_events(), 3u);
}

TEST(Scheduler, PendingEventsReflectsCancellations) {
  Scheduler s;
  EventId a = s.schedule(Milliseconds(1), [] {});
  s.schedule(Milliseconds(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Scheduler, TiesStayFifoAcrossInterleavedCancels) {
  // Regression for the d-ary-heap rework: cancelling events between
  // same-timestamp insertions must not disturb the FIFO order of the
  // survivors — the (when, seq) tie-break has to hold through slot reuse.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(s.schedule(Milliseconds(5), [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 16; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  // Freed slots get reused here; the new events still fire after the
  // surviving originals.
  for (int i = 16; i < 20; ++i) {
    s.schedule(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  std::vector<int> expected;
  for (int i = 0; i < 16; i += 2) expected.push_back(i);
  for (int i = 16; i < 20; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  bool a_fired = false;
  EventId a = s.schedule(Milliseconds(1), [&] { a_fired = true; });
  s.run();
  ASSERT_TRUE(a_fired);
  // `a`'s slot is free now; a later event will reuse it. Cancelling the
  // stale id must not kill the new occupant (generation check).
  bool b_fired = false;
  s.schedule(Milliseconds(1), [&] { b_fired = true; });
  s.cancel(a);
  s.cancel(a);  // double-cancel of a stale id: also a no-op
  s.run();
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(s.executed_events(), 2u);
}

TEST(Scheduler, CancelOwnIdFromInsideCallbackIsNoop) {
  Scheduler s;
  EventId self;
  int fires = 0;
  bool later_fired = false;
  self = s.schedule(Milliseconds(1), [&] {
    ++fires;
    s.cancel(self);  // already firing: must not corrupt the slot table
  });
  s.schedule(Milliseconds(2), [&] { later_fired = true; });
  s.run();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, CancelPendingEventFromInsideCallback) {
  Scheduler s;
  bool victim_fired = false;
  EventId victim = s.schedule(Milliseconds(2), [&] { victim_fired = true; });
  s.schedule(Milliseconds(1), [&] { s.cancel(victim); });
  s.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Scheduler, LargeCaptureStillWorks) {
  // Captures past the inline budget take the heap fallback; behavior (not
  // allocation count) must be identical.
  Scheduler s;
  std::array<std::uint64_t, 16> big{};
  big[15] = 42;
  std::uint64_t seen = 0;
  s.schedule(Milliseconds(1), [big, &seen] { seen = big[15]; });
  s.run();
  EXPECT_EQ(seen, 42u);
}

TEST(Scheduler, ScheduleAtAbsoluteTime) {
  Scheduler s;
  Time seen = Time::zero();
  s.schedule(Milliseconds(5), [&] {
    s.schedule_at(Milliseconds(12), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, Milliseconds(12));
}

TEST(Scheduler, ReservedKeysInterleaveInWhenSeqOrder) {
  // A reserved key fires exactly where an event scheduled at reservation
  // time would have, even when it is scheduled later (from a callback, or
  // after events with later keys).
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Milliseconds(5), [&] { order.push_back(1); });          // (5, 1)
  const std::uint64_t at5 = s.reserve_seq();                             // (5, 2)
  s.schedule_at(Milliseconds(5), [&] { order.push_back(3); });          // (5, 3)
  const std::uint64_t at3 = s.reserve_seq();                             // (3, 4)
  s.schedule_at(Milliseconds(3), [&] { order.push_back(-1); });         // (3, 5)
  s.schedule_at(Milliseconds(1), [&] {
    order.push_back(-3);
    s.schedule_reserved(Milliseconds(5), at5, [&] { order.push_back(2); });
  });
  s.schedule_reserved(Milliseconds(3), at3, [&] { order.push_back(-2); });
  EXPECT_EQ(s.pending_events(), 5u);  // reserving schedules nothing
  s.run();
  EXPECT_EQ(order, (std::vector<int>{-3, -2, -1, 1, 2, 3}));
  EXPECT_EQ(s.executed_events(), 6u);
}

}  // namespace
}  // namespace cebinae

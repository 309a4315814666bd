#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <random>
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
  // A 128-byte capture is too large for std::function's inline storage and
  // takes its heap path; behaviour (not allocation count) must be identical.
  Scheduler s;
  std::array<std::uint64_t, 16> big{};
  big[15] = 42;
  std::uint64_t seen = 0;
  s.schedule(Milliseconds(1), [big, &seen] { seen = big[15]; });
  s.run();
  EXPECT_EQ(seen, 42u);
}

TEST(Scheduler, EveryCaptureIsDestroyedExactlyOnce) {
  // Each event holds one reference to `token`; use_count() counts the
  // captures still alive. Firing and cancel() free a capture at once, and
  // ~Scheduler frees the ones still pending.
  auto token = std::make_shared<int>(0);
  {
    Scheduler s;
    s.schedule(Milliseconds(1), [token] { ++*token; });
    const EventId cancelled = s.schedule(Milliseconds(2), [token] { ++*token; });
    s.schedule(Milliseconds(3), [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 4);

    s.cancel(cancelled);
    EXPECT_EQ(token.use_count(), 3);
    s.run_until(Milliseconds(2));
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(s.pending_events(), 1u);
  }
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
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

// Differential test: a seeded random mix of every scheduler operation,
// checked against a reference model that keeps the pending events in a
// sorted map keyed by (when, seq). The model mirrors the scheduler's
// sequence counter (schedule and reserve_seq consume a number, cancel does
// not), so it predicts the exact firing order; pending_events() must equal
// the model's size after every operation, also inside callbacks.
class SchedulerDifferential {
 public:
  explicit SchedulerDifferential(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      step();
      check_pending();
      max_pending_ = std::max(max_pending_, s_.pending_events());
    }
    s_.run();
    check_pending();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(fired_, want_);
    EXPECT_EQ(s_.executed_events(), fired_.size());
  }

  std::size_t fired() const { return fired_.size(); }
  std::size_t max_pending() const { return max_pending_; }

 private:
  struct Key {
    std::int64_t when;
    std::uint64_t seq;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Live {
    Key key;
    EventId id;
  };

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
  // Half the delays are short, so many events share a timestamp; the rest
  // spread out far enough that the heap grows several levels deep.
  Time delay() { return Microseconds(static_cast<std::int64_t>(pick(2) == 0 ? pick(8) : pick(2048))); }

  void check_pending() { ASSERT_EQ(s_.pending_events(), model_.size()); }

  // Schedules through one of the three entry points and records the event.
  void add(int how) {
    const int token = next_token_++;
    auto cb = [this, token] { fire(token); };
    Key key{};
    EventId id;
    if (how == 2 && !reserved_.empty()) {
      const std::size_t r = pick(reserved_.size());
      key = Key{(s_.now() + delay()).ns(), reserved_[r]};
      reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(r));
      id = s_.schedule_reserved(Nanoseconds(key.when), key.seq, cb);
    } else if (how == 1) {
      key = Key{(s_.now() + delay()).ns(), next_seq_++};
      id = s_.schedule_at(Nanoseconds(key.when), cb);
    } else {
      const Time d = delay();
      key = Key{(s_.now() + d).ns(), next_seq_++};
      id = s_.schedule(d, cb);
    }
    track(key, token, id);
  }

  void track(const Key& key, int token, EventId id) {
    model_.emplace(key, token);
    live_.emplace(token, Live{key, id});
    newest_ = token;
  }

  void cancel_live(int token) {
    const auto it = live_.find(token);
    const EventId id = it->second.id;
    s_.cancel(id);
    model_.erase(it->second.key);
    live_.erase(it);
    dead_.push_back(id);
  }

  int random_live() {
    return std::next(model_.begin(), static_cast<std::ptrdiff_t>(pick(model_.size())))->second;
  }

  void step() {
    // Grow the heap to a few hundred entries, then let run_until drain it.
    const std::uint64_t op = pick(model_.size() > 300 ? 30 : 21);
    switch (op) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
      case 6:
      case 7:
      case 8:
      case 9:
        add(static_cast<int>(op % 3));
        break;
      case 10:
        reserved_.push_back(s_.reserve_seq());
        ++next_seq_;
        break;
      case 11:  // the root
        if (!model_.empty()) cancel_live(model_.begin()->second);
        break;
      case 12:  // a middle entry
        if (!model_.empty()) cancel_live(random_live());
        break;
      case 13: {  // the last heap entry: a fresh event later than all others
        const std::int64_t last = model_.empty() ? s_.now().ns() : model_.rbegin()->first.when;
        const int token = next_token_++;
        const Key key{last + 1, next_seq_++};
        track(key, token, s_.schedule_at(Nanoseconds(key.when), [this, token] { fire(token); }));
        cancel_live(token);
        break;
      }
      case 14:  // the most recently scheduled event, if still pending
        if (live_.contains(newest_)) cancel_live(newest_);
        break;
      case 15:  // stale: fired or already cancelled
        if (!dead_.empty()) s_.cancel(dead_[pick(dead_.size())]);
        break;
      case 16:  // double
        if (!model_.empty()) {
          const int token = random_live();
          const EventId id = live_.at(token).id;
          cancel_live(token);
          s_.cancel(id);
        }
        break;
      case 17:
        s_.cancel(EventId{});
        break;
      default:
        s_.run_until(s_.now() + Microseconds(static_cast<std::int64_t>(pick(16))));
        break;
    }
  }

  void fire(int token) {
    // The scheduler must fire the model's earliest event, at its time.
    want_.push_back(model_.empty() ? -1 : model_.begin()->second);
    fired_.push_back(token);
    const auto it = live_.find(token);
    if (it == live_.end()) {
      ADD_FAILURE() << "cancelled event " << token << " fired";
      return;
    }
    EXPECT_EQ(s_.now().ns(), it->second.key.when);
    model_.erase(it->second.key);
    const EventId self = it->second.id;
    live_.erase(it);
    dead_.push_back(self);
    switch (pick(6)) {
      case 0:
        s_.cancel(self);
        break;
      case 1:
        if (!model_.empty()) cancel_live(random_live());
        break;
      case 2:
      case 3:
        add(static_cast<int>(pick(3)));
        break;
      default:
        break;
    }
    check_pending();
  }

  Scheduler s_;
  std::mt19937_64 rng_;
  std::uint64_t next_seq_ = 1;  // mirrors the scheduler's counter
  int next_token_ = 0;
  int newest_ = -1;
  std::map<Key, int> model_;  // pending events in firing order -> token
  std::map<int, Live> live_;  // token -> key and id
  std::vector<EventId> dead_;
  std::vector<std::uint64_t> reserved_;
  std::vector<int> fired_;
  std::vector<int> want_;
  std::size_t max_pending_ = 0;
};

TEST(Scheduler, DifferentialAgainstSortedModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerDifferential d(seed);
    d.run(20'000);
    // Enough traffic, and a heap several levels deep.
    EXPECT_GT(d.fired(), 3'000u);
    EXPECT_GT(d.max_pending(), 100u);
  }
}

TEST(Scheduler, CancelRearmChurnKeepsHeapAtLiveCount) {
  // The TCP retransmission-timer pattern: every data event cancels and
  // re-arms one long timer. Cancelled entries leave the heap at once, so
  // the heap (pending_events()) holds exactly the live events through 100k
  // re-arms instead of accumulating them.
  constexpr int kChains = 4;
  constexpr int kCycles = 100'000;
  Scheduler s;
  EventId timer;
  int rearms = 0;
  int chains = kChains;
  bool timer_fired = false;
  std::size_t max_pending = 0;
  std::function<void()> data = [&] {
    s.cancel(timer);
    timer = s.schedule(Milliseconds(200), [&] { timer_fired = true; });
    if (++rearms + chains <= kCycles) {
      s.schedule(Microseconds(1), data);
    } else {
      --chains;  // this chain stops; the others finish the cycles
    }
    max_pending = std::max(max_pending, s.pending_events());
    ASSERT_EQ(s.pending_events(), static_cast<std::size_t>(chains) + 1);
  };
  for (int c = 0; c < kChains; ++c) s.schedule(Microseconds(1), data);
  s.run();
  EXPECT_EQ(rearms, kCycles);
  EXPECT_TRUE(timer_fired);
  EXPECT_EQ(max_pending, static_cast<std::size_t>(kChains) + 1);
  EXPECT_EQ(s.executed_events(), static_cast<std::uint64_t>(kCycles) + 1);
  EXPECT_EQ(s.pending_events(), 0u);
}

}  // namespace
}  // namespace cebinae

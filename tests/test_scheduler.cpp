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
#include <numeric>
#include <optional>
#include <random>
#include <vector>

namespace cebinae {
namespace {

// `n` timers on `s`; timer i appends i to `order` when it fires.
std::vector<std::unique_ptr<Timer>> logging_timers(Scheduler& s, int n, std::vector<int>& order) {
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < n; ++i) {
    timers.push_back(std::make_unique<Timer>(s, [&order, i] { order.push_back(i); }));
  }
  return timers;
}

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  auto t = logging_timers(s, 3, order);
  t[2]->arm_after(Milliseconds(30));
  t[0]->arm_after(Milliseconds(10));
  t[1]->arm_after(Milliseconds(20));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.now(), Milliseconds(30));
}

TEST(Scheduler, TiesBreakInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  auto t = logging_timers(s, 10, order);
  for (auto& timer : t) timer->arm_after(Milliseconds(5));
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, NowAdvancesDuringExecution) {
  Scheduler s;
  Time seen = Time::zero();
  Timer t(s, [&] { seen = s.now(); });
  t.arm_after(Seconds(2));
  s.run();
  EXPECT_EQ(seen, Seconds(2));
}

TEST(Scheduler, ReentrantScheduling) {
  // A timer re-arms itself from its own callback: it is disarmed before the
  // callback runs.
  Scheduler s;
  int count = 0;
  Timer tick(s, [&] {
    EXPECT_FALSE(tick.armed());
    if (++count < 5) tick.arm_after(Milliseconds(1));
  });
  tick.arm_after(Milliseconds(1));
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), Milliseconds(5));
  EXPECT_FALSE(tick.armed());
}

TEST(Scheduler, ZeroDelayRunsAfterCurrentEvent) {
  Scheduler s;
  std::vector<int> order;
  Timer second(s, [&] { order.push_back(2); });
  Timer first(s, [&] {
    order.push_back(1);
    second.arm_after(Time::zero());
    order.push_back(3);
  });
  first.arm_after(Milliseconds(1));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  Timer t(s, [&] { fired = true; });
  t.arm_after(Milliseconds(1));
  EXPECT_TRUE(t.armed());
  t.cancel();
  EXPECT_FALSE(t.armed());
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelUnarmedTimerIsNoop) {
  Scheduler s;
  Timer idle(s, [] {});
  idle.cancel();  // must not crash or affect anything
  bool fired = false;
  Timer t(s, [&] { fired = true; });
  t.arm_after(Milliseconds(1));
  idle.cancel();
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunUntilStopsAtLimit) {
  Scheduler s;
  std::vector<int> order;
  auto t = logging_timers(s, 2, order);
  t[0]->arm_after(Milliseconds(10));
  t[1]->arm_after(Milliseconds(30));
  s.run_until(Milliseconds(20));
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(s.now(), Milliseconds(20));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Scheduler, RunUntilIncludesBoundary) {
  Scheduler s;
  bool fired = false;
  Timer t(s, [&] { fired = true; });
  t.arm_after(Milliseconds(20));
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
  std::vector<int> order;
  auto t = logging_timers(s, 4, order);
  for (int i = 0; i < 3; ++i) t[static_cast<std::size_t>(i)]->arm_after(Milliseconds(i + 1));
  t[3]->arm_after(Milliseconds(9));
  t[3]->cancel();
  s.run();
  EXPECT_EQ(s.executed_events(), 3u);
}

TEST(Scheduler, PendingEventsReflectsCancellations) {
  Scheduler s;
  Timer a(s, [] {});
  Timer b(s, [] {});
  a.arm_after(Milliseconds(1));
  b.arm_after(Milliseconds(2));
  EXPECT_EQ(s.pending_events(), 2u);
  a.cancel();
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Scheduler, TiesStayFifoAcrossInterleavedCancels) {
  // Regression for the d-ary-heap rework: cancelling timers between
  // same-timestamp armings must not disturb the FIFO order of the
  // survivors. A cancelled timer re-armed at the same time takes a new
  // sequence number, so it fires after every surviving original.
  Scheduler s;
  std::vector<int> order;
  auto t = logging_timers(s, 16, order);
  for (auto& timer : t) timer->arm_after(Milliseconds(5));
  for (int i = 1; i < 16; i += 2) t[static_cast<std::size_t>(i)]->cancel();
  for (int i = 7; i >= 1; i -= 2) t[static_cast<std::size_t>(i)]->arm_after(Milliseconds(5));
  s.run();
  std::vector<int> expected;
  for (int i = 0; i < 16; i += 2) expected.push_back(i);
  for (int i = 7; i >= 1; i -= 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  bool a_fired = false;
  bool b_fired = false;
  Timer a(s, [&] { a_fired = true; });
  Timer b(s, [&] { b_fired = true; });
  a.arm_after(Milliseconds(1));
  s.run();
  ASSERT_TRUE(a_fired);
  EXPECT_FALSE(a.armed());
  // `a` already fired: cancelling it, twice, must not touch `b`'s entry.
  b.arm_after(Milliseconds(1));
  a.cancel();
  a.cancel();
  s.run();
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(s.executed_events(), 2u);
}

TEST(Scheduler, CancelOwnTimerFromInsideCallbackIsNoop) {
  Scheduler s;
  int fires = 0;
  bool later_fired = false;
  Timer self(s, [&] {
    ++fires;
    self.cancel();  // already firing: must not corrupt the heap
  });
  Timer later(s, [&] { later_fired = true; });
  self.arm_after(Milliseconds(1));
  later.arm_after(Milliseconds(2));
  s.run();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, RearmThenCancelFromOwnCallback) {
  // The last word from inside the callback wins: re-armed and then
  // cancelled, the timer does not fire again.
  Scheduler s;
  int fires = 0;
  Timer t(s, [&] {
    ++fires;
    t.arm_after(Milliseconds(1));
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(s.pending_events(), 1u);
    t.cancel();
  });
  t.arm_after(Milliseconds(1));
  s.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, CancelPendingEventFromInsideCallback) {
  Scheduler s;
  bool victim_fired = false;
  Timer victim(s, [&] { victim_fired = true; });
  Timer killer(s, [&] { victim.cancel(); });
  victim.arm_after(Milliseconds(2));
  killer.arm_after(Milliseconds(1));
  s.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Scheduler, DestroyingAnArmedTimerCancelsIt) {
  Scheduler s;
  std::vector<int> order;
  auto t = logging_timers(s, 3, order);
  for (int i = 0; i < 3; ++i) t[static_cast<std::size_t>(i)]->arm_after(Milliseconds(i + 1));
  t[0].reset();  // the heap root
  t[2].reset();  // the last entry
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(Scheduler, DestroyingTheSchedulerDisarmsItsTimers) {
  // Either may go first: a timer destroyed after its scheduler must not
  // reach back into it.
  bool fired = false;
  auto s = std::make_unique<Scheduler>();
  Timer t(*s, [&] { fired = true; });
  t.arm_after(Milliseconds(1));
  s.reset();
  EXPECT_FALSE(t.armed());
  EXPECT_FALSE(fired);
}

TEST(Scheduler, ArmingAnArmedTimerAsserts) {
  Scheduler s;
  Timer t(s, [] {});
  t.arm_after(Milliseconds(1));
  EXPECT_DEATH_IF_SUPPORTED(t.arm_after(Milliseconds(2)), "already armed");
}

TEST(Scheduler, LargeCaptureStillWorks) {
  // A 128-byte capture is too large for std::function's inline storage and
  // takes its heap path, once, when the timer is built; every firing reads
  // the same bound copy.
  Scheduler s;
  std::array<std::uint64_t, 16> big{};
  big[15] = 42;
  std::uint64_t seen = 0;
  int fires = 0;
  Timer t(s, [big, &seen, &fires] {
    seen += big[15];
    ++fires;
  });
  for (int i = 0; i < 3; ++i) {
    t.arm_after(Milliseconds(1));
    s.run();
  }
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(seen, 126u);
}

TEST(Scheduler, EveryCaptureIsDestroyedExactlyOnce) {
  // Each timer holds one reference to `token`; use_count() counts the
  // bound callbacks still alive. A callback is bound once: arming, firing
  // and cancel() neither copy nor free it. Destroying the timer frees it,
  // armed or not, and ~Scheduler frees none.
  auto token = std::make_shared<int>(0);
  {
    Scheduler s;
    auto a = std::make_unique<Timer>(s, [token] { ++*token; });
    auto b = std::make_unique<Timer>(s, [token] { ++*token; });
    auto c = std::make_unique<Timer>(s, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 4);
    a->arm_after(Milliseconds(1));
    b->arm_after(Milliseconds(2));
    c->arm_after(Milliseconds(3));
    EXPECT_EQ(token.use_count(), 4);

    b->cancel();
    EXPECT_EQ(token.use_count(), 4);
    s.run_until(Milliseconds(2));
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_EQ(s.pending_events(), 1u);

    a->arm_after(Milliseconds(1));
    s.run_until(Milliseconds(3));  // a fires again, then c
    EXPECT_EQ(*token, 3);
    EXPECT_EQ(token.use_count(), 4);

    c->arm_after(Milliseconds(5));
    c.reset();  // armed: its entry leaves the heap, its capture dies
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_EQ(s.pending_events(), 0u);
    a.reset();
    b.reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(*token, 3);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, EventDigestFoldsEveryExecutedKeyInOrder) {
  // The digest is a function of the executed (when, seq) sequence only:
  // the same keys give the same digest, a cancelled event leaves no trace,
  // and moving one event changes it.
  auto digest = [](Time moved, bool cancel_extra) {
    Scheduler s;
    Timer a(s, [] {});
    Timer b(s, [] {});
    Timer extra(s, [] {});
    a.arm_after(Milliseconds(1));
    b.arm_after(moved);
    extra.arm_after(Milliseconds(3));
    if (cancel_extra) extra.cancel();
    s.run();
    return s.event_digest();
  };
  const std::uint64_t base = digest(Milliseconds(2), false);
  EXPECT_EQ(base, digest(Milliseconds(2), false));
  EXPECT_NE(base, digest(Milliseconds(4), false));
  EXPECT_NE(base, digest(Milliseconds(2), true));
  EXPECT_NE(base, Scheduler().event_digest());
}

TEST(Scheduler, ScheduleAtAbsoluteTime) {
  Scheduler s;
  Time seen = Time::zero();
  Timer at(s, [&] { seen = s.now(); });
  Timer first(s, [&] { at.arm_at(Milliseconds(12)); });
  first.arm_after(Milliseconds(5));
  s.run();
  EXPECT_EQ(seen, Milliseconds(12));
}

TEST(Scheduler, ReservedKeysInterleaveInWhenSeqOrder) {
  // A reserved key fires exactly where a timer armed at reservation time
  // would have, even when it is armed later (from a callback, or after
  // timers with later keys).
  Scheduler s;
  std::vector<int> order;
  Timer t1(s, [&] { order.push_back(1); });
  Timer t2(s, [&] { order.push_back(2); });
  Timer t3(s, [&] { order.push_back(3); });
  Timer m1(s, [&] { order.push_back(-1); });
  Timer m2(s, [&] { order.push_back(-2); });
  std::uint64_t at5 = 0;
  Timer m3(s, [&] {
    order.push_back(-3);
    t2.arm_reserved(Milliseconds(5), at5);
  });
  t1.arm_at(Milliseconds(5));                   // (5, 1)
  at5 = s.reserve_seq();                        // (5, 2)
  t3.arm_at(Milliseconds(5));                   // (5, 3)
  const std::uint64_t at3 = s.reserve_seq();    // (3, 4)
  m1.arm_at(Milliseconds(3));                   // (3, 5)
  m3.arm_at(Milliseconds(1));                   // (1, 6)
  m2.arm_reserved(Milliseconds(3), at3);
  EXPECT_EQ(s.pending_events(), 5u);  // reserving arms nothing
  s.run();
  EXPECT_EQ(order, (std::vector<int>{-3, -2, -1, 1, 2, 3}));
  EXPECT_EQ(s.executed_events(), 6u);
}

// The scheduler's wheel shape (sim/scheduler.hpp): a timer goes into the
// wheel when its 1024-ns bucket is one of the 4096 that start at now()'s,
// and into the far heap otherwise.
constexpr std::int64_t kBucketNs = 1024;
constexpr std::int64_t kWheelBuckets = 4096;
constexpr std::int64_t kWheelSpanNs = kBucketNs * kWheelBuckets;

bool goes_to_wheel(Time now, Time when) {
  return when.ns() / kBucketNs - now.ns() / kBucketNs < kWheelBuckets;
}

// Differential test: a seeded random mix of every timer operation, checked
// against a reference model that keeps the armed timers in a sorted map
// keyed by (when, seq). The model mirrors the scheduler's sequence counter
// (arm_after, arm_at and reserve_seq consume a number; arm_reserved and
// cancel do not), so it predicts the exact firing order; pending_events()
// must equal the model's size after every operation, also inside callbacks.
// Delays cover both tiers and the edges between them: the last bucket the
// wheel takes and the first it does not, the wheel's wrap from bucket 4095
// to 0, far timers that come due among near ones and keys that share an
// instant across the tiers.
class SchedulerDifferential {
 public:
  explicit SchedulerDifferential(std::uint64_t seed) : rng_(seed) {}

  // Destroys the scheduler after `ops` operations, with timers still armed
  // in both tiers: it disarms them, fires none, and the timers, destroyed
  // later, do not reach back into it.
  void abandon(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      step();
      check_pending();
    }
    bool near = false;
    bool far = false;
    for (const auto& [key, i] : model_) (far_[i] ? far : near) = true;
    EXPECT_TRUE(near && far) << "want timers in both tiers";
    const std::size_t fired = fired_.size();
    owner_.reset();
    for (const auto& t : timers_) EXPECT_FALSE(t->armed());
    EXPECT_EQ(fired_.size(), fired);
    EXPECT_EQ(fired_, want_);
  }

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
  std::size_t far_fired() const { return far_fired_; }
  std::size_t same_instant_across_tiers() const { return same_instant_across_tiers_; }

 private:
  struct Key {
    std::int64_t when;
    std::uint64_t seq;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
  std::int64_t pick_ns(std::int64_t n) {
    return static_cast<std::int64_t>(pick(static_cast<std::uint64_t>(n)));
  }

  // Four in ten delays are short, so many timers share a timestamp, and
  // four in ten spread over half the wheel. One in ten lands on an edge of
  // the wheel, and one in ten goes to the far heap, due within three spans
  // so that it comes due among near timers.
  Time delay() {
    const std::int64_t now = s_.now().ns();
    const std::int64_t bucket = now / kBucketNs;
    switch (pick(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
        return Microseconds(pick_ns(8));
      case 4:
      case 5:
      case 6:
      case 7:
        return Microseconds(pick_ns(2048));
      case 8: {
        // The first instant past the wheel's last bucket, or 1 ns before
        // it; a span after now(), or 1 ns less; the next wrap of the
        // bucket index from 4095 to 0, or 1 ns before it.
        const std::int64_t past_last = (bucket + kWheelBuckets) * kBucketNs;
        const std::int64_t wrap = (bucket / kWheelBuckets + 1) * kWheelSpanNs;
        const std::array<std::int64_t, 3> edges{past_last, now + kWheelSpanNs, wrap};
        return Nanoseconds(edges[pick(edges.size())] - now - pick_ns(2));
      }
      default:
        return Nanoseconds(kWheelSpanNs + pick_ns(3 * kWheelSpanNs));
    }
  }

  void check_pending() { ASSERT_EQ(s_.pending_events(), model_.size()); }

  // Timer i's callback; bound once, for the timer's whole life.
  std::unique_ptr<Timer> make_timer(std::size_t i) {
    return std::make_unique<Timer>(s_, [this, i] { fire(i); });
  }

  // An unarmed timer: an idle one, or a new one while the pool is small.
  std::size_t idle_timer() {
    if (idle_.empty() || (timers_.size() < 600 && pick(4) == 0)) {
      timers_.push_back(make_timer(timers_.size()));
      keys_.emplace_back();
      far_.push_back(false);
      return timers_.size() - 1;
    }
    const std::size_t k = pick(idle_.size());
    const std::size_t i = idle_[k];
    idle_[k] = idle_.back();
    idle_.pop_back();
    return i;
  }

  // Arms timer `i` through one of the three entry points.
  void arm(std::size_t i, int how) {
    Timer& t = *timers_[i];
    EXPECT_FALSE(t.armed());
    Key key{};
    if (how == 2 && !reserved_.empty()) {
      const std::size_t r = pick(reserved_.size());
      key = Key{(s_.now() + delay()).ns(), reserved_[r]};
      reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(r));
      t.arm_reserved(Nanoseconds(key.when), key.seq);
    } else if (how == 1) {
      key = Key{(s_.now() + delay()).ns(), next_seq_++};
      t.arm_at(Nanoseconds(key.when));
    } else {
      const Time d = delay();
      key = Key{(s_.now() + d).ns(), next_seq_++};
      t.arm_after(d);
    }
    track(i, key);
  }

  void track(std::size_t i, const Key& key) {
    const auto [at, inserted] = model_.emplace(key, i);
    EXPECT_TRUE(inserted);
    keys_[i] = key;
    far_[i] = !goes_to_wheel(s_.now(), Nanoseconds(key.when));
    // An armed timer in the other tier with the same instant: the order
    // between the tiers is decided by seq alone.
    for (auto it = std::next(at); it != model_.end() && it->first.when == key.when; ++it) {
      if (far_[it->second] != far_[i]) ++same_instant_across_tiers_;
    }
    for (auto it = at; it != model_.begin() && std::prev(it)->first.when == key.when;) {
      --it;
      if (far_[it->second] != far_[i]) ++same_instant_across_tiers_;
    }
    newest_ = i;
  }

  // Forgets timer i's pending key; it is idle again.
  void untrack(std::size_t i) {
    model_.erase(*keys_[i]);
    keys_[i].reset();
    idle_.push_back(i);
  }

  void cancel_live(std::size_t i) {
    timers_[i]->cancel();
    EXPECT_FALSE(timers_[i]->armed());
    untrack(i);
  }

  // Destroys armed timer i; a fresh one takes its place.
  void destroy_live(std::size_t i) {
    timers_[i] = make_timer(i);
    untrack(i);
  }

  // Arms an idle timer at the instant of a random armed one, through
  // arm_at (a later seq) or arm_reserved (maybe an earlier one). Once
  // now() has moved on, the new key goes to the wheel while the old one
  // may still be in the far heap.
  void arm_same_instant() {
    if (model_.empty()) return;
    const std::int64_t when = keys_[random_live()]->when;
    const std::size_t i = idle_timer();
    Key key{when, 0};
    if (!reserved_.empty() && pick(2) == 0) {
      const std::size_t r = pick(reserved_.size());
      key.seq = reserved_[r];
      reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(r));
      timers_[i]->arm_reserved(Nanoseconds(when), key.seq);
    } else {
      key.seq = next_seq_++;
      timers_[i]->arm_at(Nanoseconds(when));
    }
    track(i, key);
  }

  std::size_t random_live() {
    return std::next(model_.begin(), static_cast<std::ptrdiff_t>(pick(model_.size())))->second;
  }

  void step() {
    // Grow the queue to a few hundred timers, then let run_until drain it.
    const std::uint64_t op = pick(model_.size() > 300 ? 32 : 23);
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
        arm(idle_timer(), static_cast<int>(op % 3));
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
      case 13: {  // the last heap entry: a timer later than all others
        const std::int64_t last = model_.empty() ? s_.now().ns() : model_.rbegin()->first.when;
        const std::size_t i = idle_timer();
        const Key key{last + 1, next_seq_++};
        timers_[i]->arm_at(Nanoseconds(key.when));
        track(i, key);
        cancel_live(i);
        break;
      }
      case 14:  // the most recently armed timer, if still armed
        if (newest_ < keys_.size() && keys_[newest_]) cancel_live(newest_);
        break;
      case 15:  // an idle timer: fired or already cancelled
        if (!idle_.empty()) timers_[idle_[pick(idle_.size())]]->cancel();
        break;
      case 16:  // double
        if (!model_.empty()) {
          const std::size_t i = random_live();
          cancel_live(i);
          timers_[i]->cancel();
        }
        break;
      case 17:  // destroy an armed timer
        if (!model_.empty()) destroy_live(random_live());
        break;
      case 18:
        arm_same_instant();
        break;
      case 19:
        // Jump several spans: every timer due by then fires, and the
        // scheduler idles across the rest, wheel revolutions included.
        if (pick(32) == 0) {
          const std::int64_t spans = 2 + pick_ns(3);
          s_.run_until(s_.now() + Nanoseconds(kWheelSpanNs * spans + pick_ns(kWheelSpanNs)));
        }
        break;
      default:
        s_.run_until(s_.now() + Microseconds(static_cast<std::int64_t>(pick(16))));
        break;
    }
  }

  void fire(std::size_t i) {
    // The scheduler must fire the model's earliest timer, at its time.
    want_.push_back(model_.empty() ? keys_.size() : model_.begin()->second);
    fired_.push_back(i);
    if (!keys_[i]) {
      ADD_FAILURE() << "unarmed timer " << i << " fired";
      return;
    }
    EXPECT_FALSE(timers_[i]->armed());
    EXPECT_EQ(s_.now().ns(), keys_[i]->when);
    if (far_[i]) ++far_fired_;
    untrack(i);
    switch (pick(9)) {
      case 0:
        timers_[i]->cancel();
        break;
      case 1:
        if (!model_.empty()) cancel_live(random_live());
        break;
      case 2:  // re-arm itself
        idle_.erase(std::find(idle_.begin(), idle_.end(), i));
        arm(i, static_cast<int>(pick(3)));
        break;
      case 3:
      case 4:
        arm(idle_timer(), static_cast<int>(pick(3)));
        break;
      case 5:  // destroy another armed timer
        if (!model_.empty()) destroy_live(random_live());
        break;
      case 6:
        arm_same_instant();
        break;
      default:
        break;
    }
    check_pending();
  }

  // Destroyed by abandon(); the timers outlive it.
  std::unique_ptr<Scheduler> owner_ = std::make_unique<Scheduler>();
  Scheduler& s_ = *owner_;
  std::mt19937_64 rng_;
  std::uint64_t next_seq_ = 1;  // mirrors the scheduler's counter
  std::vector<std::unique_ptr<Timer>> timers_;
  std::vector<std::optional<Key>> keys_;  // timer -> its pending key
  std::vector<bool> far_;                 // timer -> armed into the far heap
  std::vector<std::size_t> idle_;         // unarmed timers
  std::size_t newest_ = 0;
  std::map<Key, std::size_t> model_;  // armed timers in firing order
  std::vector<std::uint64_t> reserved_;
  std::vector<std::size_t> fired_;
  std::vector<std::size_t> want_;
  std::size_t max_pending_ = 0;
  std::size_t far_fired_ = 0;
  std::size_t same_instant_across_tiers_ = 0;
};

TEST(Scheduler, DifferentialAgainstSortedModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerDifferential d(seed);
    d.run(20'000);
    // Enough traffic, a queue over a hundred deep, far timers that fire
    // and instants shared across the tiers.
    EXPECT_GT(d.fired(), 3'000u);
    EXPECT_GT(d.max_pending(), 100u);
    EXPECT_GT(d.far_fired(), 100u);
    EXPECT_GT(d.same_instant_across_tiers(), 10u);
  }
  for (std::uint64_t seed = 9; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerDifferential(seed).abandon(5'000);
  }
}

TEST(Scheduler, SameInstantBurstFiresInSeqOrder) {
  // 1000 timers at one instant fire in the order they were armed: the first
  // 500 while the instant is beyond the wheel (far heap), the rest once it
  // is near (wheel), in shuffled timer order each time.
  constexpr int kTimers = 1000;
  Scheduler s;
  std::vector<int> order;
  auto t = logging_timers(s, kTimers, order);
  std::vector<int> arm_order(kTimers);
  std::iota(arm_order.begin(), arm_order.end(), 0);
  std::shuffle(arm_order.begin(), arm_order.end(), std::mt19937_64(7));
  const Time instant = Milliseconds(10);
  auto arm = [&](std::size_t k) { t[static_cast<std::size_t>(arm_order[k])]->arm_at(instant); };
  for (std::size_t k = 0; k < kTimers / 2; ++k) arm(k);
  s.run_until(instant - Microseconds(1));
  for (std::size_t k = kTimers / 2; k < kTimers; ++k) arm(k);
  EXPECT_EQ(s.pending_events(), static_cast<std::size_t>(kTimers));
  s.run();
  EXPECT_EQ(order, arm_order);
  EXPECT_EQ(s.now(), instant);
}

TEST(Scheduler, CancelRearmChurnKeepsHeapAtLiveCount) {
  // The TCP retransmission-timer pattern: every data event cancels and
  // re-arms one long timer. The cancelled entry leaves the heap at once, so
  // the heap (pending_events()) holds exactly the armed timers through 100k
  // re-arms instead of accumulating them.
  constexpr int kChains = 4;
  constexpr int kCycles = 100'000;
  Scheduler s;
  int rearms = 0;
  int chains = kChains;
  bool timer_fired = false;
  std::size_t max_pending = 0;
  Timer rto(s, [&] { timer_fired = true; });
  std::vector<std::unique_ptr<Timer>> data;
  for (int c = 0; c < kChains; ++c) {
    data.push_back(std::make_unique<Timer>(s, [&, c] {
      rto.cancel();
      rto.arm_after(Milliseconds(200));
      if (++rearms + chains <= kCycles) {
        data[static_cast<std::size_t>(c)]->arm_after(Microseconds(1));
      } else {
        --chains;  // this chain stops; the others finish the cycles
      }
      max_pending = std::max(max_pending, s.pending_events());
      ASSERT_EQ(s.pending_events(), static_cast<std::size_t>(chains) + 1);
    }));
  }
  for (auto& d : data) d->arm_after(Microseconds(1));
  s.run();
  EXPECT_EQ(rearms, kCycles);
  EXPECT_TRUE(timer_fired);
  EXPECT_EQ(max_pending, static_cast<std::size_t>(kChains) + 1);
  EXPECT_EQ(s.executed_events(), static_cast<std::uint64_t>(kCycles) + 1);
  EXPECT_EQ(s.pending_events(), 0u);
}

}  // namespace
}  // namespace cebinae

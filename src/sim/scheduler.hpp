// Deterministic discrete-event scheduler.
//
// Events at the same timestamp fire in insertion order (FIFO tie-break via a
// monotonically increasing sequence number), which makes every simulation
// exactly reproducible for a given seed and schedule. The `--jobs=N` merge
// determinism of the experiment harness depends on this promise.
//
// The unit of scheduling is a Timer that its owner keeps: a device's tx-done
// and arrival, a TCP sender's start, pacing and RTO, a periodic generator.
// Each fires the same callback every time, so the timer binds it once, at
// construction, and arming only files its key (DESIGN.md §11):
//   - Almost every timer is armed a few microseconds ahead. A timer due in
//     one of the 4096 buckets of 1024 ns that start at now()'s goes into a
//     timer wheel: a list, sorted by (when, seq), that runs through the
//     timers of its bucket. An occupancy bitmap finds the first non-empty
//     bucket with two ctz. Arming appends to the bucket or becomes its head
//     in O(1) unless the key falls between the two, and then walks back
//     from the tail; cancelling and popping unlink in O(1).
//   - Later timers (RTOs) go into a 4-ary heap of 24-byte POD entries
//     (when, seq, timer), and stay there until they fire or are cancelled.
//     A pop fires the wheel's first timer unless the heap's root is earlier.
//   - A timer records where it is (heap index, or wheel bucket), so cancel()
//     removes it at once: no tombstones, and the two tiers hold exactly the
//     armed timers.
//   - Firing disarms the timer and calls its callback in place. Nothing is
//     created, moved or destroyed per event, so arming a timer allocates
//     nothing once the heap has reached its high-water mark and the wheel's
//     bucket array exists (tests/test_alloc_budget.cpp checks this).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace cebinae {

class Scheduler;

// A persistent event source bound to one callback. Armed, it holds one
// place in its scheduler's queue; it fires at most once per arming, and
// may be re-armed or cancelled from anywhere, its own callback included.
// A timer is neither copied nor moved (the queue points at it), and
// destroying an armed timer cancels it. The callback must not destroy its
// own timer.
class Timer {
 public:
  using Callback = std::function<void()>;

  Timer(Scheduler& sched, Callback cb) : sched_(sched), cb_(std::move(cb)) {}
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Fire `delay` after now(); `delay` must be non-negative. A zero delay
  // fires after every event already scheduled at the current time. Each
  // arm_after/arm_at consumes the scheduler's next sequence number. The
  // timer must not be armed already.
  void arm_after(Time delay);
  // Fire at an absolute time >= now().
  void arm_at(Time when);
  // Fire at (when, seq), where `seq` came from Scheduler::reserve_seq() and
  // has not been used yet, and `when` >= now(). Consumes no number.
  void arm_reserved(Time when, std::uint64_t seq);
  // Remove the pending firing; a no-op on an unarmed timer. Consumes no
  // sequence number.
  void cancel();

  [[nodiscard]] bool armed() const { return pos_ != kUnarmed; }

 private:
  friend class Scheduler;
  static constexpr std::uint32_t kUnarmed = std::numeric_limits<std::uint32_t>::max();

  // pos_ of a timer in the wheel: this bit, or'ed with its bucket.
  static constexpr std::uint32_t kInWheel = std::uint32_t{1} << 31;

  Scheduler& sched_;
  Callback cb_;
  // The key of the pending firing, while armed.
  Time when_;
  std::uint64_t seq_ = 0;
  // Links of its wheel bucket's list, in (when, seq) order: next_ ends in
  // nullptr at the tail, and the head's prev_ points at the tail.
  Timer* prev_ = nullptr;
  Timer* next_ = nullptr;
  // kUnarmed, the index of its entry in the heap, or kInWheel | bucket.
  std::uint32_t pos_ = kUnarmed;
};

class Scheduler {
 public:
  Scheduler() = default;
  // Timers still armed are disarmed, without firing.
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  // Consume the next sequence number without arming anything. A timer later
  // armed under that number with Timer::arm_reserved() takes exactly the
  // place in the (when, seq) order it would have had if it had been armed at
  // reservation time. Devices use this to keep in-flight frames in a delay
  // line with one armed timer per link (net/device.hpp).
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  // Run until no timer is armed.
  void run();

  // Run events with timestamp <= `until`; afterwards now() == until.
  void run_until(Time until);

  [[nodiscard]] std::size_t pending_events() const { return heap_.size() + wheel_size_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  // Running hash of the (when, seq) key of every executed event, in order:
  // equal digests mean the same executed event sequence.
  [[nodiscard]] std::uint64_t event_digest() const { return digest_; }

 private:
  friend class Timer;

  // Wheel shape (DESIGN.md §11 has the measurements): bucket b holds the
  // timers with (when >> kWheelShift) % kWheelBuckets == b, and the wheel
  // takes a timer only if its bucket is one of the kWheelBuckets that start
  // at now()'s, so each bucket holds one 1024-ns range at a time and the
  // buckets in circular order from now()'s are in time order.
  static constexpr int kWheelShift = 10;
  static constexpr std::size_t kWheelBuckets = 4096;
  static constexpr std::size_t kWords = kWheelBuckets / 64;
  static_assert(kWords == 64, "the summary word has one bit per occupancy word");

  // 4-ary heap entry ordered by (when, seq).
  struct Entry {
    Time when;
    std::uint64_t seq;
    Timer* timer;
  };

  [[nodiscard]] static bool earlier(Time a_when, std::uint64_t a_seq, Time b_when,
                                    std::uint64_t b_seq) {
    return a_when != b_when ? a_when < b_when : a_seq < b_seq;
  }
  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    return earlier(a.when, a.seq, b.when, b.seq);
  }
  [[nodiscard]] static bool earlier(const Timer& a, const Timer& b) {
    return earlier(a.when_, a.seq_, b.when_, b.seq_);
  }
  [[nodiscard]] static std::int64_t wheel_slot(Time when) { return when.ns() >> kWheelShift; }
  [[nodiscard]] static std::size_t bucket_of(Time when) {
    return static_cast<std::size_t>(wheel_slot(when)) % kWheelBuckets;
  }

  void arm(Timer& t, Time when, std::uint64_t seq);
  void cancel(Timer& t);

  // Far tier: the heap.
  void remove_at(std::size_t i);
  // Place `e` into the hole at heap index `i`, moving it toward the root
  // (sift_up) or the leaves (sift_down) until the heap order holds.
  void sift_up(std::size_t i, Entry e);
  void sift_down(std::size_t i, Entry e);
  // Writes `e` at heap index `i` and records the index in its timer.
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    e.timer->pos_ = static_cast<std::uint32_t>(i);
  }

  // Near tier: the wheel.
  void wheel_insert(Timer& t);
  void wheel_unlink(Timer& t);
  // The first non-empty bucket in circular order from now()'s; the wheel
  // must not be empty.
  [[nodiscard]] std::size_t first_bucket() const;

  bool pop_one(Time limit);

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::vector<Entry> heap_;
  // Each bucket's earliest timer; allocated on the first wheel arm, so that
  // building a scheduler stays cheap.
  std::unique_ptr<Timer*[]> buckets_;
  std::array<std::uint64_t, kWords> occupied_{};  // bit b % 64 of word b / 64: bucket b
  std::uint64_t summary_ = 0;                     // bit w: occupied_[w] != 0
  std::size_t wheel_size_ = 0;
};

inline Timer::~Timer() { cancel(); }

inline void Timer::arm_after(Time delay) {
  assert(delay >= Time::zero() && "events cannot be scheduled in the past");
  sched_.arm(*this, sched_.now_ + delay, sched_.next_seq_++);
}

inline void Timer::arm_at(Time when) { sched_.arm(*this, when, sched_.next_seq_++); }

inline void Timer::arm_reserved(Time when, std::uint64_t seq) {
  assert(seq < sched_.next_seq_ && "sequence number was not reserved");
  sched_.arm(*this, when, seq);
}

inline void Timer::cancel() {
  if (armed()) sched_.cancel(*this);
}

}  // namespace cebinae

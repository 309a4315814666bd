// Deterministic discrete-event scheduler.
//
// Events at the same timestamp fire in insertion order (FIFO tie-break via a
// monotonically increasing sequence number), which makes every simulation
// exactly reproducible for a given seed and schedule. The `--jobs=N` merge
// determinism of the experiment harness depends on this promise.
//
// Hot-path design (see DESIGN.md §11):
//   - Callbacks are std::function<void()>. Every simulator event captures
//     only `this`, which libstdc++ stores inside the std::function itself,
//     so scheduling costs no allocation once the slot/heap vectors reach
//     their high-water marks (tests/test_alloc_budget.cpp checks this).
//   - The ready queue is a 4-ary heap of 24-byte POD entries (when, seq,
//     slot); sift operations never move callbacks, only entries.
//   - Callbacks live in a slot table recycled through a free list. Each
//     slot records its entry's heap index, so cancel() removes the entry
//     at once in O(log pending): no tombstones, and the heap and slot
//     table are bounded by the events still pending. An EventId names
//     (slot, generation); ids that already fired or were cancelled are
//     exact no-ops even after the slot has been reused.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace cebinae {

// Handle used to cancel a pending event. The handle names a slot and the
// generation the slot had when the event was scheduled, so stale handles
// (event already fired or cancelled, slot reused) are detected exactly and
// ignored.
class EventId {
 public:
  EventId() = default;

  [[nodiscard]] bool valid() const { return slot_plus1_ != 0; }

 private:
  friend class Scheduler;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_plus1_(slot + 1), gen_(gen) {}
  std::uint32_t slot_plus1_ = 0;  // slot index + 1; 0 = default/invalid
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  // Schedule `cb` to run `delay` after the current time. `delay` must be
  // non-negative; a zero delay runs after all already-scheduled events at the
  // current timestamp.
  EventId schedule(Time delay, Callback cb);

  // Schedule at an absolute simulation time (>= now()).
  EventId schedule_at(Time when, Callback cb);

  // Consume the next sequence number without scheduling anything. An event
  // later scheduled under that number with schedule_reserved() takes exactly
  // the place in the (when, seq) order it would have had if it had been
  // scheduled at reservation time. Devices use this to keep in-flight frames
  // in a delay line with one armed event per link (net/device.hpp).
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  // Schedule at (when, seq), where `seq` came from reserve_seq() and has not
  // been used yet, and `when` >= now().
  EventId schedule_reserved(Time when, std::uint64_t seq, Callback cb);

  // Cancel a pending event: its entry leaves the heap and its slot is freed
  // now. A default-constructed, already-fired, or already-cancelled id is a
  // harmless no-op. Consumes no sequence number.
  void cancel(EventId id);

  // Run until the event queue is empty.
  void run();

  // Run events with timestamp <= `until`; afterwards now() == until.
  void run_until(Time until);

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  // 4-ary heap entry ordered by (when, seq); callbacks stay in slots_ so
  // sifting moves 24 bytes, not captured state.
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  // index of this slot's entry in heap_
  };

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  EventId push_event(Time when, std::uint64_t seq, Callback&& cb);
  void push_entry(Entry e);
  void pop_root();
  void remove_at(std::size_t i);
  // Place `e` into the hole at heap index `i`, moving it toward the root
  // (sift_up) or the leaves (sift_down) until the heap order holds.
  void sift_up(std::size_t i, Entry e);
  void sift_down(std::size_t i, Entry e);
  // Writes `e` at heap index `i` and records the index in its slot.
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(i);
  }
  bool pop_one(Time limit);

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace cebinae

#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cebinae {

namespace {
// 4-ary layout: children of i are 4i+1 .. 4i+4. Shallower than a binary
// heap (fewer comparison levels per pop) and sift moves stay within one or
// two cache lines of 24-byte entries.
constexpr std::size_t kArity = 4;
}  // namespace

EventId Scheduler::schedule(Time delay, Callback cb) {
  assert(delay >= Time::zero() && "events cannot be scheduled in the past");
  return push_event(now_ + delay, next_seq_++, std::move(cb));
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  // The generation bump is what invalidates every outstanding EventId that
  // still names this slot.
  ++s.gen;
  free_slots_.push_back(slot);
}

// The sifts carry `e` through a hole: each level moves one entry (and
// records its new index in its slot), and `e` is written once at the end.
void Scheduler::sift_up(std::size_t i, Entry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Scheduler::sift_down(std::size_t i, Entry e) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + kArity, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void Scheduler::push_entry(Entry e) {
  heap_.emplace_back();
  sift_up(heap_.size() - 1, e);
}

void Scheduler::pop_root() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void Scheduler::remove_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the last entry itself
  // The last entry may belong above the hole (it came from another
  // subtree) or below it.
  if (i > 0 && earlier(last, heap_[(i - 1) / kArity])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

EventId Scheduler::schedule_at(Time when, Callback cb) {
  return push_event(when, next_seq_++, std::move(cb));
}

EventId Scheduler::schedule_reserved(Time when, std::uint64_t seq, Callback cb) {
  assert(seq < next_seq_ && "sequence number was not reserved");
  return push_event(when, seq, std::move(cb));
}

EventId Scheduler::push_event(Time when, std::uint64_t seq, Callback&& cb) {
  assert(when >= now_ && "events cannot be scheduled in the past");
  const std::uint32_t slot = acquire_slot();
  // The slot's callback is empty: a swap fills it without the temporary
  // std::function that a move-assignment builds and destroys.
  slots_[slot].cb.swap(cb);
  push_entry(Entry{when, seq, slot});
  return EventId(slot, slots_[slot].gen);
}

void Scheduler::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint32_t slot = id.slot_plus1_ - 1;
  if (slot >= slots_.size()) return;
  const Slot& s = slots_[slot];
  // Generation mismatch = the event already fired or was cancelled and the
  // slot moved on; this exactness is what makes stale cancels safe. A
  // matching generation means the event is pending, so its entry is in the
  // heap at s.pos.
  if (s.gen != id.gen_) return;
  assert(heap_[s.pos].slot == slot && "slot lost track of its heap entry");
  remove_at(s.pos);
  release_slot(slot);
}

bool Scheduler::pop_one(Time limit) {
  if (heap_.empty()) return false;
  const Entry top = heap_[0];
  if (top.when > limit) return false;
  assert(slots_[top.slot].pos == 0 && "root slot lost track of its heap entry");
  pop_root();
  // Move the callback out and retire the slot before invoking, so a
  // re-entrant schedule() may reuse it and a self-cancel from inside the
  // callback sees a bumped generation (harmless no-op).
  Callback cb = std::move(slots_[top.slot].cb);
  release_slot(top.slot);
  now_ = top.when;
  ++executed_;
  cb();
  return true;
}

void Scheduler::run() {
  while (pop_one(Time::max())) {
  }
}

void Scheduler::run_until(Time until) {
  while (pop_one(until)) {
  }
  if (now_ < until) now_ = until;
}

}  // namespace cebinae

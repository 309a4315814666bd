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
  return schedule_at(now_ + delay, std::move(cb));
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
  s.cb.reset();
  s.cancelled = false;
  // The generation bump is what invalidates every outstanding EventId that
  // still names this slot.
  ++s.gen;
  free_slots_.push_back(slot);
}

void Scheduler::push_entry(Entry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Scheduler::pop_root() {
  const std::size_t n = heap_.size() - 1;
  heap_[0] = heap_[n];
  heap_.pop_back();
  std::size_t i = 0;
  while (true) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + kArity, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
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
  slots_[slot].cb = std::move(cb);
  push_entry(Entry{when, seq, slot});
  ++live_;
  return EventId(slot, slots_[slot].gen);
}

void Scheduler::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint32_t slot = id.slot_plus1_ - 1;
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // Generation mismatch = the event already fired (or was cancelled) and
  // the slot moved on; this exactness is what makes stale cancels safe.
  if (s.gen != id.gen_ || s.cancelled) return;
  s.cancelled = true;
  s.cb.reset();  // release captured state eagerly
  --live_;
}

bool Scheduler::pop_one(Time limit) {
  while (!heap_.empty()) {
    const Entry top = heap_[0];
    if (top.when > limit) return false;
    pop_root();
    if (slots_[top.slot].cancelled) {
      release_slot(top.slot);
      continue;
    }
    // Move the callback out and retire the slot before invoking, so a
    // re-entrant schedule() may reuse it and a self-cancel from inside the
    // callback sees a bumped generation (harmless no-op).
    Callback cb = std::move(slots_[top.slot].cb);
    release_slot(top.slot);
    now_ = top.when;
    ++executed_;
    --live_;
    cb();
    return true;
  }
  return false;
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

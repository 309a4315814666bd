#include "sim/scheduler.hpp"

#include <algorithm>

namespace cebinae {

namespace {
// 4-ary layout: children of i are 4i+1 .. 4i+4. Shallower than a binary
// heap (fewer comparison levels per pop) and sift moves stay within one or
// two cache lines of 24-byte entries.
constexpr std::size_t kArity = 4;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

Scheduler::~Scheduler() {
  // The armed timers are alive (a destroyed timer leaves the heap), and
  // must not later reach back into this scheduler when they are destroyed.
  for (const Entry& e : heap_) e.timer->pos_ = Timer::kUnarmed;
}

// The sifts carry `e` through a hole: each level moves one entry (and
// records its new index in its timer), and `e` is written once at the end.
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

void Scheduler::arm(Timer& t, Time when, std::uint64_t seq) {
  assert(&t.sched_ == this);
  assert(!t.armed() && "timer is already armed");
  assert(when >= now_ && "events cannot be scheduled in the past");
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{when, seq, &t});
}

void Scheduler::cancel(Timer& t) {
  assert(heap_[t.pos_].timer == &t && "timer lost track of its heap entry");
  remove_at(t.pos_);
  t.pos_ = Timer::kUnarmed;
}

bool Scheduler::pop_one(Time limit) {
  if (heap_.empty()) return false;
  const Entry top = heap_[0];
  if (top.when > limit) return false;
  assert(top.timer->pos_ == 0 && "root timer lost track of its heap entry");
  remove_at(0);
  // Disarmed before the call, so the callback may re-arm its own timer, and
  // a cancel() from inside it is a no-op.
  top.timer->pos_ = Timer::kUnarmed;
  now_ = top.when;
  ++executed_;
  // FNV-1a over the key's two words. Each step is a bijection of the
  // digest, so one changed key always changes the final value.
  digest_ = (digest_ ^ static_cast<std::uint64_t>(top.when.ns())) * kFnvPrime;
  digest_ = (digest_ ^ top.seq) * kFnvPrime;
  top.timer->cb_();
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

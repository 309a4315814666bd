#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>

namespace cebinae {

namespace {
// 4-ary layout: children of i are 4i+1 .. 4i+4. Shallower than a binary
// heap (fewer comparison levels per pop) and sift moves stay within one or
// two cache lines of 24-byte entries.
constexpr std::size_t kArity = 4;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

Scheduler::~Scheduler() {
  // The armed timers are alive (a destroyed timer leaves its tier), and
  // must not later reach back into this scheduler when they are destroyed.
  for (const Entry& e : heap_) e.timer->pos_ = Timer::kUnarmed;
  if (!buckets_) return;
  for (std::size_t b = 0; b < kWheelBuckets; ++b) {
    for (Timer* t = buckets_[b]; t != nullptr; t = t->next_) t->pos_ = Timer::kUnarmed;
  }
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

void Scheduler::wheel_insert(Timer& t) {
  if (!buckets_) buckets_ = std::make_unique<Timer*[]>(kWheelBuckets);
  const std::size_t b = bucket_of(t.when_);
  Timer*& head = buckets_[b];
  t.pos_ = Timer::kInWheel | static_cast<std::uint32_t>(b);
  ++wheel_size_;
  if (head == nullptr) {
    t.prev_ = &t;
    t.next_ = nullptr;
    head = &t;
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    summary_ |= std::uint64_t{1} << (b / 64);
    return;
  }
  // A timer at least as late as the bucket's last one (the same instant
  // armed later, or a later instant) goes to the tail, and one earlier than
  // its first to the head. Only one in between walks back from the tail
  // past the later keys.
  Timer* p = head->prev_;
  if (earlier(t, *p)) {
    if (earlier(t, *head)) {
      t.prev_ = head->prev_;
      t.next_ = head;
      head->prev_ = &t;
      head = &t;
      return;
    }
    do {
      p = p->prev_;
    } while (earlier(t, *p));
  }
  t.prev_ = p;
  t.next_ = p->next_;
  (p->next_ != nullptr ? p->next_->prev_ : head->prev_) = &t;
  p->next_ = &t;
}

void Scheduler::wheel_unlink(Timer& t) {
  const std::size_t b = t.pos_ & ~Timer::kInWheel;
  Timer*& head = buckets_[b];
  assert(b == bucket_of(t.when_) && (&t == head || t.prev_->next_ == &t) &&
         "timer lost track of its wheel bucket");
  --wheel_size_;
  if (&t == head) {
    head = t.next_;
    if (head != nullptr) {
      head->prev_ = t.prev_;  // the tail
    } else {
      occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
      if (occupied_[b / 64] == 0) summary_ &= ~(std::uint64_t{1} << (b / 64));
    }
    return;
  }
  t.prev_->next_ = t.next_;
  (t.next_ != nullptr ? t.next_->prev_ : head->prev_) = t.prev_;
}

std::size_t Scheduler::first_bucket() const {
  const std::size_t from = bucket_of(now_);
  std::size_t w = from / 64;
  // now()'s word, from now()'s bucket on.
  if (const std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from % 64))) {
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }
  // The words after it; then, wrapped, the first word that has a bucket
  // (now()'s own word included, whose set bits all lie before now()'s).
  const std::uint64_t after = summary_ & (~std::uint64_t{0} << w << 1);
  w = static_cast<std::size_t>(std::countr_zero(after != 0 ? after : summary_));
  return w * 64 + static_cast<std::size_t>(std::countr_zero(occupied_[w]));
}

void Scheduler::arm(Timer& t, Time when, std::uint64_t seq) {
  assert(&t.sched_ == this);
  assert(!t.armed() && "timer is already armed");
  assert(when >= now_ && "events cannot be scheduled in the past");
  t.when_ = when;
  t.seq_ = seq;
  if (wheel_slot(when) - wheel_slot(now_) < static_cast<std::int64_t>(kWheelBuckets)) {
    wheel_insert(t);
  } else {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Entry{when, seq, &t});
  }
}

void Scheduler::cancel(Timer& t) {
  if ((t.pos_ & Timer::kInWheel) != 0) {
    wheel_unlink(t);
  } else {
    assert(heap_[t.pos_].timer == &t && "timer lost track of its heap entry");
    remove_at(t.pos_);
  }
  t.pos_ = Timer::kUnarmed;
}

bool Scheduler::pop_one(Time limit) {
  // The wheel's earliest timer is its first non-empty bucket's head.
  Timer* t = summary_ != 0 ? buckets_[first_bucket()] : nullptr;
  const bool far_first =
      !heap_.empty() && (t == nullptr || earlier(heap_[0].when, heap_[0].seq, t->when_, t->seq_));
  if (far_first) {
    t = heap_[0].timer;
    if (t->when_ > limit) return false;
    assert(t->pos_ == 0 && "root timer lost track of its heap entry");
    remove_at(0);
  } else {
    if (t == nullptr || t->when_ > limit) return false;
    wheel_unlink(*t);
  }
  // Disarmed before the call, so the callback may re-arm its own timer, and
  // a cancel() from inside it is a no-op.
  t->pos_ = Timer::kUnarmed;
  now_ = t->when_;
  ++executed_;
  // FNV-1a over the key's two words. Each step is a bijection of the
  // digest, so one changed key always changes the final value.
  digest_ = (digest_ ^ static_cast<std::uint64_t>(t->when_.ns())) * kFnvPrime;
  digest_ = (digest_ ^ t->seq_) * kFnvPrime;
  t->cb_();
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

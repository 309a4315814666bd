// Allocation budget of the event core (DESIGN.md §11, "Allocation budget per
// packet hop"). This binary replaces the global operator new with a counting
// version, so it is built apart from cebinae_tests: the replacement applies
// to the whole program it is linked into.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "runner/scenario.hpp"
#include "sim/scheduler.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

// The packet slab's 64-byte frames come from the over-aligned forms.
void* counted_aligned_new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc takes a non-zero multiple of the alignment.
  const std::size_t size = (std::max<std::size_t>(n, 1) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace

// Every form that allocates through malloc, and every delete that may free
// what they return.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_new(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned_new(n, al); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace cebinae {
namespace {

// kTimers timers, built once, fire kEvents times in all: each firing
// re-arms its own timer while events are left, and every fourth one also
// cancels and re-arms its neighbour if armed (the RTO pattern).
struct Burst {
  static constexpr std::size_t kTimers = 256;
  static constexpr std::size_t kEvents = 10'000;
  Scheduler& sched;
  std::size_t left = 0;
  std::uint64_t fired = 0;
  std::vector<std::unique_ptr<Timer>> timers;

  explicit Burst(Scheduler& s) : sched(s) {
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<Timer>(s, [this, i] { fire(i); }));
    }
  }

  void fire(std::size_t i) {
    ++fired;
    if (left == 0) return;
    --left;
    timers[i]->arm_after(Nanoseconds(static_cast<std::int64_t>(fired * 7 % 97)));
    Timer& next = *timers[(i + 1) % kTimers];
    if (fired % 4 == 0 && next.armed()) {
      next.cancel();
      next.arm_after(Nanoseconds(static_cast<std::int64_t>(fired % 89)));
    }
  }

  void run() {
    left = kEvents - kTimers;
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers[i]->arm_after(Nanoseconds(static_cast<std::int64_t>(i % 97)));
    }
    sched.run();
  }
};

TEST(AllocBudget, WarmTimerArmsAndFiresWithoutAllocating) {
  Scheduler sched;
  Burst burst(sched);
  burst.run();  // warms the heap to its high-water mark
  const std::uint64_t before = allocations();
  burst.run();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(sched.executed_events(), 2u * Burst::kEvents);
}

// Counts allocations from the half-way point of `cfg`'s run to its end,
// which must stay under 0.02 per executed event.
void expect_steady_state_budget(const ScenarioConfig& cfg) {
  constexpr double kMaxAllocsPerEvent = 0.02;
  Scenario scenario(cfg);
  Scheduler& sched = scenario.network().scheduler();
  std::uint64_t allocs_at_half = 0;
  std::uint64_t events_at_half = 0;
  Timer half(sched, [&] {
    allocs_at_half = allocations();
    events_at_half = sched.executed_events();
  });
  half.arm_at(cfg.duration / 2);
  (void)scenario.run();
  const std::uint64_t allocs = allocations() - allocs_at_half;
  const std::uint64_t events = sched.executed_events() - events_at_half;
  ASSERT_GT(events, 50'000u);
  EXPECT_LT(static_cast<double>(allocs), kMaxAllocsPerEvent * static_cast<double>(events))
      << allocs << " allocations in " << events << " events";
}

// 32 NewReno + 8 Cubic flows over a 100 Mbps, 5 ms, 420-MTU bottleneck for
// 2 s. What remains is mostly TCP senders' std::deque blocks: about 9e-3
// per event.
ScenarioConfig short_rtt_mix(QdiscKind qdisc) {
  ScenarioConfig cfg;
  cfg.qdisc = qdisc;
  cfg.bottleneck_bps = 100'000'000;
  cfg.buffer_bytes = 420ull * kMtuBytes;
  cfg.duration = Seconds(2);
  cfg.flows = flows_of(CcaType::kNewReno, 32, Milliseconds(5));
  for (const FlowSpec& f : flows_of(CcaType::kCubic, 8, Milliseconds(5))) cfg.flows.push_back(f);
  return cfg;
}

TEST(AllocBudget, FifoScenarioSteadyState) {
  expect_steady_state_budget(short_rtt_mix(QdiscKind::kFifo));
}

TEST(AllocBudget, CebinaeScenarioSteadyState) {
  expect_steady_state_budget(short_rtt_mix(QdiscKind::kCebinae));
}

TEST(AllocBudget, FqCoDelScenarioSteadyState) {
  expect_steady_state_budget(short_rtt_mix(QdiscKind::kFqCoDel));
}

// SACK-heavy: 32 NewReno + 2 BBR flows over a 100 Mbps, 100 ms, 835-MTU
// FIFO for 4 s, where windows of hundreds of segments recover from many
// holes at once. Guards the sender's SACK scoreboard against allocating
// per ACK; about 8e-3 per event, again mostly deque blocks.
TEST(AllocBudget, SackHeavyScenarioSteadyState) {
  ScenarioConfig cfg;
  cfg.qdisc = QdiscKind::kFifo;
  cfg.bottleneck_bps = 100'000'000;
  cfg.buffer_bytes = 835ull * kMtuBytes;
  cfg.duration = Seconds(4);
  cfg.flows = flows_of(CcaType::kNewReno, 32, Milliseconds(100));
  for (const FlowSpec& f : flows_of(CcaType::kBbr, 2, Milliseconds(100))) cfg.flows.push_back(f);
  expect_steady_state_budget(cfg);
}

}  // namespace
}  // namespace cebinae

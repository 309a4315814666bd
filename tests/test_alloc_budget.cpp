// Allocation budget of the event core (DESIGN.md §11, "Allocation budget per
// packet hop"). This binary replaces the global operator new with a counting
// version, so it is built apart from cebinae_tests: the replacement applies
// to the whole program it is linked into. Besides allocations it counts the
// live heap bytes (malloc_usable_size of every block) and their peak.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <malloc.h>

#include "net/network.hpp"
#include "runner/scenario.hpp"
#include "sim/scheduler.hpp"
#include "tcp/bbr.hpp"
#include "tcp/new_reno.hpp"
#include "tcp/tcp_socket.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_live_bytes{0};

// Counts a block just allocated (null: nothing) into the live bytes and
// their peak.
void* track(void* p) noexcept {
  if (p == nullptr) return p;
  const std::uint64_t n = malloc_usable_size(p);
  const std::uint64_t live = g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_live_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void counted_free(void* p) noexcept {
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return track(std::malloc(n == 0 ? 1 : n));
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
  if (void* p = track(std::aligned_alloc(align, size))) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
std::uint64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }
std::uint64_t peak_live_bytes() { return g_peak_live_bytes.load(std::memory_order_relaxed); }
// Restarts the peak from the bytes live now.
void reset_peak_live_bytes() {
  g_peak_live_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

}  // namespace

// Every form that allocates through malloc, and every delete that may free
// what they return.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_new(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned_new(n, al); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

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
// 2 s. What remains, 1e-3 to 2.5e-3 per event, includes the TCP senders'
// std::deque blocks, 128 segments each.
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
// per ACK; about 3e-3 per event.
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

// Holds the window open at `cwnd` bytes and paces nothing; the rest is the
// wrapped algorithm's, including whether it reads delivery-rate samples.
class HeldOpen final : public CongestionControl {
 public:
  HeldOpen(std::unique_ptr<CongestionControl> cc, std::uint64_t cwnd)
      : cc_(std::move(cc)), cwnd_(cwnd) {}
  void on_ack(const AckEvent& ev) override { cc_->on_ack(ev); }
  void on_loss(Time now, std::uint64_t in_flight) override { cc_->on_loss(now, in_flight); }
  void on_rto(Time now) override { cc_->on_rto(now); }
  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] bool uses_delivery_rate() const override { return cc_->uses_delivery_rate(); }
  [[nodiscard]] std::string_view name() const override { return cc_->name(); }

 private:
  std::unique_ptr<CongestionControl> cc_;
  std::uint64_t cwnd_;
};

// Peak heap growth per outstanding segment while one sender under `cc`
// fills a kSegments window. The destination has no route, so the sender's
// node drops every segment without encoding it: what the heap gains is the
// sender's per-segment state.
double scoreboard_bytes_per_segment(std::unique_ptr<CongestionControl> cc,
                                    std::size_t expect_rate_stamps_per_segment) {
  constexpr std::uint64_t kSegments = 10'000;
  Network net;
  Node& src = net.add_node();
  TcpSender::Config cfg;
  cfg.flow = FlowId{src.id(), src.id() + 1, 5000, 5000};
  cfg.bytes_to_send = kSegments * kMssBytes;
  TcpSender sender(net.scheduler(), src,
                   std::make_unique<HeldOpen>(std::move(cc), kSegments * kMssBytes), cfg);
  sender.start();
  const std::uint64_t before = live_bytes();
  reset_peak_live_bytes();
  net.scheduler().run_until(Milliseconds(1));
  const std::uint64_t growth = peak_live_bytes() - before;
  EXPECT_EQ(sender.outstanding_segments_dbg(), kSegments);
  EXPECT_EQ(sender.rate_stamps_dbg(), expect_rate_stamps_per_segment * kSegments);
  return static_cast<double>(growth) / static_cast<double>(kSegments);
}

// The scoreboard is one 4-byte word per segment; BBR alone adds a 16-byte
// rate stamp. The slack over 4 and 20 covers the deques' maps and block
// headers.
TEST(AllocBudget, ScoreboardBytesPerSegment) {
  const double reno = scoreboard_bytes_per_segment(std::make_unique<NewReno>(), 0);
  const double bbr = scoreboard_bytes_per_segment(std::make_unique<Bbr>(), 1);
  EXPECT_LE(reno, 8.0) << "NewReno sender: " << reno << " B per segment";
  EXPECT_LE(bbr, 24.0) << "BBR sender: " << bbr << " B per segment";
}

}  // namespace
}  // namespace cebinae

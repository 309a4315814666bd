// Microbenchmarks of the data-path building blocks, backing the scalability
// discussion (§5.5): the per-packet cost of Cebinae's components is flat in
// the number of flows, unlike per-flow-queue schemes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/flow_cache.hpp"
#include "core/lbf.hpp"
#include "exp/json_row.hpp"
#include "metrics/jfi.hpp"
#include "net/counting_sink.hpp"
#include "net/network.hpp"
#include "net/packet_slab.hpp"
#include "queueing/fifo_queue.hpp"
#include "queueing/fq_codel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "tcp/interval_set.hpp"
#include "tcp/tcp_socket.hpp"
#include "topology/topology.hpp"

namespace {

using namespace cebinae;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  // 1000 timers, bound once, armed at spread times and run to empty.
  constexpr int kTimers = 1000;
  Scheduler sched;
  int sink = 0;
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(sched, [&sink] { ++sink; }));
  }
  for (auto _ : state) {
    for (int i = 0; i < kTimers; ++i) {
      timers[static_cast<std::size_t>(i)]->arm_after(Nanoseconds(i * 100));
    }
    sched.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kTimers);
}
BENCHMARK(BM_SchedulerScheduleRun);

void BM_SchedulerCancelRearm(benchmark::State& state) {
  // The RTO-timer maintenance pattern: every ACK cancels the armed timer
  // and re-arms it. The cancel removes the timer's heap entry through its
  // stored index; the heap never holds more than the one armed timer.
  Scheduler sched;
  std::int64_t now = 0;
  int fired = 0;
  Timer timer(sched, [&fired] { ++fired; });
  for (auto _ : state) {
    timer.cancel();
    timer.arm_after(Milliseconds(200));
    now += 100'000;
    sched.run_until(Time(now));
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerCancelRearm);

void BM_SchedulerPropagationEvent(benchmark::State& state) {
  // The shape of link propagation with a per-device delay line
  // (net/device.hpp): each transmit reserves the arrival's (when, seq) key,
  // and one timer is armed for the head of the line. 64 frames stay in
  // flight, as on a link holding a window.
  struct DelayLine {
    explicit DelayLine(Scheduler& s) : sched(s), arrival(s, [this] { arrive(); }) {}

    Scheduler& sched;
    Timer arrival;
    std::deque<std::pair<Time, std::uint64_t>> keys;
    std::uint64_t arrived = 0;

    void send(Time at) {
      keys.emplace_back(at, sched.reserve_seq());
      if (keys.size() == 1) arm();
    }
    void arm() { arrival.arm_reserved(keys.front().first, keys.front().second); }
    void arrive() {
      keys.pop_front();
      ++arrived;
      if (!keys.empty()) arm();
    }
  };
  Scheduler sched;
  DelayLine line(sched);
  constexpr std::int64_t kSpacingNs = 1'000;
  constexpr std::int64_t kDelayNs = 64 * kSpacingNs;
  std::int64_t now = 0;
  for (auto _ : state) {
    now += kSpacingNs;
    line.send(Time(now + kDelayNs));
    sched.run_until(Time(now));
  }
  benchmark::DoNotOptimize(line.arrived);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPropagationEvent);

void BM_SchedulerNearFarMix(benchmark::State& state) {
  // The shape of a recorded benchmark run: 128 chains of device-like
  // timers, each re-armed from its own callback with a short delay (a
  // fixed mix: about 15% ~128 ns, 8% ~512 ns, 17% 2-4 us, 45% 8-16 us and
  // the rest 20-200 us), and one RTO-style 200 ms cancel and re-arm per 8
  // events, spread over 16 RTO timers that never fire.
  constexpr std::size_t kChains = 128;
  constexpr std::size_t kRtos = 16;
  struct Mix {
    Scheduler sched;
    std::vector<std::unique_ptr<Timer>> chains;
    std::vector<std::unique_ptr<Timer>> rtos;
    std::array<Time, 64> delays{};
    std::size_t next_delay = 0;
    std::uint64_t events = 0;

    Mix() {
      std::mt19937_64 rng(1);
      auto within = [&rng](std::int64_t lo, std::int64_t hi) {
        const std::uint64_t span = static_cast<std::uint64_t>(hi - lo);
        return Nanoseconds(lo + static_cast<std::int64_t>(rng() % span));
      };
      for (std::size_t i = 0; i < delays.size(); ++i) {
        const std::size_t pct = i * 100 / delays.size();
        delays[i] = pct < 15   ? within(100, 160)
                    : pct < 23 ? within(480, 560)
                    : pct < 40 ? within(2'000, 4'000)
                    : pct < 85 ? within(8'000, 16'000)
                               : within(20'000, 200'000);
      }
      std::shuffle(delays.begin(), delays.end(), rng);
      for (std::size_t c = 0; c < kChains; ++c) {
        chains.push_back(std::make_unique<Timer>(sched, [this, c] { fire(c); }));
        chains.back()->arm_after(delays[c % delays.size()]);
      }
      for (std::size_t r = 0; r < kRtos; ++r) {
        rtos.push_back(std::make_unique<Timer>(sched, [] {}));
        rtos.back()->arm_after(Milliseconds(200));
      }
    }

    void fire(std::size_t c) {
      chains[c]->arm_after(delays[next_delay++ % delays.size()]);
      if (++events % 8 == 0) {
        Timer& rto = *rtos[(events / 8) % kRtos];
        rto.cancel();
        rto.arm_after(Milliseconds(200));
      }
    }
  };
  Mix mix;
  Time until = Time::zero();
  for (auto _ : state) {
    until += Microseconds(100);
    mix.sched.run_until(until);
  }
  benchmark::DoNotOptimize(mix.events);
  state.SetItemsProcessed(static_cast<std::int64_t>(mix.sched.executed_events()));
}
BENCHMARK(BM_SchedulerNearFarMix);

void BM_SchedulerSameInstantBurst(benchmark::State& state) {
  // 1000 timers armed within one 1024-ns wheel bucket, then run. Step 0:
  // all at one instant, which the bucket keeps in arming order. Step -1:
  // the first at the bucket's first instant and each later one 1 ns before
  // the last, so each lands behind the first and ahead of all the others:
  // the worst order for the bucket's sorted insert.
  constexpr int kTimers = 1000;
  const std::int64_t step = state.range(0);
  Scheduler sched;
  int sink = 0;
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(sched, [&sink] { ++sink; }));
  }
  for (auto _ : state) {
    const std::int64_t bucket = (sched.now().ns() / 1024 + 1) * 1024;
    timers[0]->arm_at(Nanoseconds(bucket));
    for (int i = 1; i < kTimers; ++i) {
      timers[static_cast<std::size_t>(i)]->arm_at(Nanoseconds(bucket - step * (kTimers - i)));
    }
    sched.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kTimers);
}
BENCHMARK(BM_SchedulerSameInstantBurst)->ArgName("step_ns")->Arg(0)->Arg(-1);

void BM_IntervalSetLossPattern(benchmark::State& state) {
  // The receiver-side reassembly pattern under periodic loss: grow a small
  // set of holes, then drain when the retransmission lands.
  for (auto _ : state) {
    IntervalSet ooo;
    std::uint64_t cursor = 0;
    for (std::uint64_t seg = 1; seg <= 64; ++seg) {
      if (seg % 8 == 0) continue;  // dropped segment -> hole
      ooo.add(seg * kMssBytes, (seg + 1) * kMssBytes);
    }
    for (std::uint64_t seg = 8; seg <= 64; seg += 8) {
      cursor = seg * kMssBytes + kMssBytes;  // retransmission arrives
      ooo.drain_into(cursor);
    }
    benchmark::DoNotOptimize(cursor);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_IntervalSetLossPattern);

void BM_FlowCacheAdd(benchmark::State& state) {
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  FlowCache cache(2, 2048);
  RandomStream rng(1);
  std::vector<FlowId> ids;
  for (std::uint32_t i = 0; i < flows; ++i) {
    ids.push_back(FlowId{i, i + 1'000'000, 5000, 5000});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.add(ids[i % flows], kMtuBytes));
    if (++i % 100'000 == 0) (void)cache.poll_and_reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowCacheAdd)->Arg(16)->Arg(1024)->Arg(65536);

void BM_FlowCachePollAndReset(benchmark::State& state) {
  FlowCache cache(2, 2048);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::uint32_t i = 0; i < 4096; ++i) {
      cache.add(FlowId{i, i + 1'000'000, 5000, 5000}, kMtuBytes);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(cache.poll_and_reset());
  }
}
BENCHMARK(BM_FlowCachePollAndReset);

void BM_LbfAdmit(benchmark::State& state) {
  CebinaeParams params;
  params.dt = Nanoseconds(1 << 20);
  params.vdt = Nanoseconds(1 << 10);
  LeakyBucketFilter lbf(params, 10'000'000'000ull);
  lbf.enter_saturated(6e8, 6.5e8);
  std::int64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lbf.admit(FlowGroup::kBottom, kMtuBytes, Time(now)));
    now += 1200;
    if (now % (1 << 20) < 1200) lbf.rotate(Time(now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LbfAdmit);

// Both queue benches take a slot from the slab, pass it through
// enqueue_slot/dequeue_slot and release it, as a device and the
// destination node do; the Packet adapters would add an encode and a
// decode that no simulation makes.
void BM_FifoEnqueueDequeue(benchmark::State& state) {
  FifoQueue q(FifoQueue::unlimited());
  PacketSlab& slab = PacketSlab::local();
  Packet p;
  p.size_bytes = kMtuBytes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.enqueue_slot(slab.alloc(p, Time::zero())));
    slab.release(q.dequeue_slot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoEnqueueDequeue);

void BM_FqCoDelEnqueueDequeue(benchmark::State& state) {
  // Per-packet cost grows with the number of active flow queues — the
  // scaling contrast with Cebinae's two queues.
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  Scheduler sched;
  FqCoDelParams params;
  FqCoDel q(sched, params);
  PacketSlab& slab = PacketSlab::local();
  Packet p;
  p.size_bytes = kMtuBytes;
  std::uint32_t i = 0;
  for (auto _ : state) {
    p.flow = FlowId{i % flows, 1, 5000, 5000};
    benchmark::DoNotOptimize(q.enqueue_slot(slab.alloc(p, Time::zero())));
    slab.release(q.dequeue_slot());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FqCoDelEnqueueDequeue)->Arg(16)->Arg(1024)->Arg(65536);

void BM_BuildRoutesDumbbell(benchmark::State& state) {
  // Routing setup of a dumbbell with one host pair per flow (130 flows is
  // table2 r16, 1,026 is r12), rebuilt in place on each iteration.
  Network net;
  ChainTopology topo = build_chain(net, 1, 1'000'000'000, Milliseconds(1),
                                   [](int) -> std::unique_ptr<QueueDisc> { return nullptr; });
  for (int f = 0; f < state.range(0); ++f) {
    (void)attach_hosts(net, topo, 0, 1, 1'000'000'000, Milliseconds(1), Milliseconds(1));
  }
  for (auto _ : state) {
    net.build_routes();
    benchmark::ClobberMemory();
  }
  state.counters["nodes"] = static_cast<double>(net.node_count());
}
BENCHMARK(BM_BuildRoutesDumbbell)->ArgName("flows")->Arg(130)->Arg(1026)->Unit(benchmark::kMicrosecond);

void BM_ForwardFrameThreeHops(benchmark::State& state) {
  // One data segment from host to host across two switches over idle links
  // (FIFO everywhere): the sender's encode, three enqueue/transmit/arrive
  // hops and the destination's decode.
  Network net;
  Node& h0 = net.add_node();
  Node& s1 = net.add_node();
  Node& s2 = net.add_node();
  Node& h3 = net.add_node();
  net.link(h0, s1, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.link(s1, s2, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.link(s2, h3, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.build_routes();
  CountingSink sink(h3, 9);
  Packet p;
  p.flow = FlowId{h0.id(), h3.id(), 1, 9};
  p.kind = Packet::Kind::kTcpData;
  p.size_bytes = kMtuBytes;
  p.payload_bytes = kMssBytes;
  for (auto _ : state) {
    p.seq += kMssBytes;
    p.ts_sent = net.scheduler().now();
    h0.send(p);
    net.scheduler().run();
  }
  benchmark::DoNotOptimize(sink.packets());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardFrameThreeHops);

// A window that never changes, so the ACK path's cost is the scoreboard's.
class FixedWindowCc final : public CongestionControl {
 public:
  explicit FixedWindowCc(std::uint64_t cwnd) : cwnd_(cwnd) {}
  void on_ack(const AckEvent&) override {}
  void on_loss(Time, std::uint64_t) override {}
  void on_rto(Time) override {}
  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] std::string_view name() const override { return "fixed"; }

 private:
  std::uint64_t cwnd_;
};

void BM_TcpSackRecoveryAck(benchmark::State& state) {
  // SACK recovery over a 1,000-segment window: the odd segments arrive and
  // each draws a dup ACK SACKing it (fast recovery starts at the third and
  // repairs holes as PRR allows), then one cumulative ACK covers the whole
  // window. Only the 501 ACKs are timed; each iteration sends a fresh window.
  constexpr std::uint64_t kWindow = 1000;
  Network net;
  Node& src = net.add_node();
  Node& dst = net.add_node();
  net.link(src, dst, 1'000'000'000, Microseconds(10), nullptr, nullptr);
  net.build_routes();
  const FlowId flow{src.id(), dst.id(), 5000, 5000};
  CountingSink sink(dst, flow.dst_port);

  std::vector<Packet> acks;
  auto ack = [&](std::uint64_t cum_seg, std::uint64_t sack_seg) {
    Packet p;
    p.flow = flow.reversed();
    p.kind = Packet::Kind::kTcpAck;
    p.size_bytes = kAckBytes;
    p.ack = cum_seg * kMssBytes;
    if (sack_seg > cum_seg) {
      p.sack[p.sack_count++] = Packet::SackBlock{sack_seg * kMssBytes, (sack_seg + 1) * kMssBytes};
    }
    acks.push_back(p);
  };
  for (std::uint64_t s = 1; s < kWindow; s += 2) ack(0, s);
  ack(kWindow, 0);

  for (auto _ : state) {
    state.PauseTiming();
    TcpSender::Config cfg;
    cfg.flow = flow;
    cfg.bytes_to_send = kWindow * kMssBytes;
    cfg.start_time = net.scheduler().now();
    auto sender = std::make_unique<TcpSender>(
        net.scheduler(), src, std::make_unique<FixedWindowCc>(kWindow * kMssBytes), cfg);
    sender->start();
    const std::uint64_t sent = sink.packets() + kWindow;
    while (sink.packets() < sent) {
      net.scheduler().run_until(net.scheduler().now() + Milliseconds(1));
    }
    state.ResumeTiming();
    for (const Packet& p : acks) sender->deliver(p);
    state.PauseTiming();
    benchmark::DoNotOptimize(sender->bytes_acked());
    sender.reset();
    net.scheduler().run();  // drain the retransmissions
    state.ResumeTiming();
  }
  state.counters["per_ack"] = benchmark::Counter(
      static_cast<double>(acks.size()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TcpSackRecoveryAck);

void BM_TraceRowToJson(benchmark::State& state) {
  // Serialization cost of one trace row (runner-side, off the sim path).
  exp::JsonObject row;
  row.set("t_s", 12.0);
  row.set("jfi", 0.987654321);
  row.set("tput_Bps", std::vector<double>(34, 1.25e6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(row.str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRowToJson);

void BM_JainIndex(benchmark::State& state) {
  RandomStream rng(1);
  std::vector<double> rates;
  for (int i = 0; i < 1024; ++i) rates.push_back(rng.uniform(1, 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(jain_index(rates));
  }
}
BENCHMARK(BM_JainIndex);

}  // namespace

BENCHMARK_MAIN();

// The benchmark's traced run. It rebuilds a workload's Scenario from the
// public layer APIs (build_chain with a qdisc factory, attach_hosts,
// Network::build_routes, CebinaeAgent, TcpSender/TcpReceiver built with
// make_cc) and wraps each layer boundary in a timing decorator:
//   - QueueDisc::enqueue/dequeue of the bottleneck qdisc;
//   - the sender's PacketSink::deliver (the ACK path) and the receiver's
//     (the data path), rebound with Node::unbind/bind;
//   - CongestionControl::on_ack/on_loss/on_rto;
//   - the receiver's delivery callback into FlowStatsCollector.
// Spans nest (cc inside the ACK path, metrics inside the data path), and a
// span's self time is its duration minus its children's. Run time outside
// every top-level span is the residual: the scheduler, devices, nodes,
// propagation, Cebinae agent rotations and TCP timer callbacks, which no
// public boundary separates.
//
// The construction below mirrors Scenario's constructor step by step, so
// the run must reproduce Scenario's event count and outcome exactly;
// run.py checks both against the untraced run and the recorded reference.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/agent.hpp"
#include "metrics/jfi.hpp"
#include "queueing/fifo_queue.hpp"
#include "simbench.hpp"
#include "topology/topology.hpp"

namespace perfbench {
namespace {

using namespace cebinae;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Log-linear histogram of non-negative nanosecond values: 16 sub-buckets per
// power of two, so a quantile reads within 1/16 of its true value.
class LogHistogram {
 public:
  void add(std::int64_t v) { ++counts_[bucket(std::max<std::int64_t>(v, 0))]; }

  [[nodiscard]] std::int64_t quantile(double q) const {
    std::uint64_t total = 0;
    for (std::uint64_t c : counts_) total += c;
    if (total == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen > rank) return lower_bound(b);
    }
    return lower_bound(counts_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 4;
  static constexpr std::int64_t kSub = 1 << kSubBits;

  static std::size_t bucket(std::int64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(static_cast<std::uint64_t>(v)) - 1;  // e >= kSubBits
    const std::int64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }
  static std::int64_t lower_bound(std::size_t b) {
    const auto i = static_cast<std::int64_t>(b);
    if (i < kSub) return i;
    const std::int64_t e = i / kSub + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }

  std::array<std::uint64_t, 64 * kSub> counts_{};
};

enum Layer : std::size_t {
  kEnqueue,
  kDequeue,
  kAckPath,
  kDataPath,
  kCcAck,
  kCcLoss,
  kCcRto,
  kDelivery,
  kLayerCount
};
constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "qdisc_enqueue", "qdisc_dequeue", "tcp_ack",   "tcp_data",
    "cc_on_ack",     "cc_on_loss",    "cc_on_rto", "metrics_delivery"};

class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& t, Layer l) : t_(t) { t_.open(l); }
    ~Span() { t_.close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
  };

  struct LayerStats {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
    LogHistogram self_hist;
  };

  Tracer() { stack_.reserve(16); }

  [[nodiscard]] const LayerStats& layer(std::size_t l) const { return layers_[l]; }
  [[nodiscard]] std::int64_t top_level_ns() const { return top_level_ns_; }
  [[nodiscard]] bool balanced() const { return stack_.empty(); }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  void open(Layer l) { stack_.push_back(Frame{l, now_ns(), 0}); }
  void close() {
    const std::int64_t end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - f.start_ns;
    LayerStats& s = layers_[f.layer];
    ++s.calls;
    s.self_ns += duration - f.child_ns;
    s.self_hist.add(duration - f.child_ns);
    if (stack_.empty()) {
      top_level_ns_ += duration;
    } else {
      stack_.back().child_ns += duration;
    }
  }

  std::vector<Frame> stack_;
  std::array<LayerStats, kLayerCount> layers_{};
  std::int64_t top_level_ns_ = 0;
};

class TracedQdisc final : public QueueDisc {
 public:
  TracedQdisc(std::unique_ptr<QueueDisc> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool enqueue(Packet pkt) override {
    Tracer::Span span(tracer_, kEnqueue);
    return inner_->enqueue(std::move(pkt));
  }
  std::optional<Packet> dequeue() override {
    Tracer::Span span(tracer_, kDequeue);
    return inner_->dequeue();
  }
  [[nodiscard]] std::uint64_t byte_count() const override { return inner_->byte_count(); }
  [[nodiscard]] std::uint64_t packet_count() const override { return inner_->packet_count(); }

  [[nodiscard]] const QueueDiscStats& inner_stats() const { return inner_->stats(); }

 private:
  std::unique_ptr<QueueDisc> inner_;
  Tracer& tracer_;
};

class TracedSink final : public PacketSink {
 public:
  TracedSink(PacketSink& inner, Tracer& tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  void deliver(const Packet& pkt) override {
    Tracer::Span span(tracer_, layer_);
    inner_.deliver(pkt);
  }

 private:
  PacketSink& inner_;
  Tracer& tracer_;
  Layer layer_;
};

class TracedCc final : public CongestionControl {
 public:
  TracedCc(std::unique_ptr<CongestionControl> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void on_ack(const AckEvent& ev) override {
    Tracer::Span span(tracer_, kCcAck);
    inner_->on_ack(ev);
  }
  void on_loss(Time now, std::uint64_t bytes_in_flight) override {
    Tracer::Span span(tracer_, kCcLoss);
    inner_->on_loss(now, bytes_in_flight);
  }
  void on_rto(Time now) override {
    Tracer::Span span(tracer_, kCcRto);
    inner_->on_rto(now);
  }
  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return inner_->cwnd_bytes(); }
  [[nodiscard]] double pacing_rate_Bps() const override { return inner_->pacing_rate_Bps(); }
  [[nodiscard]] bool in_slow_start() const override { return inner_->in_slow_start(); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<CongestionControl> inner_;
  Tracer& tracer_;
};

// Declared so that sockets (which unbind on destruction) go before the
// sinks bound in their place.
struct TracedFlow {
  Node* src = nullptr;
  std::unique_ptr<TracedSink> ack_sink;
  std::unique_ptr<TracedSink> data_sink;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;
};

// Simulated time between pending_events() samples.
constexpr Time kSlice = Milliseconds(10);

// Scenario's fixed bottleneck and receiver access delays (scenario.cpp).
constexpr Time kChainLinkDelay = Microseconds(50);
constexpr Time kDstAccessDelay = Microseconds(50);

}  // namespace

int run_traced(const ScenarioConfig& cfg) {
  if (cfg.chain_links != 1 || (cfg.qdisc != QdiscKind::kFifo && cfg.qdisc != QdiscKind::kFqCoDel &&
                               cfg.qdisc != QdiscKind::kCebinae)) {
    std::fprintf(stderr, "error: the traced run supports one FIFO, FQ or Cebinae bottleneck\n");
    return 2;
  }
  Tracer tracer;

  // --- setup: topology (network, chain, qdisc, agents, hosts) -------------
  const std::int64_t s0 = now_ns();
  auto net = std::make_unique<Network>(cfg.seed);
  FlowStatsCollector stats;

  CebinaeParams params = cfg.cebinae;
  if (cfg.qdisc == QdiscKind::kCebinae && cfg.auto_cebinae_timing) {
    Time max_rtt = Time::zero();
    for (const FlowSpec& f : cfg.flows) max_rtt = std::max(max_rtt, f.rtt);
    const CebinaeParams derived =
        CebinaeParams::for_link(cfg.bottleneck_bps, cfg.buffer_bytes, max_rtt);
    params.dt = derived.dt;
    params.p_rounds = std::max(derived.p_rounds, cfg.cebinae.p_rounds);
  }

  CebinaeQueueDisc* cebinae_q = nullptr;
  TracedQdisc* bottleneck_q = nullptr;
  auto factory = [&](int link) -> std::unique_ptr<QueueDisc> {
    std::unique_ptr<QueueDisc> disc;
    switch (cfg.qdisc) {
      case QdiscKind::kFifo:
        disc = std::make_unique<FifoQueue>(cfg.buffer_bytes);
        break;
      case QdiscKind::kFqCoDel: {
        FqCoDelParams p = cfg.fq;
        p.limit_bytes = cfg.buffer_bytes;
        disc = std::make_unique<FqCoDel>(net->scheduler(), p);
        break;
      }
      case QdiscKind::kCebinae: {
        auto q = std::make_unique<CebinaeQueueDisc>(net->scheduler(), cfg.bottleneck_bps,
                                                    cfg.buffer_bytes, params);
        cebinae_q = q.get();
        disc = std::move(q);
        break;
      }
      default:  // rejected above
        break;
    }
    disc->instrument_sojourn(net->scheduler(),
                             net->metrics().histogram("qdisc.sojourn_s.l" + std::to_string(link)));
    auto traced = std::make_unique<TracedQdisc>(std::move(disc), tracer);
    bottleneck_q = traced.get();
    return traced;
  };
  ChainTopology topo = build_chain(*net, 1, cfg.bottleneck_bps, kChainLinkDelay, factory);

  std::unique_ptr<CebinaeAgent> agent;
  if (cebinae_q != nullptr) agent = std::make_unique<CebinaeAgent>(net->scheduler(), *cebinae_q);

  const auto access_bps = static_cast<std::uint64_t>(static_cast<double>(cfg.bottleneck_bps) *
                                                     cfg.access_rate_factor);
  RandomStream jitter_rng = net->rng().derive("start-jitter");
  std::vector<HostPair> pairs;
  for (const FlowSpec& spec : cfg.flows) {
    const Time src_delay =
        std::max(spec.rtt / 2 - (kChainLinkDelay + kDstAccessDelay), Microseconds(1));
    pairs.push_back(attach_hosts(*net, topo, 0, 1, access_bps, src_delay, kDstAccessDelay));
  }

  // --- setup: routes -------------------------------------------------------
  const std::int64_t s1 = now_ns();
  net->build_routes();

  // --- setup: flows (BulkFlow's wiring, with decorators) ------------------
  const std::int64_t s2 = now_ns();
  std::vector<TracedFlow> flows(cfg.flows.size());
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowSpec& spec = cfg.flows[i];
    Time start = spec.start;
    if (cfg.start_jitter > Time::zero()) {
      start += Time(static_cast<std::int64_t>(
          jitter_rng.uniform(0.0, static_cast<double>(cfg.start_jitter.ns()))));
    }
    const auto port = static_cast<std::uint16_t>(5000 + i);
    Node& src = *pairs[i].src;
    Node& dst = *pairs[i].dst;
    const FlowId id{src.id(), dst.id(), port, port};

    TcpSender::Config sc;
    sc.flow = id;
    sc.start_time = start;
    sc.stop_time = spec.stop;
    sc.bytes_to_send = spec.bytes;
    sc.ecn_capable = spec.ecn;
    sc.metrics = &net->metrics();

    TracedFlow& f = flows[i];
    f.src = &src;
    f.sender = std::make_unique<TcpSender>(
        net->scheduler(), src, std::make_unique<TracedCc>(make_cc(spec.cca), tracer), sc);
    f.receiver = std::make_unique<TcpReceiver>(net->scheduler(), dst, id);
    stats.register_flow(id);
    f.receiver->set_delivery_callback(
        [&stats, &tracer](const FlowId& flow, std::uint64_t bytes, Time now) {
          Tracer::Span span(tracer, kDelivery);
          stats.on_delivery(flow, bytes, now);
        });
    f.ack_sink = std::make_unique<TracedSink>(*f.sender, tracer, kAckPath);
    f.data_sink = std::make_unique<TracedSink>(*f.receiver, tracer, kDataPath);
    src.unbind(port);
    src.bind(port, *f.ack_sink);
    dst.unbind(port);
    dst.bind(port, *f.data_sink);
  }
  const std::int64_t s3 = now_ns();

  // --- run, in fixed simulated-time slices ---------------------------------
  Scheduler& sched = net->scheduler();
  std::size_t pending_hwm = 0;
  const std::int64_t r0 = now_ns();
  if (agent) agent->start();
  for (TracedFlow& f : flows) f.sender->start();
  for (Time t = Time::zero(); t < cfg.duration;) {
    t = std::min(t + kSlice, cfg.duration);
    sched.run_until(t);
    pending_hwm = std::max(pending_hwm, sched.pending_events());
  }
  const std::int64_t r1 = now_ns();

  // --- summary -------------------------------------------------------------
  const QueueDiscStats& q = bottleneck_q->inner_stats();
  Outcome out;
  out.events = sched.executed_events();
  for (const FlowId& id : stats.flows()) out.add_flow(stats.total_bytes(id));
  out.enqueued = q.enqueued_packets;
  out.dropped = q.dropped_packets;
  out.jfi = jain_index(stats.goodputs_Bps(Time::zero(), cfg.duration));

  std::uint64_t segments = 0, retransmits = 0, rtos = 0, fast_retransmits = 0;
  for (const TracedFlow& f : flows) {
    segments += f.src->device(0).qdisc().stats().enqueued_packets;
    retransmits += f.sender->retransmissions();
    rtos += f.sender->rto_count();
    fast_retransmits += f.sender->fast_retransmit_count();
  }

  JsonLine layers;
  std::int64_t self_total_ns = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const Tracer::LayerStats& s = tracer.layer(l);
    self_total_ns += s.self_ns;
    layers.raw(kLayerNames[l], JsonLine()
                                   .num("calls", s.calls)
                                   .num("self_s", ns_to_s(s.self_ns))
                                   .num("p99_ns", static_cast<double>(s.self_hist.quantile(0.99)))
                                   .done());
  }
  const std::int64_t run_ns = r1 - r0;
  const std::int64_t residual_ns = run_ns - tracer.top_level_ns();

  std::puts(JsonLine()
                .str("mode", "traced")
                .num("sim_s", cfg.duration.seconds())
                .num("setup_topology_s", ns_to_s(s1 - s0))
                .num("setup_routes_s", ns_to_s(s2 - s1))
                .num("setup_flows_s", ns_to_s(s3 - s2))
                .num("run_s", ns_to_s(run_ns))
                .num("residual_s", ns_to_s(residual_ns))
                // Self times partition the top-level spans, so self times
                // plus the residual must give the run time to the ns.
                .num("unaccounted_ns", static_cast<double>(run_ns - self_total_ns - residual_ns))
                .num("balanced", static_cast<std::uint64_t>(tracer.balanced() ? 1 : 0))
                .num("pending_hwm", static_cast<std::uint64_t>(pending_hwm))
                .num("dequeued", q.dequeued_packets)
                .raw("layers", layers.done())
                .num("core_rotations", cebinae_q ? cebinae_q->lbf().rotations() : 0)
                .num("core_recomputations", agent ? agent->recomputations() : 0)
                .num("core_lbf_drops", cebinae_q ? cebinae_q->lbf_dropped_packets() : 0)
                .num("core_delayed", cebinae_q ? cebinae_q->delayed_packets() : 0)
                .num("tcp_segments", segments)
                .num("tcp_retransmits", retransmits)
                .num("tcp_rtos", rtos)
                .num("tcp_fast_retransmits", fast_retransmits)
                .raw("outcome", out.json())
                .done()
                .c_str());
  return 0;
}

}  // namespace perfbench

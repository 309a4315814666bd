#include "runner/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "metrics/jfi.hpp"
#include "queueing/fifo_queue.hpp"

namespace cebinae {

namespace {
// Fixed small propagation delays for the bottleneck and receiver access
// links; the sender access link absorbs the rest of each flow's RTT budget.
constexpr Time kChainLinkDelay = Microseconds(50);
constexpr Time kDstAccessDelay = Microseconds(50);

Time src_access_delay_for(const FlowSpec& spec, int hops) {
  const Time fixed = hops * kChainLinkDelay + kDstAccessDelay;
  const Time budget = spec.rtt / 2 - fixed;
  return std::max(budget, Microseconds(1));
}
}  // namespace

std::string_view to_string(QdiscKind kind) {
  switch (kind) {
    case QdiscKind::kFifo:
      return "FIFO";
    case QdiscKind::kFqCoDel:
      return "FQ";
    case QdiscKind::kCebinae:
      return "Cebinae";
    case QdiscKind::kAfq:
      return "AFQ";
    case QdiscKind::kStrawman:
      return "Strawman";
  }
  return "?";
}

std::unique_ptr<QueueDisc> Scenario::make_bottleneck_qdisc(int link,
                                                           const CebinaeParams& cebinae) {
  std::unique_ptr<QueueDisc> disc;
  switch (cfg_.qdisc) {
    case QdiscKind::kFifo:
      disc = std::make_unique<FifoQueue>(cfg_.buffer_bytes);
      break;
    case QdiscKind::kFqCoDel:
      disc = std::make_unique<FqCoDel>(net_->scheduler(), FqCoDelParams{cfg_.buffer_bytes});
      break;
    case QdiscKind::kCebinae: {
      auto q = std::make_unique<CebinaeQueueDisc>(net_->scheduler(), cfg_.bottleneck_bps,
                                                  cfg_.buffer_bytes, cebinae);
      cebinae_qdiscs_.push_back(q.get());
      disc = std::move(q);
      break;
    }
    case QdiscKind::kAfq:
      disc = std::make_unique<Afq>(cfg_.buffer_bytes, cfg_.afq);
      break;
    case QdiscKind::kStrawman:
      disc = std::make_unique<StrawmanQueueDisc>(net_->scheduler(), cfg_.bottleneck_bps,
                                                 cfg_.buffer_bytes);
      break;
  }
  // Per-link sojourn-time histogram: dequeue − enqueue of every delivered
  // packet, exported by trace_row as qdisc.sojourn_s.l<k>.{n,mean,max}.
  if (disc != nullptr) {
    disc->instrument_sojourn(
        net_->scheduler(),
        net_->metrics().histogram("qdisc.sojourn_s.l" + std::to_string(link)));
  }
  return disc;
}

Scenario::Scenario(ScenarioConfig config) : cfg_(std::move(config)) {
  assert(!cfg_.flows.empty());
  net_ = std::make_unique<Network>(cfg_.seed);

  // Cebinae timing derives from the link and the slowest flow (paper §4.4);
  // only the thresholds come from the config.
  assert(cfg_.cebinae.dt == CebinaeParams{}.dt &&
         cfg_.cebinae.p_rounds == CebinaeParams{}.p_rounds &&
         "dT and P derive from the link; a config sets only δp, δf and τ");
  Time max_rtt = Time::zero();
  for (const FlowSpec& f : cfg_.flows) max_rtt = std::max(max_rtt, f.rtt);
  const CebinaeParams derived =
      CebinaeParams::for_link(cfg_.bottleneck_bps, cfg_.buffer_bytes, max_rtt);
  CebinaeParams cebinae = cfg_.cebinae;
  cebinae.dt = derived.dt;
  cebinae.p_rounds = derived.p_rounds;

  topo_ = build_chain(*net_, cfg_.chain_links, cfg_.bottleneck_bps, kChainLinkDelay,
                      [this, &cebinae](int link) { return make_bottleneck_qdisc(link, cebinae); });

  if (cfg_.qdisc == QdiscKind::kCebinae) {
    for (CebinaeQueueDisc* q : cebinae_qdiscs_) {
      agents_.push_back(std::make_unique<CebinaeAgent>(net_->scheduler(), *q));
    }
  }

  // Hosts + flows.
  const std::uint64_t access_bps = static_cast<std::uint64_t>(
      static_cast<double>(cfg_.bottleneck_bps) * ScenarioConfig::access_rate_factor);
  RandomStream jitter_rng = net_->rng().derive("start-jitter");

  std::vector<HostPair> pairs;
  pairs.reserve(cfg_.flows.size());
  for (const FlowSpec& spec : cfg_.flows) {
    const int exit = exit_switch(spec, cfg_.chain_links);
    const Time src_delay = src_access_delay_for(spec, exit - spec.enter);
    pairs.push_back(attach_hosts(*net_, topo_, spec.enter, exit, access_bps, src_delay,
                                 kDstAccessDelay));
  }
  net_->build_routes();

  for (std::size_t i = 0; i < cfg_.flows.size(); ++i) {
    const FlowSpec& spec = cfg_.flows[i];
    const auto port = static_cast<std::uint16_t>(5000 + i);
    const FlowId flow{pairs[i].src->id(), pairs[i].dst->id(), port, port};

    TcpSender::Config sc;
    sc.flow = flow;
    sc.start_time = spec.start + Time(static_cast<std::int64_t>(jitter_rng.uniform(
                                     0.0, static_cast<double>(ScenarioConfig::start_jitter.ns()))));
    sc.bytes_to_send = spec.bytes;
    sc.metrics = &net_->metrics();

    senders_.push_back(
        std::make_unique<TcpSender>(net_->scheduler(), *pairs[i].src, make_cc(spec.cca), sc));
    receivers_.push_back(std::make_unique<TcpReceiver>(net_->scheduler(), *pairs[i].dst, flow));
    const std::size_t index = stats_.register_flow(flow);
    receivers_.back()->set_delivery_callback(
        [this, index](const FlowId&, std::uint64_t bytes, Time now) {
          stats_.on_delivery(index, bytes, now);
        });
  }
}

void Scenario::enable_trace(Time period) {
  assert(!trace_timer_ && "enable_trace must be called at most once");
  assert(period > Time::zero() && "trace period must be positive");
  trace_period_ = period;
  trace_prev_bytes_.assign(flow_ids().size(), 0);
  trace_timer_.emplace(net_->scheduler(), [this] {
    trace_timer_->arm_after(trace_period_);
    trace_.push_back(trace_row(net_->scheduler().now()));
  });
  trace_timer_->arm_after(period);
}

namespace {
void set_histogram(exp::JsonObject& row, const std::string& name, const obs::Histogram& h) {
  row.set(name + ".n", static_cast<double>(h.count()));
  row.set(name + ".mean", h.mean());
  row.set(name + ".max", h.max());
}
}  // namespace

exp::JsonObject Scenario::trace_row(Time now) {
  exp::JsonObject row;
  row.set("t_s", now.seconds());

  // Per-flow windowed throughput over [now - period, now), plus JFI over the
  // flows whose configured start precedes the window — matching the paper's
  // time-series figures, where a joining flow enters the fairness index only
  // once it has been active for a full sample window.
  const std::vector<FlowId>& flows = flow_ids();
  std::vector<double> tput(flows.size(), 0.0);
  std::vector<double> active;
  const Time window_start = now - trace_period_;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::uint64_t total = stats_.total_bytes(flows[i]);
    tput[i] = static_cast<double>(total - trace_prev_bytes_[i]) / trace_period_.seconds();
    trace_prev_bytes_[i] = total;
    if (cfg_.flows[i].start <= window_start) active.push_back(tput[i]);
  }
  row.set("jfi", jain_index(active));

  // Scalars, in a fixed order: every link's sojourn histogram, then
  // network-wide transmit counts, then TCP counts summed over the senders.
  obs::MetricsRegistry& metrics = net_->metrics();
  for (std::size_t l = 0; l < topo_.bottlenecks.size(); ++l) {
    const std::string name = "qdisc.sojourn_s.l" + std::to_string(l);
    set_histogram(row, name, metrics.histogram(name));
  }
  std::uint64_t tx_bytes = 0, tx_packets = 0;
  for (NodeId n = 0; n < net_->node_count(); ++n) {
    Node& node = net_->node(n);
    for (std::size_t d = 0; d < node.device_count(); ++d) {
      tx_bytes += node.device(d).tx_bytes();
      tx_packets += node.device(d).tx_packets();
    }
  }
  row.set("net.tx_bytes", static_cast<double>(tx_bytes));
  row.set("net.tx_packets", static_cast<double>(tx_packets));
  std::uint64_t retransmits = 0, rtos = 0, fast_retransmits = 0;
  for (const auto& sender : senders_) {
    retransmits += sender->retransmissions();
    rtos += sender->rto_count();
    fast_retransmits += sender->fast_retransmit_count();
  }
  row.set("tcp.retransmits", static_cast<double>(retransmits));
  row.set("tcp.rtos", static_cast<double>(rtos));
  row.set("tcp.fast_retransmits", static_cast<double>(fast_retransmits));
  set_histogram(row, "tcp.srtt_s", metrics.histogram("tcp.srtt_s"));

  row.set("tput_Bps", std::move(tput));

  // Bottleneck queue state, one array element per chain link.
  std::vector<double> depth_bytes, depth_pkts, drops;
  for (const Device* dev : topo_.bottlenecks) {
    const QueueDisc& q = dev->qdisc();
    depth_bytes.push_back(static_cast<double>(q.byte_count()));
    depth_pkts.push_back(static_cast<double>(q.packet_count()));
    drops.push_back(static_cast<double>(q.stats().dropped_packets));
  }
  row.set("q_bytes", std::move(depth_bytes));
  row.set("q_pkts", std::move(depth_pkts));
  row.set("q_drops", std::move(drops));

  // Per-flow TCP state.
  std::vector<double> cwnd, srtt;
  for (const auto& sender : senders_) {
    cwnd.push_back(static_cast<double>(sender->cc().cwnd_bytes()));
    srtt.push_back(sender->rtt().srtt().seconds());
  }
  row.set("cwnd_bytes", std::move(cwnd));
  row.set("srtt_s", std::move(srtt));

  // Cebinae data/control-plane state (per link, plus per-flow ⊤ membership
  // at the first bottleneck).
  if (cfg_.qdisc != QdiscKind::kCebinae) return row;
  std::vector<double> rotations, delayed, lbf_drops, buffer_drops, flips, saturated, utilization,
      cache_occupied, cache_uncounted;
  for (std::size_t l = 0; l < cebinae_qdiscs_.size(); ++l) {
    CebinaeQueueDisc* q = cebinae_qdiscs_[l];
    const CebinaeAgent::Snapshot& snap = agents_[l]->snapshot();
    rotations.push_back(static_cast<double>(q->lbf().rotations()));
    delayed.push_back(static_cast<double>(q->delayed_packets()));
    lbf_drops.push_back(static_cast<double>(q->lbf_dropped_packets()));
    buffer_drops.push_back(static_cast<double>(q->buffer_dropped_packets()));
    flips.push_back(static_cast<double>(agents_[l]->phase_changes()));
    saturated.push_back(snap.saturated ? 1.0 : 0.0);
    utilization.push_back(snap.utilization);
    cache_occupied.push_back(static_cast<double>(q->cache().occupied_slots()));
    cache_uncounted.push_back(static_cast<double>(q->cache().uncounted_packets()));
  }
  row.set("ceb_rotations", std::move(rotations));
  row.set("ceb_delayed", std::move(delayed));
  row.set("ceb_lbf_drops", std::move(lbf_drops));
  row.set("ceb_buffer_drops", std::move(buffer_drops));
  row.set("ceb_flips", std::move(flips));
  row.set("ceb_saturated", std::move(saturated));
  row.set("ceb_util", std::move(utilization));
  row.set("ceb_cache_occupied", std::move(cache_occupied));
  row.set("ceb_cache_uncounted", std::move(cache_uncounted));
  std::vector<double> top(flows.size(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    top[i] = cebinae_qdiscs_[0]->is_top(flows[i]) ? 1.0 : 0.0;
  }
  row.set("top_flow", std::move(top));
  return row;
}

ScenarioResult Scenario::run() {
  for (auto& agent : agents_) agent->start();
  for (auto& sender : senders_) sender->start();
  // Second-half goodputs: the steady-state window the ablation benches and
  // convergence reporters read (excludes slow start and join transients).
  stats_.set_window(Time(cfg_.duration.ns() / 2), cfg_.duration);
  net_->scheduler().run_until(cfg_.duration);

  ScenarioResult r;
  r.goodput_Bps = stats_.goodputs_Bps(Time::zero(), cfg_.duration);
  r.tail_goodput_Bps = stats_.window_goodputs_Bps();
  for (double g : r.goodput_Bps) r.total_goodput_Bps += g;
  for (const Device* dev : topo_.bottlenecks) {
    r.throughput_Bps.push_back(static_cast<double>(dev->tx_bytes()) /
                               cfg_.duration.seconds());
  }
  r.jfi = jain_index(r.goodput_Bps);
  r.events = net_->scheduler().executed_events();
  r.event_digest = net_->scheduler().event_digest();
  return r;
}

std::vector<double> ideal_goodputs_Bps(const ScenarioConfig& cfg) {
  MaxMinProblem problem;
  // Application-level capacity: wire rate scaled by payload efficiency.
  const double payload_efficiency =
      static_cast<double>(kMssBytes) / static_cast<double>(kMtuBytes);
  problem.link_capacity.assign(
      static_cast<std::size_t>(cfg.chain_links),
      static_cast<double>(cfg.bottleneck_bps) / 8.0 * payload_efficiency);
  for (const FlowSpec& f : cfg.flows) {
    const int exit = exit_switch(f, cfg.chain_links);
    assert(exit > f.enter);  // as attach_hosts asserts; maxmin_rates needs a link
    std::vector<std::size_t> links;
    for (int l = f.enter; l < exit; ++l) links.push_back(static_cast<std::size_t>(l));
    problem.flow_links.push_back(std::move(links));
  }
  return maxmin_rates(problem);
}

}  // namespace cebinae

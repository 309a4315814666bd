// Declarative experiment runner shared by benches and integration tests.
//
// A ScenarioConfig names a chain topology (1 link = dumbbell, N links =
// parking lot), a bottleneck queue discipline (FIFO / FQ-CoDel / Cebinae),
// and a set of TCP flows with per-flow CCA, RTT, entry/exit points, and
// start/stop times. Scenario builds the network, runs it, and reports the
// paper's metrics (per-flow goodput, bottleneck throughput, JFI).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/agent.hpp"
#include "core/cebinae_queue_disc.hpp"
#include "core/params.hpp"
#include "exp/json_row.hpp"
#include "metrics/flow_stats.hpp"
#include "metrics/maxmin.hpp"
#include "net/network.hpp"
#include "queueing/afq.hpp"
#include "queueing/fq_codel.hpp"
#include "queueing/token_bucket.hpp"
#include "runner/flow_spec.hpp"
#include "tcp/tcp_socket.hpp"
#include "topology/topology.hpp"

namespace cebinae {

enum class QdiscKind { kFifo, kFqCoDel, kCebinae, kAfq, kStrawman };

[[nodiscard]] std::string_view to_string(QdiscKind kind);

struct ScenarioConfig {
  int chain_links = 1;
  std::uint64_t bottleneck_bps = 100'000'000;
  std::uint64_t buffer_bytes = 420ull * kMtuBytes;
  QdiscKind qdisc = QdiscKind::kFifo;

  // Cebinae knobs. With auto_cebinae_timing, dT and P are derived from the
  // link (Eq. 2 + max-RTT rule) and only the thresholds below are taken
  // from `cebinae`.
  CebinaeParams cebinae;
  bool auto_cebinae_timing = true;

  FqCoDelParams fq;  // limit_bytes is overridden with buffer_bytes
  AfqParams afq;

  double access_rate_factor = 4.0;
  Time duration = Seconds(30);
  Time start_jitter = Milliseconds(100);  // uniform [0, jitter) added to starts
  std::uint64_t seed = 1;

  std::vector<FlowSpec> flows;
};

// Ideal max-min goodput allocation (application-level) for a config's
// topology and flows — Fig. 11's "Ideal" bars. Usable without building a
// Scenario (flow exits < 0 are normalized to chain_links here too).
[[nodiscard]] std::vector<double> ideal_goodputs_Bps(const ScenarioConfig& cfg);

struct ScenarioResult {
  std::vector<double> goodput_Bps;      // per flow, over the whole run
  std::vector<double> tail_goodput_Bps; // per flow, over [duration/2, duration)
  double total_goodput_Bps = 0.0;
  std::vector<double> throughput_Bps;   // per chain link (wire bytes)
  double jfi = 1.0;
  // The scheduler's executed event count and (when, seq) digest at the end.
  std::uint64_t events = 0;
  std::uint64_t event_digest = 0;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  // Runs until config.duration and summarizes.
  ScenarioResult run();

  // Pre-run hooks -----------------------------------------------------------

  // Record one trace row (trace_row) every `period`, first at now + period.
  // Rows accumulate in trace(). Call at most once, before run().
  void enable_trace(Time period);

  [[nodiscard]] std::vector<exp::JsonObject>& trace() { return trace_; }

  // Accessors ---------------------------------------------------------------
  [[nodiscard]] Network& network() { return *net_; }
  [[nodiscard]] FlowStatsCollector& stats() { return stats_; }
  [[nodiscard]] const std::vector<FlowId>& flow_ids() const { return stats_.flows(); }
  [[nodiscard]] TcpSender& sender(std::size_t flow_index) {
    return *senders_.at(flow_index);
  }
  [[nodiscard]] TcpReceiver& receiver(std::size_t flow_index) {
    return *receivers_.at(flow_index);
  }
  [[nodiscard]] const Device& bottleneck(int link = 0) const {
    return *topo_.bottlenecks.at(link);
  }
  // Non-null only for QdiscKind::kCebinae.
  [[nodiscard]] CebinaeAgent* agent(int link = 0) {
    return agents_.empty() ? nullptr : agents_.at(link).get();
  }
  [[nodiscard]] CebinaeQueueDisc* cebinae_qdisc(int link = 0) {
    return cebinae_qdiscs_.empty() ? nullptr : cebinae_qdiscs_.at(link);
  }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] std::unique_ptr<QueueDisc> make_bottleneck_qdisc(int link,
                                                                const CebinaeParams& cebinae);

  // The trace row at `now`, read from component state, fields in order: t_s,
  // then the scalars, then the arrays. Per-flow throughput over
  // [now - period, now) and JFI(t), the registry's sojourn and RTT
  // histograms, network-wide transmit counts, TCP loss-recovery counts,
  // per-bottleneck queue depth and drops, per-flow cwnd and srtt, and
  // (under Cebinae) LBF rotations, ⊤/⊥ classification state,
  // delayed/dropped counts, and cache occupancy. Schedules nothing.
  [[nodiscard]] exp::JsonObject trace_row(Time now);

  ScenarioConfig cfg_;
  std::unique_ptr<Network> net_;
  FlowStatsCollector stats_;
  ChainTopology topo_;
  std::vector<std::unique_ptr<TcpSender>> senders_;
  std::vector<std::unique_ptr<TcpReceiver>> receivers_;
  std::vector<std::unique_ptr<CebinaeAgent>> agents_;
  std::vector<CebinaeQueueDisc*> cebinae_qdiscs_;
  std::vector<exp::JsonObject> trace_;
  // Re-arms for the next tick before it builds its row.
  std::optional<Timer> trace_timer_;
  Time trace_period_;
  std::vector<std::uint64_t> trace_prev_bytes_;  // per flow, at the last tick
};

}  // namespace cebinae

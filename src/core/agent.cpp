#include "core/agent.hpp"

#include <algorithm>

namespace cebinae {

CebinaeAgent::CebinaeAgent(Scheduler& sched, CebinaeQueueDisc& qdisc)
    : sched_(sched),
      qdisc_(qdisc),
      params_(qdisc.params()),
      capacity_Bps_(static_cast<double>(qdisc.capacity_bps()) / 8.0),
      rotate_gen_(sched, params_.dt, [this] { on_rotate(); }) {}

void CebinaeAgent::start() { rotate_gen_.start(params_.dt); }

void CebinaeAgent::on_rotate() {
  qdisc_.rotate();
  ++rotations_;

  if (rotations_ % params_.p_rounds == 0) recompute();

  // Commit window [t0 + vdT, t0 + vdT + L]: the drained queue is guaranteed
  // empty, so rate and membership changes are safe. Apply the latest targets
  // to the queue that just became available for scheduling.
  sched_.schedule(params_.vdt + params_.l_deadline, [this] {
    const bool was_saturated = qdisc_.lbf().saturated_phase();
    if (target_saturated_ && !was_saturated) {
      qdisc_.set_top_flows(target_top_flows_);
      qdisc_.lbf().enter_saturated(target_top_rate_, target_bottom_rate_);
      ++phase_changes_;
    } else if (target_saturated_) {
      qdisc_.set_top_flows(target_top_flows_);
      qdisc_.lbf().set_future_rates(target_top_rate_, target_bottom_rate_);
    } else if (was_saturated) {
      qdisc_.set_top_flows({});
      qdisc_.lbf().leave_saturated();
      ++phase_changes_;
    }
  });
}

void CebinaeAgent::recompute() {
  ++recomputations_;
  const Time interval = params_.dt * params_.p_rounds;

  // Fig. 4 lines 8-13: port utilization from the transmit byte counter.
  const bool saturated = qdisc_.port().sample(interval);

  // Fig. 4 line 10: the cache is polled and reset every interval regardless
  // of saturation, so counters never span multiple intervals.
  const std::vector<FlowCache::Entry> entries = qdisc_.cache().poll_and_reset();

  snapshot_.saturated = saturated;
  snapshot_.utilization = qdisc_.port().last_utilization();
  snapshot_.top_flows.clear();

  if (!saturated || entries.empty()) {
    target_saturated_ = false;
    target_top_flows_.clear();
    snapshot_.top_rate_Bps = 0.0;
    snapshot_.bottom_rate_Bps = capacity_Bps_;
    return;
  }

  // Fig. 4 lines 14-22: classify ⊤ flows and tax them.
  std::uint64_t c_max = 0;
  for (const auto& e : entries) c_max = std::max(c_max, e.bytes);

  const double threshold = static_cast<double>(c_max) * (1.0 - params_.delta_flow);
  std::unordered_set<FlowId, FlowIdHash> top;
  double bottleneck_bytes = 0.0;
  for (const auto& e : entries) {
    if (static_cast<double>(e.bytes) >= threshold) {
      top.insert(e.flow);
      bottleneck_bytes += static_cast<double>(e.bytes);
      snapshot_.top_flows.push_back(e.flow);
    }
  }
  bottleneck_bytes *= 1.0 - params_.tau;

  // Fig. 4 lines 27-28: split the capacity between the groups.
  const double interval_s = interval.seconds();
  double top_rate = bottleneck_bytes / interval_s;
  top_rate = std::min(top_rate, capacity_Bps_);
  const double bottom_rate = capacity_Bps_ - top_rate;

  target_saturated_ = true;
  target_top_rate_ = top_rate;
  target_bottom_rate_ = bottom_rate;
  target_top_flows_ = std::move(top);

  snapshot_.top_rate_Bps = top_rate;
  snapshot_.bottom_rate_Bps = bottom_rate;
}

}  // namespace cebinae

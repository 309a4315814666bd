#include "core/agent.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace cebinae {

CebinaeAgent::CebinaeAgent(Scheduler& sched, CebinaeQueueDisc& qdisc)
    : qdisc_(qdisc),
      params_(qdisc.params()),
      capacity_Bps_(static_cast<double>(qdisc.capacity_bps()) / 8.0),
      port_(qdisc.capacity_bps(), params_.delta_port),
      rotate_timer_(sched,
                    [this] {
                      rotate_timer_.arm_after(params_.dt);
                      on_rotate();
                    }),
      commit_timer_(sched, [this] { commit(); }) {}

void CebinaeAgent::start() { rotate_timer_.arm_after(params_.dt); }

void CebinaeAgent::on_rotate() {
  qdisc_.rotate();

  if (rotations() % params_.p_rounds == 0) recompute();

  // Commit window [t0 + vdT, t0 + vdT + L]: the drained queue is guaranteed
  // empty, so rate and membership changes are safe. Apply the latest targets
  // to the queue that just became available for scheduling. dT > vdT + L
  // (CebinaeParams::for_link), so the previous rotation's commit has run.
  assert(!commit_timer_.armed() && "commit window overlaps the next rotation");
  commit_timer_.arm_after(CebinaeParams::kVdt + CebinaeParams::kLDeadline);
}

void CebinaeAgent::commit() {
  const bool was_saturated = qdisc_.lbf().saturated_phase();
  if (target_saturated_ && !was_saturated) {
    qdisc_.set_top_flows(snapshot_.top_flows);
    qdisc_.lbf().enter_saturated(snapshot_.top_rate_Bps, snapshot_.bottom_rate_Bps);
    ++phase_changes_;
  } else if (target_saturated_) {
    qdisc_.set_top_flows(snapshot_.top_flows);
    qdisc_.lbf().set_future_rates(snapshot_.top_rate_Bps, snapshot_.bottom_rate_Bps);
  } else if (was_saturated) {
    qdisc_.set_top_flows({});
    qdisc_.lbf().leave_saturated();
    ++phase_changes_;
  }
}

void CebinaeAgent::recompute() {
  ++recomputations_;
  const Time interval = params_.dt * params_.p_rounds;

  // Fig. 4 lines 8-13: port utilization from the transmit byte counter.
  const bool saturated = port_.sample(qdisc_.stats().dequeued_bytes, interval);

  // Fig. 4 line 10: the cache is polled and reset every interval regardless
  // of saturation, so counters never span multiple intervals.
  const std::vector<FlowCache::Entry> entries = qdisc_.cache().poll_and_reset();

  snapshot_.saturated = saturated;
  snapshot_.utilization = port_.last_utilization();

  if (!saturated || entries.empty()) {
    target_saturated_ = false;
    snapshot_.top_flows.clear();
    snapshot_.top_rate_Bps = 0.0;
    snapshot_.bottom_rate_Bps = capacity_Bps_;
    return;
  }

  // Fig. 4 lines 14-22: classify ⊤ flows and tax them.
  TopFlows top = classify_top(entries, params_.delta_flow);
  const double bottleneck_bytes = top.bytes * (1.0 - params_.tau);

  // Fig. 4 lines 27-28: split the capacity between the groups.
  const double interval_s = interval.seconds();
  double top_rate = bottleneck_bytes / interval_s;
  top_rate = std::min(top_rate, capacity_Bps_);
  const double bottom_rate = capacity_Bps_ - top_rate;

  target_saturated_ = true;
  snapshot_.top_rate_Bps = top_rate;
  snapshot_.bottom_rate_Bps = bottom_rate;
  snapshot_.top_flows = std::move(top.flows);
}

}  // namespace cebinae

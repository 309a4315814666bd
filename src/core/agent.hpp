// Cebinae's control-plane agent (the paper's Fig. 4 pseudocode on the
// Fig. 6 timeline).
//
// Every dT the data plane rotates queue priorities (driven by the agent's
// ROTATE timer, which models the switch's packet generator). Every P
// rotations the agent samples the port's transmit byte counter (the queue
// disc's stats().dequeued_bytes), polls-and-resets the heavy-hitter cache,
// classifies ⊤ flows (within δf of the maximum), and computes taxed rate
// allocations; all changes commit at t0 + vdT + L — the window in which the
// drained queue is guaranteed empty, so membership moves cannot reorder
// packets.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "core/cebinae_queue_disc.hpp"
#include "core/params.hpp"
#include "core/port_saturation.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

class CebinaeAgent {
 public:
  CebinaeAgent(Scheduler& sched, CebinaeQueueDisc& qdisc);

  // Begin the rotation/recomputation loop; the first ROTATE fires one dT
  // from now (bootstrapping the LBF's time origin).
  void start();

  struct Snapshot {
    bool saturated = false;
    double utilization = 0.0;
    double top_rate_Bps = 0.0;
    double bottom_rate_Bps = 0.0;
    // The ⊤ set the next commit installs; empty when unsaturated.
    std::unordered_set<FlowId, FlowIdHash> top_flows;
  };
  [[nodiscard]] const Snapshot& snapshot() const { return snapshot_; }

  [[nodiscard]] std::uint64_t rotations() const { return qdisc_.lbf().rotations(); }
  [[nodiscard]] std::uint64_t recomputations() const { return recomputations_; }
  [[nodiscard]] std::uint64_t phase_changes() const { return phase_changes_; }

 private:
  void on_rotate();
  void recompute();
  // Applies the latest targets (the commit at t0 + vdT + L).
  void commit();

  CebinaeQueueDisc& qdisc_;
  CebinaeParams params_;
  double capacity_Bps_;
  PortSaturationDetector port_;  // control-plane state (§4.1)
  // The hardware packet generator's ROTATE, every dT: it re-arms before it
  // rotates, so the period never drifts.
  Timer rotate_timer_;
  Timer commit_timer_;

  std::uint64_t recomputations_ = 0;
  std::uint64_t phase_changes_ = 0;

  // Whether the last recomputation taxes: the snapshot's rates and ⊤ set are
  // the targets applied to each queue as it becomes available. It differs
  // from snapshot_.saturated when the port saturated with an empty cache.
  bool target_saturated_ = false;
  Snapshot snapshot_;
};

}  // namespace cebinae

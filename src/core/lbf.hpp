// Cebinae's two-queue leaky-bucket filter: the data-plane admission logic of
// the paper's Fig. 5.
//
// The filter models a two-slot calendar queue. The high-priority queue
// (headq) is the current dT round's bucket; the low-priority queue (¬headq)
// is the next round's. Per flow-group byte counters are integrated against
// the group's per-queue rate allocations; a packet is admitted to headq if
// the group is within this round's allocation, delayed into ¬headq if within
// the next round's, and dropped otherwise. Virtual rounds of vdT floor the
// byte counters to the pacing line, bounding end-of-round catch-up bursts so
// the previous queue always drains within vdT of a rotation.
//
// This class is pure accounting (fully unit-testable); the packet storage
// lives in CebinaeQueueDisc.
#pragma once

#include <array>
#include <cstdint>

#include "core/params.hpp"
#include "sim/time.hpp"

namespace cebinae {

enum class FlowGroup : std::uint8_t { kBottom = 0, kTop = 1 };

class LeakyBucketFilter {
 public:
  enum class Queue : std::uint8_t { kHead, kTail, kDrop };

  LeakyBucketFilter(const CebinaeParams& params, std::uint64_t capacity_bps);

  // Fig. 5 lines 13-33: admission decision for a packet of `size` bytes.
  [[nodiscard]] Queue admit(FlowGroup group, std::uint32_t size, Time now);

  // Fig. 5 lines 8-12 (ROTATE packet): drain one round's allocation from the
  // byte counters, advance the round origin, and flip queue priorities.
  void rotate(Time now);

  // Control-plane API -------------------------------------------------------

  // Set the rates of the queue that just became available for scheduling
  // (the current ¬headq); the active headq keeps the rates fixed when it was
  // refilled (paper §4.3, "supporting dynamic rate changes").
  void set_future_rates(double top_Bps, double bottom_Bps);

  // Atomic phase change (paper §4.3, "supporting phase changes"). Entering
  // the saturated phase installs rates on both queues and re-bootstraps the
  // per-group byte counters from the aggregate counter the first time each
  // group sends; leaving it reverts to the aggregate capacity filter.
  void enter_saturated(double top_Bps, double bottom_Bps);
  void leave_saturated();

  [[nodiscard]] bool saturated_phase() const { return saturated_; }
  [[nodiscard]] int head_index() const { return head_; }
  [[nodiscard]] double rate_Bps(int queue, FlowGroup g) const {
    return rate_[queue][static_cast<int>(g)];
  }
  [[nodiscard]] double group_bytes(FlowGroup g) const { return bytes_[static_cast<int>(g)]; }
  [[nodiscard]] double total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t rotations() const { return rotations_; }

 private:
  // Bytes the group was entitled to send since the current round's start,
  // integrating headq's rate over this round and (when the clock has slipped
  // past it) ¬headq's rate beyond (Fig. 5 lines 15-20).
  [[nodiscard]] double entitled_bytes(double rate_head_Bps, double rate_tail_Bps) const;

  void advance_virtual_round(Time now);

  CebinaeParams params_;
  double capacity_Bps_;
  double dt_s_;
  std::int64_t rounds_per_dt_;

  int head_ = 0;
  double rate_[2][2] = {};  // [physical queue][flow group], bytes/second

  double bytes_[2] = {};    // per-group accumulated bytes
  double total_bytes_ = 0;  // aggregate counter (phase-change bootstrap)
  bool group_valid_[2] = {true, true};
  double bootstrap_total_ = 0.0;
  double bootstrap_share_[2] = {0.0, 0.0};

  Time base_round_time_ = Time::zero();
  Time round_time_ = Time::zero();
  std::int64_t relative_round_ = 0;

  bool saturated_ = false;
  std::uint64_t rotations_ = 0;
};

}  // namespace cebinae

// Cebinae's per-port data plane: two physical queues with priority given by
// the LBF's head index, the egress heavy-hitter cache, and the ⊤-flow
// membership table (exact-match, so hash collisions can never tax an
// innocent flow). The port's monotone transmit byte counter is
// stats().dequeued_bytes; the agent samples it.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <utility>

#include "core/flow_cache.hpp"
#include "core/lbf.hpp"
#include "core/params.hpp"
#include "queueing/queue_disc.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

class CebinaeQueueDisc final : public QueueDisc {
 public:
  CebinaeQueueDisc(Scheduler& sched, std::uint64_t capacity_bps, std::uint64_t buffer_bytes,
                   CebinaeParams params);

  bool enqueue_slot(PacketSlab::Slot s) override;
  PacketSlab::Slot dequeue_slot() override;

  // Data-plane components (driven by the control-plane agent).
  [[nodiscard]] LeakyBucketFilter& lbf() { return lbf_; }
  [[nodiscard]] FlowCache& cache() { return cache_; }

  // ROTATE: flip queue priorities and drain the LBF accounting.
  void rotate();

  void set_top_flows(std::unordered_set<FlowId, FlowIdHash> flows) {
    top_flows_ = std::move(flows);
  }
  [[nodiscard]] bool is_top(const FlowId& flow) const {
    return top_flows_.find(flow) != top_flows_.end();
  }
  [[nodiscard]] const std::unordered_set<FlowId, FlowIdHash>& top_flows() const {
    return top_flows_;
  }

  [[nodiscard]] std::uint64_t capacity_bps() const { return capacity_bps_; }
  [[nodiscard]] std::uint64_t buffer_bytes() const { return buffer_bytes_; }
  [[nodiscard]] const CebinaeParams& params() const { return params_; }

  [[nodiscard]] std::uint64_t delayed_packets() const { return delayed_packets_; }
  [[nodiscard]] std::uint64_t lbf_dropped_packets() const { return lbf_dropped_packets_; }
  [[nodiscard]] std::uint64_t buffer_dropped_packets() const { return buffer_dropped_packets_; }

 private:
  Scheduler& sched_;
  std::uint64_t capacity_bps_;
  std::uint64_t buffer_bytes_;
  CebinaeParams params_;

  LeakyBucketFilter lbf_;
  FlowCache cache_;
  std::unordered_set<FlowId, FlowIdHash> top_flows_;

  SlotFifo q_[2];

  std::uint64_t delayed_packets_ = 0;
  std::uint64_t lbf_dropped_packets_ = 0;
  std::uint64_t buffer_dropped_packets_ = 0;
};

}  // namespace cebinae

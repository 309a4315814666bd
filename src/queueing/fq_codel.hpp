// FQ-CoDel (RFC 8290): DRR fair queueing across per-flow queues, each
// managed by CoDel (RFC 8289). This is the paper's "FQ" comparison point;
// following the paper's methodology, the flow-queue count is unbounded
// (ideal per-flow queueing) rather than 1024.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "queueing/queue_disc.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

// Every distinct 5-tuple gets its own queue (the paper's 2^32-1
// configuration), and the DRR quantum is one MTU.
struct FqCoDelParams {
  std::uint64_t limit_bytes = 4 * 1024 * 1024;
};

class FqCoDel final : public QueueDisc {
 public:
  // CoDel's RFC 8289 defaults: the acceptable standing-queue sojourn, and
  // the sliding window over which the sojourn must stay above it.
  static constexpr Time kTarget = Milliseconds(5);
  static constexpr Time kInterval = Milliseconds(100);

  FqCoDel(Scheduler& sched, FqCoDelParams params) : sched_(sched), params_(params) {}

  bool enqueue_slot(PacketSlab::Slot s) override;
  PacketSlab::Slot dequeue_slot() override;

  [[nodiscard]] std::size_t flow_queue_count() const { return queues_.size(); }

 private:
  struct FlowQueue {
    SlotFifo q;
    std::uint64_t bytes = 0;
    std::int64_t deficit = 0;
    bool scheduled = false;  // on new_flows_ or old_flows_ (moving keeps it set)
    // CoDel control-law state.
    Time first_above_time = Time::zero();
    Time drop_next = Time::zero();
    std::uint32_t count = 0;
    bool dropping = false;
  };

  void drop_from_fattest();
  // CoDel at dequeue time: drops packets of `fq` per the control law and
  // returns the slot to transmit, or PacketSlab::kNone.
  PacketSlab::Slot codel_dequeue(FlowQueue& fq, Time now);
  // Pops the head of `fq` (kNone when empty) and sets `ok_to_drop` when its
  // sojourn has stayed above kTarget for kInterval.
  static PacketSlab::Slot codel_pop(FlowQueue& fq, Time now, bool& ok_to_drop);

  Scheduler& sched_;
  FqCoDelParams params_;
  // Map nodes never move, so the lists hold plain pointers. drop_from_fattest
  // takes the first fattest queue in iteration order, which depends only on
  // hash values, bucket count and insertion order: the same order as a map
  // keyed by the 64-bit FlowIdHash value under the identity std::hash.
  std::unordered_map<FlowId, FlowQueue, FlowIdHash> queues_;
  std::deque<FlowQueue*> new_flows_;
  std::deque<FlowQueue*> old_flows_;
};

}  // namespace cebinae

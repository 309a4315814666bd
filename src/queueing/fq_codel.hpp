// FQ-CoDel (RFC 8290): DRR fair queueing across per-flow queues, each
// managed by a CoDel controller. This is the paper's "FQ" comparison point;
// following the paper's methodology, the flow-queue count is unbounded
// (ideal per-flow queueing) rather than 1024.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "queueing/codel.hpp"
#include "queueing/queue_disc.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

// Every distinct 5-tuple gets its own queue (the paper's 2^32-1
// configuration), and the DRR quantum is one MTU.
struct FqCoDelParams {
  std::uint64_t limit_bytes = 4 * 1024 * 1024;
  CodelParams codel;
};

class FqCoDel final : public QueueDisc {
 public:
  FqCoDel(Scheduler& sched, FqCoDelParams params) : sched_(sched), params_(params) {}

  bool enqueue(Packet pkt) override;
  PacketSlab::Slot dequeue_slot() override;

  [[nodiscard]] std::uint64_t byte_count() const override { return bytes_; }
  [[nodiscard]] std::uint64_t packet_count() const override { return packets_; }
  [[nodiscard]] std::size_t flow_queue_count() const { return queues_.size(); }

 private:
  struct FlowQueue {
    SlotFifo q;
    std::uint64_t bytes = 0;
    std::int64_t deficit = 0;
    CodelController codel;
    bool in_new = false;  // linked on new_flows_
    bool in_old = false;  // linked on old_flows_

    explicit FlowQueue(CodelParams p) : codel(p) {}
  };

  FlowQueue& queue_for(const Packet& pkt);
  void drop_from_fattest();

  Scheduler& sched_;
  FqCoDelParams params_;
  // Keyed by FlowIdHash; the iteration order breaks drop_from_fattest ties.
  std::unordered_map<std::uint64_t, std::unique_ptr<FlowQueue>> queues_;
  std::list<FlowQueue*> new_flows_;
  std::list<FlowQueue*> old_flows_;
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;
};

}  // namespace cebinae

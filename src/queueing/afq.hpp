// AFQ — Approximate Fair Queueing (Sharma et al., NSDI 2018), the paper's
// §2 point of comparison.
//
// A calendar queue of nQ FIFO queues, each representing a future round of
// BpR bytes per flow. An arriving packet's departure round is
// floor(flow_bytes / BpR); it is placed in the queue (round - current_round)
// slots ahead, or dropped if that is >= nQ slots in the future (the "buffer
// admission" Equation 1 of the Cebinae paper: a flow needing more than
// nQ*BpR of buffered bytes cannot be served fairly).
//
// Per-flow byte counts are exact here (the hardware uses count-min
// sketches); this is the idealized AFQ the scaling argument is made
// against: its fairness depends on nQ and BpR, which must grow with RTT,
// flow count, and burstiness — whereas Cebinae uses exactly 2 queues.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "queueing/queue_disc.hpp"

namespace cebinae {

struct AfqParams {
  std::uint32_t num_queues = 32;      // nQ
  std::uint32_t bytes_per_round = 2 * kMtuBytes;  // BpR
};

class Afq final : public QueueDisc {
 public:
  // Admission requires byte_count + size <= buffer_bytes.
  Afq(std::uint64_t buffer_bytes, AfqParams params);

  bool enqueue_slot(PacketSlab::Slot s) override;
  PacketSlab::Slot dequeue_slot() override;

  [[nodiscard]] std::uint64_t horizon_drops() const { return horizon_drops_; }

 private:
  std::uint64_t buffer_bytes_;
  AfqParams params_;
  // Ring of calendar slots: round r is queued in slot r % num_queues.
  std::vector<SlotFifo> queues_;
  std::uint64_t current_round_ = 0;
  std::uint64_t horizon_drops_ = 0;

  // Exact per-flow departure-round state, aged by round like AFQ's sketch.
  std::unordered_map<FlowId, std::uint64_t, FlowIdHash> flow_bytes_;
};

}  // namespace cebinae

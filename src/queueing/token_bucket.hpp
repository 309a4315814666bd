// Per-flow token-bucket rate limiting, and the paper's strawman in-network
// fairness scheme built on it (§3.2).
//
// The strawman: when a link saturates, freeze every flow at the maximal
// observed per-flow rate via token buckets; release the limits when
// aggregate demand drops below capacity. It can stop flows from taking
// *more* than the frozen maximum, but — unlike Cebinae — it cannot repair an
// allocation that is already unfair (the meek flows stay frozen at their
// small shares and the aggressor keeps the large one). The ablation bench
// reproduces exactly this failure mode.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/port_saturation.hpp"
#include "queueing/queue_disc.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

// Classic token bucket: tokens accrue at `rate_Bps` up to `burst_bytes`.
class TokenBucket {
 public:
  TokenBucket(double rate_Bps, double burst_bytes)
      : rate_Bps_(rate_Bps), burst_bytes_(burst_bytes), tokens_(burst_bytes) {}

  // Returns true (and consumes tokens) if a packet of `bytes` conforms.
  bool conforms(std::uint32_t bytes, Time now);

  void set_rate(double rate_Bps) { rate_Bps_ = rate_Bps; }
  [[nodiscard]] double rate_Bps() const { return rate_Bps_; }
  [[nodiscard]] double tokens(Time now) const;

 private:
  void refill(Time now);

  double rate_Bps_;
  double burst_bytes_;
  double tokens_;
  Time last_refill_;
};

// The strawman queue disc: drop-tail FIFO plus freeze-at-max token buckets.
class StrawmanQueueDisc final : public QueueDisc {
 public:
  static constexpr double kDeltaPort = 0.01;            // saturation threshold, as in Cebinae
  static constexpr Time kInterval = Milliseconds(100);  // rate measurement / decision period
  static constexpr double kBurstFactor = 2.0;           // bucket depth in units of rate*interval

  StrawmanQueueDisc(Scheduler& sched, std::uint64_t capacity_bps, std::uint64_t buffer_bytes);

  bool enqueue_slot(PacketSlab::Slot s) override;
  PacketSlab::Slot dequeue_slot() override;

  [[nodiscard]] bool limiting() const { return frozen_rate_Bps_ > 0; }
  [[nodiscard]] double frozen_rate_Bps() const { return frozen_rate_Bps_; }
  [[nodiscard]] std::uint64_t limited_drops() const { return limited_drops_; }

 private:
  void on_tick();

  Scheduler& sched_;
  Timer tick_;
  std::uint64_t buffer_bytes_;

  SlotFifo q_;

  // Measurement (the strawman is not resource-constrained: exact state).
  // The detector samples the port's stats().dequeued_bytes every tick.
  std::unordered_map<FlowId, std::uint64_t, FlowIdHash> interval_bytes_;
  PortSaturationDetector saturation_;

  // Enforcement: every flow is held to this rate while it is positive.
  double frozen_rate_Bps_ = 0.0;
  std::unordered_map<FlowId, TokenBucket, FlowIdHash> buckets_;
  std::uint64_t limited_drops_ = 0;
};

}  // namespace cebinae

// CoDel active queue management (RFC 8289). Packets from ECN-capable
// transports (ECT) are marked CE instead of dropped.
//
// `CodelController` holds the control-law state over a caller-owned queue
// of slab slots; FQ-CoDel instantiates one controller per flow queue.
#pragma once

#include <cstdint>

#include "queueing/queue_disc.hpp"
#include "sim/time.hpp"

namespace cebinae {

struct CodelParams {
  Time target = Milliseconds(5);     // acceptable standing-queue sojourn time
  Time interval = Milliseconds(100); // sliding window for the minimum
};

class CodelController {
 public:
  explicit CodelController(CodelParams params) : params_(params) {}

  // Drive the CoDel state machine at dequeue time over `q`, whose slots are
  // stamped with their enqueue time. Drops (or ECN-marks) packets per the
  // control law, releasing dropped slots, and returns the slot to transmit
  // (the caller owns it), or PacketSlab::kNone. `bytes` is the queue's byte
  // counter and is updated as packets leave; drop/mark counters accumulate
  // into `stats`. When `sojourn` is set, the delivered packet's queueing
  // delay (seconds) is observed into it (dropped packets are not).
  PacketSlab::Slot dequeue(SlotFifo& q, PacketSlab& slab, std::uint64_t& bytes, Time now,
                           QueueDiscStats& stats, obs::Histogram* sojourn = nullptr);

 private:
  struct DodequeResult {
    PacketSlab::Slot slot = PacketSlab::kNone;
    Time sojourn = Time::zero();  // queueing delay of `slot`, when present
    bool ok_to_drop = false;
  };

  DodequeResult dodeque(SlotFifo& q, PacketSlab& slab, std::uint64_t& bytes, Time now);
  [[nodiscard]] Time control_law(Time t) const;

  CodelParams params_;
  Time first_above_time_ = Time::zero();
  Time drop_next_ = Time::zero();
  std::uint32_t count_ = 0;
  bool dropping_ = false;
};

}  // namespace cebinae

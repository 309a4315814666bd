// Drop-tail FIFO queue: the paper's baseline queue discipline.
#pragma once

#include <cstdint>
#include <limits>

#include "queueing/queue_disc.hpp"

namespace cebinae {

class FifoQueue final : public QueueDisc {
 public:
  // Admission requires byte_count + size <= limit_bytes.
  explicit FifoQueue(std::uint64_t limit_bytes) : limit_bytes_(limit_bytes) {}

  [[nodiscard]] static std::uint64_t unlimited() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  bool enqueue_slot(PacketSlab::Slot s) override;
  PacketSlab::Slot dequeue_slot() override;

 private:
  std::uint64_t limit_bytes_;
  SlotFifo q_;
};

}  // namespace cebinae

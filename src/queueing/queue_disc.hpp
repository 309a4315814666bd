// Queue discipline interface attached to every egress device.
//
// A device pulls from its queue disc whenever the link goes idle; the queue
// disc decides admission (enqueue may drop) and service order (dequeue).
//
// Admitted packets live in the thread's PacketSlab (net/packet_slab.hpp):
// enqueue copies the packet into a slot, the discipline links the slot into
// its SlotFifos, and dequeue_slot() hands the slot to the device, which puts
// it on the wire without copying the packet again.
#pragma once

#include <cstdint>
#include <optional>

#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "sim/time.hpp"

namespace cebinae {

class Scheduler;

namespace obs {
class Histogram;
}  // namespace obs

struct QueueDiscStats {
  std::uint64_t enqueued_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t dequeued_packets = 0;
  std::uint64_t dequeued_bytes = 0;
  std::uint64_t ecn_marked_packets = 0;
};

class QueueDisc {
 public:
  virtual ~QueueDisc() = default;

  // Returns false (and accounts a drop) when the packet was not admitted.
  virtual bool enqueue(Packet pkt) = 0;

  // Removes the next packet to transmit and returns its slab slot, or
  // PacketSlab::kNone when nothing is queued. The caller owns the slot and
  // releases it. Every in-tree discipline implements this; the default
  // allocates a slot from dequeue(), for wrappers that override only that.
  virtual PacketSlab::Slot dequeue_slot();

  // dequeue_slot() with the packet copied out and its slot released.
  virtual std::optional<Packet> dequeue();

  [[nodiscard]] virtual std::uint64_t byte_count() const = 0;
  [[nodiscard]] virtual std::uint64_t packet_count() const = 0;

  [[nodiscard]] const QueueDiscStats& stats() const { return stats_; }

  // Observability hook: once set, every implementation stamps packets at
  // enqueue and feeds the sojourn of each *delivered* packet (in seconds)
  // into `hist`; dropped packets never reach the histogram. `sched` supplies
  // the clock for disciplines that have none of their own; both referents
  // must outlive this qdisc. Wire before traffic flows (Scenario does this
  // at construction).
  void instrument_sojourn(const Scheduler& sched, obs::Histogram& hist) {
    sojourn_sched_ = &sched;
    sojourn_hist_ = &hist;
  }

 protected:
  // Enqueue stamp: the scheduler's now() when instrumented, zero otherwise
  // (an uninstrumented stamp is never read back).
  [[nodiscard]] Time sojourn_now() const;

  // Accounts a packet that was not admitted; returns false for enqueue.
  bool reject(const Packet& pkt) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += pkt.size_bytes;
    return false;
  }

  // Accounts a packet leaving for the wire and observes its sojourn (now −
  // entry.stamp) when instrumented.
  void account_dequeue(const PacketSlab::Entry& entry) {
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += entry.pkt.size_bytes;
    if (sojourn_hist_ != nullptr) record_sojourn(entry.stamp);
  }

  // For disciplines that delegate dequeue to a helper (CoDel's controller).
  [[nodiscard]] obs::Histogram* sojourn_hist() const { return sojourn_hist_; }

  QueueDiscStats stats_;

 private:
  void record_sojourn(Time enqueued);

  const Scheduler* sojourn_sched_ = nullptr;
  obs::Histogram* sojourn_hist_ = nullptr;
  // Set while the default dequeue_slot() runs, so a discipline that
  // overrides neither dequeue method fails an assert instead of recursing.
  bool adapting_dequeue_ = false;
};

}  // namespace cebinae

// Queue discipline interface attached to every egress device.
//
// A device pulls from its queue disc whenever the link goes idle; the queue
// disc decides admission (enqueue may drop) and service order (dequeue).
//
// Admitted packets live in the thread's PacketSlab (net/packet_slab.hpp):
// enqueue copies the packet into a slot, the discipline links the slot into
// its SlotFifos, and dequeue_slot() hands the slot to the device, which puts
// it on the wire without copying the packet again.
//
// A discipline decides; QueueDisc counts. Each admission, reject, drop, CE
// mark and dequeue goes through one protected call below, which keeps the
// queued totals and every QueueDiscStats field, so for every discipline
// packets offered = packet_count() + dequeued + dropped (bytes likewise).
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

  // Returns false (and counts a drop) when the packet was not admitted.
  virtual bool enqueue(Packet pkt) = 0;

  // Removes the next packet to transmit and returns its slab slot, or
  // PacketSlab::kNone when nothing is queued. The caller owns the slot and
  // releases it. Every in-tree discipline implements this; the default
  // allocates a slot from dequeue() and counts nothing, for wrappers that
  // override only that.
  virtual PacketSlab::Slot dequeue_slot();

  // dequeue_slot() with the packet copied out and its slot released.
  virtual std::optional<Packet> dequeue();

  // Queued totals. Virtual only so that a wrapper can report its inner
  // discipline's.
  [[nodiscard]] virtual std::uint64_t byte_count() const { return bytes_; }
  [[nodiscard]] virtual std::uint64_t packet_count() const { return packets_; }

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

  // Copies `pkt` into a slab slot stamped `stamp` and counts it as enqueued
  // and queued. The discipline links the returned slot into its queue.
  [[nodiscard]] PacketSlab::Slot admit(const Packet& pkt, Time stamp) {
    ++stats_.enqueued_packets;
    ++packets_;
    bytes_ += pkt.size_bytes;
    return PacketSlab::local().alloc(pkt, stamp);
  }

  // Counts a packet that was not admitted; returns false for enqueue.
  bool reject(const Packet& pkt) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += pkt.size_bytes;
    return false;
  }

  // Counts the drop of a queued packet the discipline has unlinked, and
  // releases its slot.
  void drop(PacketSlab::Slot s) {
    PacketSlab& slab = PacketSlab::local();
    const std::uint32_t size = slab[s].pkt.size_bytes;
    --packets_;
    bytes_ -= size;
    ++stats_.dropped_packets;
    stats_.dropped_bytes += size;
    slab.release(s);
  }

  // Marks an ECN-capable packet CE and counts the mark; returns false, and
  // leaves the packet as it is, when it is not ECT.
  bool mark_ce(Packet& pkt) {
    if (!pkt.ect) return false;
    pkt.ce = true;
    ++stats_.ecn_marked_packets;
    return true;
  }

  // Counts a packet the discipline has unlinked for the wire and observes
  // its sojourn (now − entry.stamp) when instrumented.
  void account_dequeue(const PacketSlab::Entry& entry) {
    --packets_;
    bytes_ -= entry.pkt.size_bytes;
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += entry.pkt.size_bytes;
    if (sojourn_hist_ != nullptr) record_sojourn(entry.stamp);
  }

 private:
  void record_sojourn(Time enqueued);

  QueueDiscStats stats_;
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;

  const Scheduler* sojourn_sched_ = nullptr;
  obs::Histogram* sojourn_hist_ = nullptr;
  // Set while the default dequeue_slot() runs, so a discipline that
  // overrides neither dequeue method fails an assert instead of recursing.
  bool adapting_dequeue_ = false;
};

}  // namespace cebinae

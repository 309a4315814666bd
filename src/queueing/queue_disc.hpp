// Queue discipline interface attached to every egress device.
//
// A device pulls from its queue disc whenever the link goes idle; the queue
// disc decides admission (enqueue may drop) and service order (dequeue).
//
// Packets live in the thread's PacketSlab (net/packet_slab.hpp), encoded
// once by their sender. A device offers a frame's slot to enqueue_slot(),
// which links it into one of the discipline's SlotFifos or rejects it and
// releases it; dequeue_slot() hands a slot back to the device, which puts it
// on the wire. No hop copies or decodes the packet.
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

  // Offers the frame in slab slot `s`, which the queue disc now owns: it
  // queues the slot, or counts a drop and releases it and returns false.
  // Every in-tree discipline implements this and dequeue_slot(). The
  // default decodes the frame, releases the slot and calls enqueue(), for
  // wrappers that override only that.
  virtual bool enqueue_slot(PacketSlab::Slot s);

  // Removes the next packet to transmit and returns its slab slot, or
  // PacketSlab::kNone when nothing is queued. The caller owns the slot and
  // releases it. The default encodes the packet dequeue() returns into a new
  // slot and counts nothing, for wrappers that override only that.
  virtual PacketSlab::Slot dequeue_slot();

  // enqueue_slot() of `pkt` encoded into a new slot; for tests and wrappers.
  virtual bool enqueue(Packet pkt);

  // dequeue_slot() with the packet decoded and its slot released; for tests
  // and wrappers.
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

  // Counts the frame in slot s as enqueued and queued and stamps it
  // `stamp`; returns s for the discipline to link into its queue.
  [[nodiscard]] PacketSlab::Slot admit(PacketSlab::Slot s, Time stamp) {
    PacketSlab::Entry& frame = PacketSlab::local()[s];
    frame.stamp = stamp;
    ++stats_.enqueued_packets;
    ++packets_;
    bytes_ += frame.size_bytes;
    return s;
  }

  // Counts the frame in slot s as not admitted and releases the slot;
  // returns false for enqueue_slot.
  bool reject(PacketSlab::Slot s) {
    PacketSlab& slab = PacketSlab::local();
    ++stats_.dropped_packets;
    stats_.dropped_bytes += slab[s].size_bytes;
    slab.release(s);
    return false;
  }

  // Counts the drop of a queued packet the discipline has unlinked, and
  // releases its slot.
  void drop(PacketSlab::Slot s) {
    PacketSlab& slab = PacketSlab::local();
    const std::uint32_t size = slab[s].size_bytes;
    --packets_;
    bytes_ -= size;
    ++stats_.dropped_packets;
    stats_.dropped_bytes += size;
    slab.release(s);
  }

  // Marks an ECN-capable frame CE and counts the mark; returns false, and
  // leaves the frame as it is, when it is not ECT.
  bool mark_ce(PacketSlab::Entry& frame) {
    if (!frame.ect()) return false;
    frame.set_ce();
    ++stats_.ecn_marked_packets;
    return true;
  }

  // Counts a frame the discipline has unlinked for the wire and observes
  // its sojourn (now − frame.stamp) when instrumented.
  void account_dequeue(const PacketSlab::Entry& frame) {
    --packets_;
    bytes_ -= frame.size_bytes;
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += frame.size_bytes;
    if (sojourn_hist_ != nullptr) record_sojourn(frame.stamp);
  }

 private:
  void record_sojourn(Time enqueued);

  QueueDiscStats stats_;
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;

  const Scheduler* sojourn_sched_ = nullptr;
  obs::Histogram* sojourn_hist_ = nullptr;
  // Set while a default adapter runs, so a discipline that overrides
  // neither method of a pair fails an assert instead of recursing.
  bool adapting_ = false;
};

}  // namespace cebinae

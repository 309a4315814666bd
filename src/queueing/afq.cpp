#include "queueing/afq.hpp"

#include <algorithm>

namespace cebinae {

Afq::Afq(std::uint64_t buffer_bytes, AfqParams params)
    : buffer_bytes_(buffer_bytes), params_(params), queues_(params.num_queues) {}

bool Afq::enqueue_slot(PacketSlab::Slot s) {
  PacketSlab& slab = PacketSlab::local();
  const PacketSlab::Entry& frame = slab[s];
  if (byte_count() + frame.size_bytes > buffer_bytes_) return reject(s);

  // Bid: the round in which the flow's cumulative bytes would depart under
  // ideal fair queueing. Flows idle past the current round restart there
  // (the sketch's counters cannot go backwards, so AFQ floors at the
  // current round).
  std::uint64_t& fb = flow_bytes_[frame.flow];
  fb = std::max(fb, current_round_ * params_.bytes_per_round);
  const std::uint64_t round = fb / params_.bytes_per_round;
  const std::uint64_t ahead = round - current_round_;

  if (ahead >= params_.num_queues) {
    // Target slot is beyond the calendar horizon: drop (Equation 1's limit).
    ++horizon_drops_;
    return reject(s);
  }

  fb += frame.size_bytes;
  queues_[round % params_.num_queues].push_back(slab, admit(s, sojourn_now()));
  return true;
}

PacketSlab::Slot Afq::dequeue_slot() {
  // Serve the current round's queue; when it empties, rotate to the next
  // non-empty slot (advancing the virtual round clock).
  for (std::uint32_t scanned = 0; scanned < params_.num_queues; ++scanned) {
    auto& q = queues_[current_round_ % params_.num_queues];
    if (!q.empty()) {
      PacketSlab& slab = PacketSlab::local();
      const PacketSlab::Slot s = q.pop_front(slab);
      account_dequeue(slab[s]);
      return s;
    }
    ++current_round_;
  }
  // All slots empty: opportunistically age out stale flow state so the map
  // does not grow without bound across idle periods.
  if (flow_bytes_.size() > 100'000) flow_bytes_.clear();
  return PacketSlab::kNone;
}

}  // namespace cebinae

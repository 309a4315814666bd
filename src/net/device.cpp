#include "net/device.hpp"

#include <cassert>
#include <utility>

#include "net/node.hpp"

namespace cebinae {

Device::Device(Scheduler& sched, Node& owner, std::uint64_t rate_bps, Time prop_delay,
               std::unique_ptr<QueueDisc> qdisc, obs::MetricsRegistry* metrics)
    : sched_(sched),
      owner_(owner),
      rate_bps_(rate_bps),
      prop_delay_(prop_delay),
      qdisc_(std::move(qdisc)) {
  assert(rate_bps_ > 0);
  assert(qdisc_ != nullptr);
  if (metrics != nullptr) {
    tx_bytes_metric_ = &metrics->counter("net.tx_bytes");
    tx_packets_metric_ = &metrics->counter("net.tx_packets");
  }
}

Node& Device::peer_node() {
  assert(peer_ != nullptr);
  return peer_->owner();
}

void Device::send(const Packet& pkt) {
  qdisc_->enqueue(pkt);
  try_transmit();
}

void Device::try_transmit() {
  if (busy_) return;
  std::optional<Packet> pkt = qdisc_->dequeue();
  if (!pkt) return;

  busy_ = true;
  const Time tx_time = serialization_delay(pkt->size_bytes);
  tx_bytes_ += pkt->size_bytes;
  ++tx_packets_;
  if (tx_bytes_metric_ != nullptr) {
    tx_bytes_metric_->add(pkt->size_bytes);
    tx_packets_metric_->inc();
  }

  sched_.schedule(tx_time, [this] {
    busy_ = false;
    try_transmit();
  });
  assert(peer_ != nullptr && "device transmitted before the link was connected");
  // The arrival's key is reserved here, right after the tx-done event: this
  // position fixes the global (when, seq) order (DESIGN.md §11).
  const std::uint64_t seq = sched_.reserve_seq();
  const Time arrival = sched_.now() + (tx_time + prop_delay_);
  if (wire_len_++ == 0) {
    head_.arrival = arrival;
    head_.seq = seq;
    head_.pkt = std::move(*pkt);
    arm_head();
    return;
  }
  if (!behind_) behind_.emplace();
  assert((behind_->empty() ? head_ : behind_->back()).arrival <= arrival &&
         "link arrivals must be FIFO");
  behind_->push_back(InFlight{arrival, seq, std::move(*pkt)});
}

void Device::arm_head() {
  sched_.schedule_reserved(head_.arrival, head_.seq, [this] { arrive(); });
}

void Device::arrive() {
  Packet pkt = std::move(head_.pkt);
  if (--wire_len_ > 0) {
    head_ = std::move(behind_->front());
    behind_->pop_front();
    arm_head();
  }
  peer_->owner().receive(pkt);
}

}  // namespace cebinae

// TCP sender and receiver endpoints.
//
// The model covers everything the paper's workloads exercise: bytestream
// transfer with cumulative ACKs, out-of-order reassembly, RTT sampling via
// timestamp echo, SACK-based fast recovery (RFC 6675 pipe, PRR), RTO with
// exponential backoff and optional pacing (used by BBR). Connection
// setup/teardown (SYN/FIN) is omitted: sockets are born connected, which the
// long-lived infinite-demand flows in the evaluation never notice.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/interval_set.hpp"
#include "tcp/rtt_estimator.hpp"

namespace cebinae {

class TcpReceiver final : public PacketSink {
 public:
  // Callback invoked on every in-order application-level delivery; used by
  // metrics collection (goodput accounting).
  using DeliveryCallback = std::function<void(const FlowId& flow, std::uint64_t bytes, Time now)>;

  TcpReceiver(Scheduler& sched, Node& local, FlowId data_flow);
  ~TcpReceiver() override;

  void deliver(const Packet& pkt) override;

  void set_delivery_callback(DeliveryCallback cb) { on_delivery_ = std::move(cb); }

  // Every byte below rcv_nxt has been delivered in order.
  [[nodiscard]] std::uint64_t delivered_bytes() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t rcv_next() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t ooo_bytes() const;
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }

 private:
  void send_ack(const Packet& data_pkt);

  Scheduler& sched_;
  Node& local_;
  FlowId data_flow_;  // the forward (data) direction; ACKs use its reverse
  std::uint64_t rcv_nxt_ = 0;
  IntervalSet ooo_;  // received-but-not-yet-in-order byte ranges
  // Interval holding the most recently arrived data; advertised first in the
  // SACK option (RFC 2018) so the sender's scoreboard converges even when
  // there are far more than 3 holes.
  Packet::SackBlock latest_block_{};
  std::uint64_t sack_rotation_seq_ = 0;  // round-robin cursor over ooo_
  std::size_t sack_rotation_idx_ = 0;    // ooo_.lower_bound(cursor) when last set
  std::uint64_t acks_sent_ = 0;
  DeliveryCallback on_delivery_;
};

class TcpSender final : public PacketSink {
 public:
  struct Config {
    FlowId flow;  // data direction: flow.src must be the local node
    std::uint64_t bytes_to_send = std::numeric_limits<std::uint64_t>::max();
    // Must stay false: ECN is not modelled, and the constructor asserts it.
    // Kept only because the benchmark's traced run still assigns it.
    bool ecn_capable = false;
    Time start_time;
    Time stop_time = Time::max();  // stop offering new data after this time
    // Optional observability hookup (the owning Network's registry): every
    // RTT sample is observed into its "tcp.srtt_s" histogram, which is
    // shared by all senders of the network.
    obs::MetricsRegistry* metrics = nullptr;
  };

  TcpSender(Scheduler& sched, Node& local, std::unique_ptr<CongestionControl> cc, Config config);
  ~TcpSender() override;

  // Schedules the first transmission at config.start_time.
  void start();

  void deliver(const Packet& pkt) override;  // ACK arrival

  [[nodiscard]] const CongestionControl& cc() const { return *cc_; }
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] const FlowId& flow() const { return config_.flow; }

  [[nodiscard]] std::uint64_t bytes_acked() const { return snd_una_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return total_sent_bytes_; }
  // Segments handed to the node, retransmissions included.
  [[nodiscard]] std::uint64_t segments_sent() const { return segments_sent_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t rto_count() const { return rto_count_; }
  [[nodiscard]] std::uint64_t fast_retransmit_count() const { return fast_retransmits_; }
  [[nodiscard]] std::uint64_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }
  // RFC 6675-style pipe estimate: bytes believed to be in the network.
  // SACKed bytes were delivered; segments marked lost (a SACK above them)
  // have left the network unless retransmitted.
  [[nodiscard]] std::uint64_t pipe_bytes() const {
    assert(sacked_bytes_ + lost_bytes_ <= snd_nxt_ - snd_una_ &&
           "SACKed + lost bytes exceed the bytes in flight");
    return snd_nxt_ - snd_una_ - sacked_bytes_ - lost_bytes_;
  }
  enum class LossMode { kNone, kFastRecovery, kRtoRecovery };
  [[nodiscard]] bool in_recovery() const { return loss_mode_ != LossMode::kNone; }
  [[nodiscard]] std::uint64_t sacked_bytes_dbg() const { return sacked_bytes_; }
  [[nodiscard]] std::uint64_t lost_bytes_dbg() const { return lost_bytes_; }
  [[nodiscard]] std::size_t outstanding_segments_dbg() const { return unacked_.size(); }
  // Whether the sender keeps rate-sampling state: only under a CC that
  // reads delivery-rate samples.
  [[nodiscard]] bool samples_delivery_rate_dbg() const { return rate_.has_value(); }
  // Rate stamps held: outstanding_segments_dbg() under a CC that reads
  // delivery-rate samples, 0 under any other.
  [[nodiscard]] std::size_t rate_stamps_dbg() const { return rate_ ? rate_->stamps.size() : 0; }

 private:
  // A segment's seq and length are not stored: see seg_seq() and seg_len().
  // One 32-bit word per segment, 128 to a 512-byte deque block.
  struct SegMeta {
    // Boundary tag of a run of consecutive SACKed segments in unacked_: the
    // run's length, kept at its first and its last segment (stale inside).
    std::uint32_t sacked_run : 29 = 0;
    std::uint32_t retransmitted : 1 = 0;
    std::uint32_t sacked : 1 = 0;
    std::uint32_t counted_lost : 1 = 0;  // deducted from the pipe estimate
  };
  static_assert(sizeof(SegMeta) == 4);
  static constexpr std::uint32_t kMaxSackedRun = (1u << 29) - 1;

  // Operands of the delivery-rate sample a segment's cumulative ACK yields:
  // RateSampler's delivered and delivered_stamp when it was last sent.
  struct RateStamp {
    std::uint64_t delivered = 0;
    Time stamp;  // time of the last delivery event at send
  };
  // Delivery-rate state, kept only for a CC that reads the samples (BBR).
  struct RateSampler {
    std::uint64_t delivered = 0;  // cumulative bytes known delivered
    Time delivered_stamp;         // when delivered last advanced
    std::deque<RateStamp> stamps;  // stamps[i] belongs to unacked_[i]
  };
  void stamp_rate(RateStamp& r) const { r = RateStamp{rate_->delivered, rate_->delivered_stamp}; }
  [[nodiscard]] bool stamps_in_step() const {
    return !rate_ || rate_->stamps.size() == unacked_.size();
  }

  // unacked_ is contiguous from front_seq_ to snd_nxt_, and every segment
  // but a finite stream's last is kMssBytes long: unacked_[i] starts at
  // front_seq_ + i * kMssBytes, and only the last one may end short, at
  // snd_nxt_.
  [[nodiscard]] std::uint64_t seg_seq(std::size_t i) const {
    return front_seq_ + static_cast<std::uint64_t>(i) * kMssBytes;
  }
  [[nodiscard]] std::uint64_t seg_end(std::size_t i) const {
    assert(i < unacked_.size());
    return std::min<std::uint64_t>(seg_seq(i) + kMssBytes, snd_nxt_);
  }
  [[nodiscard]] std::uint32_t seg_len(std::size_t i) const {
    return static_cast<std::uint32_t>(seg_end(i) - seg_seq(i));
  }

  void try_send();
  void send_segment(std::uint64_t seq, std::uint32_t len, bool is_retransmission);
  // Retransmit the first unacknowledged segment: the fast-retransmit
  // fallback when no hole is known yet.
  void retransmit_front();
  // Retransmit the first known-lost, not-yet-retransmitted segment.
  // Returns true when a segment was retransmitted.
  bool retransmit_hole();
  // Retransmit holes while the pipe estimate leaves window headroom.
  void repair_holes();
  void process_sack(const Packet& ack);
  // Index in unacked_ of the first segment starting at or after `seq`.
  [[nodiscard]] std::size_t first_seg_from(std::uint64_t seq) const;
  // Tags unacked_[i] SACKed and joins it with the tagged runs on either
  // side; returns the index just past the joined run.
  std::size_t tag_sacked(std::size_t i);
  // RTO: mark every unSACKed outstanding segment lost (CA_Loss semantics).
  void mark_all_lost();
  void on_new_ack(const Packet& ack);
  void on_dup_ack();
  void on_rto_fire();
  void arm_rto();
  void disarm_rto();
  [[nodiscard]] bool demand_exhausted() const;

  Scheduler& sched_;
  Node& local_;
  std::unique_ptr<CongestionControl> cc_;
  Config config_;
  RttEstimator rtt_;

  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;

  std::deque<SegMeta> unacked_;
  std::uint64_t front_seq_ = 0;  // seq of unacked_[0]; snd_nxt_ when empty
  // Engaged only when cc_->uses_delivery_rate(): other senders neither
  // allocate nor advance it.
  std::optional<RateSampler> rate_;
  // Retransmit hint (Linux's retransmit_skb_hint): every segment in
  // unacked_[0, retx_hint_) is SACKed or retransmitted, so the scan for the
  // next hole resumes here. Shifts down on pop_front; mark_all_lost, which
  // clears the retransmitted marks, resets it to 0.
  std::size_t retx_hint_ = 0;

  std::uint32_t dup_acks_ = 0;
  LossMode loss_mode_ = LossMode::kNone;
  std::uint64_t recover_ = 0;
  std::uint64_t sacked_bytes_ = 0;
  std::uint64_t lost_bytes_ = 0;      // unSACKed, unretransmitted, below highest SACK
  std::uint64_t highest_sacked_ = 0;  // end of the highest SACKed range
  std::uint64_t lost_scan_seq_ = 0;   // loss-marking watermark

  // Proportional Rate Reduction (RFC 6937): paces transmissions during fast
  // recovery to the ACK clock so hole repairs are not burst-dropped.
  std::uint64_t prr_delivered_ = 0;
  std::uint64_t prr_out_ = 0;
  std::uint64_t recover_fs_ = 0;  // flight size at recovery entry
  [[nodiscard]] std::uint64_t prr_budget() const;

  // RTT-round tracking (Vegas/BBR need per-round hooks).
  std::uint64_t round_end_seq_ = 0;

  Timer start_timer_;
  Timer rto_timer_;
  Timer pacing_timer_;
  Time next_pacing_gate_ = Time::zero();

  std::uint64_t total_sent_bytes_ = 0;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t rto_count_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  bool started_ = false;

  // Aggregate RTT histogram (null when the socket runs unregistered).
  obs::Histogram* m_srtt_ = nullptr;
};

}  // namespace cebinae

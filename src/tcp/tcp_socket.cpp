#include "tcp/tcp_socket.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace cebinae {

// ---------------------------------------------------------------------------
// TcpReceiver
// ---------------------------------------------------------------------------

TcpReceiver::TcpReceiver(Scheduler& sched, Node& local, FlowId data_flow)
    : sched_(sched), local_(local), data_flow_(data_flow) {
  assert(data_flow_.dst == local_.id());
  local_.bind(data_flow_.dst_port, *this);
}

TcpReceiver::~TcpReceiver() { local_.unbind(data_flow_.dst_port); }

std::uint64_t TcpReceiver::ooo_bytes() const { return ooo_.total_bytes(); }

void TcpReceiver::deliver(const Packet& pkt) {
  if (pkt.kind != Packet::Kind::kTcpData) return;

  const std::uint64_t seq = pkt.seq;
  const std::uint64_t end = pkt.seq_end();
  const std::uint64_t delivered = rcv_nxt_;

  if (end <= rcv_nxt_) {
    // Pure duplicate; still ACK to keep the sender's clock going.
    send_ack(pkt);
    return;
  }

  if (seq <= rcv_nxt_) {
    // In-order (possibly partially duplicate) data; drain any out-of-order
    // intervals now contiguous.
    rcv_nxt_ = end;
    ooo_.drain_into(rcv_nxt_);
  } else {
    // Out of order: insert [seq, end) into the interval set, merging
    // overlaps; the merged block becomes the SACK option's first entry.
    const IntervalSet::Block merged = ooo_.add(seq, end);
    latest_block_ = Packet::SackBlock{merged.begin, merged.end};
  }

  const std::uint64_t newly = rcv_nxt_ - delivered;
  if (newly > 0 && on_delivery_) on_delivery_(data_flow_, newly, sched_.now());
  send_ack(pkt);
}

void TcpReceiver::send_ack(const Packet& data_pkt) {
  // SACK option: the block containing the most recent arrival first
  // (RFC 2018), then older ranges in rotation so the whole out-of-order map
  // is eventually advertised even when it has many holes.
  std::array<Packet::SackBlock, 3> sack{};
  std::uint8_t sack_count = 0;
  if (latest_block_.end > rcv_nxt_ && latest_block_.end > latest_block_.begin) {
    sack[sack_count++] =
        Packet::SackBlock{std::max(latest_block_.begin, rcv_nxt_), latest_block_.end};
  }
  if (!ooo_.empty()) {
    // Resume at the remembered index while it still is the lower bound of
    // the cursor; an insert or drain below it moves it.
    std::size_t idx = sack_rotation_idx_;
    const bool at_bound = idx <= ooo_.size() &&
                          (idx == ooo_.size() || ooo_[idx].begin >= sack_rotation_seq_) &&
                          (idx == 0 || ooo_[idx - 1].begin < sack_rotation_seq_);
    if (!at_bound) idx = ooo_.lower_bound(sack_rotation_seq_);
    for (std::size_t i = 0; i < ooo_.size() && sack_count < sack.size(); ++i) {
      if (idx == ooo_.size()) idx = 0;
      if (ooo_[idx].begin != latest_block_.begin) {
        sack[sack_count++] = Packet::SackBlock{ooo_[idx].begin, ooo_[idx].end};
      }
      ++idx;
    }
    if (idx == ooo_.size()) idx = 0;  // wrapped: restart from the lowest block
    sack_rotation_seq_ = idx == 0 ? 0 : ooo_[idx].begin;
    sack_rotation_idx_ = idx;
  }
  // Every member named, so nothing is zeroed first and then overwritten.
  const Packet ack{.flow = data_flow_.reversed(),
                   .kind = Packet::Kind::kTcpAck,
                   .size_bytes = kAckBytes,
                   .payload_bytes = 0,
                   .seq = 0,
                   .ack = rcv_nxt_,
                   .sack = sack,
                   .sack_count = sack_count,
                   .ts_sent = Time::zero(),
                   .ts_echo = data_pkt.ts_sent};
  ++acks_sent_;
  local_.send(ack);
}

// ---------------------------------------------------------------------------
// TcpSender
// ---------------------------------------------------------------------------

TcpSender::TcpSender(Scheduler& sched, Node& local, std::unique_ptr<CongestionControl> cc,
                     Config config)
    : sched_(sched),
      local_(local),
      cc_(std::move(cc)),
      config_(config),
      start_timer_(sched,
                   [this] {
                     started_ = true;
                     try_send();
                   }),
      rto_timer_(sched, [this] { on_rto_fire(); }),
      pacing_timer_(sched, [this] { try_send(); }) {
  assert(config_.flow.src == local_.id());
  assert(cc_ != nullptr);
  assert(!config_.ecn_capable && "ECN is not modelled");
  local_.bind(config_.flow.src_port, *this);
  if (config_.metrics != nullptr) m_srtt_ = &config_.metrics->histogram("tcp.srtt_s");
}

TcpSender::~TcpSender() { local_.unbind(config_.flow.src_port); }

void TcpSender::start() { start_timer_.arm_at(config_.start_time); }

std::size_t TcpSender::first_seg_from(std::uint64_t seq) const {
  if (unacked_.empty()) return 0;
  // unacked_ is contiguous, and every segment but a finite stream's last is
  // kMssBytes long: segment k starts at k * kMssBytes.
  assert(front_seq_ % kMssBytes == 0);
  const std::uint64_t k = (seq + kMssBytes - 1) / kMssBytes;
  const std::uint64_t front = front_seq_ / kMssBytes;
  const std::size_t i =
      k <= front ? 0 : static_cast<std::size_t>(std::min<std::uint64_t>(k - front, unacked_.size()));
  assert(i == unacked_.size() || seg_seq(i) >= seq);
  assert(i == 0 || seg_seq(i - 1) < seq);
  return i;
}

std::size_t TcpSender::tag_sacked(std::size_t i) {
  SegMeta& m = unacked_[i];
  assert(!m.sacked);
  const std::uint32_t len = seg_len(i);
  m.sacked = true;
  sacked_bytes_ += len;
  // SACKed bytes are delivered bytes (Linux counts them in tp->delivered at
  // SACK time, which keeps rate samples honest when a later cumulative ACK
  // jumps over them).
  delivered_ += len;
  delivered_stamp_ = sched_.now();
  if (loss_mode_ == LossMode::kFastRecovery) prr_delivered_ += len;
  if (m.counted_lost) {
    m.counted_lost = false;
    lost_bytes_ -= len;
  }
  // unacked_[i - 1] ends the run on the left, unacked_[i + 1] starts the
  // one on the right.
  const std::uint32_t left = i > 0 && unacked_[i - 1].sacked ? unacked_[i - 1].sacked_run : 0;
  const std::uint32_t right =
      i + 1 < unacked_.size() && unacked_[i + 1].sacked ? unacked_[i + 1].sacked_run : 0;
  const std::uint32_t run = left + 1 + right;
  unacked_[i - left].sacked_run = run;
  unacked_[i + right].sacked_run = run;
  return i + right + 1;
}

void TcpSender::process_sack(const Packet& ack) {
  if (ack.sack_count == 0) return;
  for (std::uint8_t b = 0; b < ack.sack_count; ++b) {
    const auto& block = ack.sack[b];
    // Tag the segments wholly inside the block, walking only the untagged
    // ones: a tagged run is skipped by its length. The segment before a
    // receiver's island is a hole, so the block's first segment is untagged
    // or starts a run.
    std::size_t i = first_seg_from(block.begin);
    if (i < unacked_.size() && unacked_[i].sacked) {
      if (i > 0 && unacked_[i - 1].sacked) {
        // Only a hand-made ACK starts a block inside a run: step to the
        // run's end.
        while (i < unacked_.size() && unacked_[i].sacked) ++i;
      } else {
        const std::uint32_t run = unacked_[i].sacked_run;
        assert(run > 0 && unacked_[i + run - 1].sacked_run == run &&
               (i + run == unacked_.size() || !unacked_[i + run].sacked));
        i += run;
      }
    }
    while (i < unacked_.size() && seg_end(i) <= block.end) {
      i = tag_sacked(i);
    }
    highest_sacked_ = std::max(highest_sacked_, block.end);
  }

  // Mark newly revealed holes as lost: unSACKed segments below the highest
  // SACK have (with no reordering in this network) left the network.
  if (highest_sacked_ > lost_scan_seq_) {
    for (std::size_t i = first_seg_from(std::max(lost_scan_seq_, snd_una_));
         i < unacked_.size() && seg_end(i) <= highest_sacked_; ++i) {
      SegMeta& m = unacked_[i];
      if (!m.sacked && !m.retransmitted && !m.counted_lost) {
        m.counted_lost = true;
        lost_bytes_ += seg_len(i);
      }
    }
    lost_scan_seq_ = highest_sacked_;
  }
}

bool TcpSender::retransmit_hole() {
  assert(retx_hint_ <= unacked_.size());
  for (; retx_hint_ < unacked_.size(); ++retx_hint_) {
    SegMeta& m = unacked_[retx_hint_];
    if (m.sacked || m.retransmitted) continue;
    if (!m.counted_lost) return false;  // ordered: no further known losses
    // The retransmission puts the segment back into the network.
    const std::uint64_t seq = seg_seq(retx_hint_);
    const std::uint32_t len = seg_len(retx_hint_);
    m.counted_lost = false;
    lost_bytes_ -= len;
    m.delivered_at_send = delivered_;
    m.delivered_stamp_at_send = delivered_stamp_;
    m.retransmitted = true;
    ++retransmissions_;
    ++retx_hint_;
    send_segment(seq, len, /*is_retransmission=*/true);
    return true;
  }
  return false;
}

std::uint64_t TcpSender::prr_budget() const {
  if (loss_mode_ != LossMode::kFastRecovery) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::uint64_t target = cc_->cwnd_bytes();
  const std::uint64_t pipe = pipe_bytes();
  if (pipe > target) {
    // Proportional phase: shrink the pipe toward the reduced window at the
    // rate data leaves the network.
    const std::uint64_t allowed =
        prr_delivered_ * target / std::max<std::uint64_t>(recover_fs_, 1);
    return allowed > prr_out_ ? allowed - prr_out_ : 0;
  }
  // Slow-start reduction bound: refill toward the window, at least one
  // segment per delivery.
  const std::uint64_t grow = prr_delivered_ > prr_out_ ? prr_delivered_ - prr_out_ : 0;
  return std::min<std::uint64_t>(target - pipe,
                                 std::max<std::uint64_t>(grow, kMssBytes));
}

void TcpSender::repair_holes() {
  while (true) {
    if (loss_mode_ == LossMode::kFastRecovery) {
      if (prr_budget() < kMssBytes) return;
    } else if (pipe_bytes() + kMssBytes > cc_->cwnd_bytes()) {
      return;
    }
    if (!retransmit_hole()) return;
  }
}

void TcpSender::mark_all_lost() {
  // RTO semantics (like Linux's CA_Loss): every outstanding unSACKed
  // segment is presumed gone from the network and eligible for
  // retransmission in the new episode.
  sacked_bytes_ = 0;
  lost_bytes_ = 0;
  retx_hint_ = 0;
  std::size_t i = 0;
  for (SegMeta& m : unacked_) {
    const std::uint32_t len = seg_len(i++);
    m.retransmitted = false;
    if (m.sacked) {
      m.counted_lost = false;
      sacked_bytes_ += len;
    } else {
      m.counted_lost = true;
      lost_bytes_ += len;
    }
  }
}

bool TcpSender::demand_exhausted() const {
  return snd_nxt_ >= config_.bytes_to_send || sched_.now() > config_.stop_time;
}

void TcpSender::try_send() {
  if (!started_) return;
  const double pacing = cc_->pacing_rate_Bps();

  while (!demand_exhausted()) {
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kMssBytes, config_.bytes_to_send - snd_nxt_));
    // Gate on the pipe estimate: SACKed bytes have left the network.
    if (pipe_bytes() + len > cc_->cwnd_bytes()) return;
    if (loss_mode_ == LossMode::kFastRecovery && len > prr_budget()) return;

    if (pacing > 0.0) {
      const Time now = sched_.now();
      if (now < next_pacing_gate_) {
        pacing_timer_.cancel();
        pacing_timer_.arm_at(next_pacing_gate_);
        return;
      }
      const Time spacing(static_cast<std::int64_t>(
          static_cast<double>(len + kHeaderBytes) * 1e9 / pacing));
      next_pacing_gate_ = std::max(now, next_pacing_gate_) + spacing;
    }

    send_segment(snd_nxt_, len, /*is_retransmission=*/false);
    snd_nxt_ += len;
  }
}

void TcpSender::send_segment(std::uint64_t seq, std::uint32_t len, bool is_retransmission) {
  // Every member named, so nothing is zeroed first and then overwritten.
  const Packet pkt{.flow = config_.flow,
                   .kind = Packet::Kind::kTcpData,
                   .size_bytes = len + kHeaderBytes,
                   .payload_bytes = len,
                   .seq = seq,
                   .ack = 0,
                   .sack = {},
                   .sack_count = 0,
                   .ts_sent = sched_.now(),
                   .ts_echo = Time::zero()};

  total_sent_bytes_ += len;
  ++segments_sent_;
  if (loss_mode_ == LossMode::kFastRecovery) prr_out_ += len;
  if (!is_retransmission) {
    assert(seq == seg_seq(unacked_.size()) && seq == snd_nxt_ &&
           "only a finite stream's last segment may be shorter than kMssBytes");
    unacked_.push_back(SegMeta{delivered_, delivered_stamp_, 0, false, false, false});
  }
  if (!rto_timer_.armed()) arm_rto();
  local_.send(pkt);
}

void TcpSender::retransmit_front() {
  if (unacked_.empty()) return;
  SegMeta& m = unacked_.front();
  m.delivered_at_send = delivered_;
  m.delivered_stamp_at_send = delivered_stamp_;
  m.retransmitted = true;
  ++retransmissions_;
  send_segment(front_seq_, seg_len(0), /*is_retransmission=*/true);
}

void TcpSender::arm_rto() {
  rto_timer_.cancel();
  rto_timer_.arm_after(rtt_.rto());
}

void TcpSender::disarm_rto() { rto_timer_.cancel(); }

void TcpSender::deliver(const Packet& pkt) {
  if (pkt.kind != Packet::Kind::kTcpAck) return;
  process_sack(pkt);
  if (pkt.ack > snd_una_) {
    on_new_ack(pkt);
  } else if (snd_nxt_ > snd_una_) {
    on_dup_ack();
  }
}

void TcpSender::on_new_ack(const Packet& ack) {
  const Time now = sched_.now();
  const std::uint64_t newly = ack.ack - snd_una_;
  snd_una_ = ack.ack;

  // Release fully-acknowledged segment metadata; remember the operands of
  // the most recent one's delivery-rate sample (BBR). A stamp before `now`
  // means one was taken.
  std::uint64_t rate_bytes = 0;
  Time rate_stamp = now;
  while (!unacked_.empty()) {
    const std::uint32_t len = seg_len(0);
    if (front_seq_ + len > snd_una_) break;
    const SegMeta& m = unacked_.front();
    if (m.sacked) {
      sacked_bytes_ -= len;  // already counted as delivered at SACK time
      // The rest of m's run, if any, starts at the next segment.
      if (m.sacked_run > 1) {
        unacked_[1].sacked_run = unacked_[m.sacked_run - 1].sacked_run = m.sacked_run - 1;
      }
    } else {
      delivered_ += len;
      delivered_stamp_ = now;
      if (loss_mode_ == LossMode::kFastRecovery) prr_delivered_ += len;
    }
    if (m.counted_lost) lost_bytes_ -= len;
    // Linux-style rate sample: bytes delivered since this segment was sent,
    // over the interval since the delivery event preceding its transmission
    // (burst-compressed send times would otherwise overestimate). Karn's
    // rule: retransmitted segments give no sample.
    if (!m.retransmitted && now > m.delivered_stamp_at_send) {
      rate_bytes = delivered_ - m.delivered_at_send;
      rate_stamp = m.delivered_stamp_at_send;
    }
    front_seq_ += len;
    unacked_.pop_front();
    if (retx_hint_ > 0) --retx_hint_;
  }
  const double rate_sample = rate_stamp < now ? static_cast<double>(rate_bytes) /
                                                    (now - rate_stamp).seconds()
                                              : 0.0;
  if (unacked_.empty()) {
    sacked_bytes_ = 0;
    lost_bytes_ = 0;
    highest_sacked_ = 0;
  }

  // RTT sample from the timestamp echo (valid even across retransmissions,
  // since the echo corresponds to an actual arrival).
  const Time rtt_sample = now - ack.ts_echo;
  if (rtt_sample > Time::zero()) {
    rtt_.on_sample(rtt_sample);
    if (m_srtt_ != nullptr) m_srtt_->observe(rtt_sample.seconds());
  }

  dup_acks_ = 0;

  if (in_recovery()) {
    if (snd_una_ >= recover_) {
      loss_mode_ = LossMode::kNone;
    } else {
      // Partial ACK: repair as many holes as the pipe allows.
      repair_holes();
    }
  }

  const bool round_start = snd_una_ >= round_end_seq_;
  if (round_start) round_end_seq_ = snd_nxt_;

  AckEvent ev;
  ev.now = now;
  ev.acked_bytes = newly;
  ev.rtt = rtt_sample > Time::zero() ? rtt_sample : Time::zero();
  ev.bytes_in_flight = bytes_in_flight();
  ev.delivered = delivered_;
  ev.delivery_rate_Bps = rate_sample;
  ev.round_start = round_start;
  // Fast recovery freezes the window; RTO recovery slow-starts (CA_Loss).
  ev.in_recovery = loss_mode_ == LossMode::kFastRecovery;
  ev.min_rtt = rtt_.has_sample() ? rtt_.min_rtt() : Time::zero();
  cc_->on_ack(ev);

  if (unacked_.empty()) {
    disarm_rto();
  } else {
    arm_rto();
  }
  try_send();
}

void TcpSender::on_dup_ack() {
  ++dup_acks_;
  if (in_recovery()) {
    // Returning ACKs free pipe space; repair holes up to the window.
    repair_holes();
  } else if (dup_acks_ == 3) {
    loss_mode_ = LossMode::kFastRecovery;
    recover_ = snd_nxt_;
    ++fast_retransmits_;
    cc_->on_loss(sched_.now(), bytes_in_flight());
    prr_delivered_ = 0;
    prr_out_ = 0;
    recover_fs_ = std::max<std::uint64_t>(bytes_in_flight(), kMssBytes);
    if (!retransmit_hole()) retransmit_front();
    repair_holes();
  }
  try_send();
}

void TcpSender::on_rto_fire() {
  if (unacked_.empty()) return;
  ++rto_count_;
  cc_->on_rto(sched_.now());
  rtt_.backoff();
  dup_acks_ = 0;
  // Enter loss recovery: everything unSACKed is lost; holes are repaired
  // ACK-clocked as the (collapsed) window regrows.
  mark_all_lost();
  loss_mode_ = LossMode::kRtoRecovery;
  recover_ = snd_nxt_;
  retransmit_hole();
  arm_rto();
}

}  // namespace cebinae

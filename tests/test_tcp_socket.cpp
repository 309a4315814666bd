#include "tcp/tcp_socket.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "queueing/fifo_queue.hpp"
#include "tcp/bbr.hpp"
#include "tcp/new_reno.hpp"

namespace cebinae {
namespace {

// Sender host -- bottleneck link -- receiver host.
struct TcpHarness {
  Network net;
  Node& src = net.add_node();
  Node& dst = net.add_node();
  FlowId flow{src.id(), dst.id(), 5000, 5000};
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;

  explicit TcpHarness(std::uint64_t rate_bps = 10'000'000, Time delay = Milliseconds(10),
                      std::uint64_t buffer_bytes = 64 * kMtuBytes,
                      std::uint64_t bytes_to_send = std::numeric_limits<std::uint64_t>::max(),
                      std::unique_ptr<CongestionControl> cc = std::make_unique<NewReno>()) {
    net.link(src, dst, rate_bps, delay, std::make_unique<FifoQueue>(buffer_bytes), nullptr);
    net.build_routes();
    TcpSender::Config cfg;
    cfg.flow = flow;
    cfg.bytes_to_send = bytes_to_send;
    sender = std::make_unique<TcpSender>(net.scheduler(), src, std::move(cc), cfg);
    receiver = std::make_unique<TcpReceiver>(net.scheduler(), dst, flow);
  }
};

TEST(TcpSocket, TransfersFiniteStreamExactly) {
  const std::uint64_t total = 500 * kMssBytes;
  TcpHarness h(10'000'000, Milliseconds(10), 64 * kMtuBytes, total);
  h.sender->start();
  h.net.scheduler().run();
  EXPECT_EQ(h.receiver->delivered_bytes(), total);
  EXPECT_EQ(h.sender->bytes_acked(), total);
}

TEST(TcpSocket, DeliveryCallbackSeesEveryByteOnce) {
  const std::uint64_t total = 100 * kMssBytes;
  TcpHarness h(10'000'000, Milliseconds(5), 64 * kMtuBytes, total);
  std::uint64_t seen = 0;
  h.receiver->set_delivery_callback(
      [&](const FlowId&, std::uint64_t bytes, Time) { seen += bytes; });
  h.sender->start();
  h.net.scheduler().run();
  EXPECT_EQ(seen, total);
}

TEST(TcpSocket, RttEstimateMatchesPath) {
  TcpHarness h(100'000'000, Milliseconds(25), 256 * kMtuBytes, 50 * kMssBytes);
  h.sender->start();
  h.net.scheduler().run();
  // Two-way propagation = 50 ms plus small serialization.
  EXPECT_GE(h.sender->rtt().min_rtt(), Milliseconds(50));
  EXPECT_LT(h.sender->rtt().min_rtt(), Milliseconds(55));
}

TEST(TcpSocket, SaturatesBottleneckLink) {
  TcpHarness h(10'000'000, Milliseconds(10), 64 * kMtuBytes);
  h.sender->start();
  h.net.scheduler().run_until(Seconds(10));
  const double goodput_bps = static_cast<double>(h.receiver->delivered_bytes()) * 8.0 / 10.0;
  EXPECT_GT(goodput_bps, 0.85 * 10e6);
  EXPECT_LE(goodput_bps, 10e6);
}

TEST(TcpSocket, TinyBufferForcesFastRetransmitAndRecovers) {
  TcpHarness h(10'000'000, Milliseconds(10), 8 * kMtuBytes);
  h.sender->start();
  h.net.scheduler().run_until(Seconds(5));
  EXPECT_GT(h.sender->fast_retransmit_count(), 0u);
  EXPECT_GT(h.sender->retransmissions(), 0u);
  // Despite losses, the connection keeps delivering.
  const double goodput_bps = static_cast<double>(h.receiver->delivered_bytes()) * 8.0 / 5.0;
  EXPECT_GT(goodput_bps, 0.5 * 10e6);
}

TEST(TcpSocket, PipeNeverExceedsWindow) {
  // With SACK, the send gate is the pipe estimate (raw snd_nxt - snd_una can
  // legitimately exceed cwnd while SACKed/lost bytes are outstanding).
  TcpHarness h(10'000'000, Milliseconds(10), 64 * kMtuBytes);
  h.sender->start();
  bool violated = false;
  Timer probe(h.net.scheduler(), [&] {
    // During recovery the pipe may transiently exceed the freshly-halved
    // window while PRR drains it; outside recovery the gate must hold.
    const std::uint64_t wnd = h.sender->cc().cwnd_bytes() + 4 * kMssBytes;
    if (!h.sender->in_recovery() && h.sender->pipe_bytes() > wnd) violated = true;
    if (h.net.scheduler().now() < Seconds(5)) {
      probe.arm_after(Milliseconds(10));
    }
  });
  probe.arm_after(Milliseconds(10));
  h.net.scheduler().run_until(Seconds(5));
  EXPECT_FALSE(violated);
}

TEST(TcpSocket, StopTimeHaltsNewData) {
  TcpHarness h;
  TcpSender::Config cfg;
  cfg.flow = FlowId{h.src.id(), h.dst.id(), 6000, 6000};
  cfg.stop_time = Seconds(1);
  TcpSender sender(h.net.scheduler(), h.src, std::make_unique<NewReno>(), cfg);
  TcpReceiver receiver(h.net.scheduler(), h.dst, cfg.flow);
  sender.start();
  h.net.scheduler().run_until(Seconds(3));
  const std::uint64_t at_stop = receiver.delivered_bytes();
  h.net.scheduler().run_until(Seconds(5));
  // Only in-flight data drains after the stop; no significant new data.
  EXPECT_LE(receiver.delivered_bytes() - at_stop, 256ull * kMssBytes);
  EXPECT_GT(at_stop, 0u);
}

TEST(TcpSocket, StartTimeDelaysFirstSegment) {
  TcpHarness h;
  TcpSender::Config cfg;
  cfg.flow = FlowId{h.src.id(), h.dst.id(), 6000, 6000};
  cfg.start_time = Seconds(2);
  TcpSender sender(h.net.scheduler(), h.src, std::make_unique<NewReno>(), cfg);
  TcpReceiver receiver(h.net.scheduler(), h.dst, cfg.flow);
  sender.start();
  h.net.scheduler().run_until(Seconds(2) - Nanoseconds(1));
  EXPECT_EQ(sender.bytes_sent(), 0u);
  h.net.scheduler().run_until(Seconds(3));
  EXPECT_GT(sender.bytes_sent(), 0u);
}

// ECN is not modelled: a sender asked for it aborts instead of running
// without it.
TEST(TcpSocket, EcnCapableConfigAborts) {
  TcpHarness h;
  TcpSender::Config cfg;
  cfg.flow = FlowId{h.src.id(), h.dst.id(), 6000, 6000};
  cfg.ecn_capable = true;
  EXPECT_DEATH({ TcpSender sender(h.net.scheduler(), h.src, std::make_unique<NewReno>(), cfg); },
               "ECN is not modelled");
}

// --- Receiver reassembly unit tests (fabricated packets) -------------------

struct ReceiverHarness {
  Network net;
  Node& node = net.add_node();
  FlowId flow{99, node.id(), 1, 5000};
  TcpReceiver rx{net.scheduler(), node, flow};

  Packet data(std::uint64_t seq, std::uint32_t len) {
    Packet p;
    p.flow = flow;
    p.kind = Packet::Kind::kTcpData;
    p.seq = seq;
    p.payload_bytes = len;
    p.size_bytes = len + kHeaderBytes;
    return p;
  }
};

TEST(TcpReceiver, InOrderAdvancesCumulativeAck) {
  ReceiverHarness h;
  h.rx.deliver(h.data(0, 100));
  EXPECT_EQ(h.rx.rcv_next(), 100u);
  h.rx.deliver(h.data(100, 100));
  EXPECT_EQ(h.rx.rcv_next(), 200u);
  EXPECT_EQ(h.rx.delivered_bytes(), 200u);
}

TEST(TcpReceiver, OutOfOrderIsBufferedThenDrained) {
  ReceiverHarness h;
  h.rx.deliver(h.data(100, 100));  // hole at [0,100)
  EXPECT_EQ(h.rx.rcv_next(), 0u);
  EXPECT_EQ(h.rx.ooo_bytes(), 100u);
  h.rx.deliver(h.data(200, 100));
  EXPECT_EQ(h.rx.ooo_bytes(), 200u);
  h.rx.deliver(h.data(0, 100));  // fills the hole; everything drains
  EXPECT_EQ(h.rx.rcv_next(), 300u);
  EXPECT_EQ(h.rx.ooo_bytes(), 0u);
  EXPECT_EQ(h.rx.delivered_bytes(), 300u);
}

TEST(TcpReceiver, DuplicatesDoNotDoubleCount) {
  ReceiverHarness h;
  h.rx.deliver(h.data(0, 100));
  h.rx.deliver(h.data(0, 100));
  EXPECT_EQ(h.rx.delivered_bytes(), 100u);
  EXPECT_EQ(h.rx.acks_sent(), 2u);  // duplicates still generate ACKs
}

TEST(TcpReceiver, OverlappingSegmentsMergeCorrectly) {
  ReceiverHarness h;
  h.rx.deliver(h.data(100, 100));  // [100,200)
  h.rx.deliver(h.data(150, 100));  // [150,250) overlaps
  EXPECT_EQ(h.rx.ooo_bytes(), 150u);
  h.rx.deliver(h.data(0, 100));
  EXPECT_EQ(h.rx.rcv_next(), 250u);
  EXPECT_EQ(h.rx.delivered_bytes(), 250u);
}

TEST(TcpReceiver, PartialOverlapWithDeliveredData) {
  ReceiverHarness h;
  h.rx.deliver(h.data(0, 100));
  h.rx.deliver(h.data(50, 100));  // [50,150): first half already delivered
  EXPECT_EQ(h.rx.rcv_next(), 150u);
  EXPECT_EQ(h.rx.delivered_bytes(), 150u);
}

TEST(TcpReceiver, BackwardMergeAcrossGapBoundary) {
  ReceiverHarness h;
  h.rx.deliver(h.data(300, 100));  // [300,400)
  h.rx.deliver(h.data(100, 100));  // [100,200)
  h.rx.deliver(h.data(200, 100));  // [200,300) bridges both
  EXPECT_EQ(h.rx.ooo_bytes(), 300u);
  h.rx.deliver(h.data(0, 100));
  EXPECT_EQ(h.rx.rcv_next(), 400u);
}

// --- Sender SACK recovery driven by fabricated ACKs -------------------------

// Fixed window: recovery decisions then depend only on the scoreboard, not
// on window reductions.
class FixedWindowCc final : public CongestionControl {
 public:
  explicit FixedWindowCc(std::uint64_t cwnd) : cwnd_(cwnd) {}
  void on_ack(const AckEvent&) override {}
  void on_loss(Time, std::uint64_t) override {}
  void on_rto(Time) override {}
  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] std::string_view name() const override { return "fixed"; }

 private:
  std::uint64_t cwnd_;
};

// Logs the segment number and payload of every data segment reaching the
// receiver host, and hands the segment on to `next`, if set.
struct SegmentLog final : PacketSink {
  std::vector<std::uint64_t> segs;
  std::vector<std::uint32_t> payloads;
  PacketSink* next = nullptr;
  void deliver(const Packet& pkt) override {
    segs.push_back(pkt.seq / kMssBytes);
    payloads.push_back(pkt.payload_bytes);
    if (next != nullptr) next->deliver(pkt);
  }
};

// Drops the first arrival of the segment starting at `seq`; hands every
// other packet on to `next`.
struct DropFirstCopy final : PacketSink {
  std::uint64_t seq;
  PacketSink& next;
  bool dropped = false;
  DropFirstCopy(std::uint64_t s, PacketSink& n) : seq(s), next(n) {}
  void deliver(const Packet& pkt) override {
    if (!dropped && pkt.seq == seq) {
      dropped = true;
      return;
    }
    next.deliver(pkt);
  }
};

// A finite stream whose last segment is short: the tiny buffer forces SACK
// recovery, and losing the last segment's first copy, which no later
// segment can reveal, forces an RTO that retransmits it.
TEST(TcpSocket, ShortLastSegmentSurvivesRecoveryAndRto) {
  const std::uint64_t last_seq = 500 * kMssBytes;
  const std::uint64_t total = last_seq + 17;
  TcpHarness h(10'000'000, Milliseconds(10), 8 * kMtuBytes, total);
  SegmentLog log;
  DropFirstCopy drop(last_seq, *h.receiver);
  log.next = &drop;
  h.dst.unbind(h.flow.dst_port);
  h.dst.bind(h.flow.dst_port, log);
  h.sender->start();
  h.net.scheduler().run();

  EXPECT_EQ(h.receiver->delivered_bytes(), total);
  EXPECT_EQ(h.sender->bytes_acked(), total);
  EXPECT_GT(h.sender->fast_retransmit_count(), 0u);
  EXPECT_GE(h.sender->rto_count(), 1u);
  std::size_t last_copies = 0;
  for (std::size_t i = 0; i < log.segs.size(); ++i) {
    if (log.segs[i] != 500) continue;
    ++last_copies;
    EXPECT_EQ(log.payloads[i], 17u);
  }
  EXPECT_GE(last_copies, 2u);  // the dropped copy and a retransmission
  EXPECT_TRUE(drop.dropped);
}

// A sender keeps one rate stamp per outstanding segment under BBR, which
// reads delivery-rate samples, through fast recovery and an RTO (the sender
// asserts the lock-step after every push and pop), and under NewReno no
// rate-sampling state at all.
TEST(TcpSocket, RateStampsOnlyUnderBbrAndInStep) {
  const std::uint64_t last_seq = 500 * kMssBytes;
  const std::uint64_t total = last_seq + 17;
  for (const bool bbr : {true, false}) {
    SCOPED_TRACE(bbr ? "bbr" : "newreno");
    TcpHarness h(10'000'000, Milliseconds(10), 8 * kMtuBytes, total,
                 bbr ? std::unique_ptr<CongestionControl>(std::make_unique<Bbr>())
                     : std::make_unique<NewReno>());
    EXPECT_EQ(h.sender->samples_delivery_rate_dbg(), bbr);
    DropFirstCopy drop(last_seq, *h.receiver);
    h.dst.unbind(h.flow.dst_port);
    h.dst.bind(h.flow.dst_port, drop);
    std::uint64_t probes = 0;
    std::uint64_t busy_probes = 0;  // with segments outstanding
    std::uint64_t probes_in_step = 0;
    Timer probe(h.net.scheduler(), [&] {
      const std::size_t outstanding = h.sender->outstanding_segments_dbg();
      ++probes;
      if (outstanding > 0) ++busy_probes;
      if (h.sender->rate_stamps_dbg() == (bbr ? outstanding : 0)) ++probes_in_step;
      if (h.sender->bytes_acked() < total) probe.arm_after(Microseconds(500));
    });
    probe.arm_after(Microseconds(500));
    h.sender->start();
    h.net.scheduler().run();

    EXPECT_EQ(h.sender->bytes_acked(), total);
    EXPECT_GT(h.sender->fast_retransmit_count(), 0u);
    EXPECT_GE(h.sender->rto_count(), 1u);
    EXPECT_GT(busy_probes, 100u);
    EXPECT_EQ(probes_in_step, probes);
    EXPECT_EQ(h.sender->outstanding_segments_dbg(), 0u);
    EXPECT_EQ(h.sender->rate_stamps_dbg(), 0u);
  }
}

// The sender sends one window of `window_segs` segments to a host that only
// logs them; the test plays the receiver, handing the sender ACKs whose
// cumulative point and SACK blocks are given in segment numbers.
struct SackHarness {
  Network net;
  Node& src = net.add_node();
  Node& dst = net.add_node();
  FlowId flow{src.id(), dst.id(), 5000, 5000};
  SegmentLog log;
  std::unique_ptr<TcpSender> sender;

  explicit SackHarness(std::uint64_t window_segs) {
    net.link(src, dst, 1'000'000'000, Microseconds(10), nullptr, nullptr);
    net.build_routes();
    dst.bind(flow.dst_port, log);
    TcpSender::Config cfg;
    cfg.flow = flow;
    cfg.bytes_to_send = window_segs * kMssBytes;
    sender = std::make_unique<TcpSender>(
        net.scheduler(), src, std::make_unique<FixedWindowCc>(window_segs * kMssBytes), cfg);
    sender->start();
    net.scheduler().run_until(Milliseconds(1));
    while (log.segs.size() < window_segs) {
      net.scheduler().run_until(net.scheduler().now() + Milliseconds(1));
    }
    log.segs.clear();
  }

  // Delivers the ACK, then lets any retransmission reach the log.
  void ack(std::uint64_t cum_seg,
           std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> blocks) {
    Packet p;
    p.flow = flow.reversed();
    p.kind = Packet::Kind::kTcpAck;
    p.size_bytes = kAckBytes;
    p.ack = cum_seg * kMssBytes;
    for (const auto& [begin, end] : blocks) {
      p.sack[p.sack_count++] = Packet::SackBlock{begin * kMssBytes, end * kMssBytes};
    }
    sender->deliver(p);
    net.scheduler().run_until(net.scheduler().now() + Milliseconds(1));
  }

  // The receiver's ACKs when every odd segment below `upto` arrived and
  // every even one was lost: one dup ACK per arrival, newest block first.
  void sack_odd_segments(std::uint64_t upto) {
    for (std::uint64_t s = 1; s < upto; s += 2) ack(0, {{s, s + 1}});
  }
};

TEST(TcpSackRecovery, ManyHolesRetransmittedOnceInAscendingOrder) {
  SackHarness h(40);
  h.sack_odd_segments(40);  // holes at 0, 2, ..., 38
  ASSERT_TRUE(h.sender->in_recovery());
  // Further dup ACKs carry no new SACK information but free pipe space.
  for (int i = 0; i < 40 && h.sender->retransmissions() < 20; ++i) h.ack(0, {{39, 40}});
  for (int i = 0; i < 10; ++i) h.ack(0, {{39, 40}});

  std::vector<std::uint64_t> holes;
  for (std::uint64_t s = 0; s < 40; s += 2) holes.push_back(s);
  EXPECT_EQ(h.log.segs, holes);
  EXPECT_EQ(h.sender->retransmissions(), 20u);
  EXPECT_EQ(h.sender->lost_bytes_dbg(), 0u);
}

TEST(TcpSackRecovery, RtoAfterPartialRepairRestartsFromTheFront) {
  SackHarness h(40);
  h.sack_odd_segments(12);  // holes 0, 2, ..., 10; repair starts at 0
  ASSERT_TRUE(h.sender->in_recovery());
  ASSERT_FALSE(h.log.segs.empty());
  ASSERT_EQ(h.log.segs.front(), 0u);
  const std::size_t before_rto = h.log.segs.size();

  h.net.scheduler().run_until(h.net.scheduler().now() + Seconds(1));
  ASSERT_EQ(h.sender->rto_count(), 1u);
  // The RTO marks every unSACKed segment lost again; its retransmission is
  // the first hole, not the one after the last pre-RTO repair.
  ASSERT_GT(h.log.segs.size(), before_rto);
  EXPECT_EQ(h.log.segs[before_rto], 0u);
}

TEST(TcpSackRecovery, CumulativeAckPastTheHint) {
  SackHarness h(40);
  h.sack_odd_segments(8);  // holes 0, 2, 4, 6 repaired; the scan stops at 8
  ASSERT_TRUE(h.sender->in_recovery());
  ASSERT_EQ(h.log.segs, (std::vector<std::uint64_t>{0, 2, 4, 6}));
  h.log.segs.clear();

  // Everything below segment 10 arrives: the partial ACK pops more segments
  // than the hint had passed, and SACKs reveal holes 10 and 12. Repair
  // resumes at the new front.
  h.ack(10, {{13, 16}, {11, 12}});
  EXPECT_EQ(h.log.segs, (std::vector<std::uint64_t>{10, 12}));
}

TEST(TcpSackRecovery, ExtendingTheCachedBlockTagsOnlyNewSegments) {
  SackHarness h(40);
  h.ack(0, {{1, 5}});
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 4 * kMssBytes);
  h.ack(0, {{1, 8}});  // extends the tagged run: segments 5..7 are new
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 7 * kMssBytes);
  h.ack(0, {{3, 10}});  // starts inside the tagged run
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 9 * kMssBytes);
  h.ack(0, {{12, 14}, {1, 10}});  // a new block first; the old one again
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 11 * kMssBytes);
}

TEST(TcpSackRecovery, SegmentStraddlingTheCachedEndIsTagged) {
  SackHarness h(40);
  // A block ending inside segment 4 tags segments 1..3 only.
  Packet p;
  p.flow = h.flow.reversed();
  p.kind = Packet::Kind::kTcpAck;
  p.size_bytes = kAckBytes;
  p.sack[p.sack_count++] = Packet::SackBlock{kMssBytes, 5 * kMssBytes - 100};
  h.sender->deliver(p);
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 3 * kMssBytes);
  // Segment 4 starts before the previous block's end and ends after it:
  // the walk past the tagged run must still reach it.
  h.ack(0, {{1, 8}});
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 7 * kMssBytes);
}

TEST(TcpSackRecovery, CumulativeAckInsideATaggedRun) {
  SackHarness h(40);
  h.ack(0, {{2, 8}});
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 6 * kMssBytes);
  // The cumulative ACK releases segments 0..3, half of the run 2..7; what
  // is left of the run, 4..7, must still be skipped as one.
  h.ack(4, {});
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 4 * kMssBytes);
  h.ack(4, {{4, 10}});
  EXPECT_EQ(h.sender->sacked_bytes_dbg(), 6 * kMssBytes);
}

// Receives the ACKs a TcpReceiver sends.
struct AckCapture final : PacketSink {
  std::vector<Packet> acks;
  void deliver(const Packet& pkt) override { acks.push_back(pkt); }
};

// A TcpReceiver on a network of its own. The test chooses which byte ranges
// of the sender's window reach it and in what order; each ACK it sends is
// handed to a SackHarness's sender. Its SACK option is the receiver's own:
// the latest merged island first, older islands in rotation.
struct ReceiverModel {
  Network net;
  Node& peer = net.add_node();
  Node& host = net.add_node();
  FlowId flow{peer.id(), host.id(), 5000, 5000};
  AckCapture capture;
  TcpReceiver receiver{net.scheduler(), host, flow};

  ReceiverModel() {
    net.link(peer, host, 1'000'000'000, Microseconds(10), nullptr, nullptr);
    net.build_routes();
    peer.bind(flow.src_port, capture);
  }

  // Bytes [begin, end) arrive; returns the ACK they trigger.
  Packet arrive(std::uint64_t begin, std::uint64_t end, Time sent) {
    Packet p;
    p.flow = flow;
    p.kind = Packet::Kind::kTcpData;
    p.seq = begin;
    p.payload_bytes = static_cast<std::uint32_t>(end - begin);
    p.size_bytes = p.payload_bytes + kHeaderBytes;
    p.ts_sent = sent;
    receiver.deliver(p);
    net.scheduler().run();
    EXPECT_EQ(capture.acks.size(), 1u);
    const Packet ack = capture.acks.back();
    capture.acks.clear();
    return ack;
  }
};

// True when [begin, end) lies wholly inside one block of `set`.
bool covered(const IntervalSet& set, std::uint64_t begin, std::uint64_t end) {
  const std::size_t i = set.lower_bound(begin + 1);
  return i > 0 && set[i - 1].end >= end;
}

// One seeded run of the SACK tagging oracle. The window's segments reach
// the receiver in order, each lost with probability 0.3; lost ones are
// repaired at random points in between, so the latest island alternates
// between the top of the window and a repaired hole. Some segments arrive
// in two pieces, so an island ends (or starts) mid-segment for one ACK. At
// half the window the ACKs stop until the RTO fires. After every ACK the
// sender's scoreboard must equal a recount:
// - SACKed: the unacked segments wholly inside the union of every block
//   advertised so far;
// - lost: the other unacked segments not retransmitted since the last RTO
//   that lie below the highest advertised block end (after an RTO, all of
//   them).
void run_sack_oracle(std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  constexpr std::uint64_t kWindow = 96;
  SackHarness h(kWindow);
  ReceiverModel rx;
  ASSERT_EQ(rx.flow.src, h.flow.src);
  ASSERT_EQ(rx.flow.dst, h.flow.dst);
  Scheduler& sched = h.net.scheduler();
  std::mt19937_64 rng(seed);

  IntervalSet advertised;
  std::uint64_t highest = 0;
  std::vector<bool> retransmitted(kWindow, false);  // since the last RTO
  std::size_t logged = 0;                           // retransmissions read from the log
  std::uint64_t rtos = 0;

  auto check = [&](std::uint64_t begin, std::uint64_t end) {
    SCOPED_TRACE(testing::Message() << "after [" << begin << ", " << end << ")");
    while (h.log.segs.size() < h.sender->retransmissions()) {
      sched.run_until(sched.now() + Microseconds(10));
    }
    for (; logged < h.log.segs.size(); ++logged) retransmitted[h.log.segs[logged]] = true;
    ASSERT_EQ(h.sender->rto_count(), rtos);
    const std::uint64_t una = h.sender->bytes_acked();
    ASSERT_EQ(una % kMssBytes, 0u);
    std::uint64_t sacked = 0;
    std::uint64_t lost = 0;
    for (std::uint64_t k = una / kMssBytes; k < kWindow; ++k) {
      const std::uint64_t seg_end = (k + 1) * kMssBytes;
      if (covered(advertised, k * kMssBytes, seg_end)) {
        sacked += kMssBytes;
      } else if (!retransmitted[k] && (rtos > 0 || seg_end <= highest)) {
        lost += kMssBytes;
      }
    }
    ASSERT_EQ(h.sender->sacked_bytes_dbg(), sacked);
    ASSERT_EQ(h.sender->lost_bytes_dbg(), lost);
  };
  auto deliver = [&](std::uint64_t begin, std::uint64_t end) {
    const Packet ack = rx.arrive(begin, end, sched.now());
    for (std::uint8_t b = 0; b < ack.sack_count; ++b) {
      advertised.add(ack.sack[b].begin, ack.sack[b].end);
      highest = std::max(highest, ack.sack[b].end);
    }
    h.sender->deliver(ack);
    check(begin, end);
  };

  std::bernoulli_distribution lose(0.3);
  std::bernoulli_distribution repair(0.4);
  std::bernoulli_distribution split(0.15);
  std::vector<std::uint64_t> holes;  // lost segments below the top, not yet repaired
  std::uint64_t top = 0;             // next segment of the window to arrive
  while (top < kWindow || !holes.empty()) {
    if (rtos == 0 && top == kWindow / 2) {
      const std::size_t before = h.log.segs.size();
      while (h.sender->rto_count() == 0) sched.run_until(sched.now() + Milliseconds(10));
      rtos = 1;
      retransmitted.assign(kWindow, false);
      logged = before;
    }
    std::uint64_t s;
    if (top < kWindow && (holes.empty() || !repair(rng))) {
      s = top++;
      if (lose(rng)) {
        holes.push_back(s);
        continue;
      }
    } else {
      const std::size_t i = rng() % holes.size();
      s = holes[i];
      holes[i] = holes.back();
      holes.pop_back();
    }
    const std::uint64_t begin = s * kMssBytes;
    const std::uint64_t mid = begin + kMssBytes / 3;
    const std::uint64_t end = begin + kMssBytes;
    // A piece ending mid-segment must not move the cumulative ACK into the
    // segment; either order of the pieces keeps it out.
    if (begin > rx.receiver.rcv_next() && split(rng)) {
      if (rng() % 2 == 0) {
        deliver(begin, mid);
        deliver(mid, end);
      } else {
        deliver(mid, end);
        deliver(begin, mid);
      }
    } else {
      deliver(begin, end);
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(h.sender->bytes_acked(), kWindow * kMssBytes);
  EXPECT_EQ(h.sender->rto_count(), 1u);
}

TEST(TcpSackRecovery, ScoreboardMatchesRecountOfAdvertisedBlocks) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_sack_oracle(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cebinae

// The accounting law every queue discipline keeps, because QueueDisc does
// all the counting: packets offered = packet_count() + dequeued + dropped,
// and the same in bytes, after every call; live slab slots = packets queued.
// Each discipline is driven directly, with several flows of mixed packet
// sizes (one of them ECN-capable) arriving faster than they are served, so
// every case drops.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/agent.hpp"
#include "core/cebinae_queue_disc.hpp"
#include "net/packet_slab.hpp"
#include "queueing/afq.hpp"
#include "queueing/fifo_queue.hpp"
#include "queueing/fq_codel.hpp"
#include "queueing/token_bucket.hpp"
#include "runner/scenario.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {
namespace {

constexpr std::uint64_t kCapacityBps = 16'000'000;  // below the service rate: saturated
constexpr std::uint64_t kBufferBytes = 40'000;
constexpr std::uint32_t kSizes[] = {kMtuBytes, 700, 64, 1200};

class QueueConservation : public ::testing::TestWithParam<QdiscKind> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case QdiscKind::kFifo:
        q_ = std::make_unique<FifoQueue>(kBufferBytes);
        break;
      case QdiscKind::kFqCoDel:
        q_ = std::make_unique<FqCoDel>(sched_, FqCoDelParams{kBufferBytes});
        break;
      case QdiscKind::kCebinae: {
        auto q = std::make_unique<CebinaeQueueDisc>(
            sched_, kCapacityBps, kBufferBytes,
            CebinaeParams::for_link(kCapacityBps, kBufferBytes, Milliseconds(10)));
        agent_ = std::make_unique<CebinaeAgent>(sched_, *q);
        agent_->start();
        q_ = std::move(q);
        break;
      }
      case QdiscKind::kAfq:
        q_ = std::make_unique<Afq>(kBufferBytes, AfqParams{8, kMtuBytes});
        break;
      case QdiscKind::kStrawman:
        q_ = std::make_unique<StrawmanQueueDisc>(sched_, kCapacityBps, kBufferBytes);
        break;
    }
  }

  void offer(std::uint32_t flow, std::uint32_t size) {
    Packet p;
    p.flow = FlowId{flow, 1000, 5000, 5000};
    p.size_bytes = size;
    p.payload_bytes = size - kHeaderBytes;
    p.ect = flow == 0;
    ++offered_packets_;
    offered_bytes_ += size;
    const std::uint64_t dropped = q_->stats().dropped_packets;
    const bool admitted = q_->enqueue(p);
    if (admitted && q_->stats().dropped_packets > dropped) ++drops_in_enqueue_;
    check();
  }

  bool dequeue() {
    const QueueDiscStats before = q_->stats();
    const bool got = q_->dequeue().has_value();
    const QueueDiscStats& after = q_->stats();
    if (after.dropped_packets > before.dropped_packets ||
        after.ecn_marked_packets > before.ecn_marked_packets) {
      ++drops_or_marks_in_dequeue_;
    }
    check();
    return got;
  }

  void advance(Time dt) {
    sched_.run_until(sched_.now() + dt);
    check();
  }

  void check() {
    const QueueDiscStats& s = q_->stats();
    ASSERT_EQ(offered_packets_, q_->packet_count() + s.dequeued_packets + s.dropped_packets);
    ASSERT_EQ(offered_bytes_, q_->byte_count() + s.dequeued_bytes + s.dropped_bytes);
    ASSERT_EQ(PacketSlab::local().live() - live_before_, q_->packet_count());
  }

  const std::uint64_t live_before_ = PacketSlab::local().live();
  Scheduler sched_;
  std::unique_ptr<QueueDisc> q_;
  std::unique_ptr<CebinaeAgent> agent_;
  std::uint64_t offered_packets_ = 0;
  std::uint64_t offered_bytes_ = 0;
  std::uint64_t drops_in_enqueue_ = 0;  // admitted, then another packet dropped
  std::uint64_t drops_or_marks_in_dequeue_ = 0;
};

TEST_P(QueueConservation, OfferedIsQueuedPlusDequeuedPlusDropped) {
  // Each millisecond, four packets arrive (one per flow, sizes rotating
  // across flows) and three leave: a standing queue that overflows.
  for (int ms = 0; ms < 1000; ++ms) {
    for (std::uint32_t flow = 0; flow < 4; ++flow) offer(flow, kSizes[(flow + ms) % 4]);
    for (int i = 0; i < 3; ++i) dequeue();
    advance(Milliseconds(1));
    if (HasFatalFailure()) return;
  }
  while (dequeue()) advance(Microseconds(100));

  EXPECT_EQ(q_->packet_count(), 0u);
  EXPECT_EQ(q_->byte_count(), 0u);
  EXPECT_GT(q_->stats().dropped_packets, 0u);
  EXPECT_GT(q_->stats().dequeued_packets, 0u);
  if (GetParam() == QdiscKind::kFqCoDel) {
    EXPECT_GT(drops_in_enqueue_, 0u);           // over-limit head drops
    EXPECT_GT(drops_or_marks_in_dequeue_, 0u);  // CoDel drops or marks
  }
}

INSTANTIATE_TEST_SUITE_P(AllQdiscs, QueueConservation,
                         ::testing::Values(QdiscKind::kFifo, QdiscKind::kFqCoDel,
                                           QdiscKind::kCebinae, QdiscKind::kAfq,
                                           QdiscKind::kStrawman),
                         [](const ::testing::TestParamInfo<QdiscKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace cebinae

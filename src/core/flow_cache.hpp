// Passive HashPipe-style heavy-hitter cache (paper §4.2).
//
// Multiple stages of hash-mapped flow tables. An arriving packet hashes to
// one slot per stage; at the first stage whose slot is empty or already owns
// the packet's flow, the byte counter is incremented. If every stage's slot
// belongs to another flow, the packet is simply not counted (a possible
// false negative, never a false positive — exact keys are stored, satisfying
// the paper's "never make unfairness worse" principle).
//
// Memory is managed passively: the control plane polls-and-resets the whole
// structure every interval, giving every active flow a fresh chance to claim
// a slot; heavy hitters re-claim theirs almost immediately because they send
// the most packets.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"

namespace cebinae {

class FlowCache {
 public:
  FlowCache(std::uint32_t stages, std::uint32_t slots_per_stage);

  // Data-plane update: account `bytes` to `flow` if a slot can be claimed.
  // Returns false when the packet went uncounted (all stages collided).
  bool add(const FlowId& flow, std::uint64_t bytes);

  struct Entry {
    FlowId flow;
    std::uint64_t bytes = 0;
  };

  // Control-plane poll: returns all occupied entries and resets the cache.
  [[nodiscard]] std::vector<Entry> poll_and_reset();

  // Read-only peek (tests/debugging).
  [[nodiscard]] std::optional<std::uint64_t> bytes_for(const FlowId& flow) const;
  [[nodiscard]] std::uint64_t occupied_slots() const { return occupied_; }
  [[nodiscard]] std::uint64_t uncounted_packets() const { return uncounted_; }
  [[nodiscard]] std::uint32_t stages() const { return stages_; }
  [[nodiscard]] std::uint32_t slots_per_stage() const { return slots_; }

 private:
  struct Slot {
    std::uint64_t bytes = 0;
    FlowId flow;
    bool used = false;
  };
  static_assert(sizeof(Slot) == 24);

  // Slot of a flow whose FlowIdHash is `hash` in `stage`: the flow is
  // hashed once per packet and each stage reseeds that value.
  [[nodiscard]] std::size_t index_of(std::uint64_t hash, std::uint32_t stage) const;

  std::uint32_t stages_;
  std::uint32_t slots_;
  std::vector<Slot> table_;  // stages_ x slots_, row-major
  std::uint64_t occupied_ = 0;
  std::uint64_t uncounted_ = 0;
};

// Fig. 4's classification (lines 14-18): the ⊤ flows of an interval are the
// entries whose count is within δf of the largest, c ≥ (1−δf)·c_max. The
// agent runs it on the polled cache; fig13 scores it against the same rule
// on exact per-flow counts.
struct TopFlows {
  std::unordered_set<FlowId, FlowIdHash> flows;
  double bytes = 0.0;  // the ⊤ counts, summed as doubles in entry order
};
[[nodiscard]] TopFlows classify_top(const std::vector<FlowCache::Entry>& entries,
                                    double delta_flow);

}  // namespace cebinae

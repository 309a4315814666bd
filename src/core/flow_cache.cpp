#include "core/flow_cache.hpp"

#include <algorithm>
#include <cassert>

namespace cebinae {

namespace {
// Per-stage hash seeds: each stage must hash flows independently or the
// stages provide no collision relief.
constexpr std::uint64_t kStageSeeds[] = {
    0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
    0x082efa98ec4e6c89ULL, 0x452821e638d01377ULL, 0xbe5466cf34e90c6cULL,
    0xc0ac29b7c97c50ddULL, 0x3f84d5b5b5470917ULL,
};

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

FlowCache::FlowCache(std::uint32_t stages, std::uint32_t slots_per_stage)
    : stages_(stages), slots_(slots_per_stage),
      table_(static_cast<std::size_t>(stages) * slots_per_stage) {
  assert(stages_ >= 1 && stages_ <= 8);
  assert(slots_ >= 1);
}

std::size_t FlowCache::index_of(std::uint64_t hash, std::uint32_t stage) const {
  const std::uint64_t h = mix(hash ^ kStageSeeds[stage]);
  return static_cast<std::size_t>(stage) * slots_ + h % slots_;
}

bool FlowCache::add(const FlowId& flow, std::uint64_t bytes) {
  const std::uint64_t hash = FlowIdHash{}(flow);
  for (std::uint32_t s = 0; s < stages_; ++s) {
    Slot& slot = table_[index_of(hash, s)];
    if (!slot.used) {
      slot.used = true;
      slot.flow = flow;
      slot.bytes = bytes;
      ++occupied_;
      return true;
    }
    if (slot.flow == flow) {
      slot.bytes += bytes;
      return true;
    }
  }
  ++uncounted_;
  return false;
}

std::vector<FlowCache::Entry> FlowCache::poll_and_reset() {
  std::vector<Entry> entries;
  entries.reserve(occupied_);
  for (Slot& slot : table_) {
    if (slot.used) {
      entries.push_back(Entry{slot.flow, slot.bytes});
      slot = Slot{};
    }
  }
  occupied_ = 0;
  return entries;
}

std::optional<std::uint64_t> FlowCache::bytes_for(const FlowId& flow) const {
  const std::uint64_t hash = FlowIdHash{}(flow);
  for (std::uint32_t s = 0; s < stages_; ++s) {
    const Slot& slot = table_[index_of(hash, s)];
    if (slot.used && slot.flow == flow) return slot.bytes;
  }
  return std::nullopt;
}

TopFlows classify_top(const std::vector<FlowCache::Entry>& entries, double delta_flow) {
  std::uint64_t c_max = 0;
  for (const auto& e : entries) c_max = std::max(c_max, e.bytes);

  const double threshold = static_cast<double>(c_max) * (1.0 - delta_flow);
  TopFlows top;
  for (const auto& e : entries) {
    if (static_cast<double>(e.bytes) >= threshold) {
      top.flows.insert(e.flow);
      top.bytes += static_cast<double>(e.bytes);
    }
  }
  return top;
}

}  // namespace cebinae

// Per-scenario metrics registry: named histogram accumulators for the
// observability layer.
//
// Ownership and threading: a MetricsRegistry is owned by a Network (one per
// Scenario) — there is deliberately NO process-global registry, preserving
// the one-Scenario-per-thread contract documented in src/net/packet_slab.hpp.
// Instrumented components hold plain pointers into their Network's registry,
// so the hot-path cost of an observation is one null check plus the update;
// nothing is ever locked. Counts that a component already keeps (bytes sent,
// retransmissions, ...) are not mirrored here: the trace row reads them from
// the component at the tick (Scenario::trace_row).
//
// The registry is node-based, so a Histogram& it returns stays valid for the
// registry's lifetime regardless of how many histograms are added afterwards.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace cebinae::obs {

// Streaming summary of observed samples (count/sum/max); cheap enough to
// sit on a per-ACK path. Trace rows export n, mean, and max.
class Histogram {
 public:
  void observe(double x) {
    ++n_;
    sum_ += x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  [[nodiscard]] double max() const { return n_ == 0 ? 0.0 : max_; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double max_ = -std::numeric_limits<double>::infinity();
};

class MetricsRegistry {
 public:
  // Get-or-create: repeated lookups of the same name return the same cell,
  // so multiple instances (e.g. every TcpSender in the network) can share
  // one aggregate histogram.
  Histogram& histogram(std::string_view name) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
    return histograms_.emplace(std::string(name), Histogram{}).first->second;
  }

 private:
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace cebinae::obs

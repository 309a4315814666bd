// Per-scenario metrics registry: named counters and histogram accumulators
// for the observability layer.
//
// Ownership and threading: a MetricsRegistry is owned by a Network (one per
// Scenario) — there is deliberately NO process-global registry, preserving
// the one-Scenario-per-thread contract documented in src/net/packet_slab.hpp.
// Instrumented components hold plain pointers into their Network's registry,
// so the hot-path cost of a counter is one null check plus one add; nothing
// is ever locked. Sampling (reading every metric into a trace row) is done
// only by scheduler-driven probes, on the simulation thread.
//
// Metric cells are deque-backed, so a Counter&/Histogram& returned by the
// registry stays valid for the registry's lifetime regardless of how many
// metrics are registered afterwards.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cebinae::obs {

class TraceRow;

// Monotonic event count (packets dropped, retransmissions, rotations...).
class Counter {
 public:
  void add(std::uint64_t n) { v_ += n; }
  void inc() { ++v_; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

// Streaming summary of observed samples (count/sum/min/max); cheap enough to
// sit on a per-ACK path. Probes export n, mean, and max.
class Histogram {
 public:
  void observe(double x) {
    ++n_;
    sum_ += x;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  [[nodiscard]] double min() const { return n_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return n_ == 0 ? 0.0 : max_; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class MetricsRegistry {
 public:
  // Get-or-create: repeated lookups of the same name return the same cell,
  // so multiple instances (e.g. every Device in the network) can share one
  // aggregate counter.
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return order_.size(); }

  // Snapshot every metric into `row`, in registration order (deterministic
  // key order is what keeps trace files byte-stable). A counter emits one
  // scalar; a histogram `h` emits `h.n`, `h.mean`, and `h.max`.
  void sample_into(TraceRow& row) const;

 private:
  enum class Kind { kCounter, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::size_t index;  // into the kind's storage
  };

  std::vector<Entry> order_;
  std::unordered_map<std::string, std::size_t> by_name_;  // -> order_ index
  std::deque<Counter> counters_;
  std::deque<Histogram> histograms_;
};

}  // namespace cebinae::obs

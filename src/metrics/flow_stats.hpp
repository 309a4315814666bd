// Per-flow goodput accounting in 1-s buckets.
//
// Receivers report in-order application deliveries here; benches and
// tests read back total and windowed goodputs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace cebinae {

class FlowStatsCollector {
 public:
  // Fix a flow's position in the output ordering (call in scenario order)
  // and return it: the index its deliveries are booked against. A flow
  // registered again keeps its first index.
  std::size_t register_flow(const FlowId& flow);

  // Books `bytes` delivered at `now` to the flow at `index`, as returned by
  // register_flow().
  void on_delivery(std::size_t index, std::uint64_t bytes, Time now);
  // The same for a registered flow named by its FlowId, at one hash lookup
  // per delivery. Kept only because the benchmark's traced run still books
  // its deliveries this way.
  void on_delivery(const FlowId& flow, std::uint64_t bytes, Time now);

  [[nodiscard]] std::size_t flow_count() const { return order_.size(); }
  [[nodiscard]] const std::vector<FlowId>& flows() const { return order_; }

  [[nodiscard]] std::uint64_t total_bytes(const FlowId& flow) const;

  // Average goodput in bytes/second over [from, to], measured from bucketed
  // deliveries (partial edge buckets are included wholly; choose window
  // boundaries on bucket edges for exact results).
  [[nodiscard]] double goodput_Bps(const FlowId& flow, Time from, Time to) const;

  // All registered flows, in registration order.
  [[nodiscard]] std::vector<double> goodputs_Bps(Time from, Time to) const;

  // Also count each flow's bytes delivered in [from, to) exactly, unlike the
  // whole-bucket windows above. Call before the deliveries it should see.
  void set_window(Time from, Time to) {
    window_from_ = from;
    window_to_ = to;
  }
  // Goodput of every registered flow over the set_window() window.
  [[nodiscard]] std::vector<double> window_goodputs_Bps() const;

 private:
  static constexpr Time kBucket = Seconds(1);  // bucket i covers [i, i+1) s

  struct Record {
    std::uint64_t total = 0;
    std::uint64_t in_window = 0;
    std::vector<std::uint64_t> buckets;
  };
  [[nodiscard]] static double goodput_Bps(const Record& rec, Time from, Time to);

  Time window_from_ = Time::zero();
  Time window_to_ = Time::zero();
  std::vector<FlowId> order_;    // registration order
  std::vector<Record> records_;  // records_[i] belongs to order_[i]
  std::unordered_map<FlowId, std::size_t, FlowIdHash> index_;
};

}  // namespace cebinae

// Per-flow goodput accounting in 1-s buckets.
//
// Receivers report in-order application deliveries here; benches and
// examples read back total and windowed goodputs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace cebinae {

class FlowStatsCollector {
 public:
  // Fix a flow's position in the output ordering (call in scenario order).
  void register_flow(const FlowId& flow);

  // Matches TcpReceiver::DeliveryCallback.
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

  Time window_from_ = Time::zero();
  Time window_to_ = Time::zero();
  std::vector<FlowId> order_;
  std::unordered_map<FlowId, Record, FlowIdHash> records_;
};

}  // namespace cebinae

#include "metrics/flow_stats.hpp"

#include <algorithm>

namespace cebinae {

void FlowStatsCollector::register_flow(const FlowId& flow) {
  if (records_.find(flow) == records_.end()) {
    order_.push_back(flow);
    records_.emplace(flow, Record{});
  }
}

void FlowStatsCollector::on_delivery(const FlowId& flow, std::uint64_t bytes, Time now) {
  auto it = records_.find(flow);
  if (it == records_.end()) {
    order_.push_back(flow);
    it = records_.emplace(flow, Record{}).first;
  }
  Record& rec = it->second;
  rec.total += bytes;
  if (now >= window_from_ && now < window_to_) rec.in_window += bytes;
  const auto bucket = static_cast<std::size_t>(now / kBucket);
  if (rec.buckets.size() <= bucket) rec.buckets.resize(bucket + 1, 0);
  rec.buckets[bucket] += bytes;
}

std::uint64_t FlowStatsCollector::total_bytes(const FlowId& flow) const {
  auto it = records_.find(flow);
  return it == records_.end() ? 0 : it->second.total;
}

double FlowStatsCollector::goodput_Bps(const FlowId& flow, Time from, Time to) const {
  if (to <= from) return 0.0;
  auto it = records_.find(flow);
  if (it == records_.end()) return 0.0;
  const auto& buckets = it->second.buckets;
  const auto first = static_cast<std::size_t>(from / kBucket);
  const auto last = static_cast<std::size_t>((to - Time(1)) / kBucket);
  std::uint64_t bytes = 0;
  for (std::size_t i = first; i <= last && i < buckets.size(); ++i) bytes += buckets[i];
  return static_cast<double>(bytes) / (to - from).seconds();
}

std::vector<double> FlowStatsCollector::goodputs_Bps(Time from, Time to) const {
  std::vector<double> out;
  out.reserve(order_.size());
  for (const FlowId& f : order_) out.push_back(goodput_Bps(f, from, to));
  return out;
}

std::vector<double> FlowStatsCollector::window_goodputs_Bps() const {
  std::vector<double> out;
  out.reserve(order_.size());
  const double seconds = (window_to_ - window_from_).seconds();
  for (const FlowId& f : order_) {
    const std::uint64_t bytes = records_.at(f).in_window;
    out.push_back(seconds > 0.0 ? static_cast<double>(bytes) / seconds : 0.0);
  }
  return out;
}

}  // namespace cebinae

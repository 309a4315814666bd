#include "metrics/flow_stats.hpp"

#include <algorithm>
#include <cassert>

namespace cebinae {

std::size_t FlowStatsCollector::register_flow(const FlowId& flow) {
  const auto [it, inserted] = index_.emplace(flow, order_.size());
  if (inserted) {
    order_.push_back(flow);
    records_.emplace_back();
  }
  return it->second;
}

void FlowStatsCollector::on_delivery(const FlowId& flow, std::uint64_t bytes, Time now) {
  const auto it = index_.find(flow);
  assert(it != index_.end() && "deliveries are booked to registered flows only");
  on_delivery(it->second, bytes, now);
}

void FlowStatsCollector::on_delivery(std::size_t index, std::uint64_t bytes, Time now) {
  assert(index < records_.size());
  Record& rec = records_[index];
  rec.total += bytes;
  if (now >= window_from_ && now < window_to_) rec.in_window += bytes;
  const auto bucket = static_cast<std::size_t>(now / kBucket);
  if (rec.buckets.size() <= bucket) rec.buckets.resize(bucket + 1, 0);
  rec.buckets[bucket] += bytes;
}

std::uint64_t FlowStatsCollector::total_bytes(const FlowId& flow) const {
  const auto it = index_.find(flow);
  return it == index_.end() ? 0 : records_[it->second].total;
}

double FlowStatsCollector::goodput_Bps(const FlowId& flow, Time from, Time to) const {
  const auto it = index_.find(flow);
  return it == index_.end() ? 0.0 : goodput_Bps(records_[it->second], from, to);
}

double FlowStatsCollector::goodput_Bps(const Record& rec, Time from, Time to) {
  if (to <= from) return 0.0;
  const auto& buckets = rec.buckets;
  const auto first = static_cast<std::size_t>(from / kBucket);
  const auto last = static_cast<std::size_t>((to - Time(1)) / kBucket);
  std::uint64_t bytes = 0;
  for (std::size_t i = first; i <= last && i < buckets.size(); ++i) bytes += buckets[i];
  return static_cast<double>(bytes) / (to - from).seconds();
}

std::vector<double> FlowStatsCollector::goodputs_Bps(Time from, Time to) const {
  std::vector<double> out;
  out.reserve(order_.size());
  for (const Record& rec : records_) out.push_back(goodput_Bps(rec, from, to));
  return out;
}

std::vector<double> FlowStatsCollector::window_goodputs_Bps() const {
  std::vector<double> out;
  out.reserve(order_.size());
  const double seconds = (window_to_ - window_from_).seconds();
  for (const Record& rec : records_) {
    out.push_back(seconds > 0.0 ? static_cast<double>(rec.in_window) / seconds : 0.0);
  }
  return out;
}

}  // namespace cebinae

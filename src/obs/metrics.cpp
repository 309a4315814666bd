#include "obs/metrics.hpp"

#include <cassert>

#include "obs/trace.hpp"

namespace cebinae::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    const Entry& e = order_[it->second];
    assert(e.kind == Kind::kCounter && "metric name reused with a different kind");
    return counters_[e.index];
  }
  counters_.emplace_back();
  by_name_.emplace(std::string(name), order_.size());
  order_.push_back(Entry{std::string(name), Kind::kCounter, counters_.size() - 1});
  return counters_.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    const Entry& e = order_[it->second];
    assert(e.kind == Kind::kHistogram && "metric name reused with a different kind");
    return histograms_[e.index];
  }
  histograms_.emplace_back();
  by_name_.emplace(std::string(name), order_.size());
  order_.push_back(Entry{std::string(name), Kind::kHistogram, histograms_.size() - 1});
  return histograms_.back();
}

void MetricsRegistry::sample_into(TraceRow& row) const {
  for (const Entry& e : order_) {
    switch (e.kind) {
      case Kind::kCounter:
        row.set(e.name, static_cast<double>(counters_[e.index].value()));
        break;
      case Kind::kHistogram: {
        const Histogram& h = histograms_[e.index];
        row.set(e.name + ".n", static_cast<double>(h.count()));
        row.set(e.name + ".mean", h.mean());
        row.set(e.name + ".max", h.max());
        break;
      }
    }
  }
}

}  // namespace cebinae::obs

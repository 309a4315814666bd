// Reporter helpers shared by registered experiments: unit conversion,
// mean ± stddev over a row's trials and its formatting, and cross-trial
// array averaging.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/registry.hpp"

namespace cebinae::exp {

[[nodiscard]] inline double to_mbps(double bytes_per_sec) {
  return bytes_per_sec * 8.0 / 1e6;
}

// Mean and population stddev of n samples.
struct Aggregate {
  int n = 0;
  double mean = 0.0;
  double stddev = 0.0;
};

[[nodiscard]] Aggregate aggregate(const std::vector<double>& samples);

// `value` over the row's trials: a per-trial function, or the name of a
// numeric result-row field (NaN where a row lacks it), e.g. over(row,
// "jfi") or over(row, goodput_mbps).
using PerTrial = std::function<double(const JsonObject&)>;
[[nodiscard]] Aggregate over(const ResultRow& row, const PerTrial& value);
[[nodiscard]] Aggregate over(const ResultRow& row, std::string_view field);

// A Scenario row's total goodput and first link's throughput, in Mbps.
[[nodiscard]] double goodput_mbps(const JsonObject& row);
[[nodiscard]] double throughput_mbps(const JsonObject& row);

// "12.34" for a single sample, "12.34±0.56" once several trials contributed.
[[nodiscard]] std::string pm(const Aggregate& a, int precision = 2);

// Elementwise mean of a per-flow (or per-link) array field of the trials'
// result rows, e.g. "goodput_Bps". Arrays shorter than the longest
// contribute zeros beyond their length.
[[nodiscard]] std::vector<double> mean_array(const std::vector<const JsonObject*>& trials,
                                             std::string_view field);

}  // namespace cebinae::exp

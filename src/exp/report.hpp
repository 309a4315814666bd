// Reporter helpers shared by registered experiments: unit conversion,
// mean ± stddev formatting, and cross-trial array averaging. These replace
// the ad-hoc copies the per-figure bench binaries used to carry.
#pragma once

#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace cebinae::exp {

[[nodiscard]] inline double to_mbps(double bytes_per_sec) {
  return bytes_per_sec * 8.0 / 1e6;
}

// "12.34" for a single sample, "12.34±0.56" once several trials contributed.
[[nodiscard]] std::string pm(const Aggregate& a, int precision = 2);

// Elementwise mean of a per-flow (or per-link) vector across a row's trial
// records; `get(record)` selects the vector. Vectors shorter than the
// longest contribute zeros beyond their length.
template <typename Get>
[[nodiscard]] std::vector<double> mean_array(const std::vector<const RunRecord*>& trials,
                                             Get get) {
  std::vector<double> sum;
  for (const RunRecord* rec : trials) {
    const auto& v = get(*rec);
    if (v.size() > sum.size()) sum.resize(v.size(), 0.0);
    for (std::size_t i = 0; i < v.size(); ++i) sum[i] += v[i];
  }
  if (trials.size() > 1) {
    for (double& s : sum) s /= static_cast<double>(trials.size());
  }
  return sum;
}

}  // namespace cebinae::exp

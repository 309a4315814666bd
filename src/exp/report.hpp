// Reporter helpers shared by registered experiments: unit conversion,
// mean ± stddev formatting, and cross-trial array averaging. These replace
// the ad-hoc copies the per-figure bench binaries used to carry.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"

namespace cebinae::exp {

[[nodiscard]] inline double to_mbps(double bytes_per_sec) {
  return bytes_per_sec * 8.0 / 1e6;
}

// "12.34" for a single sample, "12.34±0.56" once several trials contributed.
[[nodiscard]] std::string pm(const Aggregate& a, int precision = 2);

// Elementwise mean of a per-flow (or per-link) array field of the trials'
// result rows, e.g. "goodput_Bps". Arrays shorter than the longest
// contribute zeros beyond their length.
[[nodiscard]] std::vector<double> mean_array(const std::vector<const RunRecord*>& trials,
                                             std::string_view field);

}  // namespace cebinae::exp

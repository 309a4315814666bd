#include "metrics/maxmin.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cebinae {

std::vector<double> maxmin_rates(const MaxMinProblem& problem) {
  const std::size_t num_flows = problem.flow_links.size();
  const std::size_t num_links = problem.link_capacity.size();
  std::vector<double> rate(num_flows, 0.0);
  std::vector<bool> frozen(num_flows, false);
  std::vector<double> used(num_links, 0.0);

  constexpr double kEps = 1e-9;
  std::size_t active = num_flows;
  // A flow on no link would have an unbounded rate.
  for (const auto& links : problem.flow_links) assert(!links.empty());

  while (active > 0) {
    // Count active flows per link.
    std::vector<std::size_t> active_on_link(num_links, 0);
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      for (std::size_t l : problem.flow_links[f]) {
        assert(l < num_links);
        ++active_on_link[l];
      }
    }

    // Largest uniform increment every active flow can take. An active flow
    // is on at least one link, so some link bounds it.
    double inc = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < num_links; ++l) {
      if (active_on_link[l] == 0) continue;
      inc = std::min(inc, (problem.link_capacity[l] - used[l]) /
                              static_cast<double>(active_on_link[l]));
    }
    inc = std::max(inc, 0.0);

    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      rate[f] += inc;
      for (std::size_t l : problem.flow_links[f]) used[l] += inc;
    }

    // Freeze flows on saturated links.
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      bool freeze = false;
      for (std::size_t l : problem.flow_links[f]) {
        if (used[l] >= problem.link_capacity[l] - kEps) {
          freeze = true;
          break;
        }
      }
      if (freeze) {
        frozen[f] = true;
        --active;
      }
    }

    if (inc <= kEps) {
      // No progress possible (all remaining links saturated): freeze rest.
      for (std::size_t f = 0; f < num_flows; ++f) {
        if (!frozen[f]) {
          frozen[f] = true;
          --active;
        }
      }
    }
  }
  return rate;
}

}  // namespace cebinae

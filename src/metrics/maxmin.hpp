// Water-filling computation of the max-min fair allocation (the paper's
// §3.1), used as the "Ideal" reference in Fig. 11 and by the normalized JFI.
// As in the paper's "Ideal", every flow's demand is unbounded.
#pragma once

#include <cstddef>
#include <vector>

namespace cebinae {

struct MaxMinProblem {
  // capacity per link, in any consistent rate unit (e.g., bytes/second).
  std::vector<double> link_capacity;
  // For each flow, the indices of the links it traverses: at least one, as a
  // flow on none would never freeze (maxmin_rates asserts it).
  std::vector<std::vector<std::size_t>> flow_links;
};

// Iterative water-filling: raise all unconstrained flows' rates uniformly
// until a link saturates; freeze the flows on it; repeat. Returns per-flow
// rates in the problem's flow order.
[[nodiscard]] std::vector<double> maxmin_rates(const MaxMinProblem& problem);

}  // namespace cebinae

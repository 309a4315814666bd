#include "exp/report.hpp"

#include <cstdio>

namespace cebinae::exp {

std::string pm(const Aggregate& a, int precision) {
  char buf[64];
  if (a.n > 1) {
    std::snprintf(buf, sizeof(buf), "%.*f±%.*f", precision, a.mean, precision,
                  a.stddev);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*f", precision, a.mean);
  }
  return buf;
}

std::vector<double> mean_array(const std::vector<const RunRecord*>& trials,
                               std::string_view field) {
  std::vector<double> sum;
  for (const RunRecord* rec : trials) {
    const std::vector<double>& v = rec->row.arr(field);
    if (v.size() > sum.size()) sum.resize(v.size(), 0.0);
    for (std::size_t i = 0; i < v.size(); ++i) sum[i] += v[i];
  }
  if (trials.size() > 1) {
    for (double& s : sum) s /= static_cast<double>(trials.size());
  }
  return sum;
}

}  // namespace cebinae::exp

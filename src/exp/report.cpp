#include "exp/report.hpp"

#include <cmath>
#include <cstdio>
#include <string>

namespace cebinae::exp {

Aggregate aggregate(const std::vector<double>& samples) {
  Aggregate a;
  a.n = static_cast<int>(samples.size());
  if (samples.empty()) return a;
  double sum = 0.0;
  for (double s : samples) sum += s;
  a.mean = sum / static_cast<double>(a.n);
  double var = 0.0;
  for (double s : samples) var += (s - a.mean) * (s - a.mean);
  a.stddev = std::sqrt(var / static_cast<double>(a.n));
  return a;
}

Aggregate over(const ResultRow& row, const PerTrial& value) {
  std::vector<double> samples;
  samples.reserve(row.trials.size());
  for (const RunRecord* rec : row.trials) samples.push_back(value(*rec));
  return aggregate(samples);
}

Aggregate over(const ResultRow& row, std::string_view field) {
  return over(row, [field](const RunRecord& rec) { return rec.row.num(field); });
}

double goodput_mbps(const RunRecord& rec) { return to_mbps(rec.row.num("total_goodput_Bps")); }

double throughput_mbps(const RunRecord& rec) {
  const std::vector<double>& throughput = rec.row.arr("throughput_Bps");
  return throughput.empty() ? std::nan("") : to_mbps(throughput[0]);
}

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

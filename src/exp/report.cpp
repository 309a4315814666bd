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
  for (const JsonObject* trial : row.trials) samples.push_back(value(*trial));
  return aggregate(samples);
}

Aggregate over(const ResultRow& row, std::string_view field) {
  return over(row, [field](const JsonObject& trial) { return trial.num(field); });
}

double goodput_mbps(const JsonObject& row) { return to_mbps(row.num("total_goodput_Bps")); }

double throughput_mbps(const JsonObject& row) {
  const std::vector<double>& throughput = row.arr("throughput_Bps");
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

std::vector<double> mean_array(const std::vector<const JsonObject*>& trials,
                               std::string_view field) {
  std::vector<double> sum;
  for (const JsonObject* trial : trials) {
    const std::vector<double>& v = trial->arr(field);
    if (v.size() > sum.size()) sum.resize(v.size(), 0.0);
    for (std::size_t i = 0; i < v.size(); ++i) sum[i] += v[i];
  }
  if (trials.size() > 1) {
    for (double& s : sum) s /= static_cast<double>(trials.size());
  }
  return sum;
}

}  // namespace cebinae::exp

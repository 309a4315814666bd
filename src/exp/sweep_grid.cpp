#include "exp/sweep_grid.hpp"

#include <cmath>
#include <cstdio>

#include "exp/registry.hpp"

namespace cebinae::exp {

namespace {
// Compact value formatting for labels: integers print without a decimal
// point, everything else with up to 6 significant digits.
std::string format_value(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}
}  // namespace

SweepGrid& SweepGrid::qdiscs(std::vector<QdiscKind> kinds) {
  std::vector<std::pair<std::string, Mutator>> options;
  for (QdiscKind kind : kinds) {
    options.emplace_back(to_string(kind), [kind](ScenarioConfig& cfg) { cfg.qdisc = kind; });
  }
  return variants("qdisc", std::move(options));
}

SweepGrid& SweepGrid::axis(std::string name, std::vector<double> values,
                           std::function<void(ScenarioConfig&, double)> apply) {
  Dimension dim;
  dim.name = std::move(name);
  for (double v : values) {
    Option opt;
    opt.value_label = format_value(v);
    opt.numeric = true;
    opt.numeric_value = v;
    opt.apply = [apply, v](ScenarioConfig& cfg) { apply(cfg, v); };
    dim.options.push_back(std::move(opt));
  }
  dims_.push_back(std::move(dim));
  return *this;
}

SweepGrid& SweepGrid::variants(std::string name,
                               std::vector<std::pair<std::string, Mutator>> options) {
  Dimension dim;
  dim.name = std::move(name);
  for (auto& [label, mutator] : options) {
    Option opt;
    opt.value_label = label;
    opt.apply = std::move(mutator);
    dim.options.push_back(std::move(opt));
  }
  dims_.push_back(std::move(dim));
  return *this;
}

std::vector<ExperimentJob> SweepGrid::build() const {
  std::size_t total = 1;
  for (const Dimension& d : dims_) total *= d.options.size();
  std::vector<ExperimentJob> jobs;
  jobs.reserve(total);

  // Odometer over dimension indices, first dimension outermost.
  std::vector<std::size_t> idx(dims_.size(), 0);
  for (std::size_t count = 0; count < total; ++count) {
    ExperimentJob job;
    job.config = base_;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      const Dimension& dim = dims_[d];
      const Option& opt = dim.options[idx[d]];
      opt.apply(job.config);
      if (!job.label.empty()) job.label += ' ';
      job.label += dim.name + '=' + opt.value_label;
      if (opt.numeric) {
        job.params.set(dim.name, opt.numeric_value);
      } else {
        job.params.set(dim.name, opt.value_label);
      }
    }
    jobs.push_back(std::move(job));
    for (std::size_t d = dims_.size(); d-- > 0;) {
      if (++idx[d] < dims_[d].options.size()) break;
      idx[d] = 0;
    }
  }
  return replicate_trials(std::move(jobs), trials_);
}

}  // namespace cebinae::exp

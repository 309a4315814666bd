// SweepGrid: declarative cartesian-product builder for experiment batches.
//
// A grid starts from a base ScenarioConfig and accumulates dimensions —
// qdiscs, named numeric axes and arbitrary named variants — plus a trial
// count. build() expands the cartesian product in declaration order
// (first-added dimension outermost) into a stable list of ExperimentJobs,
// each labelled "name=value ..." with the same values echoed into its JSONL
// `params` object, then replicates every point with replicate_trials.
//
// The expansion order is part of the determinism contract: job index is
// position in this product, and ExperimentRunner derives per-job seeds from
// that index, so two processes building the same grid run the same seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "runner/scenario.hpp"

namespace cebinae::exp {

class SweepGrid {
 public:
  using Mutator = std::function<void(ScenarioConfig&)>;

  explicit SweepGrid(ScenarioConfig base) : base_(std::move(base)) {}

  // Run every point under each of these queue disciplines.
  SweepGrid& qdiscs(std::vector<QdiscKind> kinds);

  // Numeric axis: for each value, `apply(config, value)` customizes the
  // point. The value is echoed into params under `name`.
  SweepGrid& axis(std::string name, std::vector<double> values,
                  std::function<void(ScenarioConfig&, double)> apply);

  // Discrete axis of named variants (e.g. heterogeneous table rows where a
  // closure rewrites flows/buffers wholesale). The variant label is echoed
  // into params under `name`.
  SweepGrid& variants(std::string name,
                      std::vector<std::pair<std::string, Mutator>> options);

  // Replicate every point n times, innermost, through replicate_trials;
  // ExperimentRunner's per-job seeding makes each trial an independent
  // sample. n <= 1 keeps labels free of the `trial=` token, which is what the
  // registry's aggregation key expects.
  SweepGrid& trials(int n) {
    trials_ = n;
    return *this;
  }

  [[nodiscard]] std::vector<ExperimentJob> build() const;

 private:
  struct Option {
    std::string value_label;  // e.g. "0.05", "Cebinae", "reno128"
    bool numeric = false;     // echo into params as a number, not a string
    double numeric_value = 0.0;
    Mutator apply;
  };
  struct Dimension {
    std::string name;
    std::vector<Option> options;
  };

  ScenarioConfig base_;
  std::vector<Dimension> dims_;
  int trials_ = 1;
};

}  // namespace cebinae::exp

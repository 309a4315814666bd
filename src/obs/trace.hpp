// Time-series rows of a traced scenario.
//
// A TraceRow is one sample instant: the simulation time plus named scalars
// and named arrays (per-flow / per-link series). Field order is insertion
// order, and serialization reuses exp::JsonObject's exact %.17g formatting,
// so two runs that sample the same values produce byte-identical JSONL —
// the property the trace determinism test asserts across --jobs counts.
//
// A Scenario builds its rows (Scenario::trace_row) and keeps them in memory
// (single-threaded, like everything a Scenario owns). Streaming to the
// per-job sidecar file is the ExperimentRunner's job: it serializes each
// completed job's rows in job order, which is what keeps the sidecar stable
// across worker counts.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/jsonl_writer.hpp"

namespace cebinae::obs {

class TraceRow {
 public:
  explicit TraceRow(double t_s = 0.0) : t_s_(t_s) {}

  [[nodiscard]] double t_s() const { return t_s_; }

  void set(std::string name, double v) { scalars_.emplace_back(std::move(name), v); }
  void set(std::string name, std::vector<double> v) {
    arrays_.emplace_back(std::move(name), std::move(v));
  }

  // NaN when absent (json-serialized as null, and easy to filter).
  [[nodiscard]] double scalar(std::string_view name) const;
  [[nodiscard]] const std::vector<double>* array(std::string_view name) const;

  // Append t_s, every scalar, then every array to a JSON object under
  // construction (the runner prepends job context before the sample fields).
  void write_fields(exp::JsonObject& obj) const;

 private:
  double t_s_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::vector<double>>> arrays_;
};

// One scalar column of a finished run's rows (NaN where a row lacks it), for
// benches that print tables from RunRecord::trace.
[[nodiscard]] std::vector<double> series_of(const std::vector<TraceRow>& rows,
                                            std::string_view scalar_name);

}  // namespace cebinae::obs

// Time-series rows sampled by probes, and the per-scenario sink that
// collects them.
//
// A TraceRow is one sample instant: the simulation time plus named scalars
// and named arrays (per-flow / per-link series). Field order is insertion
// order, and serialization reuses exp::JsonObject's exact %.17g formatting,
// so two runs that sample the same values produce byte-identical JSONL —
// the property the trace determinism test asserts across --jobs counts.
//
// A TraceSink buffers the rows of ONE scenario in memory (single-threaded,
// like everything a Scenario owns). Streaming to the per-job sidecar file is
// the ExperimentRunner's job: it serializes each completed job's rows in job
// order, which is what keeps the sidecar stable across worker counts.
#pragma once

#include <cmath>
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

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& scalars() const {
    return scalars_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::vector<double>>>& arrays() const {
    return arrays_;
  }

  // Append t_s + every field to a JSON object under construction (used by
  // the runner to prepend job context before the sample fields).
  void write_fields(exp::JsonObject& obj) const;
  [[nodiscard]] exp::JsonObject to_json() const;

 private:
  double t_s_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::vector<double>>> arrays_;
};

class TraceSink {
 public:
  void push(TraceRow row) { rows_.push_back(std::move(row)); }

  [[nodiscard]] const std::vector<TraceRow>& rows() const { return rows_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }
  [[nodiscard]] std::vector<TraceRow> take_rows() { return std::move(rows_); }

  // Column extraction for benches that print tables from a finished run;
  // works on rows already moved out (e.g. RunRecord::trace).
  [[nodiscard]] static std::vector<double> series_of(const std::vector<TraceRow>& rows,
                                                     std::string_view scalar_name);

 private:
  std::vector<TraceRow> rows_;
};

}  // namespace cebinae::obs

// Declarative experiment registry: each paper figure/table registers an
// ExperimentSpec (name, job builder, reporter) and the one `cebinae_bench`
// CLI drives any of them with a uniform flag set
// (--jobs/--out/--resume/--trials/--perf-out/--smoke).
//
// Execution model: make_jobs(opts) expands the spec into an ordered job
// list (SweepGrid or hand-built; trials innermost), ExperimentRunner runs
// it with per-job seeds derived from (base_seed, job index), and
// aggregate_rows() groups the job rows into one ResultRow per distinct
// label-minus-trial. Reporters render from those job rows, read by
// name and summarised with exp::over (report.hpp) — never from live
// Scenario state — which is what makes `--trials=N` a one-flag feature for
// every experiment and keeps stdout byte-identical across `--jobs` values.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"

namespace cebinae::exp {

// CLI-level options shared by every experiment.
struct RunOptions {
  bool full = false;   // paper-scale durations and trial counts
  bool smoke = false;  // sub-second durations; CI sanity pass
  int trials = 0;      // replicate every grid point; 0 = experiment default
  std::uint64_t base_seed = 1;
  int jobs = 1;
  std::string out;       // results JSONL; "" = disabled, "-" = stdout
  bool resume = false;   // continue after the jobs already committed in `out`
  std::string perf_out;  // BENCH perf summary JSON; "" = disabled

  [[nodiscard]] int trials_or(int dflt) const { return trials > 0 ? trials : dflt; }

  // Scenario duration ladder: --smoke » sub-second, --full » paper scale,
  // default » the quick duration the bench suite uses interactively.
  [[nodiscard]] Time scaled(Time full_duration, Time quick_duration) const {
    if (smoke) return Milliseconds(300);
    return full ? full_duration : quick_duration;
  }

  // Trace period for traced experiments: 1 s, and fast enough that a smoke
  // run still produces rows.
  [[nodiscard]] Time trace_period() const { return smoke ? Milliseconds(100) : Seconds(1); }
};

// One line of an experiment's report: all trials of one grid point (at
// least one).
struct ResultRow {
  std::string label;                   // job label minus the trial token
  const ExperimentJob* job = nullptr;  // first trial's job (config echo)
  std::vector<const JsonObject*> trials;  // each trial's job row
};

struct ExperimentSpec {
  std::string name;         // CLI handle, e.g. "fig08"
  std::string title;        // header line, e.g. "Fig. 8 goodput CDFs"
  std::string description;  // one-liner shown by --list

  // Expand the run options into the ordered job list. Trials must be the
  // innermost (fastest-varying) dimension so aggregation can group
  // consecutive jobs; SweepGrid::trials and replicate_trials both comply.
  std::function<std::vector<ExperimentJob>(const RunOptions&)> make_jobs;

  // Render the human-readable table/CDF from the grouped rows.
  std::function<void(const RunOptions&, const std::vector<ResultRow>&)> report;
};

class ExperimentRegistry {
 public:
  static ExperimentRegistry& instance();

  void add(ExperimentSpec spec);
  [[nodiscard]] const ExperimentSpec* find(std::string_view name) const;
  // All specs, sorted by name (stable --list order).
  [[nodiscard]] std::vector<const ExperimentSpec*> all() const;

 private:
  std::vector<ExperimentSpec> specs_;
};

// Static registrar: `namespace { Registration r{spec}; }` in an experiment
// TU. The experiment TUs live in an OBJECT library so these initializers
// are never dropped by the linker.
struct Registration {
  explicit Registration(ExperimentSpec spec);
};

// `"qdisc=FIFO trial=3"` -> `"qdisc=FIFO"`: drops the whitespace-separated
// `trial=` token wherever it appears.
[[nodiscard]] std::string strip_trial(std::string_view label);

// Replicate each job n times with ` trial=t` appended to the label and
// echoed into params, trials innermost. Hand-built job lists call it
// directly, SweepGrid::trials through build(). n <= 1 returns the list
// unchanged.
[[nodiscard]] std::vector<ExperimentJob> replicate_trials(std::vector<ExperimentJob> jobs,
                                                          int n);

// Group the rows of consecutive jobs that share strip_trial(label).
[[nodiscard]] std::vector<ResultRow> aggregate_rows(const std::vector<ExperimentJob>& jobs,
                                                    const std::vector<JsonObject>& job_rows);

// Drive one experiment end to end: build jobs, print the header, run the
// batch (honoring JSONL/resume/perf options uniformly), group,
// and render the report. Returns a process exit code.
int run_experiment(const ExperimentSpec& spec, const RunOptions& opts);

}  // namespace cebinae::exp

// Declarative experiment registry: each paper figure/table registers an
// ExperimentSpec (name, job builder, reporter) and the one `cebinae_bench`
// CLI drives any of them with a uniform flag set
// (--jobs/--out/--resume/--trials/--perf-out/--smoke).
//
// Execution model: make_jobs(opts) lists the spec's grid points (SweepGrid
// or hand-built), expand() replicates each point --trials times (or the
// spec's default), trials innermost, ExperimentRunner runs those jobs with
// per-job seeds derived from (base_seed, job index), and aggregate_rows()
// groups each point's consecutive trial rows into one ResultRow. No
// experiment builds trials itself. Reporters render from those job rows, read
// by name and summarised with exp::over (report.hpp) — never from live
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
  int trials = 0;      // replicate every grid point; 0 = the spec's default
  std::uint64_t base_seed = 1;
  int jobs = 1;
  std::string out;       // results JSONL; "" = disabled, "-" = stdout
  bool resume = false;   // continue after the jobs already committed in `out`
  std::string perf_out;  // BENCH perf summary JSON; "" = disabled

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
  std::string label;                      // the grid point's label
  const ExperimentJob* job = nullptr;     // the grid point (config echo)
  std::vector<const JsonObject*> trials;  // each trial's job row
};

struct ExperimentSpec {
  std::string name;         // CLI handle, e.g. "fig08"
  std::string title;        // header line, e.g. "Fig. 8 goodput CDFs"
  std::string description;  // one-liner shown by --list

  // The ordered grid points at these run options, one job each; their
  // order is the report's row order. The harness replicates trials.
  std::function<std::vector<ExperimentJob>(const RunOptions&)> make_jobs;

  // Render the human-readable table/CDF from the grouped rows.
  std::function<void(const RunOptions&, const std::vector<ResultRow>&)> report;

  // Trials per grid point when --trials is not given; unset = 1.
  int (*default_trials)(const RunOptions&) = nullptr;
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

// Replicate each job n times, trials innermost: trial t sets
// ExperimentJob::trial, appends ` trial=t` to the label and echoes it into
// params. n <= 1 returns the list unchanged.
[[nodiscard]] std::vector<ExperimentJob> replicate_trials(std::vector<ExperimentJob> jobs,
                                                          int n);

// One run of a spec: its grid points and the jobs that run each of them
// `trials` times.
struct Expansion {
  std::vector<ExperimentJob> points;  // spec.make_jobs(opts)
  int trials = 1;                     // --trials, or the spec's default
  std::vector<ExperimentJob> jobs;    // replicate_trials(points, trials)
};

// The harness's one expansion of a spec at these run options.
[[nodiscard]] Expansion expand(const ExperimentSpec& spec, const RunOptions& opts);

// One ResultRow per grid point, holding its `trials` consecutive job rows.
[[nodiscard]] std::vector<ResultRow> aggregate_rows(const std::vector<ExperimentJob>& points,
                                                    int trials,
                                                    const std::vector<JsonObject>& job_rows);

// Drive one experiment end to end: expand the spec, print the header, run
// the batch (honoring JSONL/resume/perf options uniformly), group,
// and render the report. Returns a process exit code.
int run_experiment(const ExperimentSpec& spec, const RunOptions& opts);

}  // namespace cebinae::exp

// ExperimentRunner: execute a batch of independent ScenarioConfig jobs
// across worker threads, with deterministic per-job seeding and results
// returned in job order.
//
// Determinism contract: job i always runs with seed
// derive_seed(base_seed, i) on a Scenario built only from its own config,
// so the batch's results are bit-identical regardless of how many worker
// threads execute it or in which order jobs complete. This is what allows
// `--jobs=N` to be a pure wall-clock knob on the bench binaries.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/jsonl_writer.hpp"
#include "exp/row_parse.hpp"
#include "obs/trace.hpp"
#include "runner/scenario.hpp"

namespace cebinae::exp {

// SplitMix64 finalizer over (base_seed, job_index): cheap, well-dispersed,
// and stable across platforms (unlike std::hash, it is fully specified
// here). Every job gets an independent master seed for its Network RNG.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index);

// One batch entry: the config to run plus bookkeeping echoed into results.
struct ExperimentJob {
  ScenarioConfig config;
  std::string label;  // free-form, e.g. "row=3 qdisc=Cebinae trial=1"
  JsonObject params;  // sweep-axis echo, nested into the JSONL row

  // Telemetry: a positive period records the scenario's trace rows
  // (Scenario::enable_trace) and the sampled rows land in RunRecord::trace
  // (and, when Options::trace_writer is set, the sidecar JSONL file).
  Time trace_period = Time::zero();

  // Non-Scenario jobs (analytic models, FlowCache traces, ...): when set,
  // the runner calls this with the job's derived seed instead of building a
  // Scenario, and the returned (name, value) pairs land in RunRecord::extra.
  // `config` is still the source of the label/params echo but is not run.
  std::function<std::vector<std::pair<std::string, double>>(std::uint64_t seed)> custom;
};

struct RunRecord {
  ScenarioResult result;
  std::uint64_t seed = 0;     // the derived seed the job actually ran with
  double wall_seconds = 0.0;  // host wall-clock for this one Scenario
  std::vector<obs::TraceRow> trace;  // sampled rows (empty unless traced)
  // Metrics returned by ExperimentJob::custom jobs (empty for Scenario
  // jobs). Emitted as numeric fields of the JSONL row and picked up by the
  // registry's aggregation pass.
  std::vector<std::pair<std::string, double>> extra;
};

// Min/max/mean/stddev over one metric across trials (population stddev).
struct Aggregate {
  int n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] Aggregate aggregate(const std::vector<double>& samples);

class ExperimentRunner {
 public:
  struct Options {
    int jobs = 1;                    // worker threads; <1 clamps to 1
    std::uint64_t base_seed = 1;     // per-job seeds derive from this
    JsonlWriter* writer = nullptr;   // optional JSONL sink (not owned)
    // Optional sidecar sink for time-series rows of traced jobs (not owned).
    // Rows are emitted in job order, and within a job in sample-time order,
    // so the sidecar is byte-stable across worker counts. A job's trace rows
    // precede its result row: the result row commits the job.
    JsonlWriter* trace_writer = nullptr;
    // Resume: records of jobs [0, resumed.size()), rebuilt from a previous
    // run's files (load_resume_prefix). Those jobs are neither run nor
    // re-emitted; run() returns their records as given.
    std::vector<RunRecord> resumed;
    // Called after each job finishes, serialized, in completion order —
    // progress reporting only; use the returned vector for results.
    std::function<void(std::size_t done, std::size_t total)> on_progress;
  };

  explicit ExperimentRunner(Options opts) : opts_(std::move(opts)) {}

  // Runs every job on min(jobs, jobs left) worker threads, never on the
  // caller, and returns records in job order. If a writer is configured,
  // rows are ALSO emitted in job order (buffered until all preceding jobs
  // finish) so JSONL files diff cleanly across runs. A job that throws does
  // not stop the others; after they all finish, run() rethrows the
  // exception of the lowest failing job index.
  std::vector<RunRecord> run(const std::vector<ExperimentJob>& jobs);

 private:
  Options opts_;
};

// The standard JSONL row for one run: config echo + metrics + wall clock.
// Schema (stable keys, documented in DESIGN.md):
//   label, params{...}, qdisc, seed, base_seed, job_index, n_flows,
//   chain_links, bottleneck_bps, buffer_bytes, duration_s,
//   goodput_Bps[...], total_goodput_Bps, throughput_Bps[...], jfi, wall_s
[[nodiscard]] JsonObject result_row(const ExperimentJob& job, std::size_t job_index,
                                    std::uint64_t base_seed, const RunRecord& record);

// One sidecar JSONL row per trace tick: job context + the row's fields.
// Schema: label, job_index, seed, t_s, then the row's scalars (jfi,
// qdisc.sojourn_s.l<k>.*, net.tx_*, tcp.*) and arrays (tput_Bps[...],
// q_bytes[...], cwnd_bytes[...], srtt_s[...], ceb_*, top_flow[...]; see
// DESIGN.md §9).
[[nodiscard]] JsonObject trace_row(const ExperimentJob& job, std::size_t job_index,
                                   std::uint64_t seed, const obs::TraceRow& row);

// Inverses of result_row / trace_row: rebuild the record a run produced
// from its parsed row. `custom` mirrors ExperimentJob::custom: custom rows
// carry their metrics as free-form numeric fields, in RunRecord::extra
// order; scenario rows carry the ScenarioResult echo.
[[nodiscard]] RunRecord record_from_row(const ParsedRow& row, bool custom);
// Skips the job-context fields trace_row prepends (label, job_index, seed).
[[nodiscard]] obs::TraceRow trace_from_row(const ParsedRow& row);

// True when `line` is one structurally complete JSONL row: starts with '{'
// and every brace/bracket opened outside a string literal is closed by the
// end of the line. A row truncated by a crashed writer fails this even when
// the cut happens to land just after a nested '}' (e.g. inside "params"),
// which a naive trailing-brace check would wrongly accept.
[[nodiscard]] bool is_complete_row(std::string_view line);

// What a killed run of the same job grid left on disk: the longest prefix of
// committed jobs, and where each file ends after that prefix.
struct ResumePrefix {
  std::vector<RunRecord> records;  // jobs [0, records.size()), from their rows
  std::uint64_t out_bytes = 0;     // end of the last accepted result row
  std::uint64_t trace_bytes = 0;   // end of the accepted jobs' trace rows
};

// Read back a previous run's results and (optional) trace sidecar. Row i is
// accepted while it is complete and matches the grid (job_index i,
// jobs[i].label, base_seed, derive_seed(base_seed, i)); a traced job also
// needs its trace rows, which precede its result row. Only a torn final
// line may be incomplete. Throws std::runtime_error naming the row when a
// complete row belongs to another grid or seed.
[[nodiscard]] ResumePrefix load_resume_prefix(const std::vector<ExperimentJob>& jobs,
                                              std::uint64_t base_seed,
                                              std::istream& results, std::istream* trace);

// File convenience: a missing file reads as empty, and an empty or "-"
// trace path means there is no sidecar to read.
[[nodiscard]] ResumePrefix load_resume_prefix_file(const std::vector<ExperimentJob>& jobs,
                                                   std::uint64_t base_seed,
                                                   const std::string& out_path,
                                                   const std::string& trace_path);

}  // namespace cebinae::exp

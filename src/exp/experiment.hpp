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
#include <utility>
#include <vector>

#include "exp/jsonl_writer.hpp"
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
  // (Scenario::enable_trace) into the result row's `trace` list.
  Time trace_period = Time::zero();

  // Non-Scenario jobs (analytic models, FlowCache traces, ...): when set,
  // the runner calls this instead of building a Scenario, and the returned
  // (name, value) pairs become numeric fields of the result row. `config`
  // is not run; a job that draws random numbers seeds them itself.
  std::function<std::vector<std::pair<std::string, double>>()> custom;
};

// A job's record is the one row it writes (--out); a resumed job's record
// is that row read back from the file.
//
// Result row schema (stable keys, documented in DESIGN.md §8):
//   label, params{...}, job_index, base_seed, seed, then for a Scenario job
//   qdisc, n_flows, chain_links, bottleneck_bps, buffer_bytes, duration_s,
//   goodput_Bps[...], total_goodput_Bps, tail_goodput_Bps[...],
//   throughput_Bps[...], jfi, events, event_digest, or a custom job's
//   metrics; for a traced job trace[...]; then wall_s.
// Each element of trace is one Scenario::trace_row, in sample order — t_s,
// scalars (jfi, qdisc.sojourn_s.l<k>.*, net.tx_*, tcp.*) and arrays
// (tput_Bps[...], q_bytes[...], cwnd_bytes[...], srtt_s[...], ceb_*,
// top_flow[...]; see DESIGN.md §9).

class ExperimentRunner {
 public:
  struct Options {
    int jobs = 1;                    // worker threads; <1 clamps to 1
    std::uint64_t base_seed = 1;     // per-job seeds derive from this
    JsonlWriter* writer = nullptr;   // optional JSONL sink (not owned)
    // Resume: rows of jobs [0, resumed.size()), read back from a previous
    // run's results file (load_resume_prefix). Those jobs are neither run
    // nor re-emitted; run() returns their rows as given.
    std::vector<JsonObject> resumed;
    // Called after each job finishes, serialized, in completion order —
    // progress reporting only; use the returned vector for results.
    std::function<void(std::size_t done, std::size_t total)> on_progress;
  };

  explicit ExperimentRunner(Options opts) : opts_(std::move(opts)) {}

  // Runs every job on min(jobs, jobs left) worker threads, never on the
  // caller, and returns their rows in job order. Workers claim jobs in
  // claim_order, longest first. If a writer is configured,
  // rows are ALSO emitted in job order (buffered until all preceding jobs
  // finish) so JSONL files diff cleanly across runs. A job that throws does
  // not stop the others; after they all finish, run() rethrows the
  // exception of the lowest failing job index.
  std::vector<JsonObject> run(const std::vector<ExperimentJob>& jobs);

 private:
  Options opts_;
};

// The order in which workers claim jobs [first, jobs.size()): descending
// expected cost, flows × bottleneck rate × duration of the job's config, so
// the longest jobs do not start last and stretch the batch's tail. Custom
// jobs have no config to estimate from: they cost 0 and go after every
// Scenario job. Ties keep grid order. Rows are still emitted in grid order.
[[nodiscard]] std::vector<std::size_t> claim_order(const std::vector<ExperimentJob>& jobs,
                                                   std::size_t first = 0);

// What a killed run of the same job grid left on disk: the longest prefix of
// committed rows, and where the file ends after it.
struct ResumePrefix {
  std::vector<JsonObject> rows;  // jobs [0, rows.size())
  std::uint64_t out_bytes = 0;   // end of the last accepted row
};

// Read back a previous run's results. Row i is accepted while it is complete
// and matches the grid (job_index i, jobs[i].label, base_seed,
// derive_seed(base_seed, i), jobs[i].params, a Scenario job's config echo,
// and a trace list exactly when job i is traced). Only the final line may be
// truncated (JsonObject::parse), or lack its newline; it is cut off. Throws
// std::runtime_error naming the line when a line is malformed, or a complete
// row belongs to another grid, seed or scale.
[[nodiscard]] ResumePrefix load_resume_prefix(const std::vector<ExperimentJob>& jobs,
                                              std::uint64_t base_seed,
                                              std::istream& results);

// File convenience: a missing file reads as empty.
[[nodiscard]] ResumePrefix load_resume_prefix_file(const std::vector<ExperimentJob>& jobs,
                                                   std::uint64_t base_seed,
                                                   const std::string& out_path);

}  // namespace cebinae::exp

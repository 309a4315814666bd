#include "exp/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <istream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

namespace cebinae::exp {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index) {
  // SplitMix64: advance the state by the job index, then finalize. The +1 on
  // the index keeps job 0 from returning a plain finalization of base_seed
  // (which derive_seed(x, 0) callers might also use directly as a base).
  std::uint64_t z = base_seed + (job_index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// The config echo of a Scenario job's result row: what ran, at what scale.
JsonObject config_echo(const ScenarioConfig& cfg) {
  JsonObject echo;
  echo.set("qdisc", to_string(cfg.qdisc));
  echo.set("n_flows", static_cast<std::uint64_t>(cfg.flows.size()));
  echo.set("chain_links", cfg.chain_links);
  echo.set("bottleneck_bps", cfg.bottleneck_bps);
  echo.set("buffer_bytes", cfg.buffer_bytes);
  echo.set("duration_s", cfg.duration.seconds());
  return echo;
}

// Job i's result row, in the schema of experiment.hpp: the job context, the
// Scenario's config echo and results (and trace, for a traced job) or the
// custom job's metrics, and the host wall clock of the run.
JsonObject result_row(const ExperimentJob& job, std::size_t job_index, std::uint64_t base_seed,
                      const ScenarioResult& result, std::vector<JsonObject> trace,
                      const std::vector<std::pair<std::string, double>>& metrics,
                      double wall_s) {
  JsonObject row;
  row.set("label", job.label);
  if (!job.params.empty()) row.set("params", job.params);
  row.set("job_index", static_cast<std::uint64_t>(job_index));
  row.set("base_seed", base_seed);
  row.set("seed", derive_seed(base_seed, job_index));
  if (!job.custom) {
    row.append(config_echo(job.config));
    row.set("goodput_Bps", result.goodput_Bps);
    row.set("total_goodput_Bps", result.total_goodput_Bps);
    row.set("tail_goodput_Bps", result.tail_goodput_Bps);
    row.set("throughput_Bps", result.throughput_Bps);
    row.set("jfi", result.jfi);
    row.set("events", result.events);
    row.set("event_digest", result.event_digest);
    if (job.trace_period > Time::zero()) row.set("trace", std::move(trace));
  }
  for (const auto& [name, value] : metrics) row.set(name, value);
  row.set("wall_s", wall_s);
  return row;
}

// Execute job i: the unit of work of a worker.
JsonObject run_job(const ExperimentJob& job, std::size_t job_index, std::uint64_t base_seed) {
  ScenarioResult result;
  std::vector<JsonObject> trace;
  std::vector<std::pair<std::string, double>> metrics;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  double wall_s = 0.0;
  if (job.custom) {
    metrics = job.custom(job.trial);
    wall_s = elapsed();
  } else {
    ScenarioConfig cfg = job.config;
    cfg.seed = derive_seed(base_seed, job_index);
    Scenario scenario(cfg);
    if (job.trace_period > Time::zero()) scenario.enable_trace(job.trace_period);
    result = scenario.run();
    wall_s = elapsed();
    trace = std::move(scenario.trace());
  }
  return result_row(job, job_index, base_seed, result, std::move(trace), metrics, wall_s);
}

// Expected cost of a job, in flow-bits: the unit is arbitrary, only the
// order matters.
double expected_cost(const ExperimentJob& job) {
  if (job.custom) return 0.0;
  const ScenarioConfig& cfg = job.config;
  return static_cast<double>(cfg.flows.size()) * static_cast<double>(cfg.bottleneck_bps) *
         cfg.duration.seconds();
}

}  // namespace

std::vector<std::size_t> claim_order(const std::vector<ExperimentJob>& jobs, std::size_t first) {
  std::vector<std::size_t> order;
  for (std::size_t i = first; i < jobs.size(); ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&jobs](std::size_t a, std::size_t b) {
    return expected_cost(jobs[a]) > expected_cost(jobs[b]);
  });
  return order;
}

std::vector<JsonObject> ExperimentRunner::run(const std::vector<ExperimentJob>& jobs) {
  const std::size_t total = jobs.size();
  const std::size_t first = std::min(opts_.resumed.size(), total);
  std::vector<JsonObject> rows(opts_.resumed.begin(), opts_.resumed.begin() + first);
  rows.resize(total);

  // In-order JSONL emission: rows are buffered until every lower-index job
  // has been written, so the output file is byte-stable across thread
  // counts and completion orders. Resumed jobs are already on disk.
  std::mutex emit_mu;
  std::vector<bool> done(total, false);
  std::fill_n(done.begin(), first, true);
  std::size_t next_to_emit = first;
  std::size_t completed = first;

  auto run_one = [&](std::size_t i) {
    rows[i] = run_job(jobs[i], i, opts_.base_seed);

    std::lock_guard<std::mutex> lock(emit_mu);
    done[i] = true;
    ++completed;
    while (next_to_emit < total && done[next_to_emit]) {
      try {
        if (opts_.writer != nullptr) opts_.writer->write(rows[next_to_emit]);
      } catch (...) {
        // A failed write ends the file: no later job may write a row, or
        // retry this one, after it.
        next_to_emit = total;
        throw;
      }
      ++next_to_emit;
    }
    if (opts_.on_progress) opts_.on_progress(completed, total);
  };

  // Parallel-for: each worker claims the next job of claim_order until none
  // is left. A job's exception is kept at its index and does not stop the
  // others.
  const std::vector<std::size_t> order = claim_order(jobs, first);
  std::atomic<std::size_t> next_claim{0};
  std::vector<std::exception_ptr> errors(total);
  auto worker = [&] {
    for (std::size_t k = next_claim++; k < order.size(); k = next_claim++) {
      const std::size_t i = order[k];
      try {
        run_one(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t workers =
      std::min(static_cast<std::size_t>(std::max(opts_.jobs, 1)), total - first);
  {
    // jthreads join on scope exit, also when starting a later one throws.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
  }

  // Surface the lowest-index failure; rows of the jobs before it are
  // already on disk, which aids post-mortems.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return rows;
}

namespace {

// Reads a JSONL file row by row, tracking the byte offset past the last row
// returned.
class RowReader {
 public:
  RowReader(std::istream& in, std::string name) : in_(in), name_(std::move(name)) {}

  // The next committed row, or nullopt at the end of the file. A truncated
  // line, or a row without its newline, is a write the process died in;
  // only the last line may be one.
  std::optional<JsonObject> next() {
    std::string line;
    if (!std::getline(in_, line)) return std::nullopt;
    ++line_no_;
    JsonObject row;
    const JsonObject::Parse parsed = JsonObject::parse(line, row);
    if (parsed == JsonObject::Parse::kMalformed) fail("is not a JSON row");
    if (parsed == JsonObject::Parse::kTruncated || in_.eof()) {
      if (in_.peek() != std::char_traits<char>::eof()) fail("is torn but not the last line");
      return std::nullopt;
    }
    offset_ += line.size() + 1;
    return row;
  }

  [[nodiscard]] std::uint64_t offset() const { return offset_; }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(name_ + " line " + std::to_string(line_no_) + " " + why);
  }

 private:
  std::istream& in_;
  std::string name_;
  std::uint64_t offset_ = 0;
  std::size_t line_no_ = 0;
};

// Throws unless `row` is job i's row of this grid, run from `base_seed` at
// this scale: its job context, its params and, for a Scenario job, the
// config echo and a trace list exactly when the job is traced. A row of the
// same grid run at another scale is not this run's row; a custom job puts
// what its scale changes into params.
void expect_row(const RowReader& reader, const JsonObject& row,
                const std::vector<ExperimentJob>& jobs, std::uint64_t base_seed,
                std::uint64_t i) {
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  if (row.u64("job_index", kNone) != i) {
    reader.fail("has job_index " + std::to_string(row.u64("job_index", kNone)) +
                ", expected " + std::to_string(i));
  }
  if (row.u64("base_seed") != base_seed) {
    reader.fail("has base_seed " + std::to_string(row.u64("base_seed")) + " but --seed is " +
                std::to_string(base_seed));
  }
  if (i >= jobs.size()) {
    reader.fail("is job " + std::to_string(i) + " but this grid has " +
                std::to_string(jobs.size()) + " jobs");
  }
  const ExperimentJob& job = jobs[i];
  const std::string job_name = "job " + std::to_string(i);
  if (row.text("label") != job.label) {
    reader.fail("is labelled \"" + std::string(row.text("label")) + "\" but " + job_name +
                " is \"" + job.label + "\"");
  }
  if (row.u64("seed") != derive_seed(base_seed, i)) {
    reader.fail("has seed " + std::to_string(row.u64("seed")) + " but " + job_name +
                " runs with seed " + std::to_string(derive_seed(base_seed, i)));
  }
  const JsonObject::Value* params = row.find("params");
  const std::string params_text = params == nullptr ? "none" : JsonObject::str(*params);
  const std::string want_params = job.params.empty() ? "none" : job.params.str();
  if (params_text != want_params) {
    reader.fail("has params " + params_text + " but " + job_name + " has " + want_params);
  }
  if (job.custom) return;
  const JsonObject echo = config_echo(job.config);
  for (const auto& [name, want] : echo.fields()) {
    const JsonObject::Value* got = row.find(name);
    const std::string got_text = got == nullptr ? "none" : JsonObject::str(*got);
    if (got_text != JsonObject::str(want)) {
      reader.fail("has " + name + " " + got_text + " but " + job_name + " has " +
                  JsonObject::str(want));
    }
  }
  const bool traced = job.trace_period > Time::zero();
  if ((row.find("trace") != nullptr) != traced) {
    reader.fail(traced ? "has no trace but " + job_name + " is traced"
                       : "has a trace but " + job_name + " is not traced");
  }
}

// Every complete row, each checked against its job.
ResumePrefix load_prefix(const std::vector<ExperimentJob>& jobs, std::uint64_t base_seed,
                         RowReader out) {
  ResumePrefix prefix;
  for (std::optional<JsonObject> row; (row = out.next());) {
    expect_row(out, *row, jobs, base_seed, prefix.rows.size());
    prefix.rows.push_back(std::move(*row));
    prefix.out_bytes = out.offset();
  }
  return prefix;
}

}  // namespace

ResumePrefix load_resume_prefix(const std::vector<ExperimentJob>& jobs,
                                std::uint64_t base_seed, std::istream& results) {
  return load_prefix(jobs, base_seed, RowReader(results, "results"));
}

ResumePrefix load_resume_prefix_file(const std::vector<ExperimentJob>& jobs,
                                     std::uint64_t base_seed, const std::string& out_path) {
  // A file that cannot be opened reads as empty.
  std::ifstream results(out_path);
  return load_prefix(jobs, base_seed, RowReader(results, out_path));
}

}  // namespace cebinae::exp

#include "exp/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

namespace cebinae::exp {

ExperimentRegistry& ExperimentRegistry::instance() {
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::add(ExperimentSpec spec) {
  if (find(spec.name) != nullptr) {
    throw std::logic_error("duplicate experiment registration: " + spec.name);
  }
  specs_.push_back(std::move(spec));
}

const ExperimentSpec* ExperimentRegistry::find(std::string_view name) const {
  for (const ExperimentSpec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const ExperimentSpec*> ExperimentRegistry::all() const {
  std::vector<const ExperimentSpec*> out;
  out.reserve(specs_.size());
  for (const ExperimentSpec& s : specs_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const ExperimentSpec* a, const ExperimentSpec* b) { return a->name < b->name; });
  return out;
}

Registration::Registration(ExperimentSpec spec) {
  ExperimentRegistry::instance().add(std::move(spec));
}

std::vector<ExperimentJob> replicate_trials(std::vector<ExperimentJob> jobs, int n) {
  if (n <= 1) return jobs;
  std::vector<ExperimentJob> out;
  out.reserve(jobs.size() * static_cast<std::size_t>(n));
  for (ExperimentJob& job : jobs) {
    for (int t = 0; t < n; ++t) {
      ExperimentJob copy = job;
      if (!copy.label.empty()) copy.label += ' ';
      copy.label += "trial=" + std::to_string(t);
      copy.params.set("trial", t);
      copy.trial = t;
      out.push_back(std::move(copy));
    }
  }
  return out;
}

Expansion expand(const ExperimentSpec& spec, const RunOptions& opts) {
  Expansion e;
  e.points = spec.make_jobs(opts);
  if (opts.trials > 0) {
    e.trials = opts.trials;
  } else if (spec.default_trials) {
    e.trials = spec.default_trials(opts);
  }
  e.jobs = replicate_trials(e.points, e.trials);
  return e;
}

std::vector<ResultRow> aggregate_rows(const std::vector<ExperimentJob>& points, int trials,
                                      const std::vector<JsonObject>& job_rows) {
  const auto n = static_cast<std::size_t>(std::max(trials, 1));
  std::vector<ResultRow> rows;
  for (std::size_t i = 0; i < std::min(job_rows.size(), points.size() * n); ++i) {
    if (i % n == 0) rows.push_back({points[i / n].label, &points[i / n], {}});
    rows.back().trials.push_back(&job_rows[i]);
  }
  return rows;
}

int run_experiment(const ExperimentSpec& spec, const RunOptions& opts) {
  if (opts.resume && (opts.out.empty() || opts.out == "-")) {
    std::fprintf(stderr, "error: --resume needs --out=FILE\n");
    return 2;
  }
  const Expansion expansion = expand(spec, opts);
  const std::vector<ExperimentJob>& jobs = expansion.jobs;

  // Resume reads the files before any writer opens them, so a file from
  // another grid, seed or scale is left untouched.
  ResumePrefix prefix;
  if (opts.resume) {
    try {
      prefix = load_resume_prefix_file(jobs, opts.base_seed, opts.out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: --resume: %s\n", e.what());
      return 2;
    }
    if (!prefix.rows.empty()) {
      std::fprintf(stderr, "[exp] resume: %zu/%zu jobs already complete in %s\n",
                   prefix.rows.size(), jobs.size(), opts.out.c_str());
    }
  }
  const std::size_t resumed = prefix.rows.size();

  std::printf("=== %s (%s run) ===\n", spec.title.c_str(),
              opts.smoke ? "smoke" : (opts.full ? "full paper-scale" : "quick"));

  ExperimentRunner::Options ro;
  ro.jobs = opts.jobs;
  ro.base_seed = opts.base_seed;
  ro.resumed = std::move(prefix.rows);

  std::optional<JsonlWriter> writer;
  try {
    // The file keeps the accepted prefix; a torn final line is cut off
    // before anything is appended.
    writer.emplace(opts.out, prefix.out_bytes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  ro.writer = writer->enabled() ? &*writer : nullptr;
  // Progress goes to stderr so stdout stays byte-identical across --jobs.
  ro.on_progress = [](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\r[exp] %zu/%zu scenarios done", done, total);
    if (done == total) std::fprintf(stderr, "\n");
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<JsonObject> rows;
  try {
    // A failed job or results write ends the run; every job committed
    // before it stays resumable.
    rows = ExperimentRunner(ro).run(jobs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const auto t1 = std::chrono::steady_clock::now();

  if (!opts.perf_out.empty()) {
    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    JsonObject o;
    o.set("bench", spec.name);
    o.set("jobs", opts.jobs);
    o.set("scenarios", static_cast<std::uint64_t>(rows.size()));
    o.set("skipped", static_cast<std::uint64_t>(resumed));
    o.set("wall_s", wall_s);
    o.set("scenarios_per_sec",
          wall_s > 0.0 ? static_cast<double>(rows.size() - resumed) / wall_s : 0.0);
    std::ofstream f(opts.perf_out, std::ios::out | std::ios::trunc);
    f << o.str() << '\n';
    f.close();
    if (!f) {
      std::fprintf(stderr, "error: cannot write perf summary %s\n", opts.perf_out.c_str());
      return 2;
    }
    std::fprintf(stderr, "[exp] perf summary -> %s\n", opts.perf_out.c_str());
  }

  if (spec.report) {
    spec.report(opts, aggregate_rows(expansion.points, expansion.trials, rows));
  }
  // The report is the run's output: a stdout that cannot take it (a full
  // disk, a closed pipe) fails the run like a failed results write.
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: write to stdout failed\n");
    return 2;
  }
  return 0;
}

}  // namespace cebinae::exp

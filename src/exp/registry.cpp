#include "exp/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "exp/report.hpp"

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

std::string strip_trial(std::string_view label) {
  std::string out;
  std::size_t pos = 0;
  while (pos < label.size()) {
    std::size_t end = label.find(' ', pos);
    if (end == std::string_view::npos) end = label.size();
    const std::string_view token = label.substr(pos, end - pos);
    if (token.substr(0, 6) != "trial=") {
      if (!out.empty()) out += ' ';
      out += token;
    }
    pos = end + 1;
  }
  return out;
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
      out.push_back(std::move(copy));
    }
  }
  return out;
}

const Aggregate* ResultRow::metric(std::string_view name) const {
  for (const auto& [n, a] : metrics) {
    if (n == name) return &a;
  }
  return nullptr;
}

double ResultRow::mean(std::string_view name) const {
  const Aggregate* a = metric(name);
  return a == nullptr ? 0.0 : a->mean;
}

namespace {

// Per-record metric samples: standard Scenario summary metrics, the
// record's custom extras, then the spec's extractor.
void extract_metrics(const ExperimentJob& job, const RunRecord& rec,
                     const MetricExtractor& extra,
                     std::vector<std::pair<std::string, double>>& out) {
  if (!job.custom) {
    out.emplace_back("jfi", rec.result.jfi);
    out.emplace_back("goodput_mbps", to_mbps(rec.result.total_goodput_Bps));
    if (!rec.result.throughput_Bps.empty()) {
      out.emplace_back("throughput_mbps", to_mbps(rec.result.throughput_Bps[0]));
    }
  }
  for (const auto& [name, value] : rec.extra) out.emplace_back(name, value);
  if (extra) extra(job, rec, out);
}

}  // namespace

std::vector<ResultRow> aggregate_rows(const std::vector<ExperimentJob>& jobs,
                                      const std::vector<RunRecord>& records,
                                      const MetricExtractor& extra) {
  std::vector<ResultRow> rows;
  // Per-row sample accumulator, first-seen metric order.
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  auto flush = [&]() {
    if (rows.empty()) return;
    for (auto& [name, values] : samples) {
      rows.back().metrics.emplace_back(name, aggregate(values));
    }
    samples.clear();
  };

  for (std::size_t i = 0; i < jobs.size() && i < records.size(); ++i) {
    const std::string key = strip_trial(jobs[i].label);
    if (rows.empty() || rows.back().label != key) {
      flush();
      ResultRow row;
      row.label = key;
      row.job = &jobs[i];
      rows.push_back(std::move(row));
    }
    rows.back().trials.push_back(&records[i]);
    std::vector<std::pair<std::string, double>> vals;
    extract_metrics(jobs[i], records[i], extra, vals);
    for (const auto& [name, value] : vals) {
      auto it = std::find_if(samples.begin(), samples.end(),
                             [&name](const auto& s) { return s.first == name; });
      if (it == samples.end()) {
        samples.emplace_back(name, std::vector<double>{value});
      } else {
        it->second.push_back(value);
      }
    }
  }
  flush();
  return rows;
}

int run_experiment(const ExperimentSpec& spec, const RunOptions& opts) {
  const std::vector<ExperimentJob> jobs = spec.make_jobs(opts);

  // Resume reads the files before any writer opens them, so a file from
  // another grid or seed is left untouched.
  ResumePrefix prefix;
  if (opts.resume && !opts.out.empty() && opts.out != "-") {
    try {
      prefix = load_resume_prefix_file(jobs, opts.base_seed, opts.out, opts.trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: --resume: %s\n", e.what());
      return 2;
    }
    if (!prefix.records.empty()) {
      std::fprintf(stderr, "[exp] resume: %zu/%zu jobs already complete in %s\n",
                   prefix.records.size(), jobs.size(), opts.out.c_str());
    }
  }
  const std::size_t resumed = prefix.records.size();

  std::printf("=== %s (%s run) ===\n", spec.title.c_str(),
              opts.smoke ? "smoke" : (opts.full ? "full paper-scale" : "quick"));

  ExperimentRunner::Options ro;
  ro.jobs = opts.jobs;
  ro.base_seed = opts.base_seed;
  ro.resumed = std::move(prefix.records);

  std::optional<JsonlWriter> writer;
  std::optional<JsonlWriter> trace_writer;
  try {
    // Each file keeps the accepted prefix; a torn final line and the trace
    // rows of an uncommitted job are cut off before anything is appended.
    writer.emplace(opts.out, prefix.out_bytes);
    trace_writer.emplace(opts.trace_out, prefix.trace_bytes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  ro.writer = writer->enabled() ? &*writer : nullptr;
  ro.trace_writer = trace_writer->enabled() ? &*trace_writer : nullptr;
  // Progress goes to stderr so stdout stays byte-identical across --jobs.
  ro.on_progress = [](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\r[exp] %zu/%zu scenarios done", done, total);
    if (done == total) std::fprintf(stderr, "\n");
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RunRecord> records;
  try {
    // A failed job or results write ends the run; every job committed
    // before it stays resumable.
    records = ExperimentRunner(ro).run(jobs);
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
    o.set("scenarios", static_cast<std::uint64_t>(records.size()));
    o.set("skipped", static_cast<std::uint64_t>(resumed));
    o.set("wall_s", wall_s);
    o.set("scenarios_per_sec",
          wall_s > 0.0 ? static_cast<double>(records.size() - resumed) / wall_s : 0.0);
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
    spec.report(opts, aggregate_rows(jobs, records, spec.metrics));
  }
  return 0;
}

}  // namespace cebinae::exp

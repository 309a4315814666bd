// Resume tests: the committed-prefix loader, and `--resume` end to end — a
// results file cut at every point a killed run can leave it must resume to
// the uninterrupted run's rows (traces included), report and file, and a
// file of another grid, seed or scale, or with a final line no kill can
// leave, must be refused untouched. The row parser itself is tested in
// test_json_row.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/jsonl_writer.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"

namespace {

using cebinae::exp::ExperimentJob;
using cebinae::exp::JsonObject;

// ---- committed-prefix loader ----------------------------------------------

TEST(CompleteRow, HandTruncatedResumeFileSkipsOnlyTornRow) {
  // A resume file whose final line was cut mid-write (killed run) must
  // yield every complete row and drop the torn one — including the nasty
  // case where the cut lands after a nested '}' so the line LOOKS
  // brace-terminated.
  std::vector<cebinae::exp::ExperimentJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = std::string(1, static_cast<char>('a' + i));
    jobs[i].custom = [] {
      return std::vector<std::pair<std::string, double>>{};
    };
  }
  auto row = [](const char* label, int i) {
    return std::string(R"({"label":")") + label + R"(","job_index":)" + std::to_string(i) +
           R"(,"base_seed":1,"seed":)" + std::to_string(cebinae::exp::derive_seed(1, i));
  };
  const std::string a = row("a", 0) + R"(,"jfi":0.5})";
  const std::string b = row("b", 1) + R"(,"jfi":0.6})";
  std::stringstream file;
  file << a << "\n" << b << "\n" << row("c", 2) << R"(,"params":{"trial":0})";  // torn after '}'
  const auto prefix = cebinae::exp::load_resume_prefix(jobs, 1, file);
  ASSERT_EQ(prefix.rows.size(), 2u) << "torn row must re-run, not resume over";
  EXPECT_EQ(prefix.rows[1].text("label"), "b");
  EXPECT_EQ(prefix.rows[1].num("jfi"), 0.6);
  EXPECT_EQ(prefix.out_bytes, a.size() + b.size() + 2) << "the torn row is cut off";
}

// Three custom jobs; row i of a run from base seed 1 is committed_row(i).
std::vector<ExperimentJob> custom_grid() {
  std::vector<ExperimentJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "job=" + std::to_string(i);
    jobs[i].custom = [i] {
      return std::vector<std::pair<std::string, double>>{{"v", static_cast<double>(i)}};
    };
  }
  return jobs;
}

std::string committed_row(const std::vector<ExperimentJob>& jobs, std::size_t i) {
  return cebinae::exp::ExperimentRunner({}).run(jobs)[i].str();
}

TEST(CompletedJobIndices, ParsesCompleteRowsOnly) {
  const std::vector<ExperimentJob> jobs = custom_grid();
  const std::string r0 = committed_row(jobs, 0);
  const std::string r1 = committed_row(jobs, 1);
  const std::string r2 = committed_row(jobs, 2);

  std::istringstream killed(r0 + "\n" + r1 + "\n" + r2.substr(0, r2.size() / 2));
  const auto prefix = cebinae::exp::load_resume_prefix(jobs, 1, killed);
  ASSERT_EQ(prefix.rows.size(), 2u);  // torn row 2 reruns
  EXPECT_EQ(prefix.rows[1].str(), r1);
  EXPECT_EQ(prefix.rows[1].u64("seed"), cebinae::exp::derive_seed(1, 1));
  EXPECT_EQ(prefix.out_bytes, r0.size() + r1.size() + 2);

  // A complete final row without its newline is a write the process died in.
  std::istringstream no_newline(r0 + "\n" + r1);
  EXPECT_EQ(cebinae::exp::load_resume_prefix(jobs, 1, no_newline).rows.size(), 1u);

  // Only the last line may be torn, and no line may be malformed; anything
  // else is not this run's file.
  std::istringstream torn_inside(r0 + "\n" + r1.substr(0, r1.size() / 2) + "\n" + r1 + "\n");
  EXPECT_THROW((void)cebinae::exp::load_resume_prefix(jobs, 1, torn_inside),
               std::runtime_error);
  std::istringstream garbled(r0 + "\nnot json at all\n" + r1 + "\n");
  EXPECT_THROW((void)cebinae::exp::load_resume_prefix(jobs, 1, garbled),
               std::runtime_error);
}

TEST(CompletedJobIndices, MissingFileYieldsEmptySet) {
  const auto prefix =
      cebinae::exp::load_resume_prefix_file(custom_grid(), 1, "/nonexistent/cebinae.jsonl");
  EXPECT_TRUE(prefix.rows.empty());
  EXPECT_EQ(prefix.out_bytes, 0u);
}

// ---- --resume end to end ---------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
}

std::vector<std::string> lines_of(const std::string& content) {
  std::vector<std::string> lines;
  std::istringstream in(content);
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  return lines;
}

// Drops every `"wall_s":<number>` field, the one host-dependent value.
std::string strip_wall(const std::string& jsonl) {
  std::string out;
  std::size_t pos = 0;
  for (std::size_t at; (at = jsonl.find(",\"wall_s\":", pos)) != std::string::npos;) {
    out.append(jsonl, pos, at - pos);
    pos = jsonl.find('}', at);
  }
  return out + jsonl.substr(pos);
}


cebinae::ScenarioConfig small_scenario() {
  cebinae::ScenarioConfig base;
  base.bottleneck_bps = 10'000'000;
  base.buffer_bytes = 32ull * cebinae::kMtuBytes;
  base.duration = cebinae::Milliseconds(300);
  base.flows = cebinae::flows_of(cebinae::CcaType::kNewReno, 2, cebinae::Milliseconds(10));
  return base;
}

// A 3-job grid: a plain scenario, a traced scenario and a custom job whose
// metrics include a NaN.
std::vector<ExperimentJob> mixed_grid() {
  std::vector<ExperimentJob> jobs(3);
  jobs[0].config = small_scenario();
  jobs[0].label = "plain";
  jobs[1].config = small_scenario();
  jobs[1].config.qdisc = cebinae::QdiscKind::kCebinae;
  jobs[1].label = "traced";
  jobs[1].trace_period = cebinae::Milliseconds(100);
  jobs[2].label = "custom";
  jobs[2].custom = [] {
    return std::vector<std::pair<std::string, double>>{
        {"zeta", 100.0 / 7.0},
        {"alpha", 0.1},
        {"undefined", std::nan("")}};
  };
  return jobs;
}

// Three traced scenarios, one per queue discipline.
std::vector<ExperimentJob> traced_grid() {
  std::vector<ExperimentJob> jobs;
  for (cebinae::QdiscKind qdisc :
       {cebinae::QdiscKind::kFifo, cebinae::QdiscKind::kCebinae, cebinae::QdiscKind::kFqCoDel}) {
    ExperimentJob job;
    job.config = small_scenario();
    job.config.qdisc = qdisc;
    job.label = "job=" + std::to_string(jobs.size());
    job.trace_period = cebinae::Milliseconds(100);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// An experiment over `grid`. The report prints the mean of every numeric
// result-row field but wall_s, and every tick of the first trial's trace,
// so stdout shows any drift of what the rows carry.
cebinae::exp::ExperimentSpec resume_spec(std::vector<JsonObject>* sink,
                                         std::vector<ExperimentJob> (*grid)() = mixed_grid) {
  cebinae::exp::ExperimentSpec spec;
  spec.name = "resume_test";
  spec.title = "resume test grid";
  spec.make_jobs = [grid](const cebinae::exp::RunOptions&) { return grid(); };
  spec.report = [sink](const cebinae::exp::RunOptions&,
                       const std::vector<cebinae::exp::ResultRow>& rows) {
    for (const cebinae::exp::ResultRow& row : rows) {
      std::printf("%s", row.label.c_str());
      for (const auto& [name, value] : row.trials[0]->fields()) {
        if (name == "wall_s" || !JsonObject::number(value)) continue;
        std::printf(" %s=%.17g", name.c_str(), cebinae::exp::over(row, name).mean);
      }
      std::printf("\n");
      for (const JsonObject& tick : row.trials[0]->list("trace")) {
        std::printf("  %s\n", tick.str().c_str());
      }
      for (const JsonObject* trial : row.trials) sink->push_back(*trial);
    }
  };
  return spec;
}

struct RunOutput {
  int status = 0;
  std::string stdout_text;
  std::string stderr_text;
  std::vector<JsonObject> rows;
};

RunOutput run_spec(const cebinae::exp::RunOptions& opts,
                   std::vector<ExperimentJob> (*grid)() = mixed_grid) {
  RunOutput out;
  const cebinae::exp::ExperimentSpec spec = resume_spec(&out.rows, grid);
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  out.status = cebinae::exp::run_experiment(spec, opts);
  out.stderr_text = ::testing::internal::GetCapturedStderr();
  out.stdout_text = ::testing::internal::GetCapturedStdout();
  return out;
}

// How many jobs the run executed: one progress line each.
std::size_t jobs_run(const RunOutput& out) {
  std::size_t n = 0;
  for (std::size_t at = 0; (at = out.stderr_text.find(" scenarios done", at)) != std::string::npos;
       ++at) {
    ++n;
  }
  return n;
}

TEST(ResumeCutPoints, EveryKillPointResumesToTheUninterruptedRun) {
  // The mixed grid, and a grid whose every job is traced: its traces are in
  // its rows, so the results file alone resumes it.
  for (std::vector<ExperimentJob> (*grid)() : {mixed_grid, traced_grid}) {
    const std::vector<ExperimentJob> jobs = grid();
    SCOPED_TRACE(jobs[0].label);
    const std::string dir = ::testing::TempDir();
    cebinae::exp::RunOptions opts;
    opts.out = dir + "cebinae_resume_ref.jsonl";
    const RunOutput ref = run_spec(opts, grid);
    ASSERT_EQ(ref.status, 0);
    ASSERT_EQ(ref.rows.size(), jobs.size());
    const std::string results = read_file(opts.out);
    const std::vector<std::string> lines = lines_of(results);
    ASSERT_EQ(lines.size(), jobs.size());

    // Cuts: at every line boundary, in the middle of every row, and inside
    // each trace list (after its first tick, and before its closing
    // bracket). Each cut records how many jobs it committed.
    struct Cut {
      std::size_t bytes, committed;
    };
    std::vector<Cut> cuts;
    std::size_t end = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      cuts.push_back({end, i});
      cuts.push_back({end + lines[i].size() / 2, i});
      const std::size_t list = lines[i].find("\"trace\":[");
      if (list != std::string::npos) {
        cuts.push_back({end + lines[i].find("},{", list) + 2, i});
        cuts.push_back({end + lines[i].find("}],", list) + 1, i});
      }
      end += lines[i].size();
    }
    cuts.push_back({end, lines.size()});

    cebinae::exp::RunOptions resume = opts;
    resume.out = dir + "cebinae_resume_cut.jsonl";
    resume.resume = true;
    for (const Cut& cut : cuts) {
      SCOPED_TRACE("results cut at byte " + std::to_string(cut.bytes));
      write_file(resume.out, results.substr(0, cut.bytes));
      const RunOutput got = run_spec(resume, grid);
      ASSERT_EQ(got.status, 0);
      EXPECT_EQ(got.stdout_text, ref.stdout_text);
      // Only the jobs after the committed prefix ran.
      EXPECT_EQ(jobs_run(got), lines.size() - cut.committed);
      ASSERT_EQ(got.rows.size(), ref.rows.size());
      for (std::size_t i = 0; i < ref.rows.size(); ++i) {
        EXPECT_EQ(strip_wall(got.rows[i].str()), strip_wall(ref.rows[i].str()));
        const bool traced = jobs[i].trace_period > cebinae::Time::zero();
        EXPECT_EQ(got.rows[i].list("trace").empty(), !traced);
      }
      const std::string got_results = read_file(resume.out);
      EXPECT_EQ(strip_wall(got_results), strip_wall(results));
      // Committed jobs were rebuilt from their rows, traces included, not
      // run again: their rows keep the original wall clock, in the file and
      // in the report.
      std::size_t kept = 0;
      for (std::size_t i = 0; i < cut.committed; ++i) {
        kept += lines[i].size();
        EXPECT_EQ(got.rows[i].str() + "\n", lines[i]);
      }
      EXPECT_EQ(got_results.substr(0, kept), results.substr(0, kept));
    }
    std::remove(opts.out.c_str());
    std::remove(resume.out.c_str());
  }
}

TEST(ResumeMismatch, AnotherExperimentOrSeedExitsTwoAndLeavesFilesUntouched) {
  const std::string dir = ::testing::TempDir();
  cebinae::exp::RunOptions opts;
  opts.out = dir + "cebinae_resume_foreign.jsonl";
  ASSERT_EQ(run_spec(opts).status, 0);
  const std::string results = read_file(opts.out);
  // Leave job 2 to run so that a wrongly accepted resume would append.
  write_file(opts.out, results.substr(0, results.rfind('\n', results.size() - 2) + 1));
  const std::string cut = read_file(opts.out);

  opts.resume = true;
  // resume_spec with each job passed through `edit`.
  std::vector<JsonObject> sink;
  auto edited = [&sink](const std::function<void(ExperimentJob&)>& edit) {
    cebinae::exp::ExperimentSpec spec = resume_spec(&sink);
    spec.make_jobs = [base = spec.make_jobs, edit](const cebinae::exp::RunOptions& o) {
      std::vector<ExperimentJob> jobs = base(o);
      for (ExperimentJob& job : jobs) edit(job);
      return jobs;
    };
    return spec;
  };
  // Another experiment (same shape, other labels), and the same grid at
  // another scale (as --smoke, then --resume at quick scale): labels and
  // seeds match, the config echo does not. A custom job has no config echo;
  // what its scale changes is in params (fig13's trace_ms), so a grid whose
  // params differ is another scale too. A grid that traces a job whose row
  // has no trace list, or the reverse, is another grid.
  const std::pair<cebinae::exp::ExperimentSpec, std::string> foreign[] = {
      {edited([](ExperimentJob& job) { job.label = "other " + job.label; }), "is labelled"},
      {edited([](ExperimentJob& job) { job.config.duration = cebinae::Seconds(30); }),
       "has duration_s"},
      {edited([](ExperimentJob& job) { job.params.set("trace_ms", 2000); }), "has params"},
      {edited([](ExperimentJob& job) { job.trace_period = cebinae::Milliseconds(100); }),
       "has no trace but job 0 is traced"}};
  for (const auto& [spec, why] : foreign) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cebinae::exp::run_experiment(spec, opts), 2);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(opts.out + " line 1 " + why), std::string::npos) << err;
    EXPECT_EQ(read_file(opts.out), cut);
  }

  // The same experiment under another --seed.
  opts.base_seed = 7;
  EXPECT_EQ(run_spec(opts).status, 2);
  EXPECT_EQ(read_file(opts.out), cut);
  opts.base_seed = 1;

  // The traced job's row without its trace list: a row of another format.
  const std::vector<std::string> lines = lines_of(cut);
  const std::size_t list = lines[1].find(",\"trace\":[");
  ASSERT_NE(list, std::string::npos);
  const std::string untraced = lines[0] + lines[1].substr(0, list) +
                               lines[1].substr(lines[1].find("],\"wall_s\":", list) + 1);
  write_file(opts.out, untraced);
  const RunOutput got = run_spec(opts);
  EXPECT_EQ(got.status, 2);
  EXPECT_NE(got.stderr_text.find(opts.out + " line 2 has no trace but job 1 is traced"),
            std::string::npos)
      << got.stderr_text;
  EXPECT_EQ(read_file(opts.out), untraced);

  std::remove(opts.out.c_str());
}

TEST(ResumeMismatch, MalformedFinalLineExitsTwoAndLeavesFilesUntouched) {
  // A killed write leaves a prefix of a row, which resume cuts off. A final
  // line that no prefix of a row can be is not a torn write: resume refuses
  // the file instead of cutting the line off.
  const std::string dir = ::testing::TempDir();
  cebinae::exp::RunOptions opts;
  opts.out = dir + "cebinae_resume_malformed.jsonl";
  ASSERT_EQ(run_spec(opts).status, 0);
  const std::string results = read_file(opts.out);
  const std::string first = results.substr(0, results.find('\n') + 1);
  const std::string second = results.substr(first.size(), results.find('\n', first.size()) -
                                                              first.size());

  opts.resume = true;
  for (const std::string& last : {std::string(R"({"a":x)"), std::string(R"({"a":1}})"),
                                  second + "}", second + "\n" + "x"}) {
    SCOPED_TRACE(last);
    write_file(opts.out, first + last);
    const RunOutput got = run_spec(opts);
    EXPECT_EQ(got.status, 2);
    EXPECT_NE(got.stderr_text.find(opts.out + " line "), std::string::npos) << got.stderr_text;
    EXPECT_NE(got.stderr_text.find(" is not a JSON row"), std::string::npos) << got.stderr_text;
    EXPECT_EQ(read_file(opts.out), first + last);
  }
  std::remove(opts.out.c_str());
}

}  // namespace

// Resume tests: the committed-prefix loader, and `--resume` end to end —
// files cut at every point a killed run can leave them must resume to the
// uninterrupted run's records, report and files, and files of another grid,
// seed or scale, or with a final line no kill can leave, must be refused
// untouched. The row parser itself is tested in test_json_row.cpp.
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
using cebinae::exp::RunRecord;

// ---- committed-prefix loader ----------------------------------------------

TEST(CompleteRow, HandTruncatedResumeFileSkipsOnlyTornRow) {
  // A resume file whose final line was cut mid-write (killed run) must
  // yield every complete row and drop the torn one — including the nasty
  // case where the cut lands after a nested '}' so the line LOOKS
  // brace-terminated.
  std::vector<cebinae::exp::ExperimentJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = std::string(1, static_cast<char>('a' + i));
    jobs[i].custom = [](std::uint64_t) {
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
  const auto prefix = cebinae::exp::load_resume_prefix(jobs, 1, file, nullptr);
  ASSERT_EQ(prefix.records.size(), 2u) << "torn row must re-run, not resume over";
  EXPECT_EQ(prefix.records[1].row.text("label"), "b");
  EXPECT_EQ(prefix.records[1].row.num("jfi"), 0.6);
  EXPECT_EQ(prefix.out_bytes, a.size() + b.size() + 2) << "the torn row is cut off";
}

// Three custom jobs; row i of a run from base seed 1 is committed_row(i).
std::vector<ExperimentJob> custom_grid() {
  std::vector<ExperimentJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "job=" + std::to_string(i);
    jobs[i].custom = [i](std::uint64_t) {
      return std::vector<std::pair<std::string, double>>{{"v", static_cast<double>(i)}};
    };
  }
  return jobs;
}

std::string committed_row(const std::vector<ExperimentJob>& jobs, std::size_t i) {
  return cebinae::exp::ExperimentRunner({}).run(jobs)[i].row.str();
}

TEST(CompletedJobIndices, ParsesCompleteRowsOnly) {
  const std::vector<ExperimentJob> jobs = custom_grid();
  const std::string r0 = committed_row(jobs, 0);
  const std::string r1 = committed_row(jobs, 1);
  const std::string r2 = committed_row(jobs, 2);

  std::istringstream killed(r0 + "\n" + r1 + "\n" + r2.substr(0, r2.size() / 2));
  const auto prefix = cebinae::exp::load_resume_prefix(jobs, 1, killed, nullptr);
  ASSERT_EQ(prefix.records.size(), 2u);  // torn row 2 reruns
  EXPECT_EQ(prefix.records[1].row.str(), r1);
  EXPECT_EQ(prefix.records[1].row.u64("seed"), cebinae::exp::derive_seed(1, 1));
  EXPECT_EQ(prefix.out_bytes, r0.size() + r1.size() + 2);

  // A complete final row without its newline is a write the process died in.
  std::istringstream no_newline(r0 + "\n" + r1);
  EXPECT_EQ(cebinae::exp::load_resume_prefix(jobs, 1, no_newline, nullptr).records.size(), 1u);

  // Only the last line may be torn, and no line may be malformed; anything
  // else is not this run's file.
  std::istringstream torn_inside(r0 + "\n" + r1.substr(0, r1.size() / 2) + "\n" + r1 + "\n");
  EXPECT_THROW((void)cebinae::exp::load_resume_prefix(jobs, 1, torn_inside, nullptr),
               std::runtime_error);
  std::istringstream garbled(r0 + "\nnot json at all\n" + r1 + "\n");
  EXPECT_THROW((void)cebinae::exp::load_resume_prefix(jobs, 1, garbled, nullptr),
               std::runtime_error);
}

TEST(CompletedJobIndices, MissingFileYieldsEmptySet) {
  const auto prefix = cebinae::exp::load_resume_prefix_file(
      custom_grid(), 1, "/nonexistent/cebinae.jsonl", "/nonexistent/cebinae.trace.jsonl");
  EXPECT_TRUE(prefix.records.empty());
  EXPECT_EQ(prefix.out_bytes, 0u);
  EXPECT_EQ(prefix.trace_bytes, 0u);
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

// A 3-job grid: a plain scenario, a traced scenario and a custom job whose
// metrics include a NaN. The report prints the mean of every numeric
// result-row field but wall_s, so stdout shows any record drift.
cebinae::exp::ExperimentSpec resume_spec(std::vector<RunRecord>* sink) {
  cebinae::exp::ExperimentSpec spec;
  spec.name = "resume_test";
  spec.title = "resume test grid";
  spec.make_jobs = [](const cebinae::exp::RunOptions&) {
    cebinae::ScenarioConfig base;
    base.bottleneck_bps = 10'000'000;
    base.buffer_bytes = 32ull * cebinae::kMtuBytes;
    base.duration = cebinae::Milliseconds(300);
    base.flows = cebinae::flows_of(cebinae::CcaType::kNewReno, 2, cebinae::Milliseconds(10));
    std::vector<ExperimentJob> jobs(3);
    jobs[0].config = base;
    jobs[0].label = "plain";
    jobs[1].config = base;
    jobs[1].config.qdisc = cebinae::QdiscKind::kCebinae;
    jobs[1].label = "traced";
    jobs[1].trace_period = cebinae::Milliseconds(100);
    jobs[2].label = "custom";
    jobs[2].custom = [](std::uint64_t seed) {
      return std::vector<std::pair<std::string, double>>{
          {"zeta", static_cast<double>(seed % 1000) / 7.0},
          {"alpha", 0.1},
          {"undefined", std::nan("")}};
    };
    return jobs;
  };
  spec.report = [sink](const cebinae::exp::RunOptions&,
                       const std::vector<cebinae::exp::ResultRow>& rows) {
    for (const cebinae::exp::ResultRow& row : rows) {
      std::printf("%s", row.label.c_str());
      for (const auto& [name, value] : row.trials[0]->row.fields()) {
        if (name == "wall_s" || !JsonObject::number(value)) continue;
        std::printf(" %s=%.17g", name.c_str(), cebinae::exp::over(row, name).mean);
      }
      std::printf("\n");
      for (const RunRecord* rec : row.trials) sink->push_back(*rec);
    }
  };
  return spec;
}

// Everything a record carries except its wall clock, serialized.
std::string record_text(const RunRecord& rec) {
  std::string text = strip_wall(rec.row.str());
  for (const JsonObject& row : rec.trace) text.append("\n").append(row.str());
  return text;
}

JsonObject parsed(const std::string& line) {
  JsonObject row;
  EXPECT_EQ(JsonObject::parse(line, row), JsonObject::Parse::kOk) << line;
  return row;
}

struct RunOutput {
  int status = 0;
  std::string stdout_text;
  std::vector<RunRecord> records;
};

RunOutput run_resume_spec(const cebinae::exp::RunOptions& opts) {
  RunOutput out;
  const cebinae::exp::ExperimentSpec spec = resume_spec(&out.records);
  ::testing::internal::CaptureStdout();
  out.status = cebinae::exp::run_experiment(spec, opts);
  out.stdout_text = ::testing::internal::GetCapturedStdout();
  return out;
}

TEST(ResumeCutPoints, EveryKillPointResumesToTheUninterruptedRun) {
  const std::string dir = ::testing::TempDir();
  cebinae::exp::RunOptions opts;
  opts.out = dir + "cebinae_resume_ref.jsonl";
  opts.trace_out = dir + "cebinae_resume_ref.trace.jsonl";
  const RunOutput ref = run_resume_spec(opts);
  ASSERT_EQ(ref.status, 0);
  ASSERT_EQ(ref.records.size(), 3u);
  const std::string results = read_file(opts.out);
  const std::string trace = read_file(opts.trace_out);
  const std::vector<ExperimentJob> jobs = resume_spec(nullptr).make_jobs(opts);

  // The run's writes in order, as (is_trace, line): each job's trace rows,
  // then its result row. A killed run leaves a prefix of this sequence,
  // possibly with the next write torn.
  std::vector<std::pair<bool, std::string>> writes;
  const std::vector<std::string> result_lines = lines_of(results);
  const std::vector<std::string> trace_lines = lines_of(trace);
  ASSERT_EQ(result_lines.size(), jobs.size());
  ASSERT_GE(trace_lines.size(), 2u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (const std::string& line : trace_lines) {
      if (parsed(line.substr(0, line.size() - 1)).u64("job_index") == i) {
        writes.emplace_back(true, line);
      }
    }
    writes.emplace_back(false, result_lines[i]);
  }

  // Cuts: after every write (every line boundary of both files, including
  // between a job's trace rows and its result row), in the middle of every
  // write (torn result and trace rows), and a complete results file whose
  // trace rows are missing. Each cut records how many jobs it committed.
  struct Cut {
    std::size_t results_bytes, trace_bytes, committed;
  };
  std::vector<Cut> cuts;
  std::size_t r_end = 0;
  std::size_t t_end = 0;
  std::size_t committed = 0;
  for (const auto& [is_trace, line] : writes) {
    cuts.push_back({r_end, t_end, committed});
    const std::size_t torn = line.size() / 2;
    cuts.push_back({is_trace ? r_end : r_end + torn, is_trace ? t_end + torn : t_end, committed});
    (is_trace ? t_end : r_end) += line.size();
    if (!is_trace) ++committed;
  }
  cuts.push_back({r_end, t_end, committed});
  cuts.push_back({r_end, 0, 1});  // job 1 is traced

  cebinae::exp::RunOptions resume = opts;
  resume.out = dir + "cebinae_resume_cut.jsonl";
  resume.trace_out = dir + "cebinae_resume_cut.trace.jsonl";
  resume.resume = true;
  for (const Cut& cut : cuts) {
    SCOPED_TRACE("results cut at byte " + std::to_string(cut.results_bytes) +
                 ", trace at byte " + std::to_string(cut.trace_bytes));
    write_file(resume.out, results.substr(0, cut.results_bytes));
    write_file(resume.trace_out, trace.substr(0, cut.trace_bytes));
    const RunOutput got = run_resume_spec(resume);
    ASSERT_EQ(got.status, 0);
    EXPECT_EQ(got.stdout_text, ref.stdout_text);
    ASSERT_EQ(got.records.size(), ref.records.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(record_text(got.records[i]), record_text(ref.records[i]));
    }
    const std::string got_results = read_file(resume.out);
    EXPECT_EQ(strip_wall(got_results), strip_wall(results));
    EXPECT_EQ(read_file(resume.trace_out), trace);
    // Committed jobs were rebuilt from their rows, not run again: their
    // rows keep the original wall clock, and so do their records.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cut.committed; ++i) {
      kept += result_lines[i].size();
      EXPECT_EQ(got.records[i].row.num("wall_s"), ref.records[i].row.num("wall_s"));
    }
    EXPECT_EQ(got_results.substr(0, kept), results.substr(0, kept));
  }
  for (const std::string& path : {opts.out, opts.trace_out, resume.out, resume.trace_out}) {
    std::remove(path.c_str());
  }
}

TEST(ResumeMismatch, AnotherExperimentOrSeedExitsTwoAndLeavesFilesUntouched) {
  const std::string dir = ::testing::TempDir();
  cebinae::exp::RunOptions opts;
  opts.out = dir + "cebinae_resume_foreign.jsonl";
  opts.trace_out = dir + "cebinae_resume_foreign.trace.jsonl";
  ASSERT_EQ(run_resume_spec(opts).status, 0);
  const std::string results = read_file(opts.out);
  const std::string trace = read_file(opts.trace_out);
  // Leave job 2 to run so that a wrongly accepted resume would append.
  write_file(opts.out, results.substr(0, results.rfind('\n', results.size() - 2) + 1));
  const std::string cut = read_file(opts.out);

  opts.resume = true;
  // resume_spec with each job passed through `edit`.
  std::vector<RunRecord> sink;
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
  // params differ is another scale too.
  const std::pair<cebinae::exp::ExperimentSpec, std::string> foreign[] = {
      {edited([](ExperimentJob& job) { job.label = "other " + job.label; }), "is labelled"},
      {edited([](ExperimentJob& job) { job.config.duration = cebinae::Seconds(30); }),
       "has duration_s"},
      {edited([](ExperimentJob& job) { job.params.set("trace_ms", 2000); }), "has params"}};
  for (const auto& [spec, why] : foreign) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cebinae::exp::run_experiment(spec, opts), 2);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(opts.out + " line 1 " + why + " "), std::string::npos) << err;
    EXPECT_EQ(read_file(opts.out), cut);
    EXPECT_EQ(read_file(opts.trace_out), trace);
  }

  // The same experiment under another --seed.
  opts.base_seed = 7;
  EXPECT_EQ(run_resume_spec(opts).status, 2);
  EXPECT_EQ(read_file(opts.out), cut);
  EXPECT_EQ(read_file(opts.trace_out), trace);

  std::remove(opts.out.c_str());
  std::remove(opts.trace_out.c_str());
}

TEST(ResumeMismatch, MalformedFinalLineExitsTwoAndLeavesFilesUntouched) {
  // A killed write leaves a prefix of a row, which resume cuts off. A final
  // line that no prefix of a row can be is not a torn write: resume refuses
  // the file instead of cutting the line off.
  const std::string dir = ::testing::TempDir();
  cebinae::exp::RunOptions opts;
  opts.out = dir + "cebinae_resume_malformed.jsonl";
  ASSERT_EQ(run_resume_spec(opts).status, 0);
  const std::string results = read_file(opts.out);
  const std::string first = results.substr(0, results.find('\n') + 1);
  const std::string second = results.substr(first.size(), results.find('\n', first.size()) -
                                                              first.size());

  opts.resume = true;
  for (const std::string& last : {std::string(R"({"a":x)"), std::string(R"({"a":1}})"),
                                  second + "}", second + "\n" + "x"}) {
    SCOPED_TRACE(last);
    write_file(opts.out, first + last);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_resume_spec(opts).status, 2);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(opts.out + " line "), std::string::npos) << err;
    EXPECT_NE(err.find(" is not a JSON row"), std::string::npos) << err;
    EXPECT_EQ(read_file(opts.out), first + last);
  }
  std::remove(opts.out.c_str());
}

}  // namespace

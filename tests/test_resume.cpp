// Resume tests: the JSONL row parser, RunRecord/TraceRow reconstruction
// (the %.17g round-trip the byte-identical report depends on), the
// committed-prefix loader, and `--resume` end to end — files cut at every
// point a killed run can leave them must resume to the uninterrupted run's
// records, report and files, and files of another grid or seed must be
// refused untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/jsonl_writer.hpp"
#include "exp/registry.hpp"
#include "exp/row_parse.hpp"

using cebinae::exp::JsonField;
using cebinae::exp::ParsedRow;
using cebinae::exp::parse_row;
using cebinae::exp::record_from_row;
using cebinae::exp::trace_from_row;

namespace {

// ---- parser ---------------------------------------------------------------

TEST(RowParse, ParsesTheShapesJsonObjectEmits) {
  cebinae::exp::JsonObject params;
  params.set("qdisc", "Cebinae");
  params.set("trial", 2);
  cebinae::exp::JsonObject o;
  o.set("label", "qdisc=Cebinae trial=2");
  o.set("params", params);
  o.set("jfi", 0.98765432109876543);
  o.set("count", std::uint64_t{18446744073709551615ull});  // max u64
  o.set("flag", true);
  o.set("bad", std::nan(""));  // serialized as null
  o.set("goodput_Bps", std::vector<double>{1.5, 2.5e9, 0.0});

  const auto row = parse_row(o.str());
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->str("label"), "qdisc=Cebinae trial=2");
  EXPECT_DOUBLE_EQ(row->num("jfi"), 0.98765432109876543);
  EXPECT_EQ(row->u64("count"), 18446744073709551615ull);
  const JsonField* flag = row->find("flag");
  ASSERT_NE(flag, nullptr);
  EXPECT_EQ(flag->kind, JsonField::Kind::kBool);
  EXPECT_TRUE(flag->b);
  const JsonField* bad = row->find("bad");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->kind, JsonField::Kind::kNull);
  const std::vector<double>* arr = row->arr("goodput_Bps");
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(*arr, (std::vector<double>{1.5, 2.5e9, 0.0}));
  // Nested object captured verbatim.
  const JsonField* p = row->find("params");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind, JsonField::Kind::kObject);
  EXPECT_EQ(p->str, params.str());
}

TEST(RowParse, ExactDoubleRoundTrip) {
  // The byte-identity contract: %.17g out, strtod in, %.17g out again must
  // reproduce the identical bytes.
  for (double v : {1.0 / 3.0, 0.1 + 0.2, 6.62607015e-34, 123456789.123456789}) {
    cebinae::exp::JsonObject o;
    o.set("v", v);
    const auto row = parse_row(o.str());
    ASSERT_TRUE(row.has_value());
    cebinae::exp::JsonObject again;
    again.set("v", row->num("v"));
    EXPECT_EQ(o.str(), again.str());
  }
}

TEST(RowParse, RejectsMalformedAndTruncated) {
  EXPECT_FALSE(parse_row("").has_value());
  EXPECT_FALSE(parse_row("not json").has_value());
  EXPECT_FALSE(parse_row(R"({"a":1)").has_value());
  EXPECT_FALSE(parse_row(R"({"a":[1,2)").has_value());
  EXPECT_FALSE(parse_row(R"({"a":"unterminated)").has_value());
  EXPECT_FALSE(parse_row(R"({"a":1}garbage)").has_value());
  EXPECT_TRUE(parse_row("{}").has_value());
}

TEST(RowParse, EscapedStringsRoundTrip) {
  cebinae::exp::JsonObject o;
  o.set("msg", "line1\nline2\t\"quoted\" back\\slash");
  const auto row = parse_row(o.str());
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->str("msg"), "line1\nline2\t\"quoted\" back\\slash");
}

// ---- is_complete_row / truncated resume regression ------------------------

TEST(CompleteRow, NaiveTrailingBraceIsNotEnough) {
  using cebinae::exp::is_complete_row;
  EXPECT_TRUE(is_complete_row(R"({"a":1,"params":{"x":2},"b":3})"));
  // Truncation landing just after the NESTED closing brace: ends in '}' but
  // the row is torn — the old trailing-brace check accepted this.
  EXPECT_FALSE(is_complete_row(R"({"a":1,"params":{"x":2})"));
  EXPECT_FALSE(is_complete_row(R"({"a":1,"b":)"));
  EXPECT_FALSE(is_complete_row(R"("a":1})"));
  // Braces inside strings must not count.
  EXPECT_TRUE(is_complete_row(R"({"label":"weird{]label","n":1})"));
  EXPECT_FALSE(is_complete_row(R"({"label":"open{string)"));
  EXPECT_FALSE(is_complete_row(""));
}

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
  EXPECT_EQ(prefix.records[1].extra[0], (std::pair<std::string, double>{"jfi", 0.6}));
  EXPECT_EQ(prefix.out_bytes, a.size() + b.size() + 2) << "the torn row is cut off";
}

// ---- record / trace reconstruction ----------------------------------------

TEST(Reconstruct, ScenarioRecordRoundTrips) {
  cebinae::exp::ExperimentJob job;
  job.label = "qdisc=Cebinae trial=0";
  cebinae::exp::RunRecord rec;
  rec.seed = 0xABCDEF0123456789ull;
  rec.wall_seconds = 1.25;
  rec.result.goodput_Bps = {1234.5, 6789.25};
  rec.result.tail_goodput_Bps = {1200.0, 6700.0};
  rec.result.throughput_Bps = {9999.75};
  rec.result.total_goodput_Bps = 8023.75;
  rec.result.jfi = 0.97531;

  const cebinae::exp::JsonObject row =
      cebinae::exp::result_row(job, /*job_index=*/7, /*base_seed=*/42, rec);
  const auto parsed = parse_row(row.str());
  ASSERT_TRUE(parsed.has_value());
  const cebinae::exp::RunRecord back = record_from_row(*parsed, /*custom=*/false);

  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.result.goodput_Bps, rec.result.goodput_Bps);
  EXPECT_EQ(back.result.tail_goodput_Bps, rec.result.tail_goodput_Bps);
  EXPECT_EQ(back.result.throughput_Bps, rec.result.throughput_Bps);
  EXPECT_EQ(back.result.total_goodput_Bps, rec.result.total_goodput_Bps);
  EXPECT_EQ(back.result.jfi, rec.result.jfi);
  EXPECT_TRUE(back.extra.empty()) << "scenario rows must not invent extras";
}

TEST(Reconstruct, CustomRecordRestoresExtrasInOrder) {
  cebinae::exp::ExperimentJob job;
  job.label = "model trial=0";
  job.custom = [](std::uint64_t) {
    return std::vector<std::pair<std::string, double>>{};
  };
  cebinae::exp::RunRecord rec;
  rec.seed = 3;
  rec.wall_seconds = 0.5;
  rec.extra = {{"occupancy", 0.125}, {"rotations", 17.0}, {"drop_pct", 2.5}};

  const cebinae::exp::JsonObject row = cebinae::exp::result_row(job, 0, 1, rec);
  const auto parsed = parse_row(row.str());
  ASSERT_TRUE(parsed.has_value());
  const cebinae::exp::RunRecord back = record_from_row(*parsed, /*custom=*/true);
  ASSERT_EQ(back.extra.size(), 3u);
  EXPECT_EQ(back.extra[0], (std::pair<std::string, double>{"occupancy", 0.125}));
  EXPECT_EQ(back.extra[1], (std::pair<std::string, double>{"rotations", 17.0}));
  EXPECT_EQ(back.extra[2], (std::pair<std::string, double>{"drop_pct", 2.5}));
}

TEST(Reconstruct, TraceRowRoundTripsScalarsArraysAndNaN) {
  cebinae::obs::TraceRow row(12.5);
  row.set("jfi", 0.875);
  row.set("stalled", std::nan(""));  // serialized as null
  row.set("tput_Bps", std::vector<double>{100.5, 200.25});

  cebinae::exp::ExperimentJob job;
  job.label = "qdisc=FIFO";
  const cebinae::exp::JsonObject json = cebinae::exp::trace_row(job, 4, 99, row);
  const auto parsed = parse_row(json.str());
  ASSERT_TRUE(parsed.has_value());
  const cebinae::obs::TraceRow back = trace_from_row(*parsed);

  EXPECT_EQ(back.t_s(), 12.5);
  EXPECT_EQ(back.scalar("jfi"), 0.875);
  EXPECT_TRUE(std::isnan(back.scalar("stalled")));
  const std::vector<double>* arr = back.array("tput_Bps");
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(*arr, (std::vector<double>{100.5, 200.25}));
  // Job-context fields must NOT leak into the reconstructed row.
  EXPECT_TRUE(std::isnan(back.scalar("job_index")));
  EXPECT_TRUE(std::isnan(back.scalar("seed")));
  // Serializing the reconstruction again reproduces the identical bytes —
  // the resumed --trace-out contract.
  const cebinae::exp::JsonObject again = cebinae::exp::trace_row(job, 4, 99, back);
  EXPECT_EQ(json.str(), again.str());
}

// ---- committed-prefix loader ----------------------------------------------

using cebinae::exp::ExperimentJob;
using cebinae::exp::RunRecord;

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
  RunRecord rec;
  rec.seed = cebinae::exp::derive_seed(1, i);
  rec.extra = jobs[i].custom(rec.seed);
  return cebinae::exp::result_row(jobs[i], i, 1, rec).str();
}

TEST(CompletedJobIndices, ParsesCompleteRowsOnly) {
  const std::vector<ExperimentJob> jobs = custom_grid();
  const std::string r0 = committed_row(jobs, 0);
  const std::string r1 = committed_row(jobs, 1);
  const std::string r2 = committed_row(jobs, 2);

  std::istringstream killed(r0 + "\n" + r1 + "\n" + r2.substr(0, r2.size() / 2));
  const auto prefix = cebinae::exp::load_resume_prefix(jobs, 1, killed, nullptr);
  ASSERT_EQ(prefix.records.size(), 2u);  // torn row 2 reruns
  EXPECT_EQ(prefix.records[1].seed, cebinae::exp::derive_seed(1, 1));
  EXPECT_EQ(prefix.records[1].extra, jobs[1].custom(0));
  EXPECT_EQ(prefix.out_bytes, r0.size() + r1.size() + 2);

  // A complete final row without its newline is a write the process died in.
  std::istringstream no_newline(r0 + "\n" + r1);
  EXPECT_EQ(cebinae::exp::load_resume_prefix(jobs, 1, no_newline, nullptr).records.size(), 1u);

  // Only the last line may be torn; anything else is not this run's file.
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
// extras include a NaN. The report prints every metric mean, so stdout
// shows any record drift.
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
      for (const auto& [name, agg] : row.metrics) std::printf(" %s=%.17g", name.c_str(), agg.mean);
      std::printf("\n");
      for (const RunRecord* rec : row.trials) sink->push_back(*rec);
    }
  };
  return spec;
}

// Everything a record carries except its wall clock, serialized.
std::string record_text(const ExperimentJob& job, std::size_t i, RunRecord rec) {
  rec.wall_seconds = 0.0;
  std::string text = cebinae::exp::result_row(job, i, 1, rec).str();
  for (const cebinae::obs::TraceRow& row : rec.trace) {
    text += "\n" + cebinae::exp::trace_row(job, i, rec.seed, row).str();
  }
  return text;
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
      if (parse_row(line.substr(0, line.size() - 1))->u64("job_index") == i) {
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
      EXPECT_EQ(record_text(jobs[i], i, got.records[i]), record_text(jobs[i], i, ref.records[i]));
    }
    const std::string got_results = read_file(resume.out);
    EXPECT_EQ(strip_wall(got_results), strip_wall(results));
    EXPECT_EQ(read_file(resume.trace_out), trace);
    // Committed jobs were rebuilt from their rows, not run again: their
    // rows keep the original wall clock, and so do their records.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cut.committed; ++i) {
      kept += result_lines[i].size();
      EXPECT_EQ(got.records[i].wall_seconds, ref.records[i].wall_seconds);
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
  // Another experiment: same shape, other labels.
  std::vector<RunRecord> sink;
  cebinae::exp::ExperimentSpec other = resume_spec(&sink);
  other.make_jobs = [base = other.make_jobs](const cebinae::exp::RunOptions& o) {
    std::vector<ExperimentJob> jobs = base(o);
    for (ExperimentJob& job : jobs) job.label = "other " + job.label;
    return jobs;
  };
  EXPECT_EQ(cebinae::exp::run_experiment(other, opts), 2);
  EXPECT_EQ(read_file(opts.out), cut);
  EXPECT_EQ(read_file(opts.trace_out), trace);

  // The same experiment under another --seed.
  opts.base_seed = 7;
  EXPECT_EQ(run_resume_spec(opts).status, 2);
  EXPECT_EQ(read_file(opts.out), cut);
  EXPECT_EQ(read_file(opts.trace_out), trace);

  std::remove(opts.out.c_str());
  std::remove(opts.trace_out.c_str());
}

}  // namespace

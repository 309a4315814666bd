// Telemetry determinism contract: the trace lists a traced batch writes into
// its result rows are byte-identical for any --jobs count and across
// same-seed reruns, and a resumed sweep completes a killed results file,
// traces included, without disturbing the rows already committed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace cebinae::exp {
namespace {

std::vector<ExperimentJob> traced_batch() {
  ScenarioConfig base;
  base.bottleneck_bps = 20'000'000;
  base.buffer_bytes = 64ull * kMtuBytes;
  base.duration = Milliseconds(400);
  base.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(10));

  std::vector<ExperimentJob> jobs;
  for (QdiscKind qdisc : {QdiscKind::kFifo, QdiscKind::kCebinae}) {
    ExperimentJob job;
    job.config = base;
    job.config.qdisc = qdisc;
    job.label = std::string(to_string(qdisc));
    job.trace_period = Milliseconds(100);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
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

// Runs the traced batch and returns its results file; `resumed` is the
// prefix a previous run left in `path`.
std::string run_traced(int workers, const std::string& path,
                       std::vector<JsonObject>* rows_out = nullptr,
                       const ResumePrefix& resumed = {}) {
  {
    JsonlWriter writer(path, resumed.out_bytes);
    ExperimentRunner::Options opts;
    opts.jobs = workers;
    opts.base_seed = 11;
    opts.writer = &writer;
    opts.resumed = resumed.rows;
    std::vector<JsonObject> rows = ExperimentRunner(opts).run(traced_batch());
    if (rows_out != nullptr) *rows_out = std::move(rows);
  }
  return read_file(path);
}

TEST(TraceDeterminism, TraceListsAreByteIdenticalAcrossWorkerCountsAndReruns) {
  const std::string p1 = ::testing::TempDir() + "cebinae_trace_j1.jsonl";
  const std::string p4 = ::testing::TempDir() + "cebinae_trace_j4.jsonl";
  const std::string p1b = ::testing::TempDir() + "cebinae_trace_j1b.jsonl";
  const std::string serial = strip_wall(run_traced(1, p1));
  const std::string parallel = strip_wall(run_traced(4, p4));
  const std::string rerun = strip_wall(run_traced(1, p1b));
  ASSERT_NE(serial.find(",\"trace\":[{\"t_s\":"), std::string::npos);
  // wall_s is the rows' only wall-clock field; without it whole files match.
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, rerun);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
  std::remove(p1b.c_str());
}

TEST(TraceDeterminism, RecordsCarrySampledRowsWithTheDocumentedSchema) {
  const std::string path = ::testing::TempDir() + "cebinae_trace_schema.jsonl";
  std::vector<JsonObject> rows;
  (void)run_traced(2, path, &rows);
  std::remove(path.c_str());

  ASSERT_EQ(rows.size(), 2u);
  for (const JsonObject& row : rows) {
    const std::vector<JsonObject>& trace = row.list("trace");
    // 400 ms at a 100 ms period: ticks at 0.1..0.4 (run_until is inclusive).
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_DOUBLE_EQ(trace[0].num("t_s"), 0.1);
    EXPECT_DOUBLE_EQ(trace[3].num("t_s"), 0.4);
    for (const JsonObject& tick : trace) {
      // Each tick starts at t_s: the job context is the row's, not repeated.
      EXPECT_EQ(tick.fields()[0].first, "t_s");
      EXPECT_EQ(tick.find("label"), nullptr);
      EXPECT_GE(tick.num("jfi"), 0.0);
      EXPECT_EQ(tick.arr("tput_Bps").size(), 2u);  // one slot per flow
      EXPECT_EQ(tick.arr("q_bytes").size(), 1u);   // one slot per bottleneck
      EXPECT_EQ(tick.arr("cwnd_bytes").size(), 2u);
      EXPECT_EQ(tick.arr("srtt_s").size(), 2u);
      // Network-wide counts are summed over the components at the tick.
      EXPECT_GT(tick.num("net.tx_bytes"), 0.0);
    }
  }
  // Cebinae-only arrays appear only on the Cebinae job's ticks.
  EXPECT_EQ(rows[0].list("trace")[0].find("ceb_rotations"), nullptr);
  EXPECT_EQ(rows[1].list("trace")[0].arr("ceb_rotations").size(), 1u);
  EXPECT_EQ(rows[1].list("trace")[0].arr("top_flow").size(), 2u);
}

// --- resumable sweeps -----------------------------------------------------

TEST(ResumableSweep, SkipsCompletedJobsAndCompletesTheFile) {
  const std::string full_path = ::testing::TempDir() + "cebinae_resume_full.jsonl";
  const std::string part_path = ::testing::TempDir() + "cebinae_resume_part.jsonl";

  std::vector<JsonObject> full;
  const std::string full_rows = run_traced(2, full_path, &full);
  const std::size_t row0_end = full_rows.find('\n') + 1;

  // Simulate a sweep killed while job 1 was writing its row: the cut lands
  // inside job 1's trace list.
  const std::size_t cut = full_rows.find("\"t_s\"", full_rows.find("\"trace\"", row0_end));
  ASSERT_NE(cut, std::string::npos);
  std::ofstream(part_path) << full_rows.substr(0, cut);
  const ResumePrefix prefix = load_resume_prefix_file(traced_batch(), 11, part_path);
  ASSERT_EQ(prefix.rows.size(), 1u);
  EXPECT_EQ(prefix.rows[0].u64("seed"), derive_seed(11, 0));
  EXPECT_EQ(prefix.rows[0].list("trace").size(), 4u);
  EXPECT_EQ(prefix.out_bytes, row0_end);

  std::vector<JsonObject> rows;
  const std::string part_rows = run_traced(2, part_path, &rows, prefix);
  // Job 0 was rebuilt from its row, trace and all, not re-run; job 1 ran.
  EXPECT_EQ(rows[0].str(), full[0].str());
  EXPECT_EQ(rows[1].list("trace").size(), 4u);

  // The resumed file holds the original job-0 row plus a fresh job-1 row
  // equal (modulo wall clock) to the full run's.
  EXPECT_EQ(part_rows.substr(0, row0_end), full_rows.substr(0, row0_end));
  EXPECT_EQ(strip_wall(part_rows), strip_wall(full_rows));

  std::remove(full_path.c_str());
  std::remove(part_path.c_str());
}

}  // namespace
}  // namespace cebinae::exp

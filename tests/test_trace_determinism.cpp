// Telemetry determinism contract: the trace sidecar produced by a traced
// batch is byte-identical for any --jobs count and across same-seed reruns,
// and a resumed sweep completes killed files without disturbing the rows
// already committed.
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

std::string run_traced(int workers, const std::string& path,
                       std::vector<RunRecord>* records_out = nullptr) {
  {
    JsonlWriter trace_writer(path);
    ExperimentRunner::Options opts;
    opts.jobs = workers;
    opts.base_seed = 11;
    opts.trace_writer = &trace_writer;
    std::vector<RunRecord> records = ExperimentRunner(opts).run(traced_batch());
    if (records_out != nullptr) *records_out = std::move(records);
  }
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(TraceDeterminism, SidecarIsByteIdenticalAcrossWorkerCountsAndReruns) {
  const std::string p1 = ::testing::TempDir() + "cebinae_trace_j1.jsonl";
  const std::string p4 = ::testing::TempDir() + "cebinae_trace_j4.jsonl";
  const std::string p1b = ::testing::TempDir() + "cebinae_trace_j1b.jsonl";
  const std::string serial = run_traced(1, p1);
  const std::string parallel = run_traced(4, p4);
  const std::string rerun = run_traced(1, p1b);
  ASSERT_FALSE(serial.empty());
  // Trace rows carry no wall-clock field, so whole files compare equal.
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, rerun);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
  std::remove(p1b.c_str());
}

TEST(TraceDeterminism, RecordsCarrySampledRowsWithTheDocumentedSchema) {
  const std::string path = ::testing::TempDir() + "cebinae_trace_schema.jsonl";
  std::vector<RunRecord> records;
  (void)run_traced(2, path, &records);
  std::remove(path.c_str());

  ASSERT_EQ(records.size(), 2u);
  for (const RunRecord& rec : records) {
    // 400 ms at a 100 ms period: ticks at 0.1..0.4 (run_until is inclusive).
    ASSERT_EQ(rec.trace.size(), 4u);
    EXPECT_DOUBLE_EQ(rec.trace[0].num("t_s"), 0.1);
    EXPECT_DOUBLE_EQ(rec.trace[3].num("t_s"), 0.4);
    for (const JsonObject& row : rec.trace) {
      EXPECT_EQ(row.text("label"), rec.row.text("label"));
      EXPECT_EQ(row.u64("seed"), rec.row.u64("seed"));
      EXPECT_GE(row.num("jfi"), 0.0);
      EXPECT_EQ(row.arr("tput_Bps").size(), 2u);  // one slot per flow
      EXPECT_EQ(row.arr("q_bytes").size(), 1u);   // one slot per bottleneck
      EXPECT_EQ(row.arr("cwnd_bytes").size(), 2u);
      EXPECT_EQ(row.arr("srtt_s").size(), 2u);
      // Network-wide counts are summed over the components at the tick.
      EXPECT_GT(row.num("net.tx_bytes"), 0.0);
    }
  }
  // Cebinae-only arrays appear only on the Cebinae job's rows.
  EXPECT_EQ(records[0].trace[0].find("ceb_rotations"), nullptr);
  EXPECT_EQ(records[1].trace[0].arr("ceb_rotations").size(), 1u);
  EXPECT_EQ(records[1].trace[0].arr("top_flow").size(), 2u);
}

// --- resumable sweeps -----------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

// Strips the (intentionally non-deterministic) wall-clock field.
std::string strip_wall(const std::string& line) {
  const std::size_t pos = line.find(",\"wall_s\":");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

TEST(ResumableSweep, SkipsCompletedJobsAndCompletesTheFile) {
  const std::string full_path = ::testing::TempDir() + "cebinae_resume_full.jsonl";
  const std::string full_trace = ::testing::TempDir() + "cebinae_resume_full.trace.jsonl";
  const std::string part_path = ::testing::TempDir() + "cebinae_resume_part.jsonl";
  const std::string part_trace = ::testing::TempDir() + "cebinae_resume_part.trace.jsonl";

  const std::vector<ExperimentJob> jobs = traced_batch();
  auto run = [&jobs](const std::string& out, const std::string& trace,
                     const ResumePrefix& prefix) {
    JsonlWriter writer(out, prefix.out_bytes);
    JsonlWriter trace_writer(trace, prefix.trace_bytes);
    ExperimentRunner::Options opts;
    opts.jobs = 2;
    opts.base_seed = 11;
    opts.writer = &writer;
    opts.trace_writer = &trace_writer;
    opts.resumed = prefix.records;
    return ExperimentRunner(opts).run(jobs);
  };

  const std::vector<RunRecord> full = run(full_path, full_trace, {});
  const std::string full_rows = read_file(full_path);
  const std::string full_trace_rows = read_file(full_trace);
  const std::size_t row0_end = full_rows.find('\n') + 1;
  // Job 0's 4 trace rows, then job 1's: job 1 starts at the 5th line.
  std::size_t trace0_end = 0;
  for (int i = 0; i < 4; ++i) trace0_end = full_trace_rows.find('\n', trace0_end) + 1;

  // Simulate a sweep killed while job 1 was writing its trace rows.
  {
    std::ofstream(part_path) << full_rows.substr(0, row0_end);
    std::ofstream(part_trace) << full_trace_rows.substr(0, trace0_end + 10);
  }
  const ResumePrefix prefix = load_resume_prefix_file(jobs, 11, part_path, part_trace);
  ASSERT_EQ(prefix.records.size(), 1u);
  EXPECT_EQ(prefix.records[0].row.u64("seed"), derive_seed(11, 0));
  EXPECT_EQ(prefix.records[0].trace.size(), 4u);
  EXPECT_EQ(prefix.out_bytes, row0_end);
  EXPECT_EQ(prefix.trace_bytes, trace0_end);

  const std::vector<RunRecord> records = run(part_path, part_trace, prefix);
  // Job 0 was rebuilt from its rows, not re-run; job 1 ran.
  EXPECT_EQ(records[0].row.num("wall_s"), prefix.records[0].row.num("wall_s"));
  EXPECT_EQ(records[0].row.arr("goodput_Bps"), full[0].row.arr("goodput_Bps"));
  EXPECT_EQ(records[1].trace.size(), 4u);

  // The resumed files hold the original job-0 rows plus fresh job-1 rows
  // equal (modulo wall clock) to the full run's.
  const std::string part_rows = read_file(part_path);
  EXPECT_EQ(part_rows.substr(0, row0_end), full_rows.substr(0, row0_end));
  EXPECT_EQ(strip_wall(part_rows.substr(row0_end)), strip_wall(full_rows.substr(row0_end)));
  EXPECT_EQ(read_file(part_trace), full_trace_rows);

  for (const std::string& path : {full_path, full_trace, part_path, part_trace}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace cebinae::exp

// src/exp harness: seed derivation, aggregation, JSON building, SweepGrid
// expansion, and the core determinism contract — a batch run with jobs=1
// and jobs=4 yields bit-identical results in stable job order.
#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/report.hpp"
#include "exp/sweep_grid.hpp"

namespace cebinae::exp {
namespace {

// --- derive_seed ----------------------------------------------------------

TEST(DeriveSeed, IsStableAcrossCalls) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_EQ(derive_seed(42, 17), derive_seed(42, 17));
}

TEST(DeriveSeed, DispersesOverJobsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 8; ++base) {
    for (std::uint64_t i = 0; i < 64; ++i) seen.insert(derive_seed(base, i));
  }
  EXPECT_EQ(seen.size(), 8u * 64u);  // no collisions in a small grid
}

TEST(DeriveSeed, DistinctAcrossIndexAndBase) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  // Index is salted, so job 0 is not just a finalization of the base seed.
  EXPECT_NE(derive_seed(derive_seed(1, 0), 0), derive_seed(1, 0));
}

// --- aggregate ------------------------------------------------------------

TEST(Aggregate, EmptyAndSingle) {
  const Aggregate e = aggregate({});
  EXPECT_EQ(e.n, 0);
  const Aggregate s = aggregate({3.5});
  EXPECT_EQ(s.n, 1);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Aggregate, MeanAndPopulationStddev) {
  const Aggregate a = aggregate({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(a.n, 8);
  EXPECT_DOUBLE_EQ(a.mean, 5.0);
  EXPECT_DOUBLE_EQ(a.stddev, 2.0);  // classic population-stddev example
}

// --- JsonObject / JsonlWriter --------------------------------------------

TEST(JsonObject, BuildsOrderedObject) {
  JsonObject o;
  o.set("a", 1).set("b", 2.5).set("c", "x").set("d", -3.0);
  EXPECT_EQ(o.str(), R"({"a":1,"b":2.5,"c":"x","d":-3})");
}

TEST(JsonObject, EscapesStringsAndHandlesArraysAndNesting) {
  JsonObject inner;
  inner.set("k", std::uint64_t{7});
  JsonObject o;
  o.set("s", "a\"b\\c\nd").set("arr", std::vector<double>{1.0, 0.5}).set("nest", inner);
  EXPECT_EQ(o.str(), R"({"s":"a\"b\\c\nd","arr":[1,0.5],"nest":{"k":7}})");
}

TEST(JsonObject, NonFiniteNumbersBecomeNull) {
  JsonObject o;
  o.set("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(o.str(), R"({"inf":null})");
}

TEST(JsonlWriter, DisabledWriterIsANoop) {
  JsonlWriter w("");
  EXPECT_FALSE(w.enabled());
  JsonObject row;
  row.set("x", 1);
  w.write(row);  // must not throw or write anywhere
}

TEST(JsonlWriter, WritesOneLinePerRow) {
  const std::string path = ::testing::TempDir() + "cebinae_jsonl_test.jsonl";
  {
    JsonlWriter w(path);
    ASSERT_TRUE(w.enabled());
    JsonObject a;
    a.set("i", 0);
    JsonObject b;
    b.set("i", 1);
    w.write(a);
    w.write(b);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, R"({"i":0})");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, R"({"i":1})");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

// --- SweepGrid ------------------------------------------------------------

ScenarioConfig tiny_base() {
  ScenarioConfig cfg;
  cfg.bottleneck_bps = 20'000'000;
  cfg.buffer_bytes = 64ull * kMtuBytes;
  cfg.duration = Milliseconds(400);
  cfg.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(10));
  return cfg;
}

TEST(SweepGrid, ExpandsCartesianProductInDeclarationOrder) {
  SweepGrid grid(tiny_base());
  grid.qdiscs({QdiscKind::kFifo, QdiscKind::kFqCoDel})
      .axis("rtt_ms", {10.0, 20.0}, [](ScenarioConfig& cfg, double ms) {
        for (auto& f : cfg.flows) f.rtt = MillisecondsF(ms);
      });
  const std::vector<ExperimentJob> jobs = replicate_trials(grid.build(), 3);
  ASSERT_EQ(jobs.size(), 12u);
  // First dimension outermost, trials innermost.
  EXPECT_EQ(jobs[0].label, "qdisc=FIFO rtt_ms=10 trial=0");
  EXPECT_EQ(jobs[1].label, "qdisc=FIFO rtt_ms=10 trial=1");
  EXPECT_EQ(jobs[3].label, "qdisc=FIFO rtt_ms=20 trial=0");
  EXPECT_EQ(jobs[6].label, "qdisc=FQ rtt_ms=10 trial=0");
  EXPECT_EQ(jobs[11].label, "qdisc=FQ rtt_ms=20 trial=2");
  EXPECT_EQ(jobs[6].config.qdisc, QdiscKind::kFqCoDel);
  EXPECT_EQ(jobs[3].config.flows[0].rtt, Milliseconds(20));
  EXPECT_EQ(jobs[0].params.str(), R"({"qdisc":"FIFO","rtt_ms":10,"trial":0})");
}

TEST(SweepGrid, VariantsApplyArbitraryMutations) {
  const std::vector<ExperimentJob> jobs =
      SweepGrid(tiny_base())
          .variants("mix", {{"two", [](ScenarioConfig&) {}},
                            {"four",
                             [](ScenarioConfig& cfg) {
                               cfg.flows = flows_of(CcaType::kCubic, 4, Milliseconds(5));
                             }}})
          .build();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].config.flows.size(), 2u);
  EXPECT_EQ(jobs[1].config.flows.size(), 4u);
  EXPECT_EQ(jobs[1].label, "mix=four");
}

// --- ExperimentRunner -----------------------------------------------------

std::vector<ExperimentJob> mini_batch() {
  return replicate_trials(SweepGrid(tiny_base())
                              .qdiscs({QdiscKind::kFifo, QdiscKind::kFqCoDel})
                              .axis("rtt_ms", {10.0, 30.0},
                                    [](ScenarioConfig& cfg, double ms) {
                                      for (auto& f : cfg.flows) f.rtt = MillisecondsF(ms);
                                    })
                              .build(),
                          2);
}

std::vector<JsonObject> run_with_jobs(int jobs, JsonlWriter* writer = nullptr) {
  ExperimentRunner::Options opts;
  opts.jobs = jobs;
  opts.base_seed = 7;
  opts.writer = writer;
  return ExperimentRunner(opts).run(mini_batch());
}

TEST(ExperimentRunner, ParallelRunIsBitIdenticalToSerialRun) {
  const std::vector<JsonObject> serial = run_with_jobs(1);
  const std::vector<JsonObject> parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const JsonObject& s = serial[i];
    const JsonObject& p = parallel[i];
    EXPECT_EQ(s.u64("seed"), p.u64("seed")) << "job " << i;
    EXPECT_EQ(s.u64("seed"), derive_seed(7, i));
    const std::vector<double>& goodputs = s.arr("goodput_Bps");
    ASSERT_EQ(goodputs.size(), p.arr("goodput_Bps").size());
    for (std::size_t f = 0; f < goodputs.size(); ++f) {
      // Bit-identical, not approximately equal: same seed, same event order.
      EXPECT_EQ(goodputs[f], p.arr("goodput_Bps")[f]) << "job " << i << " flow " << f;
    }
    EXPECT_EQ(s.num("total_goodput_Bps"), p.num("total_goodput_Bps"));
    EXPECT_EQ(s.num("jfi"), p.num("jfi"));
    EXPECT_EQ(s.arr("throughput_Bps"), p.arr("throughput_Bps"));
  }
}

TEST(ExperimentRunner, TrialsDifferButAreIndividuallyDeterministic) {
  const std::vector<JsonObject> rows = run_with_jobs(2);
  // trial=0 and trial=1 of the same point run different seeds -> different
  // start jitter -> (almost surely) different goodputs.
  EXPECT_NE(rows[0].u64("seed"), rows[1].u64("seed"));
  EXPECT_NE(rows[0].arr("goodput_Bps"), rows[1].arr("goodput_Bps"));
}

// Strips the (intentionally non-deterministic) wall-clock field.
std::string strip_wall(const std::string& line) {
  const std::size_t pos = line.find(",\"wall_s\":");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

TEST(ExperimentRunner, JsonlRowsAreInJobOrderAndStableAcrossThreadCounts) {
  const std::string p1 = ::testing::TempDir() + "cebinae_exp_j1.jsonl";
  const std::string p4 = ::testing::TempDir() + "cebinae_exp_j4.jsonl";
  {
    JsonlWriter w1(p1);
    (void)run_with_jobs(1, &w1);
    JsonlWriter w4(p4);
    (void)run_with_jobs(4, &w4);
  }
  std::ifstream in1(p1), in4(p4);
  std::string l1, l4;
  std::size_t rows = 0;
  while (std::getline(in1, l1)) {
    ASSERT_TRUE(std::getline(in4, l4));
    EXPECT_EQ(strip_wall(l1), strip_wall(l4)) << "row " << rows;
    EXPECT_NE(l1.find("\"job_index\":" + std::to_string(rows)), std::string::npos);
    ++rows;
  }
  EXPECT_FALSE(std::getline(in4, l4));
  EXPECT_EQ(rows, mini_batch().size());
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST(JsonlWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(JsonlWriter("/nonexistent-dir/x/y.jsonl"), std::runtime_error);
}

TEST(ExperimentRunner, ProgressCallbackCoversEveryJob) {
  std::vector<std::size_t> seen;
  ExperimentRunner::Options opts;
  opts.jobs = 3;
  opts.base_seed = 7;
  std::mutex mu;
  opts.on_progress = [&](std::size_t done, std::size_t total) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(total, 8u);
    seen.push_back(done);
  };
  (void)ExperimentRunner(opts).run(mini_batch());
  ASSERT_EQ(seen.size(), 8u);
  // Completion counter is serialized, so it must count 1..8 in order.
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

// n custom jobs labelled "job=<i>"; job i calls body(i) on a worker thread.
std::vector<ExperimentJob> custom_jobs(int n, const std::function<void(int)>& body) {
  std::vector<ExperimentJob> jobs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    jobs[i].label = "job=" + std::to_string(i);
    jobs[i].custom = [body, i](int) {
      body(i);
      return std::vector<std::pair<std::string, double>>{{"i", i}};
    };
  }
  return jobs;
}

// Spins until `done` holds; false after 30 s, so a missing worker fails the
// test instead of hanging it.
bool wait_until(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Scenario jobs of unequal cost (flows × rate × duration) around custom
// jobs. Expected claim order: 5 (4 flows, 40 Mbps), then 0 and 3 (equal
// cost, grid order), then 2 (shorter), then the custom jobs 1 and 4.
std::vector<ExperimentJob> uneven_batch(const std::function<void(int)>& custom_body) {
  std::vector<ExperimentJob> jobs = custom_jobs(6, custom_body);
  auto scenario = [&jobs](std::size_t i, int flows, std::uint64_t bps, Time duration) {
    jobs[i].custom = nullptr;
    jobs[i].config = tiny_base();
    jobs[i].config.flows = flows_of(CcaType::kNewReno, flows, Milliseconds(10));
    jobs[i].config.bottleneck_bps = bps;
    jobs[i].config.duration = duration;
  };
  scenario(0, 2, 20'000'000, Milliseconds(300));
  scenario(2, 2, 20'000'000, Milliseconds(150));
  scenario(3, 4, 10'000'000, Milliseconds(300));
  scenario(5, 4, 40'000'000, Milliseconds(300));
  return jobs;
}

TEST(ExperimentRunner, ClaimsLongestJobFirstAndWritesRowsInGridOrder) {
  const std::vector<ExperimentJob> jobs = uneven_batch([](int) {});
  EXPECT_EQ(claim_order(jobs), (std::vector<std::size_t>{5, 0, 3, 2, 1, 4}));
  // Resumed jobs are not claimed again.
  EXPECT_EQ(claim_order(jobs, 3), (std::vector<std::size_t>{5, 3, 4}));

  // One worker runs the jobs in claim order: each custom job sees how many
  // jobs finished before it started.
  std::vector<std::size_t> done_before(6, 0);
  std::size_t done = 0;
  ExperimentRunner::Options opts;
  opts.jobs = 1;
  opts.base_seed = 7;
  opts.on_progress = [&done](std::size_t d, std::size_t) { done = d; };
  const std::string p1 = ::testing::TempDir() + "cebinae_ljf_j1.jsonl";
  const std::string p4 = ::testing::TempDir() + "cebinae_ljf_j4.jsonl";
  {
    JsonlWriter w1(p1);
    opts.writer = &w1;
    (void)ExperimentRunner(opts)
        .run(uneven_batch([&](int i) { done_before[static_cast<std::size_t>(i)] = done; }));
  }
  EXPECT_EQ(done_before[1], 4u);
  EXPECT_EQ(done_before[4], 5u);
  {
    JsonlWriter w4(p4);
    opts.jobs = 4;
    opts.writer = &w4;
    opts.on_progress = nullptr;
    (void)ExperimentRunner(opts).run(uneven_batch([](int) {}));
  }
  std::ifstream in1(p1), in4(p4);
  std::string l1, l4;
  std::size_t rows = 0;
  while (std::getline(in1, l1)) {
    ASSERT_TRUE(std::getline(in4, l4));
    EXPECT_EQ(strip_wall(l1), strip_wall(l4)) << "row " << rows;
    EXPECT_NE(l1.find("\"job_index\":" + std::to_string(rows)), std::string::npos);
    ++rows;
  }
  EXPECT_FALSE(std::getline(in4, l4));
  EXPECT_EQ(rows, 6u);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST(ExperimentRunner, FailedJobEndsTheRowsButEveryJobRuns) {
  for (const std::set<int>& failing : {std::set<int>{2}, std::set<int>{2, 4}}) {
    std::atomic<int> ran{0};
    std::atomic<bool> four_ran{false};
    const std::vector<ExperimentJob> jobs = custom_jobs(6, [&](int i) {
      ++ran;
      // Job 2 ends after job 4, so completion order is not index order.
      if (i == 2) {
        EXPECT_TRUE(wait_until([&] { return four_ran.load(); }));
      }
      if (i == 4) four_ran = true;
      if (failing.count(i) > 0) throw std::runtime_error("job " + std::to_string(i));
    });
    const std::string path = ::testing::TempDir() + "cebinae_exp_failure.jsonl";
    std::string error;
    {
      JsonlWriter writer(path);
      ExperimentRunner::Options opts;
      opts.jobs = 3;
      opts.writer = &writer;
      try {
        (void)ExperimentRunner(opts).run(jobs);
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
    }
    EXPECT_EQ(error, "job 2");  // the lowest failing index, not the first to fail
    EXPECT_EQ(ran, 6);
    std::ifstream in(path);
    std::string line;
    for (int row = 0; row < 2; ++row) {
      ASSERT_TRUE(std::getline(in, line));
      EXPECT_NE(line.find("\"label\":\"job=" + std::to_string(row) + "\""), std::string::npos);
    }
    EXPECT_FALSE(std::getline(in, line));
    std::remove(path.c_str());
  }
}

TEST(ExperimentRunner, RunsJobsConcurrentlyOnWorkerThreads) {
  std::mutex mu;
  std::set<std::thread::id> threads;
  auto note_thread = [&] {
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  };
  std::atomic<int> arrived{0};
  // A barrier: no job returns before all four have started, which takes
  // four workers running at once.
  const std::vector<ExperimentJob> jobs = custom_jobs(4, [&](int) {
    note_thread();
    ++arrived;
    EXPECT_TRUE(wait_until([&] { return arrived.load() == 4; }));
  });
  ExperimentRunner::Options opts;
  opts.jobs = 4;
  (void)ExperimentRunner(opts).run(jobs);
  EXPECT_EQ(threads.size(), 4u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);  // never the caller

  // jobs < 1 runs every job on one worker, still not the caller.
  threads.clear();
  std::atomic<int> ran{0};
  opts.jobs = 0;
  (void)ExperimentRunner(opts).run(custom_jobs(5, [&](int) {
    note_thread();
    ++ran;
  }));
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

}  // namespace
}  // namespace cebinae::exp

// Experiment registry: every registered paper figure/table must expand to a
// stable, non-empty job list, trials must group into report rows, and
// exp::over must summarise a row's trials. cebinae_tests links the
// bench/experiments OBJECT library, so the registry iterated here is
// exactly what `cebinae_bench` serves.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"

namespace cebinae::exp {
namespace {

std::vector<const ExperimentSpec*> all_specs() {
  return ExperimentRegistry::instance().all();
}

TEST(ExperimentRegistry, AllPaperExperimentsAreRegistered) {
  std::set<std::string> names;
  for (const ExperimentSpec* s : all_specs()) names.insert(s->name);
  for (const char* expected :
       {"fig01", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "table2",
        "table3", "ablation_strawman", "ablation_afq_scaling"}) {
    EXPECT_TRUE(names.count(expected)) << "missing experiment: " << expected;
  }
}

TEST(ExperimentRegistry, ListIsSortedByName) {
  const auto specs = all_specs();
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_LT(specs[i - 1]->name, specs[i]->name);
  }
}

TEST(ExperimentRegistry, FindMatchesListAndRejectsUnknown) {
  for (const ExperimentSpec* s : all_specs()) {
    EXPECT_EQ(ExperimentRegistry::instance().find(s->name), s);
  }
  EXPECT_EQ(ExperimentRegistry::instance().find("no_such_experiment"), nullptr);
}

TEST(ExperimentRegistry, EveryExperimentBuildsANonEmptyGrid) {
  RunOptions opts;
  opts.smoke = true;
  for (const ExperimentSpec* s : all_specs()) {
    ASSERT_TRUE(s->make_jobs) << s->name;
    ASSERT_TRUE(s->report) << s->name;
    EXPECT_FALSE(s->description.empty()) << s->name;
    const auto jobs = s->make_jobs(opts);
    EXPECT_FALSE(jobs.empty()) << s->name;
    for (const ExperimentJob& j : jobs) {
      EXPECT_FALSE(j.label.empty()) << s->name;
    }
  }
}

TEST(ExperimentRegistry, GridsAreStableAcrossCalls) {
  RunOptions opts;
  opts.smoke = true;
  for (const ExperimentSpec* s : all_specs()) {
    const auto a = s->make_jobs(opts);
    const auto b = s->make_jobs(opts);
    ASSERT_EQ(a.size(), b.size()) << s->name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label) << s->name;
      EXPECT_EQ(a[i].params.str(), b[i].params.str()) << s->name;
    }
  }
}

TEST(ExperimentRegistry, JobLabelsAreUniqueWithinAnExperiment) {
  RunOptions opts;
  opts.smoke = true;
  for (const ExperimentSpec* s : all_specs()) {
    std::set<std::string> labels;
    for (const ExperimentJob& j : s->make_jobs(opts)) {
      EXPECT_TRUE(labels.insert(j.label).second)
          << s->name << ": duplicate label " << j.label;
    }
  }
}

TEST(ExperimentRegistry, TrialsMultiplyTheGridAndTagLabels) {
  RunOptions base;
  base.smoke = true;
  RunOptions tripled = base;
  tripled.trials = 3;
  for (const ExperimentSpec* s : all_specs()) {
    const auto single = s->make_jobs(base);
    const auto multi = s->make_jobs(tripled);
    EXPECT_EQ(multi.size(), single.size() * 3) << s->name;
    // Trials are innermost: consecutive triplets share one grid point.
    for (std::size_t i = 0; i + 2 < multi.size(); i += 3) {
      const std::string key = strip_trial(multi[i].label);
      EXPECT_EQ(strip_trial(multi[i + 1].label), key) << s->name;
      EXPECT_EQ(strip_trial(multi[i + 2].label), key) << s->name;
      EXPECT_NE(multi[i].label, multi[i + 1].label) << s->name;
    }
  }
}

TEST(StripTrial, DropsTheTrialTokenWhereverItAppears) {
  EXPECT_EQ(strip_trial("qdisc=FIFO trial=3"), "qdisc=FIFO");
  EXPECT_EQ(strip_trial("trial=0 qdisc=FIFO"), "qdisc=FIFO");
  EXPECT_EQ(strip_trial("qdisc=FIFO"), "qdisc=FIFO");
  EXPECT_EQ(strip_trial("a=1 trial=12 b=2"), "a=1 b=2");
}

TEST(ReplicateTrials, AppendsTrialTokensInnermost) {
  std::vector<ExperimentJob> jobs(2);
  jobs[0].label = "qdisc=FIFO";
  jobs[1].label = "qdisc=Cebinae";
  const auto out = replicate_trials(jobs, 2);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].label, "qdisc=FIFO trial=0");
  EXPECT_EQ(out[1].label, "qdisc=FIFO trial=1");
  EXPECT_EQ(out[2].label, "qdisc=Cebinae trial=0");
  EXPECT_EQ(out[3].label, "qdisc=Cebinae trial=1");
  // n <= 1 is the identity.
  EXPECT_EQ(replicate_trials(jobs, 1)[0].label, "qdisc=FIFO");
}

TEST(AggregateRows, GroupsConsecutiveTrials) {
  // Two grid points of two trials each; job i's row has metric = i.
  std::vector<ExperimentJob> jobs(4);
  std::vector<JsonObject> job_rows(4);
  for (int i = 0; i < 4; ++i) {
    jobs[i].label =
        std::string(i < 2 ? "point=a" : "point=b") + " trial=" + std::to_string(i % 2);
    job_rows[i].set("metric", static_cast<double>(i));
  }
  const auto rows = aggregate_rows(jobs, job_rows);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "point=a");
  EXPECT_EQ(rows[1].label, "point=b");
  EXPECT_EQ(rows[1].job, &jobs[2]);
  EXPECT_EQ(rows[0].trials, (std::vector<const JsonObject*>{&job_rows[0], &job_rows[1]}));
  EXPECT_EQ(rows[1].trials, (std::vector<const JsonObject*>{&job_rows[2], &job_rows[3]}));

  // exp::over summarises a field, or a per-trial value, over a row's trials.
  const Aggregate a = over(rows[0], "metric");
  EXPECT_EQ(a.n, 2);
  EXPECT_DOUBLE_EQ(a.mean, 0.5);
  EXPECT_DOUBLE_EQ(a.stddev, 0.5);
  auto twice = [](const JsonObject& r) { return 2 * r.num("metric"); };
  EXPECT_DOUBLE_EQ(over(rows[1], twice).mean, 5.0);
  // A field a row lacks reads as NaN, so the summary shows it missing.
  EXPECT_TRUE(std::isnan(over(rows[0], "absent").mean));
}

}  // namespace
}  // namespace cebinae::exp

// Experiment registry: every registered paper figure/table must expand to a
// stable, non-empty job list, the harness must replicate every grid point
// into trials that group back into report rows, and exp::over must
// summarise a row's trials. cebinae_tests links the
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
  RunOptions opts;
  opts.smoke = true;
  opts.trials = 3;
  for (const ExperimentSpec* s : all_specs()) {
    const auto points = s->make_jobs(opts);
    const Expansion e = expand(*s, opts);
    EXPECT_EQ(e.trials, 3) << s->name;
    ASSERT_EQ(e.jobs.size(), points.size() * 3) << s->name;
    // Trials are innermost: job i is trial i%3 of grid point i/3.
    for (std::size_t i = 0; i < e.jobs.size(); ++i) {
      const ExperimentJob& point = points[i / 3];
      const std::string t = std::to_string(i % 3);
      EXPECT_EQ(e.jobs[i].label, point.label + " trial=" + t) << s->name;
      JsonObject params = point.params;
      params.set("trial", static_cast<int>(i % 3));
      EXPECT_EQ(e.jobs[i].params.str(), params.str()) << s->name;
      EXPECT_TRUE(e.jobs[i].params.str().ends_with("\"trial\":" + t + "}")) << s->name;
      EXPECT_EQ(e.jobs[i].trial, static_cast<int>(i % 3)) << s->name;
    }
  }
}

TEST(Expand, ReplicatesASpecThatIgnoresTrials) {
  // make_jobs never reads opts.trials; the harness still runs each point
  // --trials times, and a custom job is passed its trial index.
  ExperimentSpec spec;
  spec.make_jobs = [](const RunOptions&) {
    std::vector<ExperimentJob> points(2);
    for (std::size_t p = 0; p < points.size(); ++p) {
      points[p].label = "point=" + std::to_string(p);
      points[p].custom = [p](int trial) {
        return std::vector<std::pair<std::string, double>>{
            {"point", static_cast<double>(p)}, {"trial", static_cast<double>(trial)}};
      };
    }
    return points;
  };
  RunOptions opts;
  EXPECT_EQ(expand(spec, opts).jobs.size(), 2u);
  opts.trials = 4;
  const Expansion e = expand(spec, opts);
  ASSERT_EQ(e.jobs.size(), 8u);
  const std::vector<JsonObject> job_rows = ExperimentRunner({}).run(e.jobs);
  const std::vector<ResultRow> rows = aggregate_rows(e.points, e.trials, job_rows);
  ASSERT_EQ(rows.size(), 2u);
  for (std::size_t p = 0; p < rows.size(); ++p) {
    EXPECT_EQ(rows[p].label, "point=" + std::to_string(p));
    ASSERT_EQ(rows[p].trials.size(), 4u);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(rows[p].trials[t]->num("point"), static_cast<double>(p));
      EXPECT_EQ(rows[p].trials[t]->num("trial"), static_cast<double>(t));
    }
  }
}

TEST(Expand, DefaultTrialsComeFromTheSpecAtEachScale) {
  // fig13 replays 1 trace at --smoke, 3 at quick scale and 20 at --full;
  // every other experiment runs each point once unless --trials says more.
  RunOptions smoke;
  smoke.smoke = true;
  RunOptions quick;
  RunOptions full;
  full.full = true;
  for (const ExperimentSpec* s : all_specs()) {
    const bool fig13 = s->name == "fig13";
    EXPECT_EQ(fig13, static_cast<bool>(s->default_trials)) << s->name;
    EXPECT_EQ(expand(*s, smoke).trials, 1) << s->name;
    EXPECT_EQ(expand(*s, quick).trials, fig13 ? 3 : 1) << s->name;
    EXPECT_EQ(expand(*s, full).trials, fig13 ? 20 : 1) << s->name;
  }
  const ExperimentSpec* fig13 = ExperimentRegistry::instance().find("fig13");
  ASSERT_NE(fig13, nullptr);
  const Expansion e = expand(*fig13, quick);
  EXPECT_EQ(e.jobs.size(), e.points.size() * 3);
  EXPECT_EQ(e.jobs[2].label, e.points[0].label + " trial=2");
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
  EXPECT_EQ(out[3].trial, 1);
  // n <= 1 is the identity.
  EXPECT_EQ(replicate_trials(jobs, 1)[0].label, "qdisc=FIFO");
}

TEST(AggregateRows, GroupsConsecutiveTrials) {
  // Two grid points of two trials each; job i's row has metric = i.
  std::vector<ExperimentJob> points(2);
  points[0].label = "point=a";
  points[1].label = "point=b";
  std::vector<JsonObject> job_rows(4);
  for (int i = 0; i < 4; ++i) job_rows[i].set("metric", static_cast<double>(i));
  const auto rows = aggregate_rows(points, 2, job_rows);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "point=a");
  EXPECT_EQ(rows[1].label, "point=b");
  EXPECT_EQ(rows[1].job, &points[1]);
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

// "micro": the event-core microbench suite backing the repo's perf
// trajectory and the CI perf-regression gate (scripts/perf_gate.py).
//
// Three custom jobs, each measuring scheduler events per wall-clock second:
//
//   bench=sched_churn  raw scheduler throughput: schedule/fire plus a
//                      cancel-heavy phase (the TCP RTO rearm pattern —
//                      every "ACK" cancels one pending timer and arms a
//                      fresh one), no packets involved.
//   bench=datapath     single-bottleneck dumbbell (8 NewReno flows through
//                      a FIFO): the per-packet-hop cost of device + node +
//                      qdisc + TCP together. This is the row the >= 1.5x
//                      speedup target and the regression gate key on.
//   bench=macro        fig-scale run: 16 mixed-CCA flows through a Cebinae
//                      bottleneck, exercising rotation/cache events too.
//
// stdout reports only deterministic quantities (executed event counts and a
// goodput checksum) so `--jobs=1` and `--jobs=N` stay byte-identical; the
// wall-clock-dependent events_per_sec lands in the per-record extras, the
// JSONL rows, and the --perf-out summary's "metrics" object, which is what
// the perf gate diffs against bench/baselines/.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "runner/scenario.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Raw scheduler churn: a self-rescheduling event ladder plus the
// cancel/rearm pattern TCP senders impose on every ACK.
std::vector<std::pair<std::string, double>> run_sched_churn(int rounds) {
  Scheduler sched;
  const auto t0 = Clock::now();

  std::uint64_t fired = 0;
  // Phase 1: pure schedule/fire throughput, FIFO ties included.
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 64; ++i) {
      sched.schedule(Nanoseconds(100 * (i % 8)), [&fired] { ++fired; });
    }
    sched.run();
  }
  // Phase 2: cancel-heavy (rearm): keep one pending "RTO" that every
  // iteration cancels and replaces, while a data event fires. Each cancel
  // takes the RTO's entry out of the heap at once, so the heap holds at
  // most the RTO and the data event.
  EventId rto;
  for (int r = 0; r < rounds * 64; ++r) {
    sched.cancel(rto);
    rto = sched.schedule(Milliseconds(200), [&fired] { ++fired; });
    sched.schedule(Nanoseconds(100), [&fired] { ++fired; });
    while (sched.pending_events() > 1) {
      sched.run_until(sched.now() + Nanoseconds(100));
    }
  }
  sched.cancel(rto);

  const double wall = elapsed_s(t0);
  const double events = static_cast<double>(sched.executed_events());
  return {
      {"events", events},
      {"fired", static_cast<double>(fired)},
      {"events_per_sec", wall > 0 ? events / wall : 0.0},
  };
}

// Run a Scenario and report the event-core rate plus deterministic echoes.
std::vector<std::pair<std::string, double>> run_scenario_bench(ScenarioConfig cfg,
                                                               std::uint64_t seed) {
  cfg.seed = seed;
  Scenario scenario(std::move(cfg));
  const auto t0 = Clock::now();
  const ScenarioResult result = scenario.run();
  const double wall = elapsed_s(t0);
  const double events =
      static_cast<double>(scenario.network().scheduler().executed_events());
  return {
      {"events", events},
      {"goodput_checksum_mbps", exp::to_mbps(result.total_goodput_Bps)},
      {"events_per_sec", wall > 0 ? events / wall : 0.0},
  };
}

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  std::vector<exp::ExperimentJob> jobs;

  {
    exp::ExperimentJob job;
    job.label = "bench=sched_churn";
    job.params.set("bench", "sched_churn");
    const int rounds = opts.smoke ? 50 : (opts.full ? 20000 : 1000);
    job.custom = [rounds](std::uint64_t) { return run_sched_churn(rounds); };
    jobs.push_back(std::move(job));
  }

  {
    exp::ExperimentJob job;
    job.label = "bench=datapath";
    job.params.set("bench", "datapath");
    ScenarioConfig cfg;
    cfg.qdisc = QdiscKind::kFifo;
    cfg.flows = flows_of(CcaType::kNewReno, 8, Milliseconds(20));
    cfg.duration = opts.scaled(Seconds(60), Seconds(2));
    job.custom = [cfg](std::uint64_t seed) { return run_scenario_bench(cfg, seed); };
    jobs.push_back(std::move(job));
  }

  {
    exp::ExperimentJob job;
    job.label = "bench=macro";
    job.params.set("bench", "macro");
    ScenarioConfig cfg;
    cfg.qdisc = QdiscKind::kCebinae;
    cfg.flows = flows_of(CcaType::kNewReno, 8, Milliseconds(20));
    const std::vector<FlowSpec> cubic = flows_of(CcaType::kCubic, 8, Milliseconds(40));
    cfg.flows.insert(cfg.flows.end(), cubic.begin(), cubic.end());
    cfg.duration = opts.scaled(Seconds(10), Seconds(1));
    job.custom = [cfg](std::uint64_t seed) { return run_scenario_bench(cfg, seed); };
    jobs.push_back(std::move(job));
  }

  return exp::replicate_trials(std::move(jobs), opts.trials_or(1));
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  // Deterministic fields only: event counts are a pure function of the
  // seeded simulation, so this table is byte-identical across --jobs and
  // safe for bench_smoke's determinism diff. Rates live in the JSONL and
  // --perf-out outputs.
  std::printf("%-14s %14s %18s\n", "bench", "events", "goodput[Mbps]");
  for (const exp::ResultRow& r : rows) {
    const exp::Aggregate* chk = r.metric("goodput_checksum_mbps");
    std::printf("%-14s %14.0f %18s\n", r.label.c_str(), r.mean("events"),
                chk != nullptr ? exp::pm(*chk).c_str() : "-");
  }
  std::printf("\n(events/sec for these rows is recorded via --perf-out; compare with\n"
              " bench/baselines/BENCH_micro.json through scripts/perf_gate.py)\n");
}

const exp::Registration registration{exp::ExperimentSpec{
    "micro",
    "Event-core microbenches (scheduler churn / datapath / macro)",
    "scheduler and packet-hop events/sec; feeds the CI perf gate",
    1,
    make_jobs,
    nullptr,
    report,
}};

}  // namespace
}  // namespace cebinae

// Figure 13: false-positive and false-negative rates of ⊤-flow detection
// under a synthetic ISP-backbone trace (the documented substitution for the
// paper's CAIDA traces).
//   (a) sweep the round interval at 2048 slots/stage;
//   (b) sweep the slot count at a 100 ms interval;
// each for 1-, 2-, and 4-stage caches.
//
// These are custom (non-Scenario) jobs: every (sweep point, trial) pair is
// one job whose closure generates the trial's packet trace and replays it
// through a FlowCache. All points of the same trial share one trace seed so
// the sweep compares cache configurations on identical traffic; the seed is
// base_seed + trial * 7919 (as the original bench did), from the trial index
// the harness passes, not the runner's per-job derivation.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/flow_cache.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "workload/trace_gen.hpp"

namespace cebinae {
namespace {

constexpr double kDeltaF = 0.05;  // δf: ⊤ is within 5% of the largest count

const std::vector<int> kIntervalsMs = {10, 20, 40, 60, 80, 100};
const std::vector<std::uint32_t> kStages = {1, 2, 4};
const std::vector<std::uint32_t> kSlots = {512, 1024, 2048, 4096};

struct Rates {
  double fpr = 0.0;
  double fnr = 0.0;
};

Rates evaluate(const std::vector<TracePacket>& trace, std::uint32_t stages,
               std::uint32_t slots, Time interval) {
  FlowCache cache(stages, slots);
  std::unordered_map<FlowId, std::uint64_t, FlowIdHash> truth;

  double fp_sum = 0, fn_sum = 0;
  std::uint64_t fp_opportunities = 0, fn_opportunities = 0;

  Time boundary = interval;
  auto settle = [&]() {
    if (truth.empty()) return;
    // Fig. 4's classification on the exact counts is the ground truth; on
    // the polled cache it is what the agent would call ⊤.
    std::vector<FlowCache::Entry> exact;
    exact.reserve(truth.size());
    for (const auto& [f, b] : truth) exact.push_back({f, b});
    const TopFlows true_top = classify_top(exact, kDeltaF);
    const TopFlows detected = classify_top(cache.poll_and_reset(), kDeltaF);
    std::uint64_t fp = 0, fn = 0;
    for (const FlowId& f : detected.flows) fp += !true_top.flows.contains(f);
    for (const FlowId& f : true_top.flows) fn += !detected.flows.contains(f);

    fp_sum += fp;
    fp_opportunities += truth.size() - true_top.flows.size();
    fn_sum += fn;
    fn_opportunities += true_top.flows.size();
    truth.clear();
  };

  for (const TracePacket& pkt : trace) {
    while (pkt.time >= boundary) {
      settle();
      boundary += interval;
    }
    truth[pkt.flow] += pkt.bytes;
    cache.add(pkt.flow, pkt.bytes);
  }
  settle();

  Rates r;
  if (fp_opportunities > 0) r.fpr = fp_sum / static_cast<double>(fp_opportunities);
  if (fn_opportunities > 0) r.fnr = fn_sum / static_cast<double>(fn_opportunities);
  return r;
}

// The spec's default_trials: traces replayed per point without --trials.
int trace_trials(const exp::RunOptions& opts) {
  if (opts.smoke) return 1;
  return opts.full ? 20 : 3;
}

Time trace_duration(const exp::RunOptions& opts) {
  return opts.scaled(Seconds(5), Seconds(2));
}

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions& opts) {
  const Time duration = trace_duration(opts);
  const std::uint64_t base_seed = opts.base_seed;

  std::vector<exp::ExperimentJob> jobs;
  auto add_point = [&](const char* sweep, int interval_ms, std::uint32_t stages,
                       std::uint32_t slots) {
    exp::ExperimentJob job;
    job.label = std::string("sweep=") + sweep;
    job.params.set("sweep", sweep);
    if (std::string(sweep) == "a") {
      job.label += " interval_ms=" + std::to_string(interval_ms);
      job.params.set("interval_ms", interval_ms);
    } else {
      job.label += " slots=" + std::to_string(slots);
      job.params.set("slots", static_cast<std::uint64_t>(slots));
    }
    job.label += " stages=" + std::to_string(stages);
    job.params.set("stages", static_cast<std::uint64_t>(stages));
    // The trace length is what the scale changes; --resume compares it.
    job.params.set("trace_ms", static_cast<std::uint64_t>(duration / Milliseconds(1)));
    job.custom = [=](int trial) {
      TraceConfig tc;
      tc.duration = duration;
      tc.seed = base_seed + static_cast<std::uint64_t>(trial) * 7919;
      const Rates r = evaluate(SyntheticTrace::generate(tc), stages, slots,
                               Milliseconds(interval_ms));
      return std::vector<std::pair<std::string, double>>{{"fpr_1e4", r.fpr * 1e4},
                                                         {"fnr", r.fnr}};
    };
    jobs.push_back(std::move(job));
  };

  for (int ms : kIntervalsMs) {
    for (std::uint32_t stages : kStages) add_point("a", ms, stages, 2048);
  }
  for (std::uint32_t slots : kSlots) {
    for (std::uint32_t stages : kStages) add_point("b", 100, stages, slots);
  }
  return jobs;
}

void report(const exp::RunOptions& opts, const std::vector<exp::ResultRow>& rows) {
  {
    TraceConfig tc;
    tc.duration = trace_duration(opts);
    tc.seed = opts.base_seed;
    const TraceSummary summary = SyntheticTrace::summarize(SyntheticTrace::generate(tc));
    std::printf("trace: %llu packets, %llu flows, %.1f Gbps avg over %.1f s x %d trials\n\n",
                static_cast<unsigned long long>(summary.packets),
                static_cast<unsigned long long>(summary.flows),
                static_cast<double>(summary.bytes) * 8 / tc.duration.seconds() / 1e9,
                tc.duration.seconds(),
                rows.empty() ? 0 : static_cast<int>(rows.front().trials.size()));
  }

  // Rows arrive in build order: sweep (a) points first, then sweep (b).
  std::size_t r = 0;
  std::printf("--- (a) varying round interval, 2048 slots/stage ---\n");
  std::printf("%-14s %10s %16s %12s\n", "interval[ms]", "stages", "FPR[x1e-4]", "FNR");
  for (int ms : kIntervalsMs) {
    for (std::uint32_t stages : kStages) {
      if (r >= rows.size()) return;
      std::printf("%-14d %10u %16s %12s\n", ms, stages,
                  exp::pm(exp::over(rows[r], "fpr_1e4"), 3).c_str(),
                  exp::pm(exp::over(rows[r], "fnr"), 3).c_str());
      ++r;
    }
    std::fflush(stdout);
  }

  std::printf("\n--- (b) varying slot count, 100 ms interval ---\n");
  std::printf("%-10s %10s %16s %12s\n", "slots", "stages", "FPR[x1e-4]", "FNR");
  for (std::uint32_t slots : kSlots) {
    for (std::uint32_t stages : kStages) {
      if (r >= rows.size()) return;
      std::printf("%-10u %10u %16s %12s\n", slots, stages,
                  exp::pm(exp::over(rows[r], "fpr_1e4"), 3).c_str(),
                  exp::pm(exp::over(rows[r], "fnr"), 3).c_str());
      ++r;
    }
    std::fflush(stdout);
  }
}

const exp::Registration registration{exp::ExperimentSpec{
    "fig13",
    "Figure 13: flow-cache FPR/FNR on synthetic backbone traces",
    "flow-cache FPR/FNR vs round interval, slots, and stages",
    make_jobs,
    report,
    trace_trials,
}};

}  // namespace
}  // namespace cebinae

// Simulator benchmark program: one process simulates a workload once and
// prints one JSON line. perfbench/run.py starts one per simulation, so each
// simulation's peak RSS is its own.
//
//   simbench plain  --workload=W --seed=S [--sim-ms=D]
//   simbench traced --workload=W --seed=S [--sim-ms=D]
//   simbench env
//
// `plain` builds the workload through the public Scenario API (the path
// cebinae_bench takes) several times, timing each construction, then runs
// the last one with tracing off. `traced` is the per-layer run
// (traced.cpp). --sim-ms overrides the workload's simulated duration.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <string_view>

#include "simbench.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// CPU time of this single-threaded process: its wall time minus the time it
// was not running, whether preempted by another process or, under
// paravirtual steal-time accounting, by the hypervisor running another guest.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Constructions timed per process: at least kMinSetups, and more while
// they take under kSetupBudget of CPU time (up to kMaxSetups), so a
// millisecond-scale setup gets as many samples per run as a slow one.
// Cheap next to the run itself.
constexpr int kMinSetups = 2;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudget = 0.25;

// Peak resident set of this process image, from VmHWM. getrusage's
// ru_maxrss is no use here: exec folds the previous address space's
// high-water mark into it, and under posix_spawn that is the parent's.
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(256, '\n');
  }
  return 0;
}

int run_plain(const cebinae::ScenarioConfig& cfg) {
  // Extra constructions only time the setup path; the last one is run.
  // Every span is timed twice: host wall clock and this process's CPU time.
  std::vector<double> setup_s, setup_cpu_s;
  double spent = 0;
  for (int i = 1; i < kMaxSetups && (i < kMinSetups || spent < kSetupBudget); ++i) {
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    cebinae::Scenario scratch(cfg);
    setup_cpu_s.push_back(cpu_seconds() - c0);
    setup_s.push_back(seconds_since(t0, Clock::now()));
    spent += setup_cpu_s.back();
  }
  const auto t0 = Clock::now();
  const double c0 = cpu_seconds();
  cebinae::Scenario scenario(cfg);
  const auto t1 = Clock::now();
  const double c1 = cpu_seconds();
  const cebinae::ScenarioResult result = scenario.run();
  const double c2 = cpu_seconds();
  const auto t2 = Clock::now();
  setup_s.push_back(seconds_since(t0, t1));
  setup_cpu_s.push_back(c1 - c0);

  Outcome out;
  out.events = scenario.network().scheduler().executed_events();
  for (const cebinae::FlowId& f : scenario.flow_ids()) {
    out.add_flow(scenario.stats().total_bytes(f));
  }
  const cebinae::QueueDiscStats& q = scenario.bottleneck().qdisc().stats();
  out.enqueued = q.enqueued_packets;
  out.dropped = q.dropped_packets;
  out.jfi = result.jfi;

  std::puts(JsonLine()
                .str("mode", "plain")
                .num("sim_s", cfg.duration.seconds())
                .list("setup_s", setup_s)
                .num("run_s", seconds_since(t1, t2))
                .num("wall_s", seconds_since(t0, t2))
                .list("setup_cpu_s", setup_cpu_s)
                .num("run_cpu_s", c2 - c1)
                .num("peak_rss_kib", peak_rss_kib())
                .raw("outcome", out.json())
                .done()
                .c_str());
  return 0;
}

int print_env() {
  std::puts(JsonLine()
                .str("build_type", PERFBENCH_BUILD_TYPE)
                .str("compiler", PERFBENCH_COMPILER)
                .str("cxx_flags", PERFBENCH_CXX_FLAGS)
#ifdef NDEBUG
                .str("asserts", "off")
#else
                .str("asserts", "on")
#endif
                .done()
                .c_str());
  return 0;
}

// Parses `--key=value`; returns false when `arg` is not that key.
bool flag(std::string_view arg, std::string_view key, std::string& value) {
  if (arg.size() <= key.size() + 3 || arg.substr(0, 2) != "--" ||
      arg.substr(2, key.size()) != key || arg[key.size() + 2] != '=') {
    return false;
  }
  value = std::string(arg.substr(key.size() + 3));
  return true;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: simbench plain|traced --workload=W --seed=S [--sim-ms=D]\n"
               "       simbench env\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage("missing mode");
  const std::string_view mode = argv[1];
  if (mode == "env") return print_env();
  if (mode != "plain" && mode != "traced") return usage("unknown mode");

  std::string workload, seed = "1", sim_ms;
  for (int i = 2; i < argc; ++i) {
    if (!flag(argv[i], "workload", workload) && !flag(argv[i], "seed", seed) &&
        !flag(argv[i], "sim-ms", sim_ms)) {
      return usage(argv[i]);
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage("unknown --workload");
  const cebinae::Time duration =
      sim_ms.empty() ? w->duration : cebinae::Milliseconds(std::atoll(sim_ms.c_str()));
  if (duration <= cebinae::Time::zero()) return usage("--sim-ms must be positive");
  const cebinae::ScenarioConfig cfg =
      make_config(*w, std::strtoull(seed.c_str(), nullptr, 10), duration);
  return mode == "plain" ? run_plain(cfg) : run_traced(cfg);
}

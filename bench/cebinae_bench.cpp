// cebinae_bench: one CLI for every registered paper figure/table.
//
//   cebinae_bench --list
//   cebinae_bench --experiment=<name> [flags]
//   cebinae_bench <name> [flags]
//
// Flags (uniform across experiments):
//   --full           paper-scale durations and trial counts
//   --smoke          sub-second scenario durations (CI sanity pass)
//   --trials=N       replicate every grid point N times with derived seeds;
//                    reports show mean ± stddev (0 = experiment default)
//   --jobs=N         worker threads (0 = all hardware threads); results and
//                    stdout are byte-identical for any N
//   --seed=S         base seed; per-job seeds derive from (S, job index)
//   --out=PATH       stream one JSONL result row per job ("-" = stdout)
//   --trace-out=PATH stream probe time-series rows of traced jobs
//   --resume         continue a killed run: rebuild the jobs committed in
//                    --out/--trace-out, run the rest, print the full report
//   --perf-out[=P]   write a BENCH_<name>.json perf summary
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "exp/registry.hpp"

namespace {

using cebinae::exp::ExperimentRegistry;
using cebinae::exp::ExperimentSpec;
using cebinae::exp::RunOptions;

int usage(FILE* out) {
  std::fprintf(out,
               "usage: cebinae_bench --experiment=<name> [--full|--smoke] [--trials=N]\n"
               "                     [--jobs=N] [--seed=S] [--out=PATH] [--trace-out=PATH]\n"
               "                     [--resume] [--perf-out[=PATH]]\n"
               "       cebinae_bench --list\n\nexperiments:\n");
  for (const ExperimentSpec* spec : ExperimentRegistry::instance().all()) {
    std::fprintf(out, "  %-22s %s\n", spec->name.c_str(), spec->description.c_str());
  }
  return out == stdout ? 0 : 2;
}

// Parses the value of `--flag=value` as a whole non-negative decimal integer
// no larger than `max`. Anything else (empty, a sign, trailing characters,
// overflow) prints an error and returns false.
bool parse_count(const char* arg, std::uint64_t max, std::uint64_t& out) {
  const char* text = std::strchr(arg, '=') + 1;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec == std::errc() && ptr == end && out <= max) return true;
  std::fprintf(stderr, "error: %s: expected a non-negative integer\n", arg);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string experiment;
  bool list = false;
  const char* perf_out = nullptr;  // "" = BENCH_<name>.json

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strncmp(arg, "--experiment=", 13) == 0) {
      experiment = arg + 13;
    } else if (std::strcmp(arg, "--full") == 0) {
      opts.full = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strncmp(arg, "--trials=", 9) == 0) {
      std::uint64_t n = 0;
      if (!parse_count(arg, INT_MAX, n)) return 2;
      opts.trials = static_cast<int>(n);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      std::uint64_t n = 0;
      if (!parse_count(arg, INT_MAX, n)) return 2;
      opts.jobs = static_cast<int>(n);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!parse_count(arg, UINT64_MAX, opts.base_seed)) return 2;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opts.out = arg + 6;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      opts.trace_out = arg + 12;
    } else if (std::strcmp(arg, "--resume") == 0) {
      opts.resume = true;
    } else if (std::strcmp(arg, "--perf-out") == 0) {
      perf_out = "";
    } else if (std::strncmp(arg, "--perf-out=", 11) == 0) {
      perf_out = arg + 11;
    } else if (arg[0] != '-' && experiment.empty()) {
      experiment = arg;  // positional experiment name
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n\n", arg);
      return usage(stderr);
    }
  }

  if (list) {
    // Tab-separated for scripting: name<TAB>description.
    for (const ExperimentSpec* spec : ExperimentRegistry::instance().all()) {
      std::printf("%s\t%s\n", spec->name.c_str(), spec->description.c_str());
    }
    return 0;
  }
  if (opts.full && opts.smoke) {
    std::fprintf(stderr, "error: --full and --smoke are mutually exclusive\n");
    return 2;
  }
  if (experiment.empty()) return usage(stderr);

  const ExperimentSpec* spec = ExperimentRegistry::instance().find(experiment);
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown experiment '%s'\n\n", experiment.c_str());
    return usage(stderr);
  }

  if (perf_out != nullptr) {
    opts.perf_out = *perf_out != '\0' ? perf_out : "BENCH_" + spec->name + ".json";
  }
  if (opts.jobs <= 0) {
    opts.jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return cebinae::exp::run_experiment(*spec, opts);
}

// Table 3: Cebinae data-plane resource usage on a 32-port Tofino, from the
// calibrated analytic model (documented substitution for the P4 compiler's
// report), plus an extrapolated 4-stage configuration.
//
// Custom (non-Scenario) jobs: one per cache-stage count, each returning the
// model's resource estimates as metrics. The model is deterministic, so
// --trials adds nothing but zero-stddev aggregates.
#include <cstdio>
#include <string>
#include <vector>

#include "core/resource_model.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"

namespace cebinae {
namespace {

const std::vector<std::uint32_t> kStages = {1, 2, 4};

std::vector<exp::ExperimentJob> make_jobs(const exp::RunOptions&) {
  std::vector<exp::ExperimentJob> jobs;
  for (std::uint32_t stages : kStages) {
    exp::ExperimentJob job;
    job.label = "stages=" + std::to_string(stages);
    job.params.set("stages", static_cast<std::uint64_t>(stages));
    job.custom = [stages](int) {
      const TofinoResources r = estimate_tofino_resources(stages);
      return std::vector<std::pair<std::string, double>>{
          {"pipeline_stages", static_cast<double>(r.pipeline_stages)},
          {"phv_bits", static_cast<double>(r.phv_bits)},
          {"sram_kb", static_cast<double>(r.sram_kb)},
          {"tcam_kb", static_cast<double>(r.tcam_kb)},
          {"vliw_instructions", static_cast<double>(r.vliw_instructions)},
          {"queues", static_cast<double>(r.queues)},
          {"phv_pct", 100 * r.phv_fraction()},
          {"sram_pct", 100 * r.sram_fraction()},
          {"tcam_pct", 100 * r.tcam_fraction()},
      };
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void report(const exp::RunOptions&, const std::vector<exp::ResultRow>& rows) {
  std::printf("%-12s %-10s %-8s %-10s %-10s %-8s %-8s\n", "Cache stages", "Pipe stages",
              "PHV", "SRAM[KB]", "TCAM[KB]", "VLIW", "Queues");
  for (std::size_t i = 0; i < rows.size() && i < kStages.size(); ++i) {
    auto mean = [&r = rows[i]](std::string_view field) { return exp::over(r, field).mean; };
    std::printf("%-12u %-10.0f %.0fb    %-10.0f %-10.0f %-8.0f %-8.0f%s\n", kStages[i],
                mean("pipeline_stages"), mean("phv_bits"), mean("sram_kb"), mean("tcam_kb"),
                mean("vliw_instructions"), mean("queues"),
                kStages[i] > 2 ? "  (extrapolated)" : "");
  }

  std::printf("\nfractions of chip budget (approximate public Tofino-1 specs):\n");
  for (std::size_t i = 0; i < rows.size() && kStages[i] <= 2; ++i) {
    std::printf("  %u-stage: PHV %.1f%%, SRAM %.1f%%, TCAM %.1f%%\n", kStages[i],
                exp::over(rows[i], "phv_pct").mean, exp::over(rows[i], "sram_pct").mean,
                exp::over(rows[i], "tcam_pct").mean);
  }
  std::printf("\n(paper: all resource types < ~25%% of the chip; queues = 2 per port —\n"
              " the provable minimum for delay injection without recirculation)\n");
}

const exp::Registration registration{exp::ExperimentSpec{
    "table3",
    "Table 3: Tofino data-plane resource usage (analytic model)",
    "analytic Tofino resource model for 1/2/4 cache stages",
    make_jobs,
    report,
}};

}  // namespace
}  // namespace cebinae

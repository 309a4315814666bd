#include "core/resource_model.hpp"

namespace cebinae {

namespace {
// Approximate per-pipe budgets of a Tofino 1 (public figures): 4096 PHV
// bits, 12 MAU stages x 80 SRAM blocks x 16 KB, 12 x 24 TCAM blocks x
// 1.28 KB.
constexpr double kPhvBudgetBits = 4096.0;
constexpr double kSramBudgetKb = 12 * 80 * 16.0;
constexpr double kTcamBudgetKb = 12 * 24 * 1.28;

// Affine calibration against Table 3 (1-stage and 2-stage rows):
//   PHV  = 832 + 105 * stages      (937, 1042)
//   SRAM = 800 + 1648 * stages     (2448, 4096) at 4096 slots x 32 ports
//   TCAM = -4 + 19 * stages        (15, 34)
//   VLIW = 85 + 4 * stages         (89, 93)
// The fixed terms cover the LBF state, port counters, and scheduling logic;
// the per-stage terms cover one register array plus hash/match logic.
constexpr double kPhvBase = 832.0;
constexpr double kPhvPerStage = 105.0;
constexpr double kSramBaseKb = 800.0;
constexpr double kSramPerStageKb = 1648.0;
constexpr double kTcamPerStageKb = 19.0;
constexpr double kTcamBaseKb = -4.0;
constexpr double kVliwBase = 85.0;
constexpr double kVliwPerStage = 4.0;

constexpr std::uint32_t kPorts = 32;  // Table 3's switch
}  // namespace

double TofinoResources::phv_fraction() const { return phv_bits / kPhvBudgetBits; }
double TofinoResources::sram_fraction() const { return sram_kb / kSramBudgetKb; }
double TofinoResources::tcam_fraction() const { return tcam_kb / kTcamBudgetKb; }

TofinoResources estimate_tofino_resources(std::uint32_t cache_stages) {
  TofinoResources r;
  r.cache_stages = cache_stages;
  r.pipeline_stages = 11;  // fixed by the Cebinae pipeline layout (Table 3)
  r.phv_bits = static_cast<std::uint32_t>(kPhvBase + kPhvPerStage * cache_stages);
  r.sram_kb = static_cast<std::uint32_t>(kSramBaseKb + kSramPerStageKb * cache_stages);

  const double tcam = kTcamBaseKb + kTcamPerStageKb * cache_stages;
  r.tcam_kb = tcam > 0 ? static_cast<std::uint32_t>(tcam) : 0;
  r.vliw_instructions = static_cast<std::uint32_t>(kVliwBase + kVliwPerStage * cache_stages);
  r.queues = 2 * kPorts;  // exactly two priorities per port -- Cebinae's claim
  return r;
}

}  // namespace cebinae

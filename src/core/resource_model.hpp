// Analytic Tofino resource-usage model (substitution for Table 3).
//
// The paper reports the P4 compiler's resource usage for Cebinae's data
// plane on a 32-port Tofino. We do not have the Tofino toolchain, so this
// model expresses each resource as a calibrated affine function of the flow
// cache's stage count at the paper's geometry (32 ports x 4096 slots); the
// two configurations from the paper reproduce Table 3 exactly, and other
// stage counts extrapolate along the same cost structure (each extra cache
// stage adds one register array, its hash computation, and its match logic).
#pragma once

#include <cstdint>

namespace cebinae {

struct TofinoResources {
  std::uint32_t cache_stages = 0;
  std::uint32_t pipeline_stages = 0;  // MAU stages occupied
  std::uint32_t phv_bits = 0;
  std::uint32_t sram_kb = 0;
  std::uint32_t tcam_kb = 0;
  std::uint32_t vliw_instructions = 0;
  std::uint32_t queues = 0;

  // Fractions of a 32-port Tofino pipe's budget (approximate public specs).
  [[nodiscard]] double phv_fraction() const;
  [[nodiscard]] double sram_fraction() const;
  [[nodiscard]] double tcam_fraction() const;
};

// Resource estimates for `cache_stages` flow-cache stages at Table 3's
// geometry: 32 ports, 4096 cache slots per port per stage.
[[nodiscard]] TofinoResources estimate_tofino_resources(std::uint32_t cache_stages);

}  // namespace cebinae

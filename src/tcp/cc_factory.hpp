// Enum, factory and display names of the congestion control algorithms used
// by the paper's evaluation (Table 2 and all figures).
#pragma once

#include <memory>
#include <string_view>

#include "tcp/bbr.hpp"
#include "tcp/bic.hpp"
#include "tcp/cubic.hpp"
#include "tcp/new_reno.hpp"
#include "tcp/vegas.hpp"

namespace cebinae {

enum class CcaType { kNewReno, kCubic, kBic, kVegas, kBbr };

inline std::unique_ptr<CongestionControl> make_cc(CcaType type) {
  switch (type) {
    case CcaType::kNewReno:
      return std::make_unique<NewReno>();
    case CcaType::kCubic:
      return std::make_unique<Cubic>();
    case CcaType::kBic:
      return std::make_unique<Bic>();
    case CcaType::kVegas:
      return std::make_unique<Vegas>();
    case CcaType::kBbr:
      return std::make_unique<Bbr>();
  }
  throw std::invalid_argument("unknown CCA type");
}

inline std::string_view to_string(CcaType type) {
  switch (type) {
    case CcaType::kNewReno:
      return "NewReno";
    case CcaType::kCubic:
      return "Cubic";
    case CcaType::kBic:
      return "Bic";
    case CcaType::kVegas:
      return "Vegas";
    case CcaType::kBbr:
      return "BBR";
  }
  return "?";
}

}  // namespace cebinae

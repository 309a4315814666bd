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

inline std::unique_ptr<CongestionControl> make_cc(CcaType type, std::uint32_t mss = kMssBytes) {
  switch (type) {
    case CcaType::kNewReno:
      return NewReno::make(mss);
    case CcaType::kCubic:
      return Cubic::make(mss);
    case CcaType::kBic:
      return Bic::make(mss);
    case CcaType::kVegas:
      return Vegas::make(mss);
    case CcaType::kBbr:
      return Bbr::make(mss);
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

// TCP NewReno (RFC 6582): classic AIMD, the paper's representative
// loss-based algorithm.
#pragma once

#include "tcp/window_cc.hpp"

namespace cebinae {

class NewReno final : public WindowCc {
 public:
  [[nodiscard]] std::string_view name() const override { return "newreno"; }

 private:
  void congestion_avoidance(const AckEvent& ev) override;
  void reduce(Time now) override;
};

}  // namespace cebinae

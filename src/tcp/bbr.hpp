// TCP BBR v1 (Cardwell et al. 2016): model-based congestion control that
// paces at the estimated bottleneck bandwidth and caps inflight at a multiple
// of the estimated BDP, largely ignoring packet loss. The paper evaluates
// BBR as the canonical loss-agnostic aggressor (Table 2, Fig. 8a).
#pragma once

#include "net/packet.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/windowed_filter.hpp"

namespace cebinae {

class Bbr final : public CongestionControl {
 public:
  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt };

  [[nodiscard]] std::string_view name() const override { return "bbr"; }
  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_Bps() const override { return pacing_rate_; }
  [[nodiscard]] bool in_slow_start() const override { return mode_ == Mode::kStartup; }
  [[nodiscard]] bool uses_delivery_rate() const override { return true; }

  void on_ack(const AckEvent& ev) override;
  void on_loss(Time now, std::uint64_t bytes_in_flight) override;
  void on_rto(Time now) override;

  // Exposed for unit tests.
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] double btl_bw_Bps() const { return btl_bw_filter_.get(); }
  [[nodiscard]] Time min_rtt() const { return min_rtt_; }

 private:
  static constexpr double kHighGain = 2.885;        // 2/ln(2)
  static constexpr double kDrainGain = 1.0 / 2.885;
  static constexpr double kCwndGain = 2.0;
  static constexpr int kBwWindowRounds = 10;
  static constexpr int kGainCycleLen = 8;
  static constexpr double kPacingGainCycle[kGainCycleLen] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};
  static constexpr Time kMinRttWindow = Seconds(10);
  static constexpr Time kProbeRttDuration = Milliseconds(200);

  void update_model(const AckEvent& ev);
  void update_state(const AckEvent& ev);
  void update_control(const AckEvent& ev);
  [[nodiscard]] std::uint64_t bdp_bytes(double gain) const;
  void enter_probe_bw(Time now);

  std::uint64_t cwnd_ = 10ull * kMssBytes;
  double pacing_rate_ = 0.0;

  Mode mode_ = Mode::kStartup;
  // Keyed by round count.
  WindowedFilter<double, std::int64_t, MaxCompare> btl_bw_filter_{kBwWindowRounds};
  std::int64_t round_count_ = 0;

  Time min_rtt_ = Time::max();
  Time min_rtt_stamp_ = Time::zero();
  bool min_rtt_expired_ = false;
  Time probe_rtt_done_stamp_ = Time::zero();
  bool probe_rtt_round_done_ = false;

  double full_bw_ = 0.0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  int cycle_index_ = 0;
  Time cycle_stamp_ = Time::zero();

  double pacing_gain_ = kHighGain;
  double cwnd_gain_ = kHighGain;
};

}  // namespace cebinae

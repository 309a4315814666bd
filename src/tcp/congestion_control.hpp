// Pluggable congestion control interface.
//
// The socket owns loss detection (dup-ACK counting, RTO timers, recovery
// bookkeeping) and calls into the algorithm at well-defined points, mirroring
// the split between Linux's tcp_input.c and its CC modules. Algorithms
// control the congestion window and, optionally, a pacing rate.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "sim/time.hpp"

namespace cebinae {

struct AckEvent {
  Time now;
  std::uint64_t acked_bytes = 0;     // bytes newly acknowledged by this ACK
  Time rtt;                          // RTT sample (zero when unavailable)
  std::uint64_t bytes_in_flight = 0; // after processing this ACK
  double delivery_rate_Bps = 0.0;    // per-ACK delivery rate sample (0 if none, or
                                     // when the CC does not read it)
  bool round_start = false;          // first ACK of a new RTT round
  bool in_recovery = false;          // socket is in loss recovery
  Time min_rtt;                      // connection-lifetime minimum RTT
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual void on_ack(const AckEvent& ev) = 0;

  // Loss inferred via fast retransmit (entering recovery). Called once per
  // recovery episode, not per lost packet.
  virtual void on_loss(Time now, std::uint64_t bytes_in_flight) = 0;

  // Retransmission timeout fired.
  virtual void on_rto(Time now) = 0;

  [[nodiscard]] virtual std::uint64_t cwnd_bytes() const = 0;

  // Bytes/second; 0 disables pacing (pure window-based transmission).
  [[nodiscard]] virtual double pacing_rate_Bps() const { return 0.0; }

  [[nodiscard]] virtual bool in_slow_start() const { return false; }

  // Whether on_ack reads AckEvent::delivery_rate_Bps. A property of the
  // algorithm, not a setting: the socket keeps per-segment rate stamps only
  // for an algorithm that reads the samples, and reports 0 to the others.
  // An algorithm that does not say, such as a wrapper that forwards on_ack
  // to another, gets the samples.
  [[nodiscard]] virtual bool uses_delivery_rate() const { return true; }
  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace cebinae

// Seeded random streams for deterministic simulations.
//
// Each consumer derives an independent stream from the run's master seed so
// that adding a new random consumer does not perturb existing ones.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace cebinae {

class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  // Derive a child stream whose sequence is independent of this stream's
  // future draws (the tag is hashed into the child's seed).
  [[nodiscard]] RandomStream derive(std::string_view tag) const;

  [[nodiscard]] double uniform(double lo, double hi);
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);  // inclusive
  [[nodiscard]] double exponential(double mean);
  // Bounded Pareto with shape `alpha` and scale `xm` (minimum value).
  [[nodiscard]] double pareto(double xm, double alpha);
  [[nodiscard]] bool bernoulli(double p);

 private:
  std::uint64_t seed_ = 0;
  std::mt19937_64 engine_;
};

}  // namespace cebinae

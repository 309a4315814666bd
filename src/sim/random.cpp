#include "sim/random.hpp"

#include <functional>

namespace cebinae {

RandomStream RandomStream::derive(std::string_view tag) const {
  // Combine the parent seed with the tag hash; the splitmix-style constant
  // decorrelates children whose tags share a prefix.
  const std::uint64_t h = std::hash<std::string_view>{}(tag);
  return RandomStream(seed_ ^ (h + 0x9e3779b97f4a7c15ULL + (seed_ << 6) + (seed_ >> 2)));
}

double RandomStream::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::uint64_t RandomStream::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

double RandomStream::exponential(double mean) {
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double RandomStream::pareto(double xm, double alpha) {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  // Inverse-CDF sampling; guard against u == 0 which would yield infinity.
  return xm / std::pow(std::max(u, 1e-12), 1.0 / alpha);
}

bool RandomStream::bernoulli(double p) {
  return std::bernoulli_distribution(p)(engine_);
}

}  // namespace cebinae

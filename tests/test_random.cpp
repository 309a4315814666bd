#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cebinae {
namespace {

TEST(Random, DeterministicForSeed) {
  RandomStream a(7);
  RandomStream b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Random, DifferentSeedsDiffer) {
  RandomStream a(1);
  RandomStream b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Random, DerivedStreamsAreIndependentOfParentDraws) {
  RandomStream parent(42);
  RandomStream child1 = parent.derive("x");
  (void)parent.uniform(0, 1);  // consume from parent
  RandomStream parent2(42);
  RandomStream child2 = parent2.derive("x");
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(0, 1), child2.uniform(0, 1));
  }
}

TEST(Random, DerivedStreamsWithDifferentTagsDiffer) {
  RandomStream parent(42);
  RandomStream a = parent.derive("a");
  RandomStream b = parent.derive("b");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Random, UniformRespectsBounds) {
  RandomStream rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Random, UniformIntInclusiveBounds) {
  RandomStream rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 1);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, ExponentialMeanConverges) {
  RandomStream rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Random, ParetoRespectsScale) {
  RandomStream rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(10.0, 1.5), 10.0);
  }
}

TEST(Random, ParetoIsHeavyTailed) {
  // P(X > 10*xm) = 10^-alpha; with alpha = 1 expect ~10% of draws.
  RandomStream rng(17);
  const int n = 20000;
  int above = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.pareto(1.0, 1.0) > 10.0) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / n, 0.1, 0.02);
}

TEST(Random, BernoulliProbability) {
  RandomStream rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

}  // namespace
}  // namespace cebinae

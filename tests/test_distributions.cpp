// Every distribution's sample statistics must match its analytic moments —
// the foundation the simulation results stand on.  Parameterized across
// distributions where the check is uniform.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "stats/distributions.hpp"
#include "stats/summary.hpp"

namespace prism::stats {
namespace {

Summary sample_many(const Distribution& d, int n, std::uint64_t seed) {
  Rng rng(seed);
  Summary s;
  for (int i = 0; i < n; ++i) s.add(d.sample(rng));
  return s;
}

// ---- parameterized moment checks -----------------------------------------

struct DistCase {
  std::shared_ptr<Distribution> dist;
  const char* name;
};

// Without this, gtest prints the parameter as raw bytes — heap and binary
// addresses that ASLR changes on every run — and the discovered ctest names
// would differ from build to build.
void PrintTo(const DistCase& c, std::ostream* os) { *os << c.name; }

class MomentTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(MomentTest, SampleMeanMatchesAnalytic) {
  const auto& d = *GetParam().dist;
  const auto s = sample_many(d, 200000, 1234);
  const double tol = 4.0 * std::sqrt(d.variance() / 200000.0) + 1e-12;
  EXPECT_NEAR(s.mean(), d.mean(), tol + 0.01 * d.mean());
}

TEST_P(MomentTest, SampleVarianceMatchesAnalytic) {
  const auto& d = *GetParam().dist;
  const auto s = sample_many(d, 200000, 987);
  EXPECT_NEAR(s.variance(), d.variance(),
              0.05 * d.variance() + 1e-9);
}

TEST_P(MomentTest, SamplesNonNegative) {
  const auto& d = *GetParam().dist;
  Rng rng(555);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(d.sample(rng), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, MomentTest,
    ::testing::Values(
        DistCase{std::make_shared<Exponential>(0.5), "exp_rate_half"},
        DistCase{std::make_shared<Exponential>(4.0), "exp_rate_4"},
        DistCase{std::make_shared<Uniform>(2.0, 8.0), "uniform"},
        DistCase{std::make_shared<TruncatedNormal>(50.0, 5.0), "normal"},
        DistCase{std::make_shared<Erlang>(1, 2.0), "erlang_1"},
        DistCase{std::make_shared<Erlang>(10, 0.25), "erlang_10"},
        DistCase{std::make_shared<Erlang>(64, 8.0), "erlang_64"},
        DistCase{std::make_shared<Hyperexponential>(0.3, 1.0, 0.1), "hyper"},
        DistCase{std::make_shared<Shifted>(
                     std::make_shared<Exponential>(1.0), 3.0),
                 "shifted"}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      return info.param.name;
    });

// ---- distribution-specific behaviour --------------------------------------

TEST(Deterministic, AlwaysSameValue) {
  Deterministic d(3.5);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 3.5);
  EXPECT_DOUBLE_EQ(d.mean(), 3.5);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(Exponential, FromMeanInvertsRate) {
  const auto d = Exponential::from_mean(25.0);
  EXPECT_DOUBLE_EQ(d.mean(), 25.0);
  EXPECT_DOUBLE_EQ(d.rate(), 0.04);
}

TEST(Exponential, MemorylessTailRatio) {
  // P[X > a+b] / P[X > a] == P[X > b]: check empirically.
  Exponential d(1.0);
  Rng rng(42);
  int gt1 = 0, gt2 = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    if (x > 1.0) ++gt1;
    if (x > 2.0) ++gt2;
  }
  const double ratio = static_cast<double>(gt2) / gt1;
  EXPECT_NEAR(ratio, std::exp(-1.0), 0.01);
}

TEST(Erlang, IsSumOfExponentials) {
  // Erlang(k) sample ~ sum of k Exponential samples in distribution: check
  // first two moments of explicit sums against the class.
  Rng rng(77);
  Exponential e(0.5);
  Summary sums;
  for (int i = 0; i < 50000; ++i) {
    double acc = 0;
    for (int k = 0; k < 5; ++k) acc += e.sample(rng);
    sums.add(acc);
  }
  Erlang d(5, 0.5);
  EXPECT_NEAR(sums.mean(), d.mean(), 0.1);
  EXPECT_NEAR(sums.variance(), d.variance(), 0.8);
}

TEST(Hyperexponential, CoefficientOfVariationExceedsOne) {
  Hyperexponential d(0.1, 10.0, 0.1);
  const double cv2 = d.variance() / (d.mean() * d.mean());
  EXPECT_GT(cv2, 1.0);
}

TEST(Empirical, MatchesWeights) {
  Empirical d({{1.0, 1.0}, {2.0, 3.0}});
  Rng rng(5);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (d.sample(rng) == 1.0) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.25, 0.01);
  EXPECT_NEAR(d.mean(), 1.75, 1e-12);
}

TEST(Empirical, VarianceMatchesSamples) {
  Empirical d({{0.0, 1.0}, {10.0, 1.0}});
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.variance(), 25.0);
}

TEST(Shifted, NeverBelowShift) {
  Shifted d(std::make_shared<Exponential>(2.0), 1.5);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(d.sample(rng), 1.5);
}

// ---- argument validation ---------------------------------------------------

TEST(DistributionValidation, RejectsBadParameters) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(Uniform(5.0, 4.0), std::invalid_argument);
  EXPECT_THROW(Uniform(-1.0, 4.0), std::invalid_argument);
  EXPECT_THROW(Erlang(0, 1.0), std::invalid_argument);
  EXPECT_THROW(Erlang(3, 0.0), std::invalid_argument);
  EXPECT_THROW(Hyperexponential(1.5, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Hyperexponential(0.5, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Deterministic(-1.0), std::invalid_argument);
  EXPECT_THROW(Empirical({}), std::invalid_argument);
  EXPECT_THROW(Empirical({{1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(Shifted(nullptr, 1.0), std::invalid_argument);
  EXPECT_THROW(TruncatedNormal(1.0, -1.0), std::invalid_argument);
}

TEST(DistributionDescribe, NonEmpty) {
  EXPECT_FALSE(Exponential(1.0).describe().empty());
  EXPECT_FALSE(Erlang(2, 1.0).describe().empty());
  EXPECT_FALSE(Uniform(0, 1).describe().empty());
  EXPECT_FALSE(TruncatedNormal(1, 0.1).describe().empty());
  EXPECT_FALSE(Hyperexponential(0.5, 1, 2).describe().empty());
  EXPECT_FALSE(Deterministic(1).describe().empty());
}

// ---- Poisson sampler --------------------------------------------------------

TEST(Poisson, SmallMeanMatchesMoments) {
  Rng rng(111);
  Summary s;
  for (int i = 0; i < 200000; ++i)
    s.add(static_cast<double>(poisson_sample(rng, 3.0)));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.variance(), 3.0, 0.1);
}

TEST(Poisson, LargeMeanMatchesMoments) {
  Rng rng(222);
  Summary s;
  for (int i = 0; i < 100000; ++i)
    s.add(static_cast<double>(poisson_sample(rng, 400.0)));
  EXPECT_NEAR(s.mean(), 400.0, 1.0);
  EXPECT_NEAR(s.variance(), 400.0, 12.0);
}

TEST(Poisson, ZeroMeanIsZero) {
  Rng rng(333);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(poisson_sample(rng, 0.0), 0u);
}

TEST(Poisson, RejectsNegativeMean) {
  Rng rng(1);
  EXPECT_THROW(poisson_sample(rng, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace prism::stats

// Unit and property tests for the numerical kernels (util/math.hpp).
#include "util/math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "util/rng.hpp"

namespace pac {
namespace {

TEST(KahanSum, ExactForIllConditionedSeries) {
  KahanSum k;
  k.add(1.0);
  for (int i = 0; i < 10000000 && i < 100000; ++i) k.add(1e-16);
  // Plain summation would lose every tiny addend.
  EXPECT_GT(k.value(), 1.0);
  EXPECT_NEAR(k.value(), 1.0 + 100000 * 1e-16, 1e-18);
}

TEST(KahanSum, MatchesPlainSumForBenignData) {
  KahanSum k;
  double plain = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    k.add(1.0 / i);
    plain += 1.0 / i;
  }
  EXPECT_NEAR(k.value(), plain, 1e-12);
}

TEST(KahanSum, ResetClears) {
  KahanSum k;
  k.add(5.0);
  k.reset();
  EXPECT_EQ(k.value(), 0.0);
}

TEST(Digamma, MatchesKnownValues) {
  // psi(1) = -gamma, psi(2) = 1 - gamma, psi(1/2) = -gamma - 2 ln 2.
  const double euler_gamma = 0.5772156649015329;
  EXPECT_NEAR(digamma(1.0), -euler_gamma, 1e-10);
  EXPECT_NEAR(digamma(2.0), 1.0 - euler_gamma, 1e-10);
  EXPECT_NEAR(digamma(0.5), -euler_gamma - 2.0 * std::log(2.0), 1e-10);
}

TEST(Digamma, SatisfiesRecurrence) {
  // psi(x+1) = psi(x) + 1/x.
  for (double x : {0.3, 1.7, 4.2, 11.0}) {
    EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
  }
}

TEST(Digamma, IsDerivativeOfLogGamma) {
  for (double x : {0.8, 2.5, 7.0}) {
    const double h = 1e-6;
    const double numeric = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h);
    EXPECT_NEAR(digamma(x), numeric, 1e-6);
  }
}

TEST(LogMultivariateBeta, MatchesBetaFunctionFor2) {
  // B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b).
  const std::vector<double> alpha = {2.0, 3.0};
  const double expected =
      log_gamma(2.0) + log_gamma(3.0) - log_gamma(5.0);
  EXPECT_NEAR(log_multivariate_beta(alpha), expected, 1e-12);
}

TEST(LogMultivariateBeta, SymmetricDirichletKnownValue) {
  // B(1,1,1) = Gamma(1)^3 / Gamma(3) = 1/2.
  const std::vector<double> alpha = {1.0, 1.0, 1.0};
  EXPECT_NEAR(log_multivariate_beta(alpha), std::log(0.5), 1e-12);
}

TEST(LogNormalPdf, IntegratesToOne) {
  // Riemann sum over a wide grid.
  const double mean = 1.3, sigma = 0.7;
  double integral = 0.0;
  const double dx = 0.001;
  for (double x = mean - 10 * sigma; x < mean + 10 * sigma; x += dx)
    integral += std::exp(log_normal_pdf(x, mean, sigma)) * dx;
  EXPECT_NEAR(integral, 1.0, 1e-4);
}

TEST(LogNormalPdf, PeaksAtMean) {
  EXPECT_GT(log_normal_pdf(2.0, 2.0, 1.0), log_normal_pdf(2.4, 2.0, 1.0));
  EXPECT_GT(log_normal_pdf(2.0, 2.0, 1.0), log_normal_pdf(1.6, 2.0, 1.0));
}

TEST(Normalize, MakesUnitSum) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const double pre = normalize(v);
  EXPECT_DOUBLE_EQ(pre, 10.0);
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-15);
  EXPECT_NEAR(v[3], 0.4, 1e-15);
}

TEST(Normalize, AllZeroLeftUntouched) {
  std::vector<double> v = {0.0, 0.0};
  EXPECT_EQ(normalize(v), 0.0);
  EXPECT_EQ(v[0], 0.0);
}

TEST(MeanVariance, MatchKnownValues) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 3.0);
  EXPECT_DOUBLE_EQ(variance_of(v), 2.0);  // population variance
}

TEST(MeanVariance, DegenerateInputs) {
  EXPECT_EQ(mean_of({}), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_EQ(variance_of(one), 0.0);
}

TEST(WeightedMoments, MatchesDirectComputation) {
  WeightedMoments m;
  const std::vector<double> x = {1.0, 5.0, -2.0, 3.5};
  const std::vector<double> w = {0.5, 2.0, 1.0, 0.25};
  double sw = 0.0, swx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    m.add(x[i], w[i]);
    sw += w[i];
    swx += w[i] * x[i];
  }
  const double mean = swx / sw;
  double scatter = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    scatter += w[i] * sq(x[i] - mean);
  EXPECT_NEAR(m.weight(), sw, 1e-12);
  EXPECT_NEAR(m.mean(), mean, 1e-12);
  EXPECT_NEAR(m.variance(), scatter / sw, 1e-12);
  EXPECT_NEAR(m.scatter(), scatter, 1e-12);
}

TEST(WeightedMoments, IgnoresNonPositiveWeights) {
  WeightedMoments m;
  m.add(100.0, 0.0);
  m.add(3.0, 1.0);
  m.add(-50.0, -1.0);
  EXPECT_DOUBLE_EQ(m.mean(), 3.0);
  EXPECT_DOUBLE_EQ(m.weight(), 1.0);
}

TEST(SafeLog, GuardsNonPositive) {
  EXPECT_EQ(safe_log(0.0), kLogTiny);
  EXPECT_EQ(safe_log(-1.0), kLogTiny);
  EXPECT_DOUBLE_EQ(safe_log(std::exp(1.0)), 1.0);
}

// ---- SPD kernels ----

TEST(Cholesky, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  std::vector<double> a = {4.0, 2.0, 2.0, 3.0};
  ASSERT_TRUE(spd::cholesky(a, 2));
  EXPECT_NEAR(a[0], 2.0, 1e-12);
  EXPECT_NEAR(a[2], 1.0, 1e-12);
  EXPECT_NEAR(a[3], std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  std::vector<double> a = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_FALSE(spd::cholesky(a, 2));
}

TEST(Cholesky, LogDetMatchesDirect) {
  std::vector<double> a = {4.0, 2.0, 2.0, 3.0};
  ASSERT_TRUE(spd::cholesky(a, 2));
  // det = 4*3 - 2*2 = 8.
  EXPECT_NEAR(spd::log_det_from_cholesky(a, 2), std::log(8.0), 1e-12);
}

TEST(Cholesky, RoundTripsRandomSpdMatrices) {
  Xoshiro256ss g(71);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t d = 1 + trial % 5;
    // Build A = M M^T + d I (guaranteed SPD).
    std::vector<double> m(d * d);
    for (double& v : m) v = uniform_in(g, -1.0, 1.0);
    std::vector<double> a(d * d, 0.0);
    for (std::size_t i = 0; i < d; ++i)
      for (std::size_t j = 0; j < d; ++j) {
        for (std::size_t k = 0; k < d; ++k)
          a[i * d + j] += m[i * d + k] * m[j * d + k];
        if (i == j) a[i * d + j] += static_cast<double>(d);
      }
    std::vector<double> l = a;
    ASSERT_TRUE(spd::cholesky(l, d));
    // Check L L^T == A on the lower triangle.
    for (std::size_t i = 0; i < d; ++i)
      for (std::size_t j = 0; j <= i; ++j) {
        double v = 0.0;
        for (std::size_t k = 0; k <= j; ++k)
          v += l[i * d + k] * l[j * d + k];
        EXPECT_NEAR(v, a[i * d + j], 1e-9);
      }
  }
}

TEST(ForwardSolve, SolvesLowerTriangularSystem) {
  // L = [[2, 0], [1, 3]], b = [4, 7] -> y = [2, 5/3].
  const std::vector<double> l = {2.0, 0.0, 1.0, 3.0};
  std::vector<double> b = {4.0, 7.0};
  spd::forward_solve(l, 2, b);
  EXPECT_NEAR(b[0], 2.0, 1e-12);
  EXPECT_NEAR(b[1], 5.0 / 3.0, 1e-12);
}

TEST(Mahalanobis, IdentityCovarianceIsSquaredNorm) {
  std::vector<double> a = {1.0, 0.0, 0.0, 1.0};
  ASSERT_TRUE(spd::cholesky(a, 2));
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_NEAR(spd::mahalanobis2(a, 2, x), 25.0, 1e-12);
}

TEST(Mahalanobis, ScalesInverselyWithVariance) {
  std::vector<double> a = {4.0, 0.0, 0.0, 9.0};
  ASSERT_TRUE(spd::cholesky(a, 2));
  const std::vector<double> x = {2.0, 3.0};
  // x^T diag(1/4, 1/9) x = 1 + 1 = 2.
  EXPECT_NEAR(spd::mahalanobis2(a, 2, x), 2.0, 1e-12);
}

TEST(Mahalanobis, LargeDimensionUsesHeapPath) {
  const std::size_t d = 40;  // > the 32-element stack buffer
  std::vector<double> a(d * d, 0.0);
  for (std::size_t i = 0; i < d; ++i) a[i * d + i] = 1.0;
  ASSERT_TRUE(spd::cholesky(a, d));
  std::vector<double> x(d, 1.0);
  EXPECT_NEAR(spd::mahalanobis2(a, d, x), static_cast<double>(d), 1e-9);
}

}  // namespace
}  // namespace pac

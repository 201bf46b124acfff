// Numerical kernels shared by the Bayesian model terms and the search layer.
//
// Everything here is deterministic, allocation-free on the hot path, and
// cross-platform reproducible (no fast-math assumptions).
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace pac {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kLog2Pi = 1.83787706640934548356;
/// Likelihood floor used instead of log(0) for impossible observations.
inline constexpr double kLogTiny = -744.4400719213812;  // log(DBL_MIN*~4e-16)

/// log(x) guarded against x <= 0 (returns kLogTiny).
inline double safe_log(double x) noexcept {
  return x > 0.0 ? std::log(x) : kLogTiny;
}

inline double sq(double x) noexcept { return x * x; }

/// Kahan–Babuška compensated accumulator.
///
/// Used by the deterministic reduction paths so that a parallel rank-ordered
/// fold stays within ~1 ulp of the sequential fold.
class KahanSum {
 public:
  void add(double x) noexcept {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;
    } else {
      comp_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  double value() const noexcept { return sum_ + comp_; }
  void reset() noexcept { sum_ = comp_ = 0.0; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Natural log of the gamma function (thin wrapper; centralizes the choice
/// of implementation for reproducibility audits).
///
/// Plain lgamma() writes the process-global `signgam`, which is a data race
/// when several worlds run as threads; the reentrant lgamma_r returns the
/// same value with the sign in a local.
inline double log_gamma(double x) noexcept {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// Digamma function psi(x) for x > 0 (asymptotic series with recurrence).
double digamma(double x) noexcept;

/// log of the multivariate beta function: sum_i lgamma(a_i) - lgamma(sum a_i).
/// This is the Dirichlet normalizing constant; used by the closed-form
/// Dirichlet-multinomial marginal likelihood.
double log_multivariate_beta(std::span<const double> alpha) noexcept;

/// Normal log-density log N(x | mean, sigma^2); sigma must be > 0.
inline double log_normal_pdf(double x, double mean, double sigma) noexcept {
  const double z = (x - mean) / sigma;
  return -0.5 * (kLog2Pi + z * z) - std::log(sigma);
}

/// In-place normalization of a non-negative vector to sum 1.
/// Returns the pre-normalization sum (0 means the input was all-zero and the
/// vector is left untouched).
double normalize(std::span<double> v) noexcept;

/// Mean of a span (0 for empty).
double mean_of(std::span<const double> v) noexcept;

/// Population variance of a span (0 for size < 2).
double variance_of(std::span<const double> v) noexcept;

/// Weighted first/second moments accumulated in one pass (Welford-style,
/// West's weighted update): numerically stable running mean and scatter.
class WeightedMoments {
 public:
  /// Absorb observation x with non-negative weight w.
  void add(double x, double w) noexcept {
    if (w <= 0.0) return;
    weight_ += w;
    const double delta = x - mean_;
    mean_ += delta * (w / weight_);
    m2_ += w * delta * (x - mean_);
  }

  double weight() const noexcept { return weight_; }
  double mean() const noexcept { return mean_; }
  /// Weighted population variance sum w (x-mean)^2 / sum w.
  double variance() const noexcept { return weight_ > 0.0 ? m2_ / weight_ : 0.0; }
  /// Raw scatter sum w (x-mean)^2.
  double scatter() const noexcept { return m2_; }

  void reset() noexcept { weight_ = mean_ = m2_ = 0.0; }

 private:
  double weight_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Dense symmetric positive-definite matrix utilities used by the
/// multivariate-normal model term.  Matrices are row-major d*d vectors.
namespace spd {

/// In-place Cholesky factorization A = L L^T (lower triangle of `a` receives
/// L; the strict upper triangle is left untouched).  Returns false if the
/// matrix is not positive definite.
bool cholesky(std::span<double> a, std::size_t d) noexcept;

/// log(det A) from its Cholesky factor L: 2 * sum_i log L_ii.
double log_det_from_cholesky(std::span<const double> l, std::size_t d) noexcept;

/// Solve L y = b in place (forward substitution), with L from cholesky().
void forward_solve(std::span<const double> l, std::size_t d,
                   std::span<double> b) noexcept;

/// Quadratic form x^T A^{-1} x given the Cholesky factor of A.
double mahalanobis2(std::span<const double> l, std::size_t d,
                    std::span<const double> x) noexcept;

}  // namespace spd

}  // namespace pac

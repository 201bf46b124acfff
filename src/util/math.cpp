#include "util/math.hpp"

#include <algorithm>

namespace pac {

double digamma(double x) noexcept {
  // Recurrence to push the argument above 6, then the asymptotic expansion.
  double result = 0.0;
  while (x < 12.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 -
                            inv2 * (1.0 / 252.0 - inv2 / 240.0)));
  return result;
}

double log_multivariate_beta(std::span<const double> alpha) noexcept {
  double sum = 0.0;
  double lg = 0.0;
  for (double a : alpha) {
    sum += a;
    lg += log_gamma(a);
  }
  return lg - log_gamma(sum);
}

double normalize(std::span<double> v) noexcept {
  double s = 0.0;
  for (double x : v) s += x;
  if (s > 0.0) {
    const double inv = 1.0 / s;
    for (double& x : v) x *= inv;
  }
  return s;
}

double mean_of(std::span<const double> v) noexcept {
  if (v.empty()) return 0.0;
  KahanSum k;
  for (double x : v) k.add(x);
  return k.value() / static_cast<double>(v.size());
}

double variance_of(std::span<const double> v) noexcept {
  if (v.size() < 2) return 0.0;
  const double m = mean_of(v);
  KahanSum k;
  for (double x : v) k.add(sq(x - m));
  return k.value() / static_cast<double>(v.size());
}

namespace spd {

bool cholesky(std::span<double> a, std::size_t d) noexcept {
  for (std::size_t j = 0; j < d; ++j) {
    double diag = a[j * d + j];
    for (std::size_t k = 0; k < j; ++k) diag -= sq(a[j * d + k]);
    if (diag <= 0.0) return false;
    const double ljj = std::sqrt(diag);
    a[j * d + j] = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < d; ++i) {
      double v = a[i * d + j];
      for (std::size_t k = 0; k < j; ++k) v -= a[i * d + k] * a[j * d + k];
      a[i * d + j] = v * inv;
    }
  }
  return true;
}

double log_det_from_cholesky(std::span<const double> l, std::size_t d) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < d; ++i) s += std::log(l[i * d + i]);
  return 2.0 * s;
}

void forward_solve(std::span<const double> l, std::size_t d,
                   std::span<double> b) noexcept {
  for (std::size_t i = 0; i < d; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l[i * d + k] * b[k];
    b[i] = v / l[i * d + i];
  }
}

double mahalanobis2(std::span<const double> l, std::size_t d,
                    std::span<const double> x) noexcept {
  // Solve L y = x, then |y|^2 = x^T (L L^T)^{-1} x.
  double stack[32];
  std::vector<double> heap;
  std::span<double> y;
  if (d <= 32) {
    y = std::span<double>(stack, d);
  } else {
    heap.resize(d);
    y = std::span<double>(heap);
  }
  std::copy(x.begin(), x.end(), y.begin());
  forward_solve(l, d, y);
  double s = 0.0;
  for (double v : y) s += v * v;
  return s;
}

}  // namespace spd

}  // namespace pac

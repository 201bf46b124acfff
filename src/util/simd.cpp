// Runtime dispatch plus the portable (and NEON) kernel implementations.
//
// The portable bodies are the reference every vector level reproduces: a
// host with no vector unit — or a PAC_SIMD=0 run — executes them, and the
// AVX2 and NEON lanes perform the same operation sequence per item.  The
// portable M-step folds define the *reference association* (4 lanes, mod-4
// item assignment, ((l0+l1)+l2)+l3 combine, in-order tail) that the AVX2
// TU must reproduce bit-for-bit; keep the two in lockstep when editing
// either.
#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>

#include "util/math.hpp"
#include "util/simd_internal.hpp"

#if PAC_SIMD_HAVE_NEON
#include <arm_neon.h>
#endif

namespace pac::simd {

namespace {

/// ScopedForceLevel override slot: -1 = none, else the forced Level value.
std::atomic<int> g_override{-1};

Level compute_detected() noexcept {
#if PAC_SIMD_HAVE_X86
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
#elif PAC_SIMD_HAVE_NEON
  return Level::kNeon;  // baseline on aarch64
#else
  return Level::kScalar;
#endif
}

Level compute_env_level() noexcept {
  return detail::env_value_enables(std::getenv("PAC_SIMD")) ? detected_level()
                                                            : Level::kScalar;
}

bool ieq(const char* a, const char* b) noexcept {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    const int ca = std::tolower(static_cast<unsigned char>(*a));
    const int cb = std::tolower(static_cast<unsigned char>(*b));
    if (ca != cb) return false;
  }
  return *a == '\0' && *b == '\0';
}

}  // namespace

bool detail::env_value_enables(const char* value) noexcept {
  if (value == nullptr || *value == '\0') return true;
  return !(std::strcmp(value, "0") == 0 || ieq(value, "off") ||
           ieq(value, "scalar") || ieq(value, "false") || ieq(value, "no"));
}

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

Level detected_level() noexcept {
  static const Level l = compute_detected();
  return l;
}

Level level() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  static const Level l = compute_env_level();
  return l;
}

const char* describe() noexcept {
  static thread_local char buf[128];
  static const Level env_level = compute_env_level();
  const bool env_forced_off =
      env_level == Level::kScalar && detected_level() != Level::kScalar;
  std::snprintf(buf, sizeof(buf), "dispatch=%s detected=%s%s",
                to_string(level()), to_string(detected_level()),
                env_forced_off ? " (PAC_SIMD forced scalar)" : "");
  return buf;
}

ScopedForceLevel::ScopedForceLevel(Level request) noexcept {
  // Any non-scalar request resolves to the best level this host executes;
  // kScalar is always honored as-is.
  effective_ = request == Level::kScalar ? Level::kScalar : detected_level();
  previous_ = g_override.exchange(static_cast<int>(effective_),
                                  std::memory_order_relaxed);
}

ScopedForceLevel::~ScopedForceLevel() {
  g_override.store(previous_, std::memory_order_relaxed);
}

// ===========================================================================
// Portable kernels: the per-item reference expressions of the terms.
// ===========================================================================

namespace {

void gaussian_log_prob_portable(const double* x, std::size_t n, double mean,
                                double sigma, double log_sigma,
                                double log_error, double* out,
                                std::size_t stride) noexcept {
  for (std::size_t i = 0; i < n; ++i, out += stride) {
    double lp = 0.0;
    if (!std::isnan(x[i])) {
      const double z = (x[i] - mean) / sigma;
      lp = -0.5 * (kLog2Pi + z * z) - log_sigma + log_error;
    }
    *out += lp;
  }
}

void lognormal_log_prob_portable(const double* lx, std::size_t n, double mean,
                                 double sigma, double log_sigma,
                                 double log_error, double* out,
                                 std::size_t stride) noexcept {
  for (std::size_t i = 0; i < n; ++i, out += stride) {
    double lp = 0.0;
    if (!std::isnan(lx[i])) {
      const double z = (lx[i] - mean) / sigma;
      lp = -0.5 * (kLog2Pi + z * z) - log_sigma - lx[i] + log_error;
    }
    *out += lp;
  }
}

void multinomial_log_prob_portable(const std::int32_t* v, std::size_t n,
                                   const double* table, double missing_lp,
                                   double* out, std::size_t stride) noexcept {
  for (std::size_t i = 0; i < n; ++i, out += stride)
    *out += v[i] < 0 ? missing_lp : table[static_cast<std::size_t>(v[i])];
}

void multinormal_log_prob_portable(const double* const* cols, std::size_t d,
                                   std::size_t i0, std::size_t n,
                                   const double* params, double log_error_sum,
                                   double* out, std::size_t stride) noexcept {
  double diff_stack[32];
  std::span<double> diff(diff_stack, d);
  const std::span<const double> chol(params + d, d * d);
  const double logdet = params[d + d * d];
  const double dd = static_cast<double>(d);
  for (std::size_t i = 0; i < n; ++i, out += stride) {
    for (std::size_t k = 0; k < d; ++k) diff[k] = cols[k][i0 + i] - params[k];
    const double maha = spd::mahalanobis2(chol, d, diff);
    *out += -0.5 * (dd * kLog2Pi + logdet + maha) + log_error_sum;
  }
}

// ---------------------------------------------------------------------------
// det_exp / det_log — the reference operation sequence.  The AVX2 lanes in
// simd_avx2.cpp perform exactly these IEEE operations in this order; keep
// the two in lockstep.  Integer work happens on the bit patterns (uint64
// arithmetic wraps, so a NaN lane's meaningless exponent is harmless).
// ---------------------------------------------------------------------------

/// Bit pattern of 2^e for the integer e held in the low mantissa bits of
/// t = e + kMagic (|e| <= 1023).
inline double pow2_from_magic(double t) noexcept {
  const std::uint64_t e = std::bit_cast<std::uint64_t>(t) -
                          std::bit_cast<std::uint64_t>(detmath::kMagic);
  return std::bit_cast<double>((e + 1023) << 52);
}

inline double det_exp_one(double x) noexcept {
  using namespace detmath;
  // Clamp, written as the vector max/min so a NaN x passes through.
  x = kExpLo > x ? kExpLo : x;
  x = kExpHi < x ? kExpHi : x;
  const double n = (x * kLog2e + kMagic) - kMagic;  // round(x / ln2)
  const double r = (x - n * kLn2Hi) - n * kLn2Lo;
  double q = kExpC[11];
#pragma GCC unroll 16
  for (int k = 10; k >= 0; --k) q = kExpC[k] + r * q;
  const double p = 1.0 + (r + (r * r) * q);
  // 2^n = 2^n1 * 2^n2 with n1 = round(n / 2): both factors stay normal, so
  // only the last multiply can round (into the subnormal range).
  const double t1 = n * 0.5 + kMagic;
  const double n1 = t1 - kMagic;
  const double t2 = (n - n1) + kMagic;
  return (p * pow2_from_magic(t1)) * pow2_from_magic(t2);
}

inline double det_log_one(double x) noexcept {
  using namespace detmath;
  if (!(x > 0.0))
    return x == 0.0 ? -std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::quiet_NaN();
  if (x == std::numeric_limits<double>::infinity()) return x;
  double k0 = 0.0;
  if (x < std::numeric_limits<double>::min()) {
    x *= kTwo54;
    k0 = -54.0;
  }
  // x = 2^e * m, m in [1, 2): the exponent field, read as an integer and
  // turned into a double through kMagic.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const double e =
      std::bit_cast<double>((bits >> 52) +
                            std::bit_cast<std::uint64_t>(kMagic)) -
      kMagic;
  double m = std::bit_cast<double>((bits & 0x000fffffffffffffULL) |
                                   0x3ff0000000000000ULL);
  double k = (e - 1023.0) + k0;
  if (m > kSqrt2) {
    m = m * 0.5;
    k = k + 1.0;
  }
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  double rz = kLogC[9];
#pragma GCC unroll 16
  for (int i = 8; i >= 0; --i) rz = kLogC[i] + z * rz;
  const double r = z * rz;
  const double hfsq = (0.5 * f) * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

void det_exp_portable(const double* x, double* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] = det_exp_one(x[i]);
}

void det_log_portable(const double* x, double* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] = det_log_one(x[i]);
}

// ---------------------------------------------------------------------------
// Portable class-major tile kernels — the per-item reference sequence.
// ---------------------------------------------------------------------------

std::size_t normalize_columns_portable(double* tile, std::size_t n,
                                       std::size_t j, std::size_t ld,
                                       double* lse) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    double* item = tile + i;  // the item's value under class k: item[k * ld]
    // The max, checked before anything is overwritten.  A NaN fails every
    // comparison, so it is tracked on its own.
    double m = -std::numeric_limits<double>::infinity();
    bool nan = false;
    for (std::size_t k = 0; k < j; ++k) {
      const double v = item[k * ld];
      nan |= std::isnan(v);
      m = v > m ? v : m;
    }
    if (nan || !std::isfinite(m)) return i;
    // Class-order sum of exp(v - m) (>= 1: the max adds exp(0) = 1), scale.
    double s = 0.0;
    for (std::size_t k = 0; k < j; ++k) {
      const double e = det_exp_one(item[k * ld] - m);
      item[k * ld] = e;
      s += e;
    }
    const double inv = 1.0 / s;
    for (std::size_t k = 0; k < j; ++k) item[k * ld] *= inv;
    lse[i] = m + det_log_one(s);
  }
  return n;
}

void columns_to_rows_portable(const double* tile, std::size_t n,
                              std::size_t j, std::size_t ld, double* rows,
                              double* sums) noexcept {
  for (std::size_t k = 0; k < j; ++k) {
    const double* column = tile + k * ld;
    for (std::size_t i = 0; i < n; ++i) rows[i * j + k] = column[i];
    if (sums != nullptr)
      for (std::size_t i = 0; i < n; ++i) sums[k] += column[i];
  }
}

// ---------------------------------------------------------------------------
// Portable M-step folds — the reference for the fixed 4-lane association.
// ---------------------------------------------------------------------------

inline double fold4(const double lane[4]) noexcept {
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

/// One item's three moment additions into (sw, swx, swx2).  A skipped
/// item (w <= 0 or missing x) adds exactly +0.0, so every lane performs the
/// same three additions per group; the mask is branch-free because which
/// items are skipped follows the data, not a predictable pattern.
inline void add_moments(double wr, double xr, double& sw, double& swx,
                        double& swx2) noexcept {
  const bool ok = (wr > 0.0) & (xr == xr);
  const double w = ok ? wr : 0.0;
  const double xv = ok ? xr : 0.0;
  sw += w;
  const double wx = w * xv;
  swx += wx;
  swx2 += wx * xv;
}

void gaussian_accumulate_portable(const double* x, const double* weights,
                                  std::size_t wstride, std::size_t n,
                                  double* stats) noexcept {
  // One named accumulator per (moment, lane) so they live in registers.
  double sw0 = 0.0, sw1 = 0.0, sw2 = 0.0, sw3 = 0.0;
  double swx0 = 0.0, swx1 = 0.0, swx2 = 0.0, swx3 = 0.0;
  double sxx0 = 0.0, sxx1 = 0.0, sxx2 = 0.0, sxx3 = 0.0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const double* w = weights + i * wstride;
    add_moments(w[0], x[i], sw0, swx0, sxx0);
    add_moments(w[wstride], x[i + 1], sw1, swx1, sxx1);
    add_moments(w[2 * wstride], x[i + 2], sw2, swx2, sxx2);
    add_moments(w[3 * wstride], x[i + 3], sw3, swx3, sxx3);
  }
  double tsw = ((sw0 + sw1) + sw2) + sw3;
  double tswx = ((swx0 + swx1) + swx2) + swx3;
  double tswx2 = ((sxx0 + sxx1) + sxx2) + sxx3;
  for (std::size_t i = n4; i < n; ++i)
    add_moments(weights[i * wstride], x[i], tsw, tswx, tswx2);
  stats[0] += tsw;
  stats[1] += tswx;
  stats[2] += tswx2;
}

void multinormal_accumulate_portable(const double* const* cols,
                                     std::size_t d, std::size_t i0,
                                     std::size_t n, const double* weights,
                                     std::size_t wstride,
                                     double* stats) noexcept {
  // Lane accumulators: sw, swx[k], and the lower triangle swxx[k][l]
  // addressed by the triangular index k*(k+1)/2 + l (d <= 32 -> 528 slots).
  double sw_l[4] = {0.0, 0.0, 0.0, 0.0};
  double swx_l[32][4] = {};
  double swxx_l[528][4] = {};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    double w[4];
    for (std::size_t j = 0; j < 4; ++j) {
      const double wr = weights[(i + j) * wstride];
      w[j] = wr > 0.0 ? wr : 0.0;
    }
    for (std::size_t j = 0; j < 4; ++j) sw_l[j] += w[j];
    for (std::size_t k = 0; k < d; ++k) {
      const double* colk = cols[k] + i0 + i;
      double wx[4];
      for (std::size_t j = 0; j < 4; ++j) {
        wx[j] = w[j] * colk[j];
        swx_l[k][j] += wx[j];
      }
      double(*rows)[4] = swxx_l + k * (k + 1) / 2;
      for (std::size_t l = 0; l <= k; ++l) {
        const double* coll = cols[l] + i0 + i;
        for (std::size_t j = 0; j < 4; ++j) rows[l][j] += wx[j] * coll[j];
      }
    }
  }
  double acc_sw = fold4(sw_l);
  double acc_swx[32];
  double acc_swxx[528];
  for (std::size_t k = 0; k < d; ++k) {
    acc_swx[k] = fold4(swx_l[k]);
    for (std::size_t l = 0; l <= k; ++l) {
      const std::size_t ti = k * (k + 1) / 2 + l;
      acc_swxx[ti] = fold4(swxx_l[ti]);
    }
  }
  for (std::size_t i = n4; i < n; ++i) {
    const double wr = weights[i * wstride];
    const double w = wr > 0.0 ? wr : 0.0;
    acc_sw += w;
    for (std::size_t k = 0; k < d; ++k) {
      const double wxk = w * cols[k][i0 + i];
      acc_swx[k] += wxk;
      double* row = acc_swxx + k * (k + 1) / 2;
      for (std::size_t l = 0; l <= k; ++l) row[l] += wxk * cols[l][i0 + i];
    }
  }
  stats[0] += acc_sw;
  for (std::size_t k = 0; k < d; ++k) {
    stats[1 + k] += acc_swx[k];
    double* row = stats + 1 + d + k * d;
    for (std::size_t l = 0; l <= k; ++l)
      row[l] += acc_swxx[k * (k + 1) / 2 + l];
  }
}

// ---------------------------------------------------------------------------
// NEON (aarch64): 2-lane elementwise kernels for the normal families.  The
// table walk and the lane-wise solve gain little at 2 lanes, so they stay on
// the portable loops.  Untunable here but kept intentionally simple: pure
// elementwise IEEE ops, so lane outputs match the portable bodies bitwise.
// ---------------------------------------------------------------------------

#if PAC_SIMD_HAVE_NEON

void gaussian_log_prob_neon(const double* x, std::size_t n, double mean,
                            double sigma, double log_sigma, double log_error,
                            double* out, std::size_t stride) noexcept {
  const float64x2_t vmean = vdupq_n_f64(mean);
  const float64x2_t vsigma = vdupq_n_f64(sigma);
  const float64x2_t vlogsig = vdupq_n_f64(log_sigma);
  const float64x2_t vlogerr = vdupq_n_f64(log_error);
  const float64x2_t vlog2pi = vdupq_n_f64(kLog2Pi);
  const float64x2_t vneghalf = vdupq_n_f64(-0.5);
  const std::size_t n2 = n & ~std::size_t{1};
  std::size_t i = 0;
  for (; i < n2; i += 2, out += 2 * stride) {
    const float64x2_t xv = vld1q_f64(x + i);
    const float64x2_t z = vdivq_f64(vsubq_f64(xv, vmean), vsigma);
    float64x2_t lp = vmulq_f64(vneghalf, vaddq_f64(vlog2pi, vmulq_f64(z, z)));
    lp = vaddq_f64(vsubq_f64(lp, vlogsig), vlogerr);
    // NaN input lanes contribute exactly 0.0 (ordered-compare mask).
    const uint64x2_t ord = vceqq_f64(xv, xv);
    lp = vreinterpretq_f64_u64(
        vandq_u64(ord, vreinterpretq_u64_f64(lp)));
    double tmp[2];
    vst1q_f64(tmp, lp);
    out[0] += tmp[0];
    out[stride] += tmp[1];
  }
  if (i < n)
    gaussian_log_prob_portable(x + i, n - i, mean, sigma, log_sigma,
                               log_error, out, stride);
}

void lognormal_log_prob_neon(const double* lx, std::size_t n, double mean,
                             double sigma, double log_sigma, double log_error,
                             double* out, std::size_t stride) noexcept {
  const float64x2_t vmean = vdupq_n_f64(mean);
  const float64x2_t vsigma = vdupq_n_f64(sigma);
  const float64x2_t vlogsig = vdupq_n_f64(log_sigma);
  const float64x2_t vlogerr = vdupq_n_f64(log_error);
  const float64x2_t vlog2pi = vdupq_n_f64(kLog2Pi);
  const float64x2_t vneghalf = vdupq_n_f64(-0.5);
  const std::size_t n2 = n & ~std::size_t{1};
  std::size_t i = 0;
  for (; i < n2; i += 2, out += 2 * stride) {
    const float64x2_t xv = vld1q_f64(lx + i);
    const float64x2_t z = vdivq_f64(vsubq_f64(xv, vmean), vsigma);
    float64x2_t lp = vmulq_f64(vneghalf, vaddq_f64(vlog2pi, vmulq_f64(z, z)));
    lp = vaddq_f64(vsubq_f64(vsubq_f64(lp, vlogsig), xv), vlogerr);
    const uint64x2_t ord = vceqq_f64(xv, xv);
    lp = vreinterpretq_f64_u64(
        vandq_u64(ord, vreinterpretq_u64_f64(lp)));
    double tmp[2];
    vst1q_f64(tmp, lp);
    out[0] += tmp[0];
    out[stride] += tmp[1];
  }
  if (i < n)
    lognormal_log_prob_portable(lx + i, n - i, mean, sigma, log_sigma,
                                log_error, out, stride);
}

#endif  // PAC_SIMD_HAVE_NEON

}  // namespace

// ===========================================================================
// Dispatch.
// ===========================================================================

void gaussian_log_prob(const double* x, std::size_t n, double mean,
                       double sigma, double log_sigma, double log_error,
                       double* out, std::size_t stride) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::gaussian_log_prob(x, n, mean, sigma, log_sigma, log_error, out,
                            stride);
    return;
  }
#elif PAC_SIMD_HAVE_NEON
  if (level() == Level::kNeon) {
    gaussian_log_prob_neon(x, n, mean, sigma, log_sigma, log_error, out,
                           stride);
    return;
  }
#endif
  gaussian_log_prob_portable(x, n, mean, sigma, log_sigma, log_error, out,
                             stride);
}

void lognormal_log_prob(const double* lx, std::size_t n, double mean,
                        double sigma, double log_sigma, double log_error,
                        double* out, std::size_t stride) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::lognormal_log_prob(lx, n, mean, sigma, log_sigma, log_error, out,
                             stride);
    return;
  }
#elif PAC_SIMD_HAVE_NEON
  if (level() == Level::kNeon) {
    lognormal_log_prob_neon(lx, n, mean, sigma, log_sigma, log_error, out,
                            stride);
    return;
  }
#endif
  lognormal_log_prob_portable(lx, n, mean, sigma, log_sigma, log_error, out,
                              stride);
}

void multinomial_log_prob(const std::int32_t* v, std::size_t n,
                          const double* table, double missing_lp, double* out,
                          std::size_t stride) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::multinomial_log_prob(v, n, table, missing_lp, out, stride);
    return;
  }
#endif
  multinomial_log_prob_portable(v, n, table, missing_lp, out, stride);
}

void multinormal_log_prob(const double* const* cols, std::size_t d,
                          std::size_t i0, std::size_t n, const double* params,
                          double log_error_sum, double* out,
                          std::size_t stride) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::multinormal_log_prob(cols, d, i0, n, params, log_error_sum, out,
                               stride);
    return;
  }
#endif
  multinormal_log_prob_portable(cols, d, i0, n, params, log_error_sum, out,
                                stride);
}

void det_exp(const double* x, double* y, std::size_t n) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::det_exp(x, y, n);
    return;
  }
#endif
  det_exp_portable(x, y, n);
}

void det_log(const double* x, double* y, std::size_t n) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::det_log(x, y, n);
    return;
  }
#endif
  det_log_portable(x, y, n);
}

std::size_t normalize_columns(double* tile, std::size_t n, std::size_t j,
                              std::size_t ld, double* lse) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2)
    return avx2::normalize_columns(tile, n, j, ld, lse);
#endif
  return normalize_columns_portable(tile, n, j, ld, lse);
}

void columns_to_rows(const double* tile, std::size_t n, std::size_t j,
                     std::size_t ld, double* rows, double* sums) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::columns_to_rows(tile, n, j, ld, rows, sums);
    return;
  }
#endif
  columns_to_rows_portable(tile, n, j, ld, rows, sums);
}

void gaussian_accumulate(const double* x, const double* weights,
                         std::size_t wstride, std::size_t n,
                         double* stats) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::gaussian_accumulate(x, weights, wstride, n, stats);
    return;
  }
#endif
  gaussian_accumulate_portable(x, weights, wstride, n, stats);
}

void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t i0, std::size_t n,
                            const double* weights, std::size_t wstride,
                            double* stats) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::multinormal_accumulate(cols, d, i0, n, weights, wstride, stats);
    return;
  }
#endif
  multinormal_accumulate_portable(cols, d, i0, n, weights, wstride, stats);
}

}  // namespace pac::simd

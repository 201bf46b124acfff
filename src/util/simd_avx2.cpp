// AVX2 kernel bodies.  This is the only TU compiled with -mavx2 (and it is
// excluded from non-x86 builds); everything here is reached only through
// the runtime dispatch in simd.cpp, after __builtin_cpu_supports("avx2").
//
// Bit-identity discipline for the `*_log_prob` kernels: each 4-wide vector
// op is the portable body's op applied per lane — same operand order, same
// association, no FMA intrinsics, and the build keeps -ffp-contract=off so
// the compiler cannot contract either side.  The `*_accumulate` M-step
// folds instead reproduce the portable reference association in simd.cpp
// (4 lanes mod-4, ((l0+l1)+l2)+l3 fold, in-order tail) exactly.
#include "util/simd_internal.hpp"

#if PAC_SIMD_HAVE_X86

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "util/math.hpp"

namespace pac::simd::avx2 {

namespace {

/// out[j*stride] += lane j of lp, for the 4 items a vector covers.  The adds
/// are elementwise either way; the contiguous case just skips the spill.
inline double* accumulate_out(__m256d lp, double* out,
                              std::size_t stride) noexcept {
  if (stride == 1) {
    _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), lp));
    return out + 4;
  }
  alignas(32) double tmp[4];
  _mm256_store_pd(tmp, lp);
  out[0] += tmp[0];
  out[stride] += tmp[1];
  out[2 * stride] += tmp[2];
  out[3 * stride] += tmp[3];
  return out + 4 * stride;
}

/// Strided 4-wide weight load (the E-step weight matrix is class-strided).
inline __m256d load_weights(const double* weights,
                            std::size_t wstride) noexcept {
  return _mm256_set_pd(weights[3 * wstride], weights[2 * wstride],
                       weights[wstride], weights[0]);
}

/// The reference lane fold: ((l0 + l1) + l2) + l3.
inline double fold4(__m256d v) noexcept {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

}  // namespace

void gaussian_log_prob(const double* x, std::size_t n, double mean,
                       double sigma, double log_sigma, double log_error,
                       double* out, std::size_t stride) noexcept {
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vsigma = _mm256_set1_pd(sigma);
  const __m256d vlogsig = _mm256_set1_pd(log_sigma);
  const __m256d vlogerr = _mm256_set1_pd(log_error);
  const __m256d vlog2pi = _mm256_set1_pd(kLog2Pi);
  const __m256d vneghalf = _mm256_set1_pd(-0.5);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d z = _mm256_div_pd(_mm256_sub_pd(xv, vmean), vsigma);
    __m256d lp = _mm256_mul_pd(
        vneghalf, _mm256_add_pd(vlog2pi, _mm256_mul_pd(z, z)));
    lp = _mm256_add_pd(_mm256_sub_pd(lp, vlogsig), vlogerr);
    // Missing (NaN) lanes contribute exactly 0.0, as in the scalar branch.
    lp = _mm256_and_pd(lp, _mm256_cmp_pd(xv, xv, _CMP_ORD_Q));
    out = accumulate_out(lp, out, stride);
  }
  for (; i < n; ++i, out += stride) {
    double lp = 0.0;
    if (!std::isnan(x[i])) {
      const double z = (x[i] - mean) / sigma;
      lp = -0.5 * (kLog2Pi + z * z) - log_sigma + log_error;
    }
    *out += lp;
  }
}

void lognormal_log_prob(const double* lx, std::size_t n, double mean,
                        double sigma, double log_sigma, double log_error,
                        double* out, std::size_t stride) noexcept {
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vsigma = _mm256_set1_pd(sigma);
  const __m256d vlogsig = _mm256_set1_pd(log_sigma);
  const __m256d vlogerr = _mm256_set1_pd(log_error);
  const __m256d vlog2pi = _mm256_set1_pd(kLog2Pi);
  const __m256d vneghalf = _mm256_set1_pd(-0.5);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    const __m256d xv = _mm256_loadu_pd(lx + i);
    const __m256d z = _mm256_div_pd(_mm256_sub_pd(xv, vmean), vsigma);
    __m256d lp = _mm256_mul_pd(
        vneghalf, _mm256_add_pd(vlog2pi, _mm256_mul_pd(z, z)));
    // Scalar order: (((-0.5*(..) - log_sigma) - lx) + log_error).
    lp = _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(lp, vlogsig), xv),
                       vlogerr);
    lp = _mm256_and_pd(lp, _mm256_cmp_pd(xv, xv, _CMP_ORD_Q));
    out = accumulate_out(lp, out, stride);
  }
  for (; i < n; ++i, out += stride) {
    double lp = 0.0;
    if (!std::isnan(lx[i])) {
      const double z = (lx[i] - mean) / sigma;
      lp = -0.5 * (kLog2Pi + z * z) - log_sigma - lx[i] + log_error;
    }
    *out += lp;
  }
}

void multinomial_log_prob(const std::int32_t* v, std::size_t n,
                          const double* table, double missing_lp, double* out,
                          std::size_t stride) noexcept {
  const __m256d vmissing = _mm256_set1_pd(missing_lp);
  const __m128i vminus1 = _mm_set1_epi32(-1);
  const __m128i vzero32 = _mm_setzero_si128();
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    // known = (v >= 0); missing symbols take the hoisted missing_lp lane.
    const __m128i known32 = _mm_cmpgt_epi32(idx, vminus1);
    const __m256d known = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(known32));
    // Clamp masked-off (negative) indices to 0; their lanes are not loaded,
    // this just keeps the address arithmetic in-range by construction.
    const __m128i safe_idx = _mm_max_epi32(idx, vzero32);
    const __m256d lp =
        _mm256_mask_i32gather_pd(vmissing, table, safe_idx, known, 8);
    out = accumulate_out(lp, out, stride);
  }
  for (; i < n; ++i, out += stride)
    *out += v[i] < 0 ? missing_lp : table[static_cast<std::size_t>(v[i])];
}

void multinormal_log_prob(const double* const* cols, std::size_t d,
                          std::size_t i0, std::size_t n, const double* params,
                          double log_error_sum, double* out,
                          std::size_t stride) noexcept {
  const double* l = params + d;  // Cholesky factor, row-major d*d
  const double logdet = params[d + d * d];
  const double dd = static_cast<double>(d);
  // Hoisted pure recomputation: the scalar loop evaluates
  // (dd * kLog2Pi + logdet) + maha with this exact association every item.
  const double base = dd * kLog2Pi + logdet;
  const __m256d vbase = _mm256_set1_pd(base);
  const __m256d vlogerrsum = _mm256_set1_pd(log_error_sum);
  const __m256d vneghalf = _mm256_set1_pd(-0.5);
  __m256d y[32];  // d <= 32, enforced by the term
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    // Lane-wise forward solve: each lane runs spd::forward_solve's exact
    // scalar sequence on its own item (diff computed in place of b).
    for (std::size_t r = 0; r < d; ++r) {
      __m256d acc = _mm256_sub_pd(_mm256_loadu_pd(cols[r] + i0 + i),
                                  _mm256_set1_pd(params[r]));
      for (std::size_t k = 0; k < r; ++k)
        acc = _mm256_sub_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(l[r * d + k]), y[k]));
      y[r] = _mm256_div_pd(acc, _mm256_set1_pd(l[r * d + r]));
    }
    // |y|^2 in index order, starting from +0.0 (mahalanobis2's fold).
    __m256d maha = _mm256_setzero_pd();
    for (std::size_t r = 0; r < d; ++r)
      maha = _mm256_add_pd(maha, _mm256_mul_pd(y[r], y[r]));
    const __m256d lp = _mm256_add_pd(
        _mm256_mul_pd(vneghalf, _mm256_add_pd(vbase, maha)), vlogerrsum);
    out = accumulate_out(lp, out, stride);
  }
  if (i < n) {
    double diff_stack[32];
    std::span<double> diff(diff_stack, d);
    const std::span<const double> chol(l, d * d);
    for (; i < n; ++i, out += stride) {
      for (std::size_t k = 0; k < d; ++k)
        diff[k] = cols[k][i0 + i] - params[k];
      const double maha = spd::mahalanobis2(chol, d, diff);
      *out += -0.5 * (dd * kLog2Pi + logdet + maha) + log_error_sum;
    }
  }
}

void gaussian_accumulate(const double* x, const double* weights,
                         std::size_t wstride, std::size_t n,
                         double* stats) noexcept {
  const __m256d vzero = _mm256_setzero_pd();
  __m256d sw = vzero, swx = vzero, swx2 = vzero;
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    __m256d w = load_weights(weights + i * wstride, wstride);
    __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(w, vzero, _CMP_GT_OQ),
                                     _mm256_cmp_pd(xv, xv, _CMP_ORD_Q));
    w = _mm256_and_pd(w, ok);
    xv = _mm256_and_pd(xv, ok);
    sw = _mm256_add_pd(sw, w);
    const __m256d wx = _mm256_mul_pd(w, xv);
    swx = _mm256_add_pd(swx, wx);
    swx2 = _mm256_add_pd(swx2, _mm256_mul_pd(wx, xv));
  }
  double tsw = fold4(sw);
  double tswx = fold4(swx);
  double tswx2 = fold4(swx2);
  for (; i < n; ++i) {
    const double wr = weights[i * wstride];
    const double xr = x[i];
    const bool ok = wr > 0.0 && !std::isnan(xr);
    const double w = ok ? wr : 0.0;
    const double xv = ok ? xr : 0.0;
    tsw += w;
    const double wx = w * xv;
    tswx += wx;
    tswx2 += wx * xv;
  }
  stats[0] += tsw;
  stats[1] += tswx;
  stats[2] += tswx2;
}

void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t i0, std::size_t n,
                            const double* weights, std::size_t wstride,
                            double* stats) noexcept {
  const __m256d vzero = _mm256_setzero_pd();
  __m256d sw_v = vzero;
  __m256d swx_v[32];
  __m256d swxx_v[528];  // lower triangle, index k*(k+1)/2 + l
  for (std::size_t k = 0; k < d; ++k) swx_v[k] = vzero;
  for (std::size_t t = 0; t < d * (d + 1) / 2; ++t) swxx_v[t] = vzero;
  __m256d xs[32];
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    __m256d w = load_weights(weights + i * wstride, wstride);
    w = _mm256_and_pd(w, _mm256_cmp_pd(w, vzero, _CMP_GT_OQ));
    sw_v = _mm256_add_pd(sw_v, w);
    for (std::size_t k = 0; k < d; ++k)
      xs[k] = _mm256_loadu_pd(cols[k] + i0 + i);
    for (std::size_t k = 0; k < d; ++k) {
      const __m256d wx = _mm256_mul_pd(w, xs[k]);
      swx_v[k] = _mm256_add_pd(swx_v[k], wx);
      __m256d* rows = swxx_v + k * (k + 1) / 2;
      for (std::size_t l = 0; l <= k; ++l)
        rows[l] = _mm256_add_pd(rows[l], _mm256_mul_pd(wx, xs[l]));
    }
  }
  double acc_sw = fold4(sw_v);
  double acc_swx[32];
  double acc_swxx[528];
  for (std::size_t k = 0; k < d; ++k) {
    acc_swx[k] = fold4(swx_v[k]);
    for (std::size_t l = 0; l <= k; ++l) {
      const std::size_t ti = k * (k + 1) / 2 + l;
      acc_swxx[ti] = fold4(swxx_v[ti]);
    }
  }
  for (; i < n; ++i) {
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

namespace {

/// 2^e for the integer e held in the low mantissa bits of t = e + kMagic
/// (simd.cpp's pow2_from_magic, lane-wise).
inline __m256d pow2_from_magic(__m256d t) noexcept {
  const __m256i e = _mm256_sub_epi64(
      _mm256_castpd_si256(t),
      _mm256_castpd_si256(_mm256_set1_pd(detmath::kMagic)));
  return _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(e, _mm256_set1_epi64x(1023)), 52));
}

/// det_exp_one of simd.cpp on four lanes, operation for operation.
inline __m256d det_exp4(__m256d x) noexcept {
  using namespace detmath;
  const __m256d magic = _mm256_set1_pd(kMagic);
  // max_pd/min_pd return their second operand when either is NaN, which is
  // the scalar `lo > x ? lo : x` exactly.
  x = _mm256_max_pd(_mm256_set1_pd(kExpLo), x);
  x = _mm256_min_pd(_mm256_set1_pd(kExpHi), x);
  const __m256d n = _mm256_sub_pd(
      _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kLog2e)), magic), magic);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(kLn2Hi))),
      _mm256_mul_pd(n, _mm256_set1_pd(kLn2Lo)));
  __m256d q = _mm256_set1_pd(kExpC[11]);
#pragma GCC unroll 16
  for (int k = 10; k >= 0; --k)
    q = _mm256_add_pd(_mm256_set1_pd(kExpC[k]), _mm256_mul_pd(r, q));
  const __m256d p = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, r), q)));
  const __m256d t1 = _mm256_add_pd(_mm256_mul_pd(n, _mm256_set1_pd(0.5)),
                                   magic);
  const __m256d n1 = _mm256_sub_pd(t1, magic);
  const __m256d t2 = _mm256_add_pd(_mm256_sub_pd(n, n1), magic);
  return _mm256_mul_pd(_mm256_mul_pd(p, pow2_from_magic(t1)),
                       pow2_from_magic(t2));
}

/// det_log_one of simd.cpp on four lanes: the main path runs on every lane
/// and the special inputs (x <= 0, NaN, +inf) are blended in at the end.
inline __m256d det_log4(__m256d x) noexcept {
  using namespace detmath;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d magic = _mm256_set1_pd(kMagic);
  const __m256d in = x;
  const __m256d sub =
      _mm256_cmp_pd(x, _mm256_set1_pd(std::numeric_limits<double>::min()),
                    _CMP_LT_OQ);
  x = _mm256_blendv_pd(x, _mm256_mul_pd(x, _mm256_set1_pd(kTwo54)), sub);
  const __m256d k0 = _mm256_and_pd(sub, _mm256_set1_pd(-54.0));
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(_mm256_srli_epi64(bits, 52),
                                           _mm256_castpd_si256(magic))),
      magic);
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_set1_epi64x(0x3ff0000000000000LL)));
  __m256d k = _mm256_add_pd(_mm256_sub_pd(e, _mm256_set1_pd(1023.0)), k0);
  const __m256d big = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
  k = _mm256_blendv_pd(k, _mm256_add_pd(k, _mm256_set1_pd(1.0)), big);
  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  __m256d rz = _mm256_set1_pd(kLogC[9]);
#pragma GCC unroll 16
  for (int i = 8; i >= 0; --i)
    rz = _mm256_add_pd(_mm256_set1_pd(kLogC[i]), _mm256_mul_pd(z, rz));
  const __m256d r = _mm256_mul_pd(z, rz);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  const __m256d inner = _mm256_add_pd(
      _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
      _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
  __m256d y = _mm256_sub_pd(
      _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi)),
      _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
  // Special lanes, as the scalar early returns.
  const __m256d not_pos = _mm256_cmp_pd(in, zero, _CMP_NGT_UQ);
  const __m256d special = _mm256_blendv_pd(
      _mm256_set1_pd(std::numeric_limits<double>::quiet_NaN()),
      _mm256_set1_pd(-std::numeric_limits<double>::infinity()),
      _mm256_cmp_pd(in, zero, _CMP_EQ_OQ));
  y = _mm256_blendv_pd(y, special, not_pos);
  return _mm256_blendv_pd(y, inf, _mm256_cmp_pd(in, inf, _CMP_EQ_OQ));
}

}  // namespace

void det_exp(const double* x, double* y, std::size_t n) noexcept {
  const std::size_t n8 = n & ~std::size_t{7};
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  // Two independent vectors per step: the Horner chain is latency-bound.
  for (; i < n8; i += 8) {
    const __m256d a = det_exp4(_mm256_loadu_pd(x + i));
    const __m256d b = det_exp4(_mm256_loadu_pd(x + i + 4));
    _mm256_storeu_pd(y + i, a);
    _mm256_storeu_pd(y + i + 4, b);
  }
  for (; i < n4; i += 4)
    _mm256_storeu_pd(y + i, det_exp4(_mm256_loadu_pd(x + i)));
  if (i < n) {
    // The tail runs through a zero-padded vector, so it too takes the lane
    // sequence (never a compiler's scalar rewrite of it).
    alignas(32) double tmp[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = 0; i + t < n; ++t) tmp[t] = x[i + t];
    _mm256_store_pd(tmp, det_exp4(_mm256_load_pd(tmp)));
    for (std::size_t t = 0; i + t < n; ++t) y[i + t] = tmp[t];
  }
}

void det_log(const double* x, double* y, std::size_t n) noexcept {
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4)
    _mm256_storeu_pd(y + i, det_log4(_mm256_loadu_pd(x + i)));
  if (i < n) {
    alignas(32) double tmp[4] = {1.0, 1.0, 1.0, 1.0};
    for (std::size_t t = 0; i + t < n; ++t) tmp[t] = x[i + t];
    _mm256_store_pd(tmp, det_log4(_mm256_load_pd(tmp)));
    for (std::size_t t = 0; i + t < n; ++t) y[i + t] = tmp[t];
  }
}

namespace {

/// All-ones in lanes [0, live), for the masked loads and stores of a group
/// of fewer than four items.
inline __m256i lane_mask(std::size_t live) noexcept {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

template <bool kMasked>
inline __m256d load_lanes(const double* p, __m256i mask) noexcept {
  if constexpr (kMasked) return _mm256_maskload_pd(p, mask);
  return _mm256_loadu_pd(p);
}

template <bool kMasked>
inline void store_lanes(double* p, __m256i mask, __m256d v) noexcept {
  if constexpr (kMasked)
    _mm256_maskstore_pd(p, mask, v);
  else
    _mm256_storeu_pd(p, v);
}

/// The maxima `m` of the group of four items at `item` over its j classes,
/// checked before anything is overwritten; returns the bitmask of its
/// degenerate lanes.  max_pd(v, m) is `v > m ? v : m` (a NaN v keeps m), so
/// m is never NaN and a NaN is tracked on its own.  Masked-off lanes load
/// 0.0 and are never degenerate.
template <bool kMasked>
inline int group_max(const double* item, std::size_t j, std::size_t ld,
                     __m256i mask, __m256d& m) noexcept {
  m = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d nan = _mm256_setzero_pd();
  for (std::size_t k = 0; k < j; ++k) {
    const __m256d v = load_lanes<kMasked>(item + k * ld, mask);
    nan = _mm256_or_pd(nan, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    m = _mm256_max_pd(v, m);
  }
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d abs_m = _mm256_andnot_pd(_mm256_set1_pd(-0.0), m);
  return _mm256_movemask_pd(
      _mm256_or_pd(nan, _mm256_cmp_pd(abs_m, inf, _CMP_EQ_OQ)));
}

/// Normalizes the group of four items at `item` (the masked-off lanes of a
/// partial group are neither read nor written) given their maxima `m`:
/// normalize_columns_portable's per-item sequence, one item per lane.
template <bool kMasked>
inline void normalize_group(double* item, std::size_t j, std::size_t ld,
                            __m256d m, __m256i mask, double* lse) noexcept {
  __m256d s = _mm256_setzero_pd();
  for (std::size_t k = 0; k < j; ++k) {
    double* p = item + k * ld;
    const __m256d e =
        det_exp4(_mm256_sub_pd(load_lanes<kMasked>(p, mask), m));
    store_lanes<kMasked>(p, mask, e);
    s = _mm256_add_pd(s, e);
  }
  const __m256d inv = _mm256_div_pd(_mm256_set1_pd(1.0), s);
  for (std::size_t k = 0; k < j; ++k) {
    double* p = item + k * ld;
    store_lanes<kMasked>(p, mask,
                         _mm256_mul_pd(load_lanes<kMasked>(p, mask), inv));
  }
  store_lanes<kMasked>(lse, mask, _mm256_add_pd(m, det_log4(s)));
}

}  // namespace

std::size_t normalize_columns(double* tile, std::size_t n, std::size_t j,
                              std::size_t ld, double* lse) noexcept {
  for (std::size_t i = 0; i < n; i += 4) {
    const std::size_t live = std::min<std::size_t>(4, n - i);
    __m256i mask = lane_mask(live);
    double* item = tile + i;
    __m256d m = _mm256_setzero_pd();
    const int bad = live == 4 ? group_max<false>(item, j, ld, mask, m)
                              : group_max<true>(item, j, ld, mask, m);
    if (bad == 0 && live == 4) {
      normalize_group<false>(item, j, ld, m, mask, lse + i);
      continue;
    }
    // A partial group, or one holding a degenerate item: normalize the
    // lanes before the first bad one and stop there.
    const std::size_t done =
        bad == 0 ? live
                 : static_cast<std::size_t>(
                       std::countr_zero(static_cast<unsigned>(bad)));
    mask = lane_mask(done);
    if (done > 0) normalize_group<true>(item, j, ld, m, mask, lse + i);
    if (bad != 0) return i + done;
  }
  return n;
}

void columns_to_rows(const double* tile, std::size_t n, std::size_t j,
                     std::size_t ld, double* rows, double* sums) noexcept {
  const std::size_t n4 = n & ~std::size_t{3};
  const std::size_t j4 = j & ~std::size_t{3};
  std::size_t k = 0;
  for (; k < j4; k += 4) {
    // Four classes at a time: 4x4 register transposes turn four column
    // vectors into four row vectors, which are stored and, per class lane,
    // added to the sums in item order.
    const double* c0 = tile + k * ld;
    const double* c1 = c0 + ld;
    const double* c2 = c1 + ld;
    const double* c3 = c2 + ld;
    __m256d acc =
        sums != nullptr ? _mm256_loadu_pd(sums + k) : _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i < n4; i += 4) {
      const __m256d a = _mm256_loadu_pd(c0 + i);
      const __m256d b = _mm256_loadu_pd(c1 + i);
      const __m256d c = _mm256_loadu_pd(c2 + i);
      const __m256d d = _mm256_loadu_pd(c3 + i);
      const __m256d ab_lo = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
      const __m256d ab_hi = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
      const __m256d cd_lo = _mm256_unpacklo_pd(c, d);  // c0 d0 c2 d2
      const __m256d cd_hi = _mm256_unpackhi_pd(c, d);  // c1 d1 c3 d3
      const __m256d r0 = _mm256_permute2f128_pd(ab_lo, cd_lo, 0x20);
      const __m256d r1 = _mm256_permute2f128_pd(ab_hi, cd_hi, 0x20);
      const __m256d r2 = _mm256_permute2f128_pd(ab_lo, cd_lo, 0x31);
      const __m256d r3 = _mm256_permute2f128_pd(ab_hi, cd_hi, 0x31);
      double* row = rows + i * j + k;
      _mm256_storeu_pd(row, r0);
      _mm256_storeu_pd(row + j, r1);
      _mm256_storeu_pd(row + 2 * j, r2);
      _mm256_storeu_pd(row + 3 * j, r3);
      acc = _mm256_add_pd(
          _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(acc, r0), r1), r2), r3);
    }
    for (; i < n; ++i) {
      const __m256d r = _mm256_setr_pd(c0[i], c1[i], c2[i], c3[i]);
      _mm256_storeu_pd(rows + i * j + k, r);
      acc = _mm256_add_pd(acc, r);
    }
    if (sums != nullptr) _mm256_storeu_pd(sums + k, acc);
  }
  for (; k < j; ++k) {
    const double* column = tile + k * ld;
    for (std::size_t i = 0; i < n; ++i) rows[i * j + k] = column[i];
    if (sums != nullptr)
      for (std::size_t i = 0; i < n; ++i) sums[k] += column[i];
  }
}

}  // namespace pac::simd::avx2

#endif  // PAC_SIMD_HAVE_X86

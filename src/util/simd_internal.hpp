// Internal per-ISA kernel entry points, shared between simd.cpp (runtime
// dispatch) and the ISA-specific translation units (simd_avx2.cpp, which is
// the only TU compiled with -mavx2).  Not part of the public surface — do
// not include outside src/util.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#define PAC_SIMD_HAVE_X86 1
#else
#define PAC_SIMD_HAVE_X86 0
#endif

#if defined(__aarch64__)
#define PAC_SIMD_HAVE_NEON 1
#else
#define PAC_SIMD_HAVE_NEON 0
#endif

namespace pac::simd::detmath {

// Constants of det_exp / det_log, shared by the portable reference in
// simd.cpp and the vector lanes so every dispatch level evaluates the same
// expression on the same values.

/// 1.5 * 2^52: adding it to |v| < 2^51 rounds v to the nearest integer
/// (ties to even) and leaves that integer in the low mantissa bits.
inline constexpr double kMagic = 0x1.8p52;
inline constexpr double kLog2e = 0x1.71547652b82fep0;
/// Cody–Waite split of ln 2: kLn2Hi has its low 32 mantissa bits clear, so
/// n * kLn2Hi is exact for every |n| the clamped input can produce.
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
/// det_exp clamps its input to [kExpLo, kExpHi]: exp(kExpLo) rounds to +0
/// and exp(kExpHi) overflows to +inf, so the clamp changes no result and
/// keeps n = round(x / ln 2) within [-1076, 1025].
inline constexpr double kExpLo = -746.0;
inline constexpr double kExpHi = 710.0;
/// exp(r) = 1 + r + r^2 * (kExpC[0] + r * (kExpC[1] + ...)): the Taylor
/// coefficients 1/2! .. 1/13!, whose truncation error on |r| <= ln2/2 is
/// below 2^-57.
inline constexpr double kExpC[12] = {
    1.0 / 2,         1.0 / 6,          1.0 / 24,          1.0 / 120,
    1.0 / 720,       1.0 / 5040,       1.0 / 40320,       1.0 / 362880,
    1.0 / 3628800,   1.0 / 39916800,   1.0 / 479001600,   1.0 / 6227020800};

inline constexpr double kSqrt2 = 0x1.6a09e667f3bcdp0;
/// 2^54, the pre-scale that lifts a subnormal det_log input into the
/// normal range.
inline constexpr double kTwo54 = 0x1p54;
/// log(1 + f) = f - hfsq + s * (hfsq + R), s = f / (2 + f), z = s^2,
/// R = z * (kLogC[0] + z * (kLogC[1] + ...)): the atanh series
/// coefficients 2/3, 2/5, .., 2/21, truncation below 2^-60 on
/// |s| <= 3 - 2 sqrt 2.
inline constexpr double kLogC[10] = {2.0 / 3,  2.0 / 5,  2.0 / 7,  2.0 / 9,
                                     2.0 / 11, 2.0 / 13, 2.0 / 15, 2.0 / 17,
                                     2.0 / 19, 2.0 / 21};

}  // namespace pac::simd::detmath

#if PAC_SIMD_HAVE_X86

namespace pac::simd::avx2 {

void gaussian_log_prob(const double* x, std::size_t n, double mean,
                       double sigma, double log_sigma, double log_error,
                       double* out, std::size_t stride) noexcept;

void lognormal_log_prob(const double* lx, std::size_t n, double mean,
                        double sigma, double log_sigma, double log_error,
                        double* out, std::size_t stride) noexcept;

void multinomial_log_prob(const std::int32_t* v, std::size_t n,
                          const double* table, double missing_lp, double* out,
                          std::size_t stride) noexcept;

void multinormal_log_prob(const double* const* cols, std::size_t d,
                          std::size_t i0, std::size_t n, const double* params,
                          double log_error_sum, double* out,
                          std::size_t stride) noexcept;

void gaussian_accumulate(const double* x, const double* weights,
                         std::size_t wstride, std::size_t n,
                         double* stats) noexcept;

void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t i0, std::size_t n,
                            const double* weights, std::size_t wstride,
                            double* stats) noexcept;

void det_exp(const double* x, double* y, std::size_t n) noexcept;

void det_log(const double* x, double* y, std::size_t n) noexcept;

std::size_t normalize_columns(double* tile, std::size_t n, std::size_t j,
                              std::size_t ld, double* lse) noexcept;

void columns_to_rows(const double* tile, std::size_t n, std::size_t j,
                     std::size_t ld, double* rows, double* sums) noexcept;

}  // namespace pac::simd::avx2

#endif  // PAC_SIMD_HAVE_X86

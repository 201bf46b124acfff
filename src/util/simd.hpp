// Runtime-dispatched SIMD layer for the batched E/M-step kernels.
//
// One numeric tier (DESIGN.md §5), exact and level-invariant.  Every
// kernel has a portable reference body in simd.cpp, which a PAC_SIMD=0 run
// (or a host with no vector unit) executes, and explicit vector lanes over
// the same operations for the levels that have them:
//
//   * the `*_log_prob` kernels, det_exp / det_log and normalize_columns
//     (which runs them) are *elementwise* per item: every lane performs the
//     portable body's operation sequence on its own value, with IEEE
//     add/sub/mul/div semantics, so each output double is memcmp-equal to
//     the portable body's — and, since a one-item call runs the scalar
//     tail, to a one-item call on the same value.  No FMA, no
//     reassociation (the whole project builds with -ffp-contract=off so
//     the portable side cannot silently contract either).
//   * the `*_accumulate` M-step moment folds are reductions in one pinned
//     association: lane j sums the items with in-block index ≡ j (mod 4)
//     below the last full group of four, lanes combine as
//     ((l0+l1)+l2)+l3, then the tail items fold in item order.  The
//     association is a constant of the *contract*, not of the instruction
//     set, so the folds are memcmp-equal across AVX2/NEON/portable
//     dispatch, thread counts and transports, and equal to one-item folds
//     run in that association.
//
// Dispatch: `level()` resolves once from the environment and the CPU —
// AVX2 on x86-64 hosts that support it, NEON on aarch64, otherwise the
// portable bodies (Level::kScalar).  `PAC_SIMD=0` (or "off"/"scalar")
// forces the portable bodies at any build flags; building with
// -march=x86-64-v3 changes *codegen* but the kernels dispatch the same
// way.  Tests and benches pin a level with ScopedForceLevel (clamped to
// what the host actually supports).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pac::simd {

enum class Level {
  kScalar = 0,  // no vector lanes: the portable reference bodies run
  kAvx2,        // x86-64 AVX2 (4 x double lanes)
  kNeon,        // aarch64 NEON (2 x double lanes)
};

const char* to_string(Level level) noexcept;

/// Best level this host can execute (ignores the environment).
Level detected_level() noexcept;

/// The level kernels dispatch on: detected_level() unless PAC_SIMD
/// disables it or a ScopedForceLevel override is active.  Resolved once
/// (first call) and cached.
Level level() noexcept;

/// One-line human-readable dispatch summary for logs / --print-simd.
const char* describe() noexcept;

namespace detail {
/// Pure env-string -> enabled mapping, exposed for tests ("0", "off",
/// "scalar" disable; unset/anything else keeps the detected level).
bool env_value_enables(const char* value) noexcept;
}  // namespace detail

/// Scoped dispatch override for tests and benches.  Requests above what the
/// host supports clamp down to detected_level(); kScalar always works.
/// Not thread-safe against concurrent kernel callers — establish before
/// spawning workers (the EM pool is created after random_init resolves).
class ScopedForceLevel {
 public:
  explicit ScopedForceLevel(Level request) noexcept;
  ~ScopedForceLevel();

  ScopedForceLevel(const ScopedForceLevel&) = delete;
  ScopedForceLevel& operator=(const ScopedForceLevel&) = delete;

  /// The level actually in force (after clamping).
  Level effective() const noexcept { return effective_; }

 private:
  Level effective_;
  int previous_;  // previous override slot value (-1 = none)
};

// ---------------------------------------------------------------------------
// Bit-identical E-step block kernels, the bodies of the Term::log_prob_batch
// overrides.  Every kernel *accumulates* into out[(i) * stride] for i in
// [0, n); each dispatches on level() and runs at any level.
// ---------------------------------------------------------------------------

/// lp = -0.5*(kLog2Pi + z*z) - log_sigma + log_error with z = (x-mean)/sigma;
/// NaN x (missing) contributes exactly 0.0.
void gaussian_log_prob(const double* x, std::size_t n, double mean,
                       double sigma, double log_sigma, double log_error,
                       double* out, std::size_t stride) noexcept;

/// lp = -0.5*(kLog2Pi + z*z) - log_sigma - lx + log_error over the
/// precomputed log column; NaN lx contributes exactly 0.0.
void lognormal_log_prob(const double* lx, std::size_t n, double mean,
                        double sigma, double log_sigma, double log_error,
                        double* out, std::size_t stride) noexcept;

/// Table walk: out += table[v[i]], missing (v < 0) takes missing_lp.
void multinomial_log_prob(const std::int32_t* v, std::size_t n,
                          const double* table, double missing_lp, double* out,
                          std::size_t stride) noexcept;

/// Multivariate normal over `d` column pointers starting at item i0:
/// diff = x - mean, lane-wise forward solve against the Cholesky factor
/// (params layout mean|chol|logdet as in MultiNormalTerm), squared-norm in
/// row order, lp = -0.5*(d*kLog2Pi + logdet + maha) + log_error_sum.
/// Requires d <= 32 and complete rows (the term forbids missing values).
void multinormal_log_prob(const double* const* cols, std::size_t d,
                          std::size_t i0, std::size_t n, const double* params,
                          double log_error_sum, double* out,
                          std::size_t stride) noexcept;

// ---------------------------------------------------------------------------
// Deterministic exp / log and the class-major tile kernels.  libm-free:
// a fixed operation sequence with no FMA, evaluated lane by lane, so the
// output is memcmp-equal at every dispatch level and on every libm.  They
// run at any level (the portable loop is the reference).
// ---------------------------------------------------------------------------

/// y[i] = exp(x[i]) for i in [0, n); x == y is allowed.  Cody–Waite
/// reduction x = n ln2 + r, a degree-13 Horner polynomial for exp(r), then
/// a two-step 2^n scale (so exp near the overflow and subnormal edges rounds
/// once).  Within 1 ulp of glibc's exp; exp(+-0) = 1 exactly,
/// exp(-inf) = +0, exp(+inf) = +inf, NaN propagates.
void det_exp(const double* x, double* y, std::size_t n) noexcept;

/// y[i] = log(x[i]) for i in [0, n); x == y is allowed.  x = 2^k m with m
/// in [sqrt(2)/2, sqrt(2)), then log m from the atanh series in
/// s = (m-1)/(m+1).  Within 1 ulp of glibc's log; log(1) = 0 exactly,
/// log(+-0) = -inf, log(+inf) = +inf, negative or NaN x gives the default
/// quiet NaN.
void det_log(const double* x, double* y, std::size_t n) noexcept;

/// The one normalizer of the E-step, the reports and prediction.  `tile`
/// holds the log-joint values of n items under j classes, class-major:
/// item i's value under class k is tile[k * ld + i], with ld >= n.  (With
/// n == 1 and ld == 1 the tile is a single row of j values.)  Item by item
/// it turns them into posterior memberships in place and writes
/// lse[i] = log sum_k exp(value under class k):
///
///   1. m = the item's max over its classes, checked before any value is
///      overwritten: an item whose m is not finite (all -inf, a +inf entry,
///      or j == 0) or that holds a NaN is *degenerate*;
///   2. every value becomes det_exp(value - m) (one exp per item-class);
///   3. s = those exponentials added in class order, every value is
///      multiplied by 1 / s, and lse = m + det_log(s).
///
/// Returns n when every item was normalized.  Otherwise returns the index i
/// of the first degenerate item: items [0, i) are normalized, items [i, n)
/// and lse[i, n) are left exactly as they were.  Each item's result
/// depends on its own values alone, never on n, ld or the dispatch level;
/// the AVX2 body runs the passes across four items at a time.
std::size_t normalize_columns(double* tile, std::size_t n, std::size_t j,
                              std::size_t ld, double* lse) noexcept;

/// Transposes a class-major tile (as normalize_columns) into row-major
/// rows: rows[i * j + k] = tile[k * ld + i].  If `sums` is not null, it
/// also adds every class's values into sums[k] in item order (the E-step's
/// W_j fold).  Pure copies and per-class adds, so every dispatch level
/// gives the same bits.
void columns_to_rows(const double* tile, std::size_t n, std::size_t j,
                     std::size_t ld, double* rows, double* sums) noexcept;

// ---------------------------------------------------------------------------
// M-step moment folds (the only Term::accumulate_batch folds of the normal
// families).  Weighted-moment reductions in the fixed 4-lane association
// documented above; items with w <= 0 or a missing value add a zero, which
// equals skipping them (a lane starts at +0.0, so it never holds -0.0).
// They run at any level (the portable unrolled fold is the reference).
// ---------------------------------------------------------------------------

/// stats[0..2] += (sum w, sum w*x, sum (w*x)*x) over the block, weights
/// strided by wstride; NaN x lanes masked to zero.
void gaussian_accumulate(const double* x, const double* weights,
                         std::size_t wstride, std::size_t n,
                         double* stats) noexcept;

/// Weighted outer-product fold for the multivariate normal statistics
/// layout [sw | swx[d] | swxx[d*d] lower triangle]: each slot accumulates
/// in the fixed 4-lane association.  Requires d <= 32.
void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t i0, std::size_t n,
                            const double* weights, std::size_t wstride,
                            double* stats) noexcept;

}  // namespace pac::simd

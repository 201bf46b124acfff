// The deterministic math of util/simd.hpp: det_exp, det_log and the
// class-major tile kernels shared by the E-step, the reports and
// prediction.  Their contract (DESIGN.md §5) is bit-level: the same bits at
// every dispatch level and on every libm.  So these tests pin committed
// hexfloat goldens, compare the forced-scalar reference with the detected
// level by memcmp, and bound the distance to glibc in ulps.  The LogSumExp
// suites pin the normalizer's lse output, which replaced util/math's
// logsumexp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace pac::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The two dispatch levels every bit-level check runs at (the second
/// clamps to kScalar on hosts without a vector unit).
constexpr Level kLevels[] = {Level::kScalar, Level::kAvx2};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_bits(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

/// Distance in units in the last place between two finite doubles (or two
/// equal infinities): their bit patterns mapped onto a monotone integer line.
std::int64_t ulp_distance(double a, double b) {
  const auto line = [](double x) {
    const auto i = std::bit_cast<std::int64_t>(x);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = line(a) - line(b);
  return d < 0 ? -d : d;
}

std::vector<double> eval(void (*fn)(const double*, double*, std::size_t),
                         const std::vector<double>& x, Level level) {
  const ScopedForceLevel pin(level);
  std::vector<double> y(x.size());
  fn(x.data(), y.data(), x.size());
  return y;
}

/// Inputs across the whole exp domain plus a dense band around zero, where
/// the E-step evaluates almost all of its exponentials (x - max <= 0).
std::vector<double> exp_sweep(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0: x[i] = uniform_in(rng, -745.2, 709.78); break;
      case 1: x[i] = uniform_in(rng, -1.0, 1.0); break;
      case 2: x[i] = uniform_in(rng, -40.0, 0.0); break;
      default: x[i] = uniform_in(rng, -745.2, -700.0); break;  // subnormal
    }
  }
  return x;
}

std::vector<double> log_sweep(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0: x[i] = uniform_in(rng, 1.0, 40.0); break;  // normalizer sums
      case 1: x[i] = uniform_in(rng, 0.5, 2.0); break;
      default:  // any positive finite bit pattern, subnormals included
        x[i] = std::bit_cast<double>(rng() & 0x7fefffffffffffffULL);
        break;
    }
  }
  return x;
}

/// Edge inputs appended to every sweep: signed zeros, the overflow and
/// underflow thresholds, infinities and NaN.
const std::vector<double> kEdges = {
    0.0,    -0.0,     1.0,     -1.0,  -708.0, -745.13, -745.2, -746.0,
    709.78, 709.79,   710.0,   -kInf, kInf,   kNaN,    1e300,  -1e300,
    0x1p-1074, 0x1p-1022, 0x1.fffffffffffffp1023};

// ---- det_exp ----

TEST(SimdExp, MatchesCommittedGoldens) {
  // {x, det_exp(x)}: any compiler or ISA change that moves a bit fails.
  const double golden[][2] = {
      {0x0p+0, 0x1p+0},
      {-0x0p+0, 0x1p+0},
      {0x1p+0, 0x1.5bf0a8b14576ap+1},
      {-0x1p+0, 0x1.78b56362cef38p-2},
      {0x1.62e42fefa39efp-1, 0x1p+1},
      {0x1.b7cdfd9d7bdbbp-34, 0x1.000000006df38p+0},
      {-0x1.48p+4, 0x1.57a3afeed00acp-30},
      {-0x1.62p+9, 0x1.7c8ab2288c9acp-1022},
      {-0x1.62cp+9, 0x0.54e90c99fb878p-1022},
      {-0x1.68p+9, 0x0.0000993b4dc95p-1022},
      {-0x1.6dp+9, 0x0.00000001c7ea3p-1022},
      {-0x1.72p+9, 0x0.0000000000055p-1022},
      {-0x1.744p+9, 0x0.0000000000001p-1022},
      {-0x1.748p+9, 0x0.0000000000001p-1022},
      {-0x1.748cccccccccdp+9, 0x0.0000000000001p-1022},
      {-0x1.749999999999ap+9, 0x0p+0},
      {-0x1.75p+9, 0x0p+0},
      {-0x1.7e43c8800759cp+996, 0x0p+0},
      {-kInf, 0x0p+0},
      {0x1.62ccccccccccdp+6, 0x1.f4705bbffae5cp+127},
      {0x1.5ep+9, 0x1.d945df4f8ec8ep+1009},
      {0x1.62e3d70a3d70ap+9, 0x1.fe9ce5c4c52b4p+1023},
      {0x1.62e51eb851eb8p+9, kInf},
      {0x1.7e43c8800759cp+996, kInf},
      {kInf, kInf},
      {kNaN, kNaN},
  };
  for (const Level level : kLevels) {
    const ScopedForceLevel pin(level);
    for (const auto& [x, want] : golden) {
      double got = 0.0;
      det_exp(&x, &got, 1);
      EXPECT_TRUE(same_bits(got, want))
          << std::hexfloat << "det_exp(" << x << ") = " << got << ", golden "
          << want << " at " << to_string(level);
    }
  }
}

TEST(SimdExp, ScalarAndVectorLevelsAreMemcmpEqual) {
  std::vector<double> x = exp_sweep(400001, 11);  // not a multiple of 4
  x.insert(x.end(), kEdges.begin(), kEdges.end());
  expect_same_bits(eval(det_exp, x, Level::kScalar),
                   eval(det_exp, x, Level::kAvx2));
  // Short calls exercise every tail length of the vector loop.
  for (std::size_t n = 1; n <= 13; ++n) {
    const std::vector<double> part(x.begin(), x.begin() + n);
    expect_same_bits(eval(det_exp, part, Level::kScalar),
                     eval(det_exp, part, Level::kAvx2));
  }
}

TEST(SimdExp, WithinOneUlpOfLibm) {
  std::vector<double> x = exp_sweep(1000000, 13);
  x.insert(x.end(), kEdges.begin(), kEdges.end());
  const std::vector<double> y = eval(det_exp, x, Level::kScalar);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref = std::exp(x[i]);
    if (std::isnan(ref)) {
      EXPECT_TRUE(std::isnan(y[i])) << std::hexfloat << x[i];
      continue;
    }
    const std::int64_t d = ulp_distance(y[i], ref);
    ASSERT_LE(d, 1) << std::hexfloat << "x = " << x[i] << ": " << y[i]
                    << " vs libm " << ref;
    worst = std::max(worst, d);
  }
  RecordProperty("worst_ulp", static_cast<int>(worst));
}

// ---- det_log ----

TEST(SimdLog, MatchesCommittedGoldens) {
  const double golden[][2] = {
      {0x1p+0, 0x0p+0},
      {0x1p+1, 0x1.62e42fefa39efp-1},
      {0x1p-1, -0x1.62e42fefa39efp-1},
      {0x1.8p+1, 0x1.193ea7aad030ap+0},
      {0x1p+3, 0x1.0a2b23f3bab73p+1},
      {0x1.08p+5, 0x1.bf8d8f4d5b8d1p+1},
      {0x1.0000000000001p+0, 0x1.fffffffffffffp-53},
      {0x1.fffffffffffffp-1, -0x1p-53},
      {0x1.dp+2, 0x1.fb22e98a1c24ep+0},
      {0x1.56e1fc2f8f359p-997, -0x1.5963447f87fb5p+9},
      {0x1.7e43c8800759cp+996, 0x1.5963447f87fb5p+9},
      {0x0.0000000000001p-1022, -0x1.74385446d71c3p+9},
      {0x0.00000018p-1022, -0x1.6bb314df5fc75p+9},
      {0x1p-1022, -0x1.6232bdd7abcd2p+9},
      {0x1.fffffffffffffp+1023, 0x1.62e42fefa39efp+9},
      {0x0p+0, -kInf},
      {-0x0p+0, -kInf},
      {kInf, kInf},
      {-1.0, kNaN},
      {-kInf, kNaN},
      {kNaN, kNaN},
  };
  for (const Level level : kLevels) {
    const ScopedForceLevel pin(level);
    for (const auto& [x, want] : golden) {
      double got = 0.0;
      det_log(&x, &got, 1);
      EXPECT_TRUE(same_bits(got, want))
          << std::hexfloat << "det_log(" << x << ") = " << got << ", golden "
          << want << " at " << to_string(level);
    }
  }
}

TEST(SimdLog, ScalarAndVectorLevelsAreMemcmpEqual) {
  std::vector<double> x = log_sweep(300001, 21);
  x.insert(x.end(), kEdges.begin(), kEdges.end());
  expect_same_bits(eval(det_log, x, Level::kScalar),
                   eval(det_log, x, Level::kAvx2));
  for (std::size_t n = 1; n <= 13; ++n) {
    const std::vector<double> part(x.end() - n, x.end());
    expect_same_bits(eval(det_log, part, Level::kScalar),
                     eval(det_log, part, Level::kAvx2));
  }
}

TEST(SimdLog, WithinOneUlpOfLibm) {
  // Measured bound: 1 ulp over this sweep (and over 1.7M inputs while the
  // kernel was developed); about 5% of results differ from glibc by 1.
  std::vector<double> x = log_sweep(600000, 22);
  const std::vector<double> y = eval(det_log, x, Level::kScalar);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_LE(ulp_distance(y[i], std::log(x[i])), 1)
        << std::hexfloat << "x = " << x[i] << ": " << y[i] << " vs libm "
        << std::log(x[i]);
}

// ---- the class-major normalizer ----

/// Test-side sequential logsumexp over libm: the independent reference.
double reference_lse(std::span<const double> row) {
  double m = -kInf;
  for (const double v : row) m = std::max(m, v);
  double s = 0.0;
  for (const double v : row) s += std::exp(v - m);
  return m + std::log(s);
}

/// `rows` x `j` log-joint values on the E-step's scales, with a few -inf
/// entries (zero-support classes) but never a whole -inf row.
std::vector<double> random_rows(std::size_t rows, std::size_t j,
                                std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<double> v(rows * j);
  for (std::size_t r = 0; r < rows; ++r) {
    const double scale = r % 3 == 0 ? 2.0 : r % 3 == 1 ? 30.0 : 400.0;
    for (std::size_t k = 0; k < j; ++k)
      v[r * j + k] = -1000.0 + scale * uniform_in(rng, -1.0, 1.0);
    if (j > 1 && r % 5 == 0) v[r * j + (r % j)] = -kInf;
  }
  return v;
}

/// Value of the ld - n padding slots of every test tile column: the
/// normalizer must leave them alone.
constexpr double kPad = 42.0;

/// The class-major tile of the row-major `rows` (n x j): class k's column
/// at k * ld, padded with kPad.
std::vector<double> to_tile(std::span<const double> rows, std::size_t n,
                            std::size_t j, std::size_t ld) {
  std::vector<double> tile(j * ld, kPad);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = 0; k < j; ++k) tile[k * ld + r] = rows[r * j + k];
  return tile;
}

/// Item r of a class-major tile, as a row.
std::vector<double> item_row(std::span<const double> tile, std::size_t r,
                             std::size_t j, std::size_t ld) {
  std::vector<double> row(j);
  for (std::size_t k = 0; k < j; ++k) row[k] = tile[k * ld + r];
  return row;
}

TEST(NormalizeKernel, RowsSumToOneAndLseMatchesReferenceForEveryJ) {
  for (std::size_t j = 1; j <= 33; ++j) {
    const std::size_t n = 37;
    const std::vector<double> input = random_rows(n, j, 100 + j);
    std::vector<std::vector<double>> out;
    std::vector<std::vector<double>> lses;
    for (const Level level : kLevels) {
      const ScopedForceLevel pin(level);
      std::vector<double> tile = to_tile(input, n, j, n);
      std::vector<double> lse(n);
      ASSERT_EQ(normalize_columns(tile.data(), n, j, n, lse.data()), n);
      for (std::size_t r = 0; r < n; ++r) {
        double sum = 0.0;
        for (std::size_t k = 0; k < j; ++k) {
          const double w = tile[k * n + r];
          ASSERT_GE(w, 0.0);
          ASSERT_LE(w, 1.0);
          sum += w;
        }
        ASSERT_NEAR(sum, 1.0, 1e-15) << "J=" << j << " item " << r;
        const double ref =
            reference_lse({input.data() + r * j, j});
        ASSERT_LE(std::abs(lse[r] - ref), 1e-13 * std::max(1.0, std::abs(ref)))
            << "J=" << j << " item " << r;
      }
      out.push_back(tile);
      lses.push_back(lse);
    }
    expect_same_bits(out[0], out[1]);
    expect_same_bits(lses[0], lses[1]);
  }
}

TEST(NormalizeKernel, EachRowDependsOnItselfAlone) {
  // One call over a 600-item tile (ld > n) equals 600 one-item calls on
  // the items' own rows (n = ld = 1): so the E-step's tiles, the report
  // tiles and a single membership() row all produce the same bits.
  const std::size_t n = 600, j = 7, ld = 613;
  const std::vector<double> rows = random_rows(n, j, 7);
  for (const Level level : kLevels) {
    const ScopedForceLevel pin(level);
    std::vector<double> tile = to_tile(rows, n, j, ld);
    std::vector<double> single = rows;
    std::vector<double> tile_lse(n), single_lse(n);
    ASSERT_EQ(normalize_columns(tile.data(), n, j, ld, tile_lse.data()), n);
    for (std::size_t r = 0; r < n; ++r)
      ASSERT_EQ(normalize_columns(single.data() + r * j, 1, j, 1,
                                  &single_lse[r]),
                1u);
    expect_same_bits(tile, to_tile(single, n, j, ld));
    expect_same_bits(tile_lse, single_lse);
  }
}

TEST(NormalizeKernel, MaxClassGetsExactlyOneOverSum) {
  // exp(max - max) = exp(0) = 1 exactly, so the largest membership is the
  // reciprocal of the row sum (mean_max_membership relies on this).
  const double row_in[] = {-3.0, -1.0, -2.5, -1.0 - 1e-9, -7.0};
  std::vector<double> row(std::begin(row_in), std::end(row_in));
  double lse = 0.0;
  ASSERT_EQ(normalize_columns(row.data(), 1, row.size(), 1, &lse), 1u);
  double e[5];
  for (int k = 0; k < 5; ++k) e[k] = row_in[k] - (-1.0);
  det_exp(e, e, 5);
  double s = 0.0;
  for (const double v : e) s += v;
  EXPECT_EQ(row[1], 1.0 / s);
  EXPECT_EQ(*std::max_element(row.begin(), row.end()), row[1]);
}

TEST(NormalizeKernel, TileShapesMatchPortableAndOneItemCalls) {
  // Every J of the ladder, item counts on both sides of the 4-item lane
  // groups (and of a 256-item block), tiles with ld == n and ld > n: the
  // vector level is memcmp-equal to the portable body (tile, padding and
  // lse), and every item equals a one-item call on its own row.
  for (const std::size_t j : {1, 2, 3, 4, 5, 8, 31}) {
    for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 9, 255, 256, 257}) {
      for (const std::size_t ld : {n, n + 3}) {
        SCOPED_TRACE(testing::Message()
                     << "J=" << j << " n=" << n << " ld=" << ld);
        const std::vector<double> rows = random_rows(n, j, 7 * j + n);
        std::vector<std::vector<double>> tiles, lses;
        for (const Level level : kLevels) {
          const ScopedForceLevel pin(level);
          std::vector<double> tile = to_tile(rows, n, j, ld);
          std::vector<double> lse(n + 1, kPad);
          ASSERT_EQ(normalize_columns(tile.data(), n, j, ld, lse.data()), n);
          EXPECT_EQ(lse[n], kPad);
          tiles.push_back(tile);
          lses.push_back(lse);
        }
        expect_same_bits(tiles[0], tiles[1]);
        expect_same_bits(lses[0], lses[1]);
        for (std::size_t k = 0; k < j; ++k)
          for (std::size_t r = n; r < ld; ++r)
            ASSERT_EQ(tiles[1][k * ld + r], kPad);
        for (std::size_t r = 0; r < n; ++r) {
          std::vector<double> row(rows.begin() + r * j,
                                  rows.begin() + (r + 1) * j);
          double lse = 0.0;
          ASSERT_EQ(normalize_columns(row.data(), 1, j, 1, &lse), 1u);
          expect_same_bits(item_row(tiles[1], r, j, ld), row);
          ASSERT_TRUE(same_bits(lses[1][r], lse)) << "item " << r;
        }
      }
    }
  }
}

/// Degenerate-row inputs: a NaN in the middle, a +inf entry, an all -inf
/// row at a J that is not a multiple of 4, and a NaN in the first class.
std::vector<std::vector<double>> degenerate_rows() {
  return {
      {-1.0, -2.0, kNaN, -0.5, -3.0},
      {-1.0, kInf, -2.0, -0.5, -3.0},
      {-kInf, -kInf, -kInf, -kInf, -kInf},
      {kNaN, -2.0, -1.0, -0.5, -3.0},
  };
}

/// Plants `poison` as item `bad` of a random n-item J=5 tile (ld = n + 2)
/// and checks, at every level, that the normalizer returns `bad` with the
/// prefix normalized exactly as on its own and the degenerate item, every
/// later item, the padding and lse[bad, n) untouched.
void expect_stops_at(const std::vector<double>& poison, std::size_t n,
                     std::size_t bad) {
  const std::size_t j = 5, ld = n + 2;
  std::vector<double> rows = random_rows(n, j, 31);
  std::copy(poison.begin(), poison.end(), rows.begin() + bad * j);
  const std::vector<double> input = to_tile(rows, n, j, ld);
  for (const Level level : kLevels) {
    const ScopedForceLevel pin(level);
    SCOPED_TRACE(testing::Message() << "item " << bad << " of " << n << " "
                                    << to_string(level));
    std::vector<double> tile = input;
    std::vector<double> lse(n, kPad);
    ASSERT_EQ(normalize_columns(tile.data(), n, j, ld, lse.data()), bad);
    // The prefix is normalized exactly as it would be on its own...
    std::vector<double> prefix = input;
    std::vector<double> prefix_lse(bad);
    ASSERT_EQ(normalize_columns(prefix.data(), bad, j, ld, prefix_lse.data()),
              bad);
    expect_same_bits({lse.data(), bad}, prefix_lse);
    for (std::size_t k = 0; k < j; ++k) {
      expect_same_bits({tile.data() + k * ld, bad},
                       {prefix.data() + k * ld, bad});
      // ...and the degenerate item and everything after it are untouched.
      expect_same_bits({tile.data() + k * ld + bad, ld - bad},
                       {input.data() + k * ld + bad, ld - bad});
    }
    for (std::size_t r = bad; r < n; ++r) EXPECT_EQ(lse[r], kPad);
  }
}

TEST(NormalizeKernel, DegenerateRowStopsTheBlockBeforeItIsTouched) {
  for (const std::vector<double>& poison : degenerate_rows())
    expect_stops_at(poison, 9, 6);
}

TEST(NormalizeKernel, DegenerateItemAtEveryLaneAndInTheTail) {
  // 11 items: two full 4-item lane groups and a 3-item tail, so the bad
  // item sits at each lane position 0-3 and at each tail position.
  for (const std::vector<double>& poison : degenerate_rows())
    for (std::size_t bad = 0; bad < 11; ++bad) expect_stops_at(poison, 11, bad);
}

TEST(NormalizeKernel, EmptyBlockIsANoOp) {
  double lse = 42.0;
  EXPECT_EQ(normalize_columns(nullptr, 0, 4, 0, &lse), 0u);
  EXPECT_EQ(lse, 42.0);
}

TEST(TileKernel, ColumnsToRowsTransposesAndFoldsInItemOrder) {
  // rows = the transpose; sums[k] += the column in item order, the
  // E-step's W_j fold, with no reassociation at any level.
  for (const std::size_t j : {1, 3, 4, 5, 8, 31}) {
    for (const std::size_t n : {1, 3, 4, 7, 128, 256}) {
      SCOPED_TRACE(testing::Message() << "J=" << j << " n=" << n);
      const std::size_t ld = n + 1;
      const std::vector<double> rows = random_rows(n, j, 3 * j + n);
      std::vector<double> tile = to_tile(rows, n, j, ld);
      for (double& v : tile) v = std::isinf(v) ? 0.5 : std::exp(v / 1000.0);
      std::vector<double> ref_sums(j, 0.25);
      for (std::size_t k = 0; k < j; ++k)
        for (std::size_t r = 0; r < n; ++r) ref_sums[k] += tile[k * ld + r];
      for (const Level level : kLevels) {
        const ScopedForceLevel pin(level);
        std::vector<double> out(n * j, -1.0), sums(j, 0.25);
        columns_to_rows(tile.data(), n, j, ld, out.data(), sums.data());
        for (std::size_t r = 0; r < n; ++r)
          expect_same_bits({out.data() + r * j, j}, item_row(tile, r, j, ld));
        expect_same_bits(sums, ref_sums);
        std::vector<double> bare(n * j, -1.0);
        columns_to_rows(tile.data(), n, j, ld, bare.data(), nullptr);
        expect_same_bits(bare, out);
      }
    }
  }
}

// ---- LogSumExp: the normalizer's lse output ----

/// lse of one row through the normalizer; `degenerate` reports a row it
/// refused (the row then has no finite log-sum-exp).
double row_lse(std::vector<double> row, bool* degenerate = nullptr) {
  double lse = 0.0;
  const bool ok = normalize_columns(row.data(), 1, row.size(), 1, &lse) == 1;
  if (degenerate != nullptr) *degenerate = !ok;
  return ok ? lse : -kInf;
}

TEST(LogSumExp, EmptyIsMinusInfinity) {
  // An empty row's max is -inf: no finite log-sum-exp, so it is degenerate.
  bool degenerate = false;
  EXPECT_EQ(row_lse({}, &degenerate), -kInf);
  EXPECT_TRUE(degenerate);
}

TEST(LogSumExp, SingleValueIsIdentity) {
  EXPECT_EQ(row_lse({-3.5}), -3.5);  // -3.5 + det_log(exp(0)) = -3.5 + 0
}

TEST(LogSumExp, MatchesDirectComputationInSafeRange) {
  const std::vector<double> v = {-1.0, 0.5, 2.0, -0.3};
  double direct = 0.0;
  for (const double x : v) direct += std::exp(x);
  EXPECT_NEAR(row_lse(v), std::log(direct), 1e-12);
}

TEST(LogSumExp, StableForLargeMagnitudes) {
  const double r = row_lse({-1000.0, -1000.5, -999.0});
  EXPECT_TRUE(std::isfinite(r));
  EXPECT_GT(r, -999.0);        // >= max
  EXPECT_LT(r, -999.0 + 1.2);  // <= max + log(n)
}

TEST(LogSumExp, DominatedByMaximum) {
  EXPECT_NEAR(row_lse({0.0, -800.0}), 0.0, 1e-12);
}

TEST(LogSumExp2, AgreesWithVectorVersion) {
  // Two-class rows against the test-side sequential logsumexp.
  Xoshiro256ss g(5);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> v = {uniform_in(g, -50.0, 50.0),
                                   uniform_in(g, -50.0, 50.0)};
    EXPECT_NEAR(row_lse(v), reference_lse(v), 1e-12);
  }
}

TEST(LogSumExp2, HandlesInfinities) {
  // exp(-inf - 3) = 0 exactly, so the sum is 1 and the lse exactly 3.
  EXPECT_EQ(row_lse({-kInf, 3.0}), 3.0);
  EXPECT_EQ(row_lse({3.0, -kInf}), 3.0);
  bool degenerate = false;
  row_lse({-kInf, -kInf}, &degenerate);
  EXPECT_TRUE(degenerate);
}

}  // namespace
}  // namespace pac::simd

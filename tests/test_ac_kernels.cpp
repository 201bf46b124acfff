// Kernel-layer tests: the batched Term::log_prob_batch E-step kernels must
// be *bit-identical* over a block to one-item calls of the same kernel
// (term_reference.hpp), and the Term::accumulate_batch M-step kernels to a
// reference built out of one-item folds in the family's pinned
// association, for every term family, with and without missing values, at
// every SIMD level — the determinism contract of DESIGN.md's kernel
// section.  The blocked EM drivers must match a per-item rebuild of their
// contract and be invariant in the thread count (EmConfig::threads /
// PAC_EM_THREADS): per-block partials folded in block-index order make
// every trajectory a pure function of the block size.  Also covers the
// degenerate-row guard and the seed-item draw fallback fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "autoclass/em.hpp"
#include "autoclass/report.hpp"
#include "data/synth.hpp"
#include "term_reference.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace pac::ac {
namespace {

using data::Attribute;
using data::Dataset;
using data::Schema;

void expect_bit_identical(std::span<const double> a,
                          std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;  // memcmp on an empty span's null data is UB
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// ---- term-level: log_prob_batch over a block vs one item at a time ----

/// Fit one class's parameters over the whole dataset (w = 1) so the batch
/// kernels are exercised at realistic parameter values.
std::vector<double> fit_term_params(const Term& term, std::size_t n) {
  std::vector<double> stats(term.stats_size(), 0.0);
  for (std::size_t i = 0; i < n; ++i) accumulate_one(term, i, 1.0, stats);
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  return params;
}

/// Batch accumulation into a non-trivial base row, at stride 1 and a
/// strided layout, must match one-item calls bit-for-bit.  Appends every
/// batch output to `outputs`.
void expect_term_batch_matches_per_item(const Model& model,
                                        std::vector<double>& outputs) {
  const std::size_t n = model.dataset().num_items();
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    const Term& term = model.term(t);
    const std::vector<double> params = fit_term_params(term, n);
    std::vector<double> per_item(n), batch(n);
    for (std::size_t i = 0; i < n; ++i)
      per_item[i] = batch[i] = -0.25 * static_cast<double>(i % 7);
    for (std::size_t i = 0; i < n; ++i)
      per_item[i] = log_prob_one(term, i, params, per_item[i]);
    term.log_prob_batch(data::ItemRange{0, n}, params, batch.data(), 1);
    expect_bit_identical(batch, per_item);

    // Strided (one class-column of a J=3 row buffer), partial range.
    const data::ItemRange part{n / 4, n - n / 7};
    std::vector<double> strided(n * 3, 1.0);
    term.log_prob_batch(part, params, strided.data() + n / 4 * 3 + 1, 3);
    for (std::size_t i = part.begin; i < part.end; ++i) {
      const double expected = log_prob_one(term, i, params, 1.0);
      ASSERT_EQ(strided[i * 3 + 1], expected) << "term " << t << " item " << i;
      ASSERT_EQ(strided[i * 3], 1.0);      // neighbours untouched
      ASSERT_EQ(strided[i * 3 + 2], 1.0);
    }
    outputs.insert(outputs.end(), batch.begin(), batch.end());
    outputs.insert(outputs.end(), strided.begin(), strided.end());
  }
}

/// The one-item calls run the kernels' scalar tail, the blocks their vector
/// lanes: check at both dispatch levels, and that the two levels' blocks
/// are memcmp-equal (on scalar-only hosts the two runs coincide).
void expect_log_prob_kernels_match_per_item(const Model& model) {
  std::vector<double> outputs[2];
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    const simd::ScopedForceLevel pin(level);  // AVX2 clamps to detected
    expect_term_batch_matches_per_item(
        model, outputs[level == simd::Level::kScalar ? 0 : 1]);
  }
  expect_bit_identical(outputs[1], outputs[0]);
}

TEST(TermKernels, SingleNormalWithMissing) {
  data::LabeledDataset ld = data::paper_dataset(700, 21);
  data::inject_missing(ld.dataset, 0.2, 5);
  expect_log_prob_kernels_match_per_item(Model::default_model(ld.dataset));
}

TEST(TermKernels, SingleMultinomialWithMissing) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.5, {{0.7, 0.2, 0.1}, {0.6, 0.4}}},
      {0.5, {{0.1, 0.2, 0.7}, {0.3, 0.7}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 600, 22);
  data::inject_missing(ld.dataset, 0.2, 6);
  expect_log_prob_kernels_match_per_item(Model::default_model(ld.dataset));
  // Missing-as-extra-symbol policy changes the missing branch: cover both.
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_log_prob_kernels_match_per_item(Model::default_model(ld.dataset, config));
}

TEST(TermKernels, MultiNormalBlock) {
  const double r = 0.8;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {3.0, 1.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 500, 23);
  expect_log_prob_kernels_match_per_item(Model::correlated_model(ld.dataset));
}

TEST(TermKernels, SingleLognormalWithMissing) {
  Dataset d(Schema({Attribute::real("x", 0.01)}), 400);
  Xoshiro256ss rng(24);
  for (std::size_t i = 0; i < 400; ++i)
    d.set_real(i, 0, std::exp(0.5 + 0.8 * normal01(rng)));
  for (std::size_t i = 0; i < 400; i += 9) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_log_prob_kernels_match_per_item(Model(d, {spec}));
}

TEST(TermKernels, IgnoreTermIsANoOp) {
  const data::LabeledDataset ld = data::paper_dataset(100, 25);
  TermSpec normal{TermKind::kSingleNormal, {0}};
  TermSpec ignore{TermKind::kIgnore, {1}};
  const Model model(ld.dataset, {normal, ignore});
  expect_log_prob_kernels_match_per_item(model);
}

// ---- term-level: accumulate_batch vs the pinned-association reference ----

/// Synthetic membership column: varied magnitudes with exact zeros and
/// negatives sprinkled in (the w <= 0 entries the M-step skips).
std::vector<double> synthetic_weights(std::size_t n, std::size_t stride) {
  std::vector<double> w(n * stride, -1.0);  // off-column slots are poison
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.05 + 0.9 * static_cast<double>((i * 37) % 101) / 101.0;
    if (i % 5 == 0) v = 0.0;          // skipped
    if (i % 11 == 3) v = -0.25;       // skipped
    if (i % 7 == 2) v = 1e-12;        // kept: tiny but positive
    w[i * stride] = v;
  }
  return w;
}

/// The contract of Term::accumulate_batch, built out of one-item folds.  Multinomial and ignore fold in item order straight into
/// `stats`.  The moment families use the 4-lane association: over the full
/// groups of four, item q goes to lane q % 4 of four zeroed stat buffers
/// (skipped unless w > 0); the lanes combine slot by slot as
/// ((l0+l1)+l2)+l3; the tail items fold into the combination in item
/// order; finally stats += combined.
void reference_accumulate(const Term& term, data::ItemRange range,
                          const double* weights, std::size_t stride,
                          std::span<double> stats) {
  const std::size_t n = range.size();
  const TermKind kind = term.spec().kind;
  if (kind == TermKind::kSingleMultinomial || kind == TermKind::kIgnore) {
    for (std::size_t q = 0; q < n; ++q)
      if (weights[q * stride] > 0.0)
        accumulate_one(term, range.begin + q, weights[q * stride], stats);
    return;
  }
  const std::size_t size = term.stats_size();
  const std::size_t full = n - n % 4;
  std::vector<double> lanes(4 * size, 0.0);
  for (std::size_t q = 0; q < full; ++q)
    if (weights[q * stride] > 0.0)
      accumulate_one(term, range.begin + q, weights[q * stride],
                     std::span<double>(lanes.data() + q % 4 * size, size));
  std::vector<double> combined(size);
  for (std::size_t s = 0; s < size; ++s)
    combined[s] = ((lanes[s] + lanes[size + s]) + lanes[2 * size + s]) +
                  lanes[3 * size + s];
  for (std::size_t q = full; q < n; ++q)
    if (weights[q * stride] > 0.0)
      accumulate_one(term, range.begin + q, weights[q * stride], combined);
  for (std::size_t s = 0; s < size; ++s) stats[s] += combined[s];
}

/// Batched accumulation over ranges of every tail length, a contiguous and
/// a strided (J=3 column) weight layout, and a non-zero base must match the
/// reference bit-for-bit, including the w <= 0 skips.
void expect_term_accumulate_matches_reference(const Model& model) {
  const std::size_t n = model.dataset().num_items();
  const std::size_t begin = n / 5;
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    const Term& term = model.term(t);
    for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
      const std::vector<double> w = synthetic_weights(n, stride);
      for (const std::size_t length :
           {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
            std::size_t{255}, std::size_t{256}, std::size_t{257}, n / 2,
            n - n / 5 - n / 9}) {
        const data::ItemRange part{begin, begin + std::min(length, n - begin)};
        // Non-zero base stats so additions (not overwrites) are checked.
        std::vector<double> reference(term.stats_size(), 0.125);
        std::vector<double> batch = reference;
        reference_accumulate(term, part, w.data(), stride, reference);
        term.accumulate_batch(part, w.data(), stride, batch);
        expect_bit_identical(batch, reference);
      }
    }
  }
}

/// The reference is the contract at every dispatch level: the AVX2 lanes
/// and the portable fold must both reproduce it.
void expect_mstep_kernels_match_reference(const Model& model) {
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    const simd::ScopedForceLevel pin(level);  // AVX2 clamps to detected
    expect_term_accumulate_matches_reference(model);
  }
}

TEST(TermMStepKernels, SingleNormalWithMissing) {
  data::LabeledDataset ld = data::paper_dataset(700, 21);
  data::inject_missing(ld.dataset, 0.2, 5);
  expect_mstep_kernels_match_reference(Model::default_model(ld.dataset));
}

TEST(TermMStepKernels, SingleMultinomialWithMissing) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.5, {{0.7, 0.2, 0.1}, {0.6, 0.4}}},
      {0.5, {{0.1, 0.2, 0.7}, {0.3, 0.7}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 600, 22);
  data::inject_missing(ld.dataset, 0.2, 6);
  expect_mstep_kernels_match_reference(Model::default_model(ld.dataset));
  // Missing-as-extra-symbol redirects missing items to the extra count
  // slot instead of skipping them: cover both policies.
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_mstep_kernels_match_reference(
      Model::default_model(ld.dataset, config));
}

TEST(TermMStepKernels, MultiNormalBlock) {
  const double r = 0.8;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {3.0, 1.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 500, 23);
  expect_mstep_kernels_match_reference(Model::correlated_model(ld.dataset));
}

TEST(TermMStepKernels, SingleLognormalWithMissing) {
  Dataset d(Schema({Attribute::real("x", 0.01)}), 400);
  Xoshiro256ss rng(24);
  for (std::size_t i = 0; i < 400; ++i)
    d.set_real(i, 0, std::exp(0.5 + 0.8 * normal01(rng)));
  for (std::size_t i = 0; i < 400; i += 9) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_mstep_kernels_match_reference(Model(d, {spec}));
}

TEST(TermMStepKernels, IgnoreTermIsANoOp) {
  const data::LabeledDataset ld = data::paper_dataset(100, 25);
  TermSpec normal{TermKind::kSingleNormal, {0}};
  TermSpec ignore{TermKind::kIgnore, {1}};
  expect_mstep_kernels_match_reference(Model(ld.dataset, {normal, ignore}));
}

// ---- EM-level: blocked update_wts vs a per-item rebuild ----

/// update_wts's outputs rebuilt item by item from its contract: each row is
/// log pi_k plus the terms' one-item log-probabilities in index order,
/// normalized on its own by the shared normalizer; W_j and the
/// (compensated) log-likelihood fold per kEStepBlock block in item order,
/// then block by block.
struct EStepReference {
  std::vector<double> weights;
  std::vector<double> class_weights;
  double log_likelihood = 0.0;
};

EStepReference reference_estep(const Classification& c,
                               data::ItemRange range) {
  const Model& model = c.model();
  const std::size_t j = c.num_classes();
  EStepReference ref;
  ref.weights.resize(range.size() * j);
  ref.class_weights.assign(j, 0.0);
  KahanSum loglike;
  for (std::size_t lo = range.begin; lo < range.end; lo += kEStepBlock) {
    std::vector<double> block_wj(j, 0.0);
    KahanSum block_loglike;
    for (std::size_t i = lo; i < std::min(lo + kEStepBlock, range.end); ++i) {
      double* row = ref.weights.data() + (i - range.begin) * j;
      for (std::size_t k = 0; k < j; ++k) {
        double lp = c.log_pi(k);
        for (std::size_t t = 0; t < model.num_terms(); ++t)
          lp = log_prob_one(model.term(t), i, c.param_block(k, t), lp);
        row[k] = lp;
      }
      double lse = 0.0;
      EXPECT_EQ(simd::normalize_columns(row, 1, j, 1, &lse), 1u)
          << "item " << i;
      block_loglike.add(lse);
      for (std::size_t k = 0; k < j; ++k) block_wj[k] += row[k];
    }
    for (std::size_t k = 0; k < j; ++k) ref.class_weights[k] += block_wj[k];
    loglike.add(block_loglike.value());
  }
  ref.log_likelihood = loglike.value();
  return ref;
}

/// Run `cycles` M/E cycles over `range` and require, after every E-step,
/// the weight matrix, class weights and log-likelihood bit-equal to the
/// per-item rebuild.
void expect_estep_bit_equal(const Model& model, std::size_t j,
                            std::uint64_t seed, int cycles = 3,
                            data::ItemRange range = {}) {
  if (range.empty()) range = {0, model.dataset().num_items()};
  Reducer identity;
  EmWorker worker(model, range, identity);
  Classification c(model, j);
  worker.random_init(c, seed, 0, EmConfig{});
  for (int cycle = 0; cycle < cycles; ++cycle) {
    worker.update_parameters(c);
    const double loglike = worker.update_wts(c);
    const EStepReference ref = reference_estep(c, range);
    ASSERT_EQ(loglike, ref.log_likelihood) << "cycle " << cycle;
    expect_bit_identical(worker.local_weights(), ref.weights);
    for (std::size_t k = 0; k < j; ++k)
      ASSERT_EQ(c.weight(k), ref.class_weights[k]) << "cycle " << cycle;
  }
}

TEST(UpdateWtsKernel, GaussianWithMissingBitEqualsScalar) {
  data::LabeledDataset ld = data::paper_dataset(1100, 26);
  data::inject_missing(ld.dataset, 0.15, 7);
  expect_estep_bit_equal(Model::default_model(ld.dataset), 4, 101);
}

TEST(UpdateWtsKernel, MultinomialWithMissingBitEqualsScalar) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.4, {{0.8, 0.1, 0.1}, {0.9, 0.1}}},
      {0.6, {{0.1, 0.1, 0.8}, {0.2, 0.8}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 900, 27);
  data::inject_missing(ld.dataset, 0.1, 8);
  expect_estep_bit_equal(Model::default_model(ld.dataset), 3, 102);
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_estep_bit_equal(Model::default_model(ld.dataset, config), 3, 102);
}

TEST(UpdateWtsKernel, MultiNormalBitEqualsScalar) {
  const double r = 0.9;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {0.0, 5.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 800, 28);
  expect_estep_bit_equal(Model::correlated_model(ld.dataset), 3, 103);
}

TEST(UpdateWtsKernel, LognormalWithMissingBitEqualsScalar) {
  Dataset d(Schema({Attribute::real("mass", 0.01)}), 777);
  Xoshiro256ss rng(29);
  for (std::size_t i = 0; i < 777; ++i)
    d.set_real(i, 0, std::exp(1.0 + 0.5 * normal01(rng)));
  for (std::size_t i = 3; i < 777; i += 11) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_estep_bit_equal(Model(d, {spec}), 3, 104);
}

TEST(UpdateWtsKernel, MixedModelWithIgnoreBitEqualsScalar) {
  // All five families in one model: normal, multinomial, and an ignored
  // attribute, over mixed-type data with missing entries.
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
  mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
  data::LabeledDataset ld = data::mixed_mixture(mix, 1000, 31);
  data::inject_missing(ld.dataset, 0.1, 9);
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  expect_estep_bit_equal(Model(ld.dataset, std::move(specs)), 3, 105);
}

TEST(UpdateWtsKernel, PartitionedRanksBitEqualScalarRanks) {
  // The per-rank partition boundaries must not disturb equality: each of 3
  // ranks' E-steps against the per-item rebuild over its own partition.
  data::LabeledDataset ld = data::paper_dataset(1000, 35);
  data::inject_missing(ld.dataset, 0.1, 12);
  const Model model = Model::default_model(ld.dataset);
  for (int rank = 0; rank < 3; ++rank)
    expect_estep_bit_equal(model, 4, 7, 1,
                           data::block_partition(1000, 3, rank));
}

TEST(UpdateWtsKernel, PartialOddLastBlockBitEqualsScalarAtBothLevels) {
  // 1001 items end in a 233-item block: odd, and one item past the last
  // 4-item lane group, so the tile kernels' masked tail runs in every
  // E-step; so do ranks of 334 and 333 items.  At both dispatch levels.
  data::LabeledDataset ld = data::paper_dataset(1001, 38);
  data::inject_missing(ld.dataset, 0.1, 13);
  const Model model = Model::default_model(ld.dataset);
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    const simd::ScopedForceLevel pin(level);
    for (const std::size_t j : {3, 5, 8}) {
      SCOPED_TRACE(testing::Message()
                   << simd::to_string(level) << " J=" << j);
      expect_estep_bit_equal(model, j, 9, 2);
      for (int rank = 0; rank < 3; ++rank)
        expect_estep_bit_equal(model, j, 9, 1,
                               data::block_partition(1001, 3, rank));
    }
  }
}

// ---- EM-level: blocked update_parameters vs the blocked reference ----

/// The M-step's blocked fold rebuilt from the reference: kEStepBlock-item
/// blocks over `range`, reference_accumulate per (class, term) into a
/// zeroed block partial, and the partials summed in block order.
std::vector<double> reference_statistics(const Model& model,
                                         data::ItemRange range,
                                         std::span<const double> weights,
                                         std::size_t j) {
  const std::size_t spc = model.stats_per_class();
  std::vector<double> stats(j * spc, 0.0);
  std::vector<double> partial(j * spc);
  for (std::size_t lo = range.begin; lo < range.end; lo += kEStepBlock) {
    const data::ItemRange block{lo, std::min(lo + kEStepBlock, range.end)};
    const double* block_weights = weights.data() + (lo - range.begin) * j;
    std::fill(partial.begin(), partial.end(), 0.0);
    for (std::size_t k = 0; k < j; ++k)
      for (std::size_t t = 0; t < model.num_terms(); ++t)
        reference_accumulate(
            model.term(t), block, block_weights + k, j,
            std::span<double>(partial.data() + k * spc + model.stats_offset(t),
                              model.term(t).stats_size()));
    for (std::size_t s = 0; s < j * spc; ++s) stats[s] += partial[s];
  }
  return stats;
}

/// Run `cycles` full cycles over `range` and require, at every M-step,
/// statistics bit-equal to the blocked reference over the weights the
/// M-step read, and parameters bit-equal to the MAP update of them.
void expect_mstep_bit_equal(const Model& model, std::size_t j,
                            std::uint64_t seed, int cycles = 3,
                            data::ItemRange range = {}) {
  if (range.empty()) range = {0, model.dataset().num_items()};
  Reducer identity;
  EmWorker worker(model, range, identity);
  Classification c(model, j);
  worker.random_init(c, seed, 0, EmConfig{});
  const std::size_t spc = model.stats_per_class();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const std::vector<double> weights(worker.local_weights().begin(),
                                      worker.local_weights().end());
    worker.update_parameters(c);
    const std::vector<double> stats =
        reference_statistics(model, range, weights, j);
    expect_bit_identical(worker.statistics(), stats);
    for (std::size_t k = 0; k < j; ++k) {
      for (std::size_t t = 0; t < model.num_terms(); ++t) {
        const Term& term = model.term(t);
        std::vector<double> params(term.param_size());
        term.update_params(
            std::span<const double>(stats.data() + k * spc +
                                        model.stats_offset(t),
                                    term.stats_size()),
            params);
        expect_bit_identical(std::as_const(c).param_block(k, t), params);
      }
    }
    worker.update_wts(c);
  }
}

TEST(UpdateParamsKernel, GaussianWithMissingBitEqualsScalar) {
  data::LabeledDataset ld = data::paper_dataset(1100, 26);
  data::inject_missing(ld.dataset, 0.15, 7);
  expect_mstep_bit_equal(Model::default_model(ld.dataset), 4, 101);
}

TEST(UpdateParamsKernel, MultinomialWithMissingBitEqualsScalar) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.4, {{0.8, 0.1, 0.1}, {0.9, 0.1}}},
      {0.6, {{0.1, 0.1, 0.8}, {0.2, 0.8}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 900, 27);
  data::inject_missing(ld.dataset, 0.1, 8);
  expect_mstep_bit_equal(Model::default_model(ld.dataset), 3, 102);
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_mstep_bit_equal(Model::default_model(ld.dataset, config), 3, 102);
}

TEST(UpdateParamsKernel, MultiNormalBitEqualsScalar) {
  const double r = 0.9;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {0.0, 5.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 800, 28);
  expect_mstep_bit_equal(Model::correlated_model(ld.dataset), 3, 103);
}

TEST(UpdateParamsKernel, LognormalWithMissingBitEqualsScalar) {
  Dataset d(Schema({Attribute::real("mass", 0.01)}), 777);
  Xoshiro256ss rng(29);
  for (std::size_t i = 0; i < 777; ++i)
    d.set_real(i, 0, std::exp(1.0 + 0.5 * normal01(rng)));
  for (std::size_t i = 3; i < 777; i += 11) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_mstep_bit_equal(Model(d, {spec}), 3, 104);
}

TEST(UpdateParamsKernel, MixedModelWithIgnoreBitEqualsScalar) {
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
  mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
  data::LabeledDataset ld = data::mixed_mixture(mix, 1000, 31);
  data::inject_missing(ld.dataset, 0.1, 9);
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  expect_mstep_bit_equal(Model(ld.dataset, std::move(specs)), 3, 105);
}

TEST(UpdateParamsKernel, PartitionedRanksBitEqualScalarRanks) {
  // Per-rank partition boundaries must not disturb M-step equality either.
  data::LabeledDataset ld = data::paper_dataset(1000, 35);
  data::inject_missing(ld.dataset, 0.1, 12);
  const Model model = Model::default_model(ld.dataset);
  for (int rank = 0; rank < 3; ++rank)
    expect_mstep_bit_equal(model, 4, 7, 1,
                           data::block_partition(1000, 3, rank));
}

// ---- thread-count invariance ----

/// One converged run at a given thread count, reduced to its observable
/// outputs: final weights matrix, parameters, scores, and hard labels.
struct ThreadRun {
  std::vector<double> weights;
  std::vector<double> params;
  std::vector<double> class_weights;
  double log_likelihood = 0.0;
  double cs_score = 0.0;
  double bic_score = 0.0;
  std::vector<std::int32_t> labels;
};

ThreadRun run_with_config(const Model& model, std::size_t j,
                          std::uint64_t seed, EmConfig config) {
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, model.dataset().num_items()},
                  identity);
  Classification c(model, j);
  worker.random_init(c, seed, 0, config);
  worker.converge(c, config);
  ThreadRun run;
  const std::span<const double> w = worker.local_weights();
  run.weights.assign(w.begin(), w.end());
  const std::span<const double> p = c.all_params();
  run.params.assign(p.begin(), p.end());
  for (std::size_t k = 0; k < c.num_classes(); ++k)
    run.class_weights.push_back(c.weight(k));
  run.log_likelihood = c.log_likelihood;
  run.cs_score = c.cs_score;
  run.bic_score = c.bic_score;
  run.labels = assign_labels(c);
  return run;
}

ThreadRun run_with_threads(const Model& model, std::size_t j,
                           std::uint64_t seed, int threads) {
  EmConfig config;
  config.threads = threads;
  config.max_cycles = 25;
  return run_with_config(model, j, seed, config);
}

/// Converged EM trajectories must be bit-identical at 1, 2, and 4 threads:
/// the block-ordered partial fold makes every value a pure function of the
/// block size, not of the thread count (DESIGN.md §5).
void expect_thread_invariant(const Model& model, std::size_t j,
                             std::uint64_t seed) {
  const ThreadRun one = run_with_threads(model, j, seed, 1);
  for (const int threads : {2, 4}) {
    const ThreadRun t = run_with_threads(model, j, seed, threads);
    expect_bit_identical(t.weights, one.weights);
    expect_bit_identical(t.params, one.params);
    expect_bit_identical(t.class_weights, one.class_weights);
    ASSERT_EQ(t.log_likelihood, one.log_likelihood) << threads << " threads";
    ASSERT_EQ(t.cs_score, one.cs_score) << threads << " threads";
    ASSERT_EQ(t.bic_score, one.bic_score) << threads << " threads";
    ASSERT_EQ(t.labels, one.labels) << threads << " threads";
  }
}

TEST(ThreadInvariance, GaussianWithMissing) {
  data::LabeledDataset ld = data::paper_dataset(900, 41);
  data::inject_missing(ld.dataset, 0.15, 14);
  expect_thread_invariant(Model::default_model(ld.dataset), 4, 201);
}

TEST(ThreadInvariance, MultinomialWithMissing) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.4, {{0.8, 0.1, 0.1}, {0.9, 0.1}}},
      {0.6, {{0.1, 0.1, 0.8}, {0.2, 0.8}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 800, 42);
  data::inject_missing(ld.dataset, 0.1, 15);
  expect_thread_invariant(Model::default_model(ld.dataset), 3, 202);
}

TEST(ThreadInvariance, MultiNormal) {
  const double r = 0.85;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {4.0, 2.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 700, 43);
  expect_thread_invariant(Model::correlated_model(ld.dataset), 3, 203);
}

TEST(ThreadInvariance, LognormalWithMissing) {
  Dataset d(Schema({Attribute::real("mass", 0.01)}), 650);
  Xoshiro256ss rng(44);
  for (std::size_t i = 0; i < 650; ++i)
    d.set_real(i, 0, std::exp(1.0 + 0.5 * normal01(rng)));
  for (std::size_t i = 2; i < 650; i += 13) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_thread_invariant(Model(d, {spec}), 3, 204);
}

TEST(ThreadInvariance, MixedModelWithIgnore) {
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
  mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
  data::LabeledDataset ld = data::mixed_mixture(mix, 850, 45);
  data::inject_missing(ld.dataset, 0.1, 16);
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  expect_thread_invariant(Model(ld.dataset, std::move(specs)), 3, 205);
}

TEST(ThreadInvariance, PartialOddLastBlockAtBothLevels) {
  // 1001 items: the last block (233 items) is partial and odd-sized.  The
  // trajectory is the same at 1, 2 and 4 threads, and the same at both
  // dispatch levels.
  data::LabeledDataset ld = data::paper_dataset(1001, 47);
  data::inject_missing(ld.dataset, 0.1, 17);
  const Model model = Model::default_model(ld.dataset);
  std::vector<ThreadRun> per_level;
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    const simd::ScopedForceLevel pin(level);
    SCOPED_TRACE(simd::to_string(level));
    expect_thread_invariant(model, 5, 206);
    per_level.push_back(run_with_threads(model, 5, 206, 1));
  }
  expect_bit_identical(per_level[1].weights, per_level[0].weights);
  expect_bit_identical(per_level[1].params, per_level[0].params);
  ASSERT_EQ(per_level[1].log_likelihood, per_level[0].log_likelihood);
  ASSERT_EQ(per_level[1].labels, per_level[0].labels);
}

TEST(ThreadInvariance, EnvVariableMatchesExplicitConfig) {
  // EmConfig::threads = 0 reads PAC_EM_THREADS; the trajectory must match
  // the same count requested explicitly.
  data::LabeledDataset ld = data::paper_dataset(500, 46);
  const Model model = Model::default_model(ld.dataset);
  const ThreadRun explicit_two = run_with_threads(model, 3, 206, 2);
  setenv("PAC_EM_THREADS", "2", 1);
  const ThreadRun via_env = run_with_threads(model, 3, 206, 0);
  unsetenv("PAC_EM_THREADS");
  expect_bit_identical(via_env.weights, explicit_two.weights);
  expect_bit_identical(via_env.params, explicit_two.params);
  ASSERT_EQ(via_env.cs_score, explicit_two.cs_score);
}

/// Ways to make the log-joint row of every item holding symbol 1 of the
/// (single, discrete) attribute 0 degenerate, through that symbol's log
/// probability: -inf in every class, NaN in a middle class, +inf in class 1.
enum class Poison { kAllNegInf, kNaNInMiddle, kPosInf };

struct PoisonCase {
  Poison poison;
  std::size_t j;  // classes; 5 is not a multiple of the 4 AVX2 lanes
};

constexpr PoisonCase kPoisonCases[] = {{Poison::kAllNegInf, 2},
                                       {Poison::kAllNegInf, 5},
                                       {Poison::kNaNInMiddle, 5},
                                       {Poison::kPosInf, 5}};

void poison_symbol_one(Classification& c, Poison poison) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t j = c.num_classes();
  switch (poison) {
    case Poison::kAllNegInf:
      for (std::size_t k = 0; k < j; ++k) c.param_block(k, 0)[1] = -inf;
      break;
    case Poison::kNaNInMiddle:
      c.param_block(j / 2, 0)[1] = std::numeric_limits<double>::quiet_NaN();
      break;
    case Poison::kPosInf:
      c.param_block(1, 0)[1] = inf;
      break;
  }
}

/// The "best class B at V" clause a DegenerateRowError must carry for
/// `item`: its least-impossible class in the raw log-joint row.
std::string best_class_clause(const Classification& c, std::size_t item) {
  std::vector<double> row(c.num_classes());
  fill_log_joint(c, data::ItemRange{item, item + 1}, row.data(), 1);
  std::size_t best = 0;
  for (std::size_t k = 1; k < row.size(); ++k)
    if (row[k] > row[best]) best = k;
  std::ostringstream os;
  os << "best class " << best << " at " << row[best];
  return os.str();
}

TEST(ThreadInvariance, DegenerateRowErrorIsDeterministic) {
  // Two degenerate items in different blocks: every thread count must
  // report the *lowest-indexed* one (block-ordered error fold), for every
  // kind of degenerate row and at every dispatch level.
  const std::size_t n = 600;  // > 2 blocks of 256
  Dataset d(Schema({Attribute::discrete("s", 2)}), n);
  for (std::size_t i = 0; i < n; ++i)
    d.set_discrete(i, 0, (i == 300 || i == 580) ? 1 : 0);
  const Model model = Model::default_model(d);
  for (const PoisonCase pc : kPoisonCases) {
    for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
      const simd::ScopedForceLevel pin(level);
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "poison " << static_cast<int>(pc.poison) << " J="
                     << pc.j << " " << simd::to_string(level) << " "
                     << threads << " threads");
        Reducer identity;
        EmWorker worker(model, data::ItemRange{0, n}, identity);
        Classification c(model, pc.j);
        EmConfig config;
        config.threads = threads;
        worker.random_init(c, 3, 0, config);
        worker.update_parameters(c);
        poison_symbol_one(c, pc.poison);
        try {
          worker.update_wts(c);
          ADD_FAILURE() << "expected DegenerateRowError";
        } catch (const DegenerateRowError& e) {
          EXPECT_EQ(e.item, 300u);
          EXPECT_NE(std::string(e.what()).find(best_class_clause(c, 300)),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
}

// ---- report paths routed through the kernels ----

TEST(ReportKernels, MembershipMatchesScalarJoint) {
  const data::LabeledDataset ld = data::paper_dataset(300, 36);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 300}, identity);
  Classification c(model, 3);
  EmConfig config;
  worker.random_init(c, 47, 0, config);
  worker.converge(c, config);
  for (std::size_t i = 0; i < 300; i += 13) {
    // Per-item joint row, normalized by the one shared normalizer.
    std::vector<double> row(3);
    for (std::size_t k = 0; k < 3; ++k) {
      double lp = c.log_pi(k);
      for (std::size_t t = 0; t < model.num_terms(); ++t)
        lp = log_prob_one(model.term(t), i, c.param_block(k, t), lp);
      row[k] = lp;
    }
    double lse = 0.0;
    ASSERT_EQ(simd::normalize_columns(row.data(), 1, 3, 1, &lse), 1u);
    const auto m = membership(c, i);
    expect_bit_identical(m, row);
  }
  // Prediction on the training rows reproduces the EM's own weights from
  // the last update_wts, bit for bit: same fill, same normalizer.
  const PredictOutput out = predict(c, ld.dataset, /*want_membership=*/true);
  expect_bit_identical(out.membership, worker.local_weights());
}

TEST(ReportKernels, AssignLabelsMatchesPerItemMembership) {
  const data::LabeledDataset ld = data::paper_dataset(600, 37);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 600}, identity);
  Classification c(model, 4);
  EmConfig config;
  worker.random_init(c, 49, 0, config);
  worker.converge(c, config);
  const auto labels = assign_labels(c);
  ASSERT_EQ(labels.size(), 600u);
  for (std::size_t i = 0; i < 600; i += 29) {
    const auto m = membership(c, i);
    const auto best = static_cast<std::int32_t>(
        std::max_element(m.begin(), m.end()) - m.begin());
    EXPECT_EQ(labels[i], best) << "item " << i;
  }
}

TEST(ReportKernels, MeanMaxMembershipNearPerItemKahanSum) {
  // mean_max_membership folds one compensated partial per block in block
  // order; an item-ordered compensated sum over membership() may differ
  // from it only in the last bits, at any thread count.
  const data::LabeledDataset ld = data::paper_dataset(2001, 38);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 2001}, identity);
  Classification c(model, 5);
  EmConfig config;
  config.max_cycles = 10;
  worker.random_init(c, 51, 0, config);
  worker.converge(c, config);
  KahanSum per_item;
  for (std::size_t i = 0; i < 2001; ++i) {
    const auto m = membership(c, i);
    per_item.add(*std::max_element(m.begin(), m.end()));
  }
  const double reference = per_item.value() / 2001.0;
  for (const char* threads : {"1", "4"}) {
    setenv("PAC_EM_THREADS", threads, 1);
    EXPECT_NEAR(mean_max_membership(c), reference, 1e-14 * reference)
        << threads << " threads";
  }
  unsetenv("PAC_EM_THREADS");
}

// ---- degenerate-row guard ----

TEST(DegenerateRow, AllInfRowRaisesTypedErrorNamingItem) {
  Dataset d(Schema({Attribute::discrete("s", 2)}), 6);
  for (std::size_t i = 0; i < 6; ++i)
    d.set_discrete(i, 0, i == 4 ? 1 : 0);
  const Model model = Model::default_model(d);
  // The first case is the zero-support symbol: every class rules out
  // symbol 1, so item 4's row is -inf under every class.  The others make
  // the same row degenerate through a NaN or a +inf entry.
  for (const PoisonCase pc : kPoisonCases) {
    for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
      const simd::ScopedForceLevel pin(level);
      SCOPED_TRACE(testing::Message()
                   << "poison " << static_cast<int>(pc.poison) << " J="
                   << pc.j << " " << simd::to_string(level));
      Reducer identity;
      EmWorker worker(model, data::ItemRange{0, 6}, identity);
      Classification c(model, pc.j);
      worker.random_init(c, 3, 0, EmConfig{});
      worker.update_parameters(c);
      poison_symbol_one(c, pc.poison);
      try {
        worker.update_wts(c);
        ADD_FAILURE() << "expected DegenerateRowError";
      } catch (const DegenerateRowError& e) {
        EXPECT_EQ(e.item, 4u);
        EXPECT_EQ(e.num_classes, pc.j);
        EXPECT_NE(std::string(e.what()).find("item 4"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find(best_class_clause(c, 4)),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(DegenerateRow, PredictPathsKeepLabelsAndDoNotThrow) {
  // Outside the E-step a degenerate row is not an error: prediction and
  // the reports keep its argmax label and give it NaN memberships, and
  // every other row is normalized as usual.
  Dataset d(Schema({Attribute::discrete("s", 2)}), 6);
  for (std::size_t i = 0; i < 6; ++i)
    d.set_discrete(i, 0, i == 4 ? 1 : 0);
  const Model model = Model::default_model(d);
  for (const PoisonCase pc : kPoisonCases) {
    for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
      const simd::ScopedForceLevel pin(level);
      SCOPED_TRACE(testing::Message()
                   << "poison " << static_cast<int>(pc.poison) << " J="
                   << pc.j << " " << simd::to_string(level));
      Reducer identity;
      EmWorker worker(model, data::ItemRange{0, 6}, identity);
      Classification c(model, pc.j);
      worker.random_init(c, 3, 0, EmConfig{});
      worker.update_parameters(c);
      poison_symbol_one(c, pc.poison);
      PredictOutput out;
      ASSERT_NO_THROW(out = predict(c, d, /*want_membership=*/true));
      std::vector<double> raw(pc.j);
      fill_log_joint(c, data::ItemRange{4, 5}, raw.data(), 1);
      EXPECT_EQ(out.labels[4],
                std::max_element(raw.begin(), raw.end()) - raw.begin());
      EXPECT_EQ(out.labels, assign_labels(c));
      for (std::size_t i = 0; i < 6; ++i) {
        double sum = 0.0;
        for (std::size_t k = 0; k < pc.j; ++k)
          sum += out.membership[i * pc.j + k];
        if (i == 4)
          EXPECT_TRUE(std::isnan(sum));
        else
          EXPECT_NEAR(sum, 1.0, 1e-15) << "item " << i;
      }
      EXPECT_TRUE(std::isnan(membership(c, 4)[0]));
      EXPECT_TRUE(std::isnan(predict_log_likelihood(c, d)));
      EXPECT_TRUE(std::isnan(mean_max_membership(c)));
    }
  }
}

TEST(DegenerateRow, FiniteRowsStillConverge) {
  // The guard must not fire on ordinary data (including missing values).
  data::LabeledDataset ld = data::paper_dataset(400, 39);
  data::inject_missing(ld.dataset, 0.2, 13);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 400}, identity);
  Classification c(model, 3);
  EmConfig config;
  worker.random_init(c, 51, 0, config);
  EXPECT_NO_THROW(worker.converge(c, config));
}

// ---- seed-item draw fallback ----

TEST(SeedDraws, DefaultBudgetDistinctWhenPossible) {
  const CounterRng rng(123);
  for (std::uint64_t try_index = 0; try_index < 8; ++try_index) {
    const auto seeds = detail::draw_seed_items(rng, 16, 16, try_index);
    ASSERT_EQ(seeds.size(), 16u);
    const std::set<std::size_t> unique(seeds.begin(), seeds.end());
    // j == n: every item must be picked exactly once — the old fallback
    // pushed duplicates here and produced zero-separation classes.
    EXPECT_EQ(unique.size(), 16u) << "try " << try_index;
  }
}

TEST(SeedDraws, TinyPrimaryBudgetForcesDistinctFallback) {
  const CounterRng rng(7);
  // A budget of 1 draw forces the widened-stream fallback almost every
  // collision; seeds must still be distinct and in range.
  const auto seeds = detail::draw_seed_items(rng, 10, 10, 0, 1);
  ASSERT_EQ(seeds.size(), 10u);
  std::set<std::size_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const std::size_t s : seeds) EXPECT_LT(s, 10u);
}

TEST(SeedDraws, DeterministicAcrossCalls) {
  const CounterRng rng(99);
  const auto a = detail::draw_seed_items(rng, 50, 12, 3, 2);
  const auto b = detail::draw_seed_items(rng, 50, 12, 3, 2);
  EXPECT_EQ(a, b);
  // Different tries draw from different streams.
  const auto c = detail::draw_seed_items(rng, 50, 12, 4, 2);
  EXPECT_NE(a, c);
}

TEST(SeedDraws, MoreClassesThanItemsStillTerminates) {
  const CounterRng rng(5);
  const auto seeds = detail::draw_seed_items(rng, 3, 9, 0);
  ASSERT_EQ(seeds.size(), 9u);
  const std::set<std::size_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 3u);  // every item used before duplicates
  for (const std::size_t s : seeds) EXPECT_LT(s, 3u);
}

TEST(SeedDraws, CommonCaseMatchesHistoricalPrimaryStream) {
  // Collision-free draws must still come from the primary stream with the
  // historical (stream, index, counter) coordinates, so pre-fix EM
  // trajectories are preserved.
  const std::size_t n = 100000;
  const CounterRng rng(2024);
  const auto seeds = detail::draw_seed_items(rng, n, 4, 2);
  std::vector<std::size_t> expected;
  std::uint64_t draw = 0;
  while (expected.size() < 4) {
    const auto candidate = std::min(
        n - 1,
        static_cast<std::size_t>(
            rng.uniform(0x1A17 + 2, expected.size(), draw) *
            static_cast<double>(n)));
    ++draw;
    if (std::find(expected.begin(), expected.end(), candidate) ==
        expected.end())
      expected.push_back(candidate);
  }
  EXPECT_EQ(seeds, expected);
}

// ---- SIMD dispatch plumbing ----

TEST(SimdDispatch, EnvValueParsing) {
  // level() caches its PAC_SIMD resolution on first use, so the env policy
  // is tested through the pure parser the resolver calls.
  EXPECT_TRUE(simd::detail::env_value_enables(nullptr));
  EXPECT_TRUE(simd::detail::env_value_enables(""));
  EXPECT_TRUE(simd::detail::env_value_enables("1"));
  EXPECT_TRUE(simd::detail::env_value_enables("avx2"));
  EXPECT_FALSE(simd::detail::env_value_enables("0"));
  EXPECT_FALSE(simd::detail::env_value_enables("off"));
  EXPECT_FALSE(simd::detail::env_value_enables("OFF"));
  EXPECT_FALSE(simd::detail::env_value_enables("scalar"));
  EXPECT_FALSE(simd::detail::env_value_enables("false"));
  EXPECT_FALSE(simd::detail::env_value_enables("no"));
}

TEST(SimdDispatch, ScopedForceLevelClampsAndRestores) {
  const simd::Level ambient = simd::level();
  {
    simd::ScopedForceLevel scalar(simd::Level::kScalar);
    EXPECT_EQ(scalar.effective(), simd::Level::kScalar);
    EXPECT_EQ(simd::level(), simd::Level::kScalar);
    {
      // Nested non-scalar requests clamp to what the host supports.
      simd::ScopedForceLevel vec(simd::Level::kAvx2);
      EXPECT_EQ(vec.effective(), simd::detected_level());
      EXPECT_EQ(simd::level(), simd::detected_level());
    }
    EXPECT_EQ(simd::level(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::level(), ambient);
}

TEST(SimdDispatch, DescribeNamesTheActiveLevel) {
  simd::ScopedForceLevel scalar(simd::Level::kScalar);
  EXPECT_NE(std::string(simd::describe()).find("dispatch=scalar"),
            std::string::npos);
}

// ---- SIMD kernels vs the scalar oracle (default tier: memcmp) ----

/// All five term families over mixed data with missing values — the model
/// the per-family SIMD suites share.
Model mixed_five_family_model(data::LabeledDataset& ld) {
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  return Model(ld.dataset, std::move(specs));
}

/// Per-family kernel outputs must be memcmp-equal between the forced
/// portable level and the host's best vector level, and equal to the
/// per-item references at each; on scalar-only hosts the two runs coincide
/// and the test degenerates to the plain kernel-equality check.
void expect_simd_matches_forced_scalar(const Model& model) {
  expect_log_prob_kernels_match_per_item(model);
  expect_mstep_kernels_match_reference(model);
}

TEST(SimdKernels, GaussianWithMissingMatchesOracleAtBothLevels) {
  data::LabeledDataset ld = data::paper_dataset(700, 61);
  data::inject_missing(ld.dataset, 0.2, 18);
  expect_simd_matches_forced_scalar(Model::default_model(ld.dataset));
}

TEST(SimdKernels, MultinomialWithMissingMatchesOracleAtBothLevels) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.5, {{0.7, 0.2, 0.1}, {0.6, 0.4}}},
      {0.5, {{0.1, 0.2, 0.7}, {0.3, 0.7}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 600, 62);
  data::inject_missing(ld.dataset, 0.2, 19);
  expect_simd_matches_forced_scalar(Model::default_model(ld.dataset));
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_simd_matches_forced_scalar(Model::default_model(ld.dataset, config));
}

TEST(SimdKernels, MultiNormalMatchesOracleAtBothLevels) {
  const double r = 0.8;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {3.0, 1.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 500, 63);
  expect_simd_matches_forced_scalar(Model::correlated_model(ld.dataset));
}

TEST(SimdKernels, LognormalWithMissingMatchesOracleAtBothLevels) {
  Dataset d(Schema({Attribute::real("x", 0.01)}), 400);
  Xoshiro256ss rng(64);
  for (std::size_t i = 0; i < 400; ++i)
    d.set_real(i, 0, std::exp(0.5 + 0.8 * normal01(rng)));
  for (std::size_t i = 0; i < 400; i += 9) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_simd_matches_forced_scalar(Model(d, {spec}));
}

TEST(SimdKernels, FullEmBitEqualAcrossLevels) {
  // A converged EM run must be bit-identical with the vector kernels forced
  // on and forced off — the whole-trajectory form of the memcmp contract.
  data::LabeledDataset ld = data::mixed_mixture(
      [] {
        std::vector<data::MixedComponent> mix(2);
        mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
        mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
        return mix;
      }(),
      900, 65);
  data::inject_missing(ld.dataset, 0.1, 20);
  const Model model = mixed_five_family_model(ld);
  EmConfig config;
  config.max_cycles = 10;
  ThreadRun vec_run, scalar_run;
  {
    simd::ScopedForceLevel vec(simd::Level::kAvx2);
    vec_run = run_with_config(model, 3, 301, config);
  }
  {
    simd::ScopedForceLevel scalar(simd::Level::kScalar);
    scalar_run = run_with_config(model, 3, 301, config);
  }
  expect_bit_identical(vec_run.weights, scalar_run.weights);
  expect_bit_identical(vec_run.params, scalar_run.params);
  expect_bit_identical(vec_run.class_weights, scalar_run.class_weights);
  ASSERT_EQ(vec_run.log_likelihood, scalar_run.log_likelihood);
  ASSERT_EQ(vec_run.cs_score, scalar_run.cs_score);
  ASSERT_EQ(vec_run.labels, scalar_run.labels);
}

TEST(SimdKernels, ThreadInvariantWithVectorKernelsForced) {
  // {1, 2, 4} threads under the vector tier: the block-ordered fold and the
  // per-lane bit-identity compose, so the trajectories still memcmp-match.
  simd::ScopedForceLevel vec(simd::Level::kAvx2);
  data::LabeledDataset ld = data::paper_dataset(900, 66);
  data::inject_missing(ld.dataset, 0.15, 21);
  expect_thread_invariant(Model::default_model(ld.dataset), 4, 302);
}

}  // namespace
}  // namespace pac::ac

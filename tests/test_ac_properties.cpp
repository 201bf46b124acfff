// Property-based sweeps over the model terms and the EM engine, run across
// many random configurations (TEST_P over seeds).
//
// Key invariants:
//  * MAP optimality — for heavy statistics (prior negligible) the parameters
//    produced by update_params maximize log_likelihood_of_stats: any
//    perturbation must not increase it.
//  * Marginal consistency — adding data to a class can only change the
//    marginal smoothly; empty stats are the identity.
//  * EM invariances — class weights always sum to N; scores are finite;
//    label assignments are invariant under class reordering.
#include <gtest/gtest.h>

#include <cmath>

#include "autoclass/em.hpp"
#include "autoclass/report.hpp"
#include "data/synth.hpp"
#include "term_reference.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pac::ac {
namespace {

class PropertySeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySeed, NormalMapParamsMaximizeStatsLikelihood) {
  const std::uint64_t seed = GetParam();
  Xoshiro256ss rng(seed);
  // Random heavy-weight dataset.
  const double mu = uniform_in(rng, -20.0, 20.0);
  const double sigma = uniform_in(rng, 0.2, 5.0);
  std::vector<data::GaussianComponent> mix = {{1.0, {mu}, {sigma}}};
  const data::LabeledDataset ld =
      data::gaussian_mixture(mix, 5000, seed * 3 + 1);
  const Model model = Model::default_model(ld.dataset);
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  for (std::size_t i = 0; i < 5000; ++i) accumulate_one(term, i, 1.0, stats);
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  const double at_map = term.log_likelihood_of_stats(stats, params);
  for (int p = 0; p < 10; ++p) {
    std::vector<double> perturbed = params;
    perturbed[0] += uniform_in(rng, -0.5, 0.5);
    perturbed[1] = std::max(1e-3, perturbed[1] + uniform_in(rng, -0.3, 0.3));
    perturbed[2] = std::log(perturbed[1]);
    // Allow a hair of slack: the prior pulls MAP off pure ML by O(1/N).
    EXPECT_LE(term.log_likelihood_of_stats(stats, perturbed),
              at_map + 0.1);
  }
}

TEST_P(PropertySeed, MultinomialMapParamsMaximizeStatsLikelihood) {
  const std::uint64_t seed = GetParam();
  Xoshiro256ss rng(seed ^ 0xC0FFEE);
  std::vector<double> probs(4);
  for (double& p : probs) p = uniform_in(rng, 0.05, 1.0);
  normalize(probs);
  const std::vector<data::CategoricalComponent> mix = {{1.0, {probs}}};
  const data::LabeledDataset ld =
      data::categorical_mixture(mix, 4000, seed * 5 + 2);
  const Model model = Model::default_model(ld.dataset);
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  for (std::size_t i = 0; i < 4000; ++i) accumulate_one(term, i, 1.0, stats);
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  const double at_map = term.log_likelihood_of_stats(stats, params);
  for (int p = 0; p < 10; ++p) {
    // Random perturbed distribution.
    std::vector<double> theta(params.size());
    for (std::size_t l = 0; l < theta.size(); ++l)
      theta[l] = std::exp(params[l]) + uniform_in(rng, 0.0, 0.2);
    normalize(theta);
    std::vector<double> perturbed(theta.size());
    for (std::size_t l = 0; l < theta.size(); ++l)
      perturbed[l] = std::log(theta[l]);
    EXPECT_LE(term.log_likelihood_of_stats(stats, perturbed), at_map + 0.5);
  }
}

TEST_P(PropertySeed, MarginalGrowsSmoothlyWithData) {
  const std::uint64_t seed = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(1000, seed * 7 + 3);
  const Model model = Model::default_model(ld.dataset);
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  double previous = term.log_marginal(stats);
  EXPECT_EQ(previous, 0.0);
  for (std::size_t i = 0; i < 200; ++i) {
    accumulate_one(term, i, 1.0, stats);
    const double current = term.log_marginal(stats);
    EXPECT_TRUE(std::isfinite(current));
    // One observation changes the marginal by a bounded amount.
    EXPECT_LT(std::abs(current - previous), 50.0);
    previous = current;
  }
}

TEST_P(PropertySeed, EmInvariantsHoldAcrossRandomConfigs) {
  const std::uint64_t seed = GetParam();
  Xoshiro256ss rng(seed ^ 0xBEEF);
  const std::size_t n = 200 + uniform_index(rng, 800);
  const std::size_t j = 2 + uniform_index(rng, 6);
  data::LabeledDataset ld = data::paper_dataset(n, seed * 11 + 4);
  if (uniform01(rng) < 0.5) data::inject_missing(ld.dataset, 0.1, seed);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, n}, identity);
  Classification c(model, j);
  EmConfig config;
  config.max_cycles = 15;
  worker.random_init(c, seed, 0, config);
  worker.converge(c, config);

  // Class weights sum to the item count.
  double total = 0.0;
  for (std::size_t k = 0; k < j; ++k) total += c.weight(k);
  EXPECT_NEAR(total, static_cast<double>(n), 1e-6);
  // Scores are finite and ordered (approximations below max likelihood).
  EXPECT_TRUE(std::isfinite(c.log_likelihood));
  EXPECT_TRUE(std::isfinite(c.cs_score));
  EXPECT_LT(c.cs_score, c.log_likelihood);
  // Mixing weights are a distribution.
  double pi_sum = 0.0;
  for (std::size_t k = 0; k < j; ++k) pi_sum += std::exp(c.log_pi(k));
  EXPECT_NEAR(pi_sum, 1.0, 1e-9);
}

TEST_P(PropertySeed, SortingClassesPreservesAssignments) {
  const std::uint64_t seed = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(400, seed * 13 + 5);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 400}, identity);
  Classification c(model, 4);
  EmConfig config;
  config.max_cycles = 20;
  worker.random_init(c, seed, 0, config);
  worker.converge(c, config);

  const auto before = assign_labels(c);
  Classification sorted = c;
  sorted.sort_classes_by_weight();
  const auto after = assign_labels(sorted);
  // The partition is identical; only class indices are permuted.
  EXPECT_DOUBLE_EQ(data::adjusted_rand_index(before, after), 1.0);
}

TEST_P(PropertySeed, PredictConsistentWithMembershipArgmax) {
  const std::uint64_t seed = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(300, seed * 17 + 6);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 300}, identity);
  Classification c(model, 3);
  EmConfig config;
  config.max_cycles = 15;
  worker.random_init(c, seed, 0, config);
  worker.converge(c, config);

  const auto labels = predict_labels(c, model.dataset());
  const PredictOutput out = predict(c, model.dataset(), true);
  EXPECT_EQ(out.labels, labels);
  for (std::size_t i = 0; i < 20; ++i) {
    const double* m = out.membership.data() + i * 14 * c.num_classes();
    std::size_t argmax = 0;
    for (std::size_t k = 1; k < c.num_classes(); ++k)
      if (m[k] > m[argmax]) argmax = k;
    EXPECT_EQ(static_cast<std::size_t>(labels[i * 14]), argmax);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeed,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace pac::ac

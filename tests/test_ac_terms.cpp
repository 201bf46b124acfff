// Tests for the model terms: densities, sufficient statistics, MAP updates,
// conjugate marginals, and influence values.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "autoclass/model.hpp"
#include "data/synth.hpp"
#include "term_reference.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pac::ac {
namespace {

using data::Attribute;
using data::Dataset;
using data::Schema;

/// One real column with the given values.
Dataset real_dataset(const std::vector<double>& values, double error = 0.01) {
  Dataset d(Schema({Attribute::real("x", error)}), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) d.set_real(i, 0, values[i]);
  return d;
}

Dataset discrete_dataset(const std::vector<std::int32_t>& values, int range) {
  Dataset d(Schema({Attribute::discrete("c", range)}), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] >= 0) d.set_discrete(i, 0, values[i]);
  return d;
}

/// Fit one class to all items with weight 1 and return its params.
std::vector<double> fit_single_class(const Model& model) {
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  for (std::size_t i = 0; i < model.dataset().num_items(); ++i)
    accumulate_one(term, i, 1.0, stats);
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  return params;
}

// ---- single normal ----

TEST(SingleNormal, FitRecoversMoments) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0,
                                      1.5, 2.5, 3.5, 4.5, 3.0};
  const Dataset d = real_dataset(values);
  const Model model = Model::default_model(d);
  const auto params = fit_single_class(model);
  const double mean = mean_of(values);
  // Prior pulls slightly toward the global mean, which IS the sample mean
  // here, so the MAP mean equals the sample mean.
  EXPECT_NEAR(params[0], mean, 1e-9);
  // Variance is regularized toward the global variance with strength 1.
  const double var = variance_of(values);
  const double expected_var = (var * values.size() + var) / (values.size() + 1);
  EXPECT_NEAR(sq(params[1]), expected_var, 1e-9);
  EXPECT_NEAR(params[2], std::log(params[1]), 1e-12);
}

TEST(SingleNormal, LogProbMatchesDensityPlusErrorCorrection) {
  const Dataset d = real_dataset({0.0, 1.0, 2.0}, 0.5);
  const Model model = Model::default_model(d);
  std::vector<double> params = {1.0, 2.0, std::log(2.0)};
  const double lp = log_prob_one(model.term(0), 1, params);
  EXPECT_NEAR(lp, log_normal_pdf(1.0, 1.0, 2.0) + std::log(0.5), 1e-12);
}

TEST(SingleNormal, MissingValueContributesNothing) {
  Dataset d = real_dataset({0.0, 1.0, 2.0});
  d.set_missing(1, 0);
  const Model model = Model::default_model(d);
  std::vector<double> params = {0.0, 1.0, 0.0};
  EXPECT_EQ(log_prob_one(model.term(0), 1, params), 0.0);
  std::vector<double> stats(3, 0.0);
  accumulate_one(model.term(0), 1, 1.0, stats);
  EXPECT_EQ(stats[0], 0.0);
}

TEST(SingleNormal, SigmaFloorPreventsCollapse) {
  // A constant column would otherwise give zero variance.
  const Dataset d = real_dataset({5.0, 5.0, 5.0, 5.0}, 0.1);
  const Model model = Model::default_model(d);
  const auto params = fit_single_class(model);
  EXPECT_GE(params[1], 0.1);
}

TEST(SingleNormal, EmptyStatsGivePriorParams) {
  const Dataset d = real_dataset({1.0, 3.0});
  const Model model = Model::default_model(d);
  const Term& term = model.term(0);
  std::vector<double> stats(3, 0.0), params(3, 0.0);
  term.update_params(stats, params);
  EXPECT_NEAR(params[0], 2.0, 1e-12);           // global mean
  EXPECT_TRUE(std::isfinite(params[1]));
  EXPECT_GT(params[1], 0.0);
}

TEST(SingleNormal, MarginalMatchesNumericalIntegration) {
  // Brute-force check of the NIG closed form: integrate the likelihood
  // against the prior over (mean, variance) on a fine grid.
  const std::vector<double> values = {0.3, -0.2, 0.5};
  const Dataset d = real_dataset(values, 1.0);  // error=1 kills the
                                                // dimension correction
  ModelConfig config;
  const Model model = Model::default_model(d, config);
  const Term& term = model.term(0);
  std::vector<double> stats(3, 0.0);
  for (std::size_t i = 0; i < values.size(); ++i)
    accumulate_one(term, i, 1.0, stats);
  const double closed_form = term.log_marginal(stats);

  // Prior: mean | var ~ N(mu0, var / kappa0); var ~ InvGamma(a0, b0)
  // with mu0 = global mean, kappa0 = 1, a0 = 1, b0 = global var
  // (matching the constants in terms.cpp: a0 = nu/2 + 1/2 = 1,
  //  b0 = nu * prior_var / 2 with nu = 1).
  const double mu0 = mean_of(values);
  const double prior_var = std::max(variance_of(values), 1.0);
  const double kappa0 = 1.0, a0 = 1.0, b0 = 0.5 * prior_var;
  double integral = 0.0;
  const int kGrid = 400;
  for (int vi = 1; vi <= kGrid; ++vi) {
    const double var = vi * 0.02;
    for (int mi = -kGrid; mi <= kGrid; ++mi) {
      const double mean = mi * 0.02;
      double log_term = 0.0;
      // Likelihood.
      for (const double x : values)
        log_term += log_normal_pdf(x, mean, std::sqrt(var));
      // Prior on mean given var.
      log_term += log_normal_pdf(mean, mu0, std::sqrt(var / kappa0));
      // Inverse-gamma prior on var.
      log_term += a0 * std::log(b0) - log_gamma(a0) -
                  (a0 + 1.0) * std::log(var) - b0 / var;
      integral += std::exp(log_term) * 0.02 * 0.02;
    }
  }
  EXPECT_NEAR(closed_form, std::log(integral), 0.02);
}

TEST(SingleNormal, LogLikelihoodOfStatsMatchesDirectSum) {
  const std::vector<double> values = {1.0, 2.5, -0.5, 3.0};
  const std::vector<double> weights = {1.0, 0.5, 0.25, 0.8};
  const Dataset d = real_dataset(values, 0.7);
  const Model model = Model::default_model(d);
  const Term& term = model.term(0);
  std::vector<double> stats(3, 0.0);
  for (std::size_t i = 0; i < values.size(); ++i)
    accumulate_one(term, i, weights[i], stats);
  std::vector<double> params = {1.2, 0.9, std::log(0.9)};
  double direct = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i)
    direct += weights[i] * log_prob_one(term, i, params);
  EXPECT_NEAR(term.log_likelihood_of_stats(stats, params), direct, 1e-9);
}

TEST(SingleNormal, InfluenceZeroAtGlobalDistribution) {
  const std::vector<double> values = {0.0, 1.0, 2.0, 3.0, 4.0};
  const Dataset d = real_dataset(values);
  const Model model = Model::default_model(d);
  std::vector<double> global = {
      mean_of(values), std::sqrt(variance_of(values)),
      0.5 * std::log(variance_of(values))};
  EXPECT_NEAR(model.term(0).influence(global), 0.0, 1e-9);
  // Far-away class has large influence.
  std::vector<double> distant = {100.0, 0.1, std::log(0.1)};
  EXPECT_GT(model.term(0).influence(distant), 10.0);
}

// ---- single multinomial ----

TEST(SingleMultinomial, FitRecoversFrequenciesWithPerksSmoothing) {
  const Dataset d = discrete_dataset({0, 0, 0, 1, 1, 2}, 3);
  const Model model = Model::default_model(d);
  const auto params = fit_single_class(model);
  // theta_l = (c_l + 1/3) / (6 + 1).
  EXPECT_NEAR(std::exp(params[0]), (3.0 + 1.0 / 3.0) / 7.0, 1e-12);
  EXPECT_NEAR(std::exp(params[1]), (2.0 + 1.0 / 3.0) / 7.0, 1e-12);
  EXPECT_NEAR(std::exp(params[2]), (1.0 + 1.0 / 3.0) / 7.0, 1e-12);
}

TEST(SingleMultinomial, ProbabilitiesSumToOne) {
  const Dataset d = discrete_dataset({0, 1, 2, 3, 0, 1}, 4);
  const Model model = Model::default_model(d);
  const auto params = fit_single_class(model);
  double sum = 0.0;
  for (const double lp : params) sum += std::exp(lp);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SingleMultinomial, MissingSkippedByDefault) {
  const Dataset d = discrete_dataset({0, -1, 1}, 2);
  const Model model = Model::default_model(d);
  const Term& term = model.term(0);
  std::vector<double> params(term.param_size(), std::log(0.5));
  EXPECT_EQ(log_prob_one(term, 1, params), 0.0);
  std::vector<double> stats(term.stats_size(), 0.0);
  accumulate_one(term, 1, 1.0, stats);
  EXPECT_DOUBLE_EQ(std::accumulate(stats.begin(), stats.end(), 0.0), 0.0);
}

TEST(SingleMultinomial, MissingAsExtraValuePolicy) {
  const Dataset d = discrete_dataset({0, -1, 1}, 2);
  ModelConfig config;
  config.missing_as_extra_value = true;
  const Model model = Model::default_model(d, config);
  const Term& term = model.term(0);
  EXPECT_EQ(term.param_size(), 3u);  // 2 symbols + missing
  std::vector<double> stats(3, 0.0);
  accumulate_one(term, 1, 1.0, stats);
  EXPECT_DOUBLE_EQ(stats[2], 1.0);
  std::vector<double> params = {std::log(0.5), std::log(0.3), std::log(0.2)};
  EXPECT_DOUBLE_EQ(log_prob_one(term, 1, params), std::log(0.2));
}

TEST(SingleMultinomial, MarginalMatchesExactDirichletMultinomial) {
  // For integer counts the Dirichlet-multinomial has an exact closed form
  // that the implementation must match.
  const Dataset d = discrete_dataset({0, 0, 1}, 2);
  const Model model = Model::default_model(d);
  const Term& term = model.term(0);
  std::vector<double> stats = {2.0, 1.0};
  // alpha = 1/2 each: m = B(2.5, 1.5) / B(0.5, 0.5).
  const double expected =
      (log_gamma(2.5) + log_gamma(1.5) - log_gamma(4.0)) -
      (log_gamma(0.5) + log_gamma(0.5) - log_gamma(1.0));
  EXPECT_NEAR(term.log_marginal(stats), expected, 1e-12);
}

TEST(SingleMultinomial, LogLikelihoodOfStatsIsDotProduct) {
  const Dataset d = discrete_dataset({0, 1, 1, 1}, 2);
  const Model model = Model::default_model(d);
  const Term& term = model.term(0);
  const std::vector<double> stats = {1.0, 3.0};
  const std::vector<double> params = {std::log(0.25), std::log(0.75)};
  EXPECT_NEAR(term.log_likelihood_of_stats(stats, params),
              1.0 * std::log(0.25) + 3.0 * std::log(0.75), 1e-12);
}

TEST(SingleMultinomial, InfluenceZeroAtGlobalFrequencies) {
  const Dataset d = discrete_dataset({0, 0, 1, 1, 2, 2}, 3);
  const Model model = Model::default_model(d);
  const auto params = fit_single_class(model);  // = smoothed global freqs
  EXPECT_NEAR(model.term(0).influence(params), 0.0, 1e-9);
}

// ---- multi normal ----

Model correlated_model(const data::Dataset& d) {
  TermSpec spec;
  spec.kind = TermKind::kMultiNormal;
  spec.attributes = {0, 1};
  return Model(d, {spec});
}

TEST(MultiNormal, FitRecoversCovariance) {
  const double r = 0.8;
  const std::vector<data::CorrelatedComponent> mix = {
      {1.0, {1.0, -2.0}, {2.0, 0.0, r * 1.5, 1.5 * std::sqrt(1 - r * r)}}};
  const data::LabeledDataset ld = data::correlated_mixture(mix, 20000, 31);
  const Model model = correlated_model(ld.dataset);
  const auto params = fit_single_class(model);
  EXPECT_NEAR(params[0], 1.0, 0.05);
  EXPECT_NEAR(params[1], -2.0, 0.05);
  // Reconstruct Sigma = L L^T from the stored Cholesky factor.
  const double l00 = params[2], l10 = params[4], l11 = params[5];
  EXPECT_NEAR(l00 * l00, 4.0, 0.15);                 // var(x0) = 2^2
  EXPECT_NEAR(l10 * l00, r * 2.0 * 1.5, 0.1);        // cov
  EXPECT_NEAR(l10 * l10 + l11 * l11, 2.25, 0.1);     // var(x1) = 1.5^2
}

TEST(MultiNormal, LogProbMatchesExplicitDensity) {
  const std::vector<data::CorrelatedComponent> mix = {
      {1.0, {0.0, 0.0}, {1.0, 0.0, 0.0, 1.0}}};
  const data::LabeledDataset ld = data::correlated_mixture(mix, 10, 33);
  const Model model = correlated_model(ld.dataset);
  // Identity covariance, zero mean; params layout: mean | chol | logdet.
  std::vector<double> params = {0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0};
  const double x0 = ld.dataset.real_value(3, 0);
  const double x1 = ld.dataset.real_value(3, 1);
  const double expected = -0.5 * (2.0 * kLog2Pi + x0 * x0 + x1 * x1) +
                          2.0 * std::log(0.01);  // error corrections
  EXPECT_NEAR(log_prob_one(model.term(0), 3, params), expected, 1e-10);
}

TEST(MultiNormal, RequiresTwoPlusRealAttributesAndNoMissing) {
  const Dataset one_col = real_dataset({1.0, 2.0});
  TermSpec spec;
  spec.kind = TermKind::kMultiNormal;
  spec.attributes = {0};
  EXPECT_THROW(Model(one_col, {spec}), pac::Error);

  data::LabeledDataset ld = data::paper_dataset(50, 2);
  ld.dataset.set_missing(7, 0);
  TermSpec block;
  block.kind = TermKind::kMultiNormal;
  block.attributes = {0, 1};
  EXPECT_THROW(Model(ld.dataset, {block}), pac::Error);
}

TEST(MultiNormal, WidthLimitCheckedAtConstruction) {
  // The kernels hold at most 32 attributes per block: a wider block must
  // fail when the model is built, naming the limit, not at the first fit.
  auto reals = [](std::size_t dim) {
    std::vector<Attribute> attrs;
    for (std::size_t a = 0; a < dim; ++a)
      attrs.push_back(
          Attribute::real(std::string("x").append(std::to_string(a)), 0.01));
    Dataset d(Schema(std::move(attrs)), 40);
    Xoshiro256ss rng(7);
    for (std::size_t i = 0; i < 40; ++i)
      for (std::size_t a = 0; a < dim; ++a) d.set_real(i, a, normal01(rng));
    return d;
  };
  const Dataset wide = reals(33);
  try {
    (void)Model::correlated_model(wide);
    ADD_FAILURE() << "expected pac::Error";
  } catch (const pac::Error& e) {
    EXPECT_NE(std::string(e.what()).find("32-attribute limit"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("block(x0,"), std::string::npos)
        << e.what();
  }
  const Dataset widest = reals(32);
  EXPECT_NO_THROW((void)Model::correlated_model(widest));
}

TEST(MultiNormal, LogLikelihoodOfStatsMatchesDirectSum) {
  const data::LabeledDataset ld = data::paper_dataset(50, 21);
  const Model model = correlated_model(ld.dataset);
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  std::vector<double> weights(50);
  for (std::size_t i = 0; i < 50; ++i) {
    weights[i] = 0.1 + 0.015 * static_cast<double>(i);
    accumulate_one(term, i, weights[i], stats);
  }
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  double direct = 0.0;
  for (std::size_t i = 0; i < 50; ++i)
    direct += weights[i] * log_prob_one(term, i, params);
  EXPECT_NEAR(term.log_likelihood_of_stats(stats, params), direct, 1e-7);
}

TEST(MultiNormal, MarginalIsFiniteAndPenalizesSpread) {
  const data::LabeledDataset tight = data::correlated_mixture(
      {{1.0, {0.0, 0.0}, {0.1, 0.0, 0.0, 0.1}}}, 200, 41);
  const Model model = correlated_model(tight.dataset);
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  for (std::size_t i = 0; i < 200; ++i) accumulate_one(term, i, 1.0, stats);
  const double m = term.log_marginal(stats);
  EXPECT_TRUE(std::isfinite(m));
  // Empty stats contribute zero.
  std::vector<double> empty(term.stats_size(), 0.0);
  EXPECT_EQ(term.log_marginal(empty), 0.0);
}

TEST(MultiNormal, InfluenceSmallAtGlobalLargeFarAway) {
  const data::LabeledDataset ld = data::correlated_mixture(
      {{1.0, {0.0, 0.0}, {1.0, 0.0, 0.0, 1.0}}}, 5000, 43);
  const Model model = correlated_model(ld.dataset);
  const auto global_fit = fit_single_class(model);
  EXPECT_LT(model.term(0).influence(global_fit), 0.05);
  std::vector<double> distant = global_fit;
  distant[0] += 50.0;
  EXPECT_GT(model.term(0).influence(distant), 100.0);
}

// ---- model structure ----

TEST(Model, DefaultModelCoversAllAttributes) {
  std::vector<data::MixedComponent> mix(1);
  mix[0] = {1.0, {0.0}, {1.0}, {{0.5, 0.5}}};
  const data::LabeledDataset ld = data::mixed_mixture(mix, 20, 51);
  const Model model = Model::default_model(ld.dataset);
  EXPECT_EQ(model.num_terms(), 2u);
  EXPECT_EQ(model.covered_attributes(), 2u);
  EXPECT_EQ(model.term(0).spec().kind, TermKind::kSingleNormal);
  EXPECT_EQ(model.term(1).spec().kind, TermKind::kSingleMultinomial);
}

TEST(Model, OffsetsTileTheFlatLayout) {
  std::vector<data::MixedComponent> mix(1);
  mix[0] = {1.0, {0.0, 0.0}, {1.0, 1.0}, {{0.5, 0.5}}};
  const data::LabeledDataset ld = data::mixed_mixture(mix, 20, 52);
  const Model model = Model::default_model(ld.dataset);
  std::size_t p = 0, s = 0;
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    EXPECT_EQ(model.param_offset(t), p);
    EXPECT_EQ(model.stats_offset(t), s);
    p += model.term(t).param_size();
    s += model.term(t).stats_size();
  }
  EXPECT_EQ(model.params_per_class(), p);
  EXPECT_EQ(model.stats_per_class(), s);
}

TEST(Model, RejectsUncoveredOrDoublyCoveredAttributes) {
  const data::LabeledDataset ld = data::paper_dataset(20, 53);
  TermSpec only_first;
  only_first.kind = TermKind::kSingleNormal;
  only_first.attributes = {0};
  EXPECT_THROW(Model(ld.dataset, {only_first}), pac::Error);

  TermSpec duplicate = only_first;
  TermSpec both;
  both.kind = TermKind::kMultiNormal;
  both.attributes = {0, 1};
  EXPECT_THROW(Model(ld.dataset, {duplicate, both}), pac::Error);
}

TEST(Model, RejectsKindMismatches) {
  const Dataset d = discrete_dataset({0, 1}, 2);
  TermSpec wrong;
  wrong.kind = TermKind::kSingleNormal;
  wrong.attributes = {0};
  EXPECT_THROW(Model(d, {wrong}), pac::Error);
}

TEST(Model, FreeParamsCountsMixingWeights) {
  const data::LabeledDataset ld = data::paper_dataset(20, 54);
  const Model model = Model::default_model(ld.dataset);
  // 2 normal terms x 2 free params = 4 per class; J classes + (J-1) weights.
  EXPECT_EQ(model.free_params(3), 3u * 4u + 2u);
}

TEST(Model, DescribeMentionsAttributeName) {
  const Dataset d = real_dataset({1.0, 2.0});
  const Model model = Model::default_model(d);
  std::vector<double> params = {1.5, 0.5, std::log(0.5)};
  EXPECT_NE(model.term(0).describe(params).find("x"), std::string::npos);
}

}  // namespace
}  // namespace pac::ac

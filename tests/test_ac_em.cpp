// Tests for the EM engine: weight normalization, monotone improvement,
// convergence, pruning, parameter recovery, and missing-data handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "autoclass/em.hpp"
#include "autoclass/report.hpp"
#include "autoclass/search.hpp"
#include "data/synth.hpp"
#include "util/error.hpp"

namespace pac::ac {
namespace {

EmWorker whole_data_worker(const Model& model, Reducer& reducer) {
  return EmWorker(model, data::ItemRange{0, model.dataset().num_items()},
                  reducer);
}

TEST(EmWorker, RandomInitWeightsSumToItemCount) {
  const data::LabeledDataset ld = data::paper_dataset(1000, 1);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 4);
  worker.random_init(c, 99, 0, EmConfig{});
  double total = 0.0;
  for (std::size_t j = 0; j < 4; ++j) total += c.weight(j);
  EXPECT_NEAR(total, 1000.0, 1e-9);
  // Smoothed seeding: the spread share guarantees every class a floor of
  // N * (1 - hard) / (J - 1) even if its seed attracts nothing.
  for (std::size_t j = 0; j < 4; ++j) EXPECT_GT(c.weight(j), 10.0);
}

TEST(EmWorker, RandomInitDependsOnTryIndex) {
  const data::LabeledDataset ld = data::paper_dataset(100, 2);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification a(model, 4), b(model, 4), c(model, 4);
  worker.random_init(a, 7, 0, EmConfig{});
  worker.random_init(b, 7, 1, EmConfig{});
  worker.random_init(c, 7, 0, EmConfig{});
  EXPECT_NE(a.weight(0), b.weight(0));   // different try, different init
  EXPECT_EQ(a.weight(0), c.weight(0));   // same try, identical init
}

TEST(EmWorker, RandomInitOverwritesEveryWeight) {
  // random_init and prune_and_refit size the weight matrix without zeroing
  // it, so the seed scan and update_wts must write every value.  One worker
  // reused across tries at J 8 -> 3 -> 8, with a prune and refit after each
  // try, must hold after every random_init exactly a fresh worker's
  // weights, and after every refit rows that each sum to 1.
  const data::LabeledDataset ld = data::paper_dataset(1001, 71);
  const Model model = Model::default_model(ld.dataset);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    EmConfig config;
    config.threads = threads;
    config.max_cycles = 4;
    Reducer identity;
    EmWorker reused = whole_data_worker(model, identity);
    std::uint64_t try_index = 0;
    for (const std::size_t j : {8u, 3u, 8u}) {
      SCOPED_TRACE(j);
      Classification c(model, j);
      reused.random_init(c, 19, try_index, config);
      Reducer fresh_identity;
      EmWorker fresh = whole_data_worker(model, fresh_identity);
      Classification fresh_c(model, j);
      fresh.random_init(fresh_c, 19, try_index, config);
      const auto got = reused.local_weights();
      const auto want = fresh.local_weights();
      ASSERT_EQ(got.size(), 1001 * j);
      ASSERT_EQ(want.size(), got.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0);

      // Prune the lightest class, so the refit reshapes the matrix to J-1.
      reused.converge(c, config);
      EmConfig prune = config;
      prune.min_class_weight =
          *std::min_element(c.weights().begin(), c.weights().end()) + 1e-9;
      const Classification pruned = reused.prune_and_refit(c, prune);
      ASSERT_EQ(pruned.num_classes(), j - 1);
      const auto refit = reused.local_weights();
      ASSERT_EQ(refit.size(), 1001 * (j - 1));
      for (std::size_t i = 0; i < 1001; ++i) {
        const double* row = refit.data() + i * (j - 1);
        EXPECT_NEAR(std::accumulate(row, row + j - 1, 0.0), 1.0, 1e-12)
            << "item " << i;
      }
      ++try_index;
    }
  }
}

TEST(EmWorker, UpdateWtsProducesNormalizedMemberships) {
  const data::LabeledDataset ld = data::paper_dataset(500, 3);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 3);
  worker.random_init(c, 1, 0, EmConfig{});
  worker.update_parameters(c);
  worker.update_wts(c);
  const auto weights = worker.local_weights();
  ASSERT_EQ(weights.size(), 500u * 3u);
  for (std::size_t i = 0; i < 500; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      const double w = weights[i * 3 + j];
      ASSERT_GE(w, 0.0);
      ASSERT_LE(w, 1.0 + 1e-12);
      row_sum += w;
    }
    ASSERT_NEAR(row_sum, 1.0, 1e-9);
  }
  // Class weights are the column sums.
  for (std::size_t j = 0; j < 3; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < 500; ++i) col += weights[i * 3 + j];
    EXPECT_NEAR(col, c.weight(j), 1e-9);
  }
}

TEST(EmWorker, LogLikelihoodImprovesAcrossCycles) {
  const data::LabeledDataset ld = data::paper_dataset(2000, 4);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 5);
  worker.random_init(c, 11, 0, EmConfig{});
  worker.update_parameters(c);
  double previous = worker.update_wts(c);
  for (int cycle = 0; cycle < 15; ++cycle) {
    worker.update_parameters(c);
    const double current = worker.update_wts(c);
    // MAP-EM is monotone up to the prior terms; allow a hair of slack.
    EXPECT_GT(current, previous - 1e-6);
    previous = current;
  }
}

TEST(EmWorker, ConvergesOnEasyData) {
  const std::vector<data::GaussianComponent> mix = {
      {0.5, {0.0}, {0.5}}, {0.5, {50.0}, {0.5}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 1000, 5);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 2);
  EmConfig config;
  worker.random_init(c, 3, 0, config);
  const ConvergeOutcome outcome = worker.converge(c, config);
  EXPECT_TRUE(outcome.converged);
  EXPECT_LT(outcome.cycles, config.max_cycles);
  // Two classes centred near 0 and 50 (order by weight is arbitrary).
  c.sort_classes_by_weight();
  std::vector<double> means = {c.param_block(0, 0)[0],
                               c.param_block(1, 0)[0]};
  std::sort(means.begin(), means.end());
  EXPECT_NEAR(means[0], 0.0, 0.2);
  EXPECT_NEAR(means[1], 50.0, 0.2);
  // Perfectly separated classes: memberships are essentially hard
  // (the paper's Sec. 2 "well separated" criterion).
  EXPECT_GT(mean_max_membership(c), 0.99);
}

TEST(EmWorker, RecoversMixingProportions) {
  const std::vector<data::GaussianComponent> mix = {
      {0.7, {0.0}, {1.0}}, {0.3, {30.0}, {1.0}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 5000, 6);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 2);
  EmConfig config;
  worker.random_init(c, 5, 0, config);
  worker.converge(c, config);
  c.sort_classes_by_weight();
  EXPECT_NEAR(c.weight(0) / 5000.0, 0.7, 0.02);
  EXPECT_NEAR(c.weight(1) / 5000.0, 0.3, 0.02);
}

TEST(EmWorker, PruningRemovesEmptyClasses) {
  // Far more classes than structure: most must wither and be absorbed.
  const std::vector<data::GaussianComponent> mix = {
      {0.5, {0.0}, {0.3}}, {0.5, {20.0}, {0.3}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 400, 7);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 16);
  EmConfig config;
  config.max_cycles = 120;
  worker.random_init(c, 17, 0, config);
  worker.converge(c, config);
  const Classification pruned = worker.prune_and_refit(c, config);
  EXPECT_LT(pruned.num_classes(), 16u);
  EXPECT_EQ(pruned.initial_classes, 16);
  // Every surviving class clears the weight floor.
  for (std::size_t j = 0; j < pruned.num_classes(); ++j)
    EXPECT_GE(pruned.weight(j), config.min_class_weight);
  // Scores are refreshed for the pruned model.
  EXPECT_TRUE(std::isfinite(pruned.cs_score));
}

TEST(EmWorker, PruningDisabledKeepsAllClasses) {
  const data::LabeledDataset ld = data::paper_dataset(300, 8);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 8);
  EmConfig config;
  config.min_class_weight = 0.0;  // disabled
  worker.random_init(c, 19, 0, config);
  worker.converge(c, config);
  const Classification same = worker.prune_and_refit(c, config);
  EXPECT_EQ(same.num_classes(), 8u);
}

TEST(EmWorker, HandlesMissingValues) {
  data::LabeledDataset ld = data::paper_dataset(1500, 9);
  data::inject_missing(ld.dataset, 0.15, 10);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 5);
  EmConfig config;
  worker.random_init(c, 23, 0, config);
  const ConvergeOutcome outcome = worker.converge(c, config);
  EXPECT_GT(outcome.cycles, 0);
  EXPECT_TRUE(std::isfinite(c.log_likelihood));
  EXPECT_TRUE(std::isfinite(c.cs_score));
}

TEST(EmWorker, FitsDiscreteDataWithMultinomials) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.5, {{0.9, 0.05, 0.05}, {0.8, 0.2}}},
      {0.5, {{0.05, 0.05, 0.9}, {0.2, 0.8}}},
  };
  const data::LabeledDataset ld = data::categorical_mixture(mix, 3000, 11);
  const Model model = Model::default_model(ld.dataset);
  // Discrete seeds can coincide, so use a few restarts (as AutoClass does)
  // and score the best classification.
  SearchConfig search;
  search.start_j_list = {2};
  search.max_tries = 3;
  search.em.max_cycles = 60;
  const SearchResult result = sequential_search(model, search);
  const auto labels = assign_labels(result.top());
  EXPECT_GT(data::adjusted_rand_index(ld.labels, labels), 0.5);
}

TEST(EmWorker, FitsCorrelatedDataWithMultiNormalBlock) {
  const double r = 0.95;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {0.0, 6.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 3000, 12);
  TermSpec block;
  block.kind = TermKind::kMultiNormal;
  block.attributes = {0, 1};
  const Model model(ld.dataset, {block});
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 2);
  EmConfig config;
  worker.random_init(c, 31, 0, config);
  worker.converge(c, config);
  const auto labels = assign_labels(c);
  EXPECT_GT(data::adjusted_rand_index(ld.labels, labels), 0.9);
}

TEST(EmWorker, CsScoreBelowLogLikelihood) {
  // The marginal-likelihood approximation integrates over parameters, so it
  // must be below the maximized likelihood.
  const data::LabeledDataset ld = data::paper_dataset(800, 13);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 4);
  EmConfig config;
  worker.random_init(c, 37, 0, config);
  worker.converge(c, config);
  EXPECT_LT(c.cs_score, c.log_likelihood);
  EXPECT_LT(c.bic_score, c.log_likelihood);
}

TEST(EmWorker, MixedTypeDataEndToEnd) {
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.6, {0.0}, {1.0}, {{0.9, 0.1}}};
  mix[1] = {0.4, {8.0}, {1.0}, {{0.1, 0.9}}};
  const data::LabeledDataset ld = data::mixed_mixture(mix, 2500, 14);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 2);
  EmConfig config;
  worker.random_init(c, 41, 0, config);
  worker.converge(c, config);
  const auto labels = assign_labels(c);
  EXPECT_GT(data::adjusted_rand_index(ld.labels, labels), 0.9);
}

TEST(EmWorker, StatisticsMatchManualAccumulation) {
  // The statistics buffer after update_parameters must equal hand-computed
  // weighted sums over the membership matrix.
  const data::LabeledDataset ld = data::paper_dataset(120, 33);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 3);
  EmConfig config;
  worker.random_init(c, 71, 0, config);
  worker.update_parameters(c);
  worker.update_wts(c);
  worker.update_parameters(c);

  const auto weights = worker.local_weights();
  const auto stats = worker.statistics();
  const std::size_t spc = model.stats_per_class();
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t a = 0; a < 2; ++a) {
      // single_normal stats: [sw, swx, swx2] at offset a*3.
      double sw = 0.0, swx = 0.0, swx2 = 0.0;
      for (std::size_t i = 0; i < 120; ++i) {
        const double w = weights[i * 3 + j];
        const double x = ld.dataset.real_value(i, a);
        sw += w;
        swx += w * x;
        swx2 += w * x * x;
      }
      const double* block = stats.data() + j * spc + model.stats_offset(a);
      EXPECT_NEAR(block[0], sw, 1e-9);
      EXPECT_NEAR(block[1], swx, 1e-9);
      EXPECT_NEAR(block[2], swx2, 1e-8);
    }
  }
}

TEST(EmWorker, ChargesReportedToReducer) {
  // A counting reducer must see one weights-reduce and one stats-reduce per
  // cycle plus the per-phase charge callbacks.
  class CountingReducer : public Reducer {
   public:
    void reduce_weights(std::span<double>) override { ++weight_reduces; }
    void reduce_statistics(std::span<double>, std::size_t) override {
      ++stats_reduces;
    }
    void charge(const PhaseWork& work) override {
      switch (work.phase) {
        case Phase::kUpdateWts: ++wts_charges; break;
        case Phase::kUpdateParams: ++params_charges; break;
        case Phase::kUpdateApprox: ++approx_charges; break;
        default: break;
      }
    }
    int weight_reduces = 0, stats_reduces = 0;
    int wts_charges = 0, params_charges = 0, approx_charges = 0;
  };
  const data::LabeledDataset ld = data::paper_dataset(200, 15);
  const Model model = Model::default_model(ld.dataset);
  CountingReducer reducer;
  EmWorker worker(model, data::ItemRange{0, 200}, reducer);
  Classification c(model, 3);
  EmConfig config;
  worker.random_init(c, 43, 0, config);
  const int before_wts = reducer.weight_reduces;
  worker.update_parameters(c);
  worker.update_wts(c);
  worker.update_approximations(c);
  EXPECT_EQ(reducer.weight_reduces, before_wts + 1);
  EXPECT_EQ(reducer.stats_reduces, 1);
  EXPECT_EQ(reducer.wts_charges, 1);
  EXPECT_EQ(reducer.params_charges, 1);
  EXPECT_EQ(reducer.approx_charges, 1);
}

TEST(EmWorker, SigmaDeltaConvergenceAlsoStops) {
  const std::vector<data::GaussianComponent> mix = {
      {0.5, {0.0}, {0.5}}, {0.5, {40.0}, {0.5}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 800, 30);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 2);
  EmConfig config;
  config.convergence = ConvergenceKind::kSigmaDelta;
  config.sigma_window = 4;
  worker.random_init(c, 61, 0, config);
  const ConvergeOutcome outcome = worker.converge(c, config);
  EXPECT_TRUE(outcome.converged);
  EXPECT_LT(outcome.cycles, config.max_cycles);
  c.sort_classes_by_weight();
  std::vector<double> means = {c.param_block(0, 0)[0],
                               c.param_block(1, 0)[0]};
  std::sort(means.begin(), means.end());
  EXPECT_NEAR(means[0], 0.0, 0.2);
  EXPECT_NEAR(means[1], 40.0, 0.2);
}

TEST(EmWorker, SigmaDeltaAndRelDeltaReachTheSameOptimum) {
  const data::LabeledDataset ld = data::paper_dataset(700, 31);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  EmConfig rel;
  EmConfig sigma;
  sigma.convergence = ConvergenceKind::kSigmaDelta;
  Classification a(model, 4), b(model, 4);
  worker.random_init(a, 63, 0, rel);
  worker.converge(a, rel);
  worker.random_init(b, 63, 0, sigma);
  worker.converge(b, sigma);
  EXPECT_NEAR(a.cs_score, b.cs_score, 1e-3 * (1.0 + std::abs(a.cs_score)));
}

TEST(EmWorker, SigmaWindowValidated) {
  const data::LabeledDataset ld = data::paper_dataset(50, 32);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 2);
  EmConfig config;
  config.convergence = ConvergenceKind::kSigmaDelta;
  config.sigma_window = 1;
  worker.random_init(c, 65, 0, config);
  EXPECT_THROW(worker.converge(c, config), pac::Error);
}

TEST(EmWorker, RequiresInitBeforeCycling) {
  const data::LabeledDataset ld = data::paper_dataset(50, 16);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 3);
  EXPECT_THROW(worker.update_wts(c), pac::Error);
  EXPECT_THROW(worker.update_parameters(c), pac::Error);
}

// ---- report utilities ----

TEST(Report, MembershipSumsToOne) {
  const data::LabeledDataset ld = data::paper_dataset(300, 17);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 4);
  EmConfig config;
  worker.random_init(c, 47, 0, config);
  worker.converge(c, config);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto m = membership(c, i * 17);
    EXPECT_NEAR(std::accumulate(m.begin(), m.end(), 0.0), 1.0, 1e-9);
  }
}

TEST(Report, InfluenceReportIsSortedAndComplete) {
  const data::LabeledDataset ld = data::paper_dataset(300, 18);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 3);
  EmConfig config;
  worker.random_init(c, 53, 0, config);
  worker.converge(c, config);
  const auto report = influence_report(c);
  EXPECT_EQ(report.size(), 3u * 2u);
  for (std::size_t i = 1; i < report.size(); ++i)
    EXPECT_GE(report[i - 1].influence, report[i].influence);
}

TEST(Report, PrintReportMentionsClassesAndInfluence) {
  const data::LabeledDataset ld = data::paper_dataset(200, 19);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker = whole_data_worker(model, identity);
  Classification c(model, 2);
  EmConfig config;
  worker.random_init(c, 59, 0, config);
  worker.converge(c, config);
  std::ostringstream os;
  print_report(os, c);
  EXPECT_NE(os.str().find("class 0"), std::string::npos);
  EXPECT_NE(os.str().find("Influence"), std::string::npos);
}

}  // namespace
}  // namespace pac::ac

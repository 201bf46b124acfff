// Tests for the model-level search (BIG_LOOP): J selection, duplicate
// elimination, leaderboard maintenance, and end-to-end model recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "autoclass/report.hpp"
#include "autoclass/search.hpp"
#include "data/synth.hpp"
#include "util/error.hpp"

namespace pac::ac {
namespace {

TEST(SelectJ, WalksTheStartListFirst) {
  SearchConfig config;
  config.start_j_list = {2, 4, 8};
  for (int t = 0; t < 3; ++t)
    EXPECT_EQ(select_j(config, t, {}), config.start_j_list[t]);
}

TEST(SelectJ, CyclesListWithoutEvidence) {
  SearchConfig config;
  config.start_j_list = {2, 4};
  EXPECT_EQ(select_j(config, 2, {}), 2);
  EXPECT_EQ(select_j(config, 3, {3}), 4);  // one best J is not enough
}

TEST(SelectJ, SamplesNearBestJs) {
  SearchConfig config;
  config.start_j_list = {2, 4, 8, 16};
  config.seed = 5;
  const std::vector<int> best = {6, 8, 7};
  std::set<int> seen;
  for (int t = 4; t < 40; ++t) {
    const int j = select_j(config, t, best);
    EXPECT_GE(j, 2);
    EXPECT_LE(j, 32);  // clamped to 2x max(start_j_list)
    seen.insert(j);
  }
  // The log-normal is centred near 7; most draws must land nearby.
  int close = 0;
  for (int t = 4; t < 40; ++t) {
    const int j = select_j(config, t, best);
    if (j >= 4 && j <= 14) ++close;
  }
  EXPECT_GT(close, 25);
  EXPECT_GT(seen.size(), 1u);  // it actually samples, not a constant
}

TEST(SelectJ, DeterministicInSeedAndTry) {
  SearchConfig config;
  config.seed = 11;
  const std::vector<int> best = {4, 9};
  for (int t = 10; t < 15; ++t)
    EXPECT_EQ(select_j(config, t, best), select_j(config, t, best));
}

TEST(RunSearch, KeepsLeaderboardSortedAndBounded) {
  const data::LabeledDataset ld = data::paper_dataset(300, 1);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2, 3, 4, 5, 6};
  config.max_tries = 5;
  config.keep_best = 2;
  config.em.max_cycles = 30;
  const SearchResult result = sequential_search(model, config);
  EXPECT_EQ(result.tries, 5);
  EXPECT_LE(result.best.size(), 2u);
  for (std::size_t i = 1; i < result.best.size(); ++i)
    EXPECT_GE(score_of(result.best[i - 1].classification, config.score),
              score_of(result.best[i].classification, config.score));
  EXPECT_GT(result.total_cycles, 0);
}

TEST(RunSearch, DuplicateEliminationCountsRepeats) {
  // A runner returning the same classification every time: all but the
  // first try must be flagged as duplicates.
  const data::LabeledDataset ld = data::paper_dataset(200, 2);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.max_tries = 4;
  config.start_j_list = {3};

  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 200}, identity);
  Classification fixed(model, 3);
  worker.random_init(fixed, 1, 0, config.em);
  worker.converge(fixed, config.em);

  const TryRunner constant_runner = [&](int, int) {
    return TryResult{fixed};
  };
  const SearchResult result = run_search(model, config, constant_runner);
  EXPECT_EQ(result.duplicates, 3);
  EXPECT_EQ(result.best.size(), 1u);
}

TEST(RunSearch, ClassCountAdaptsToData) {
  // Three well-separated clusters: starting from J in {2,...,8} the search
  // must settle on exactly 3 classes.
  const std::vector<data::GaussianComponent> mix = {
      {0.34, {0.0}, {0.5}}, {0.33, {20.0}, {0.5}}, {0.33, {-20.0}, {0.5}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 1500, 3);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2, 3, 5, 8};
  config.max_tries = 4;
  config.em.max_cycles = 80;
  const SearchResult result = sequential_search(model, config);
  EXPECT_EQ(result.top().num_classes(), 3u);
  const auto labels = assign_labels(result.top());
  EXPECT_GT(data::adjusted_rand_index(ld.labels, labels), 0.95);
}

TEST(RunSearch, OverfittedStartsGetPrunedDown) {
  const std::vector<data::GaussianComponent> mix = {
      {0.5, {0.0}, {1.0}}, {0.5, {15.0}, {1.0}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 800, 4);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {16};
  config.max_tries = 1;
  config.em.max_cycles = 100;
  const SearchResult result = sequential_search(model, config);
  EXPECT_LT(result.top().num_classes(), 16u);
  EXPECT_EQ(result.best.front().classification.initial_classes, 16);
}

TEST(RunSearch, BicAndCsUsuallyAgreeOnEasyData) {
  const std::vector<data::GaussianComponent> mix = {
      {0.5, {0.0}, {0.5}}, {0.5, {30.0}, {0.5}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 600, 5);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2, 4};
  config.max_tries = 2;
  config.em.max_cycles = 60;
  config.score = ScoreKind::kCheesemanStutz;
  const SearchResult cs = sequential_search(model, config);
  config.score = ScoreKind::kBic;
  const SearchResult bic = sequential_search(model, config);
  EXPECT_EQ(cs.top().num_classes(), bic.top().num_classes());
}

TEST(RunSearch, ClassesSortedByWeightInResults) {
  const data::LabeledDataset ld = data::paper_dataset(500, 6);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {5};
  config.max_tries = 1;
  config.em.max_cycles = 60;
  const SearchResult result = sequential_search(model, config);
  const Classification& top = result.top();
  for (std::size_t j = 1; j < top.num_classes(); ++j)
    EXPECT_GE(top.weight(j - 1), top.weight(j));
}

TEST(RunSearch, ValidatesConfig) {
  const data::LabeledDataset ld = data::paper_dataset(50, 7);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.max_tries = 0;
  EXPECT_THROW(sequential_search(model, config), pac::Error);
  config.max_tries = 1;
  config.keep_best = 0;
  EXPECT_THROW(sequential_search(model, config), pac::Error);
}

TEST(RunSearch, TopThrowsOnEmptyResult) {
  const SearchResult empty;
  EXPECT_THROW(empty.top(), pac::Error);
}

TEST(RunSearch, PatienceStopsStaleSearches) {
  // A constant runner: after the first kept try, everything is a duplicate,
  // so patience = 2 must stop the loop after 2 more tries.
  const data::LabeledDataset ld = data::paper_dataset(200, 11);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.max_tries = 50;
  config.patience = 2;
  config.start_j_list = {3};

  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 200}, identity);
  Classification fixed(model, 3);
  worker.random_init(fixed, 1, 0, config.em);
  worker.converge(fixed, config.em);
  const TryRunner constant_runner = [&](int, int) {
    return TryResult{fixed};
  };
  const SearchResult result = run_search(model, config, constant_runner);
  EXPECT_EQ(result.tries, 3);  // 1 kept + 2 stale
  EXPECT_EQ(result.duplicates, 2);
}

TEST(RunSearch, CycleBudgetStopsSearch) {
  const data::LabeledDataset ld = data::paper_dataset(400, 12);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2, 4, 8, 16};
  config.max_tries = 4;
  config.em.max_cycles = 30;
  config.max_total_cycles = 1;  // exhausted after the first try
  const SearchResult result = sequential_search(model, config);
  EXPECT_EQ(result.tries, 1);
  EXPECT_GE(result.total_cycles, 1);
}

TEST(RunSearch, ZeroPatienceNeverStopsEarly) {
  const data::LabeledDataset ld = data::paper_dataset(200, 13);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2, 3};
  config.max_tries = 4;
  config.patience = 0;
  config.em.max_cycles = 15;
  const SearchResult result = sequential_search(model, config);
  EXPECT_EQ(result.tries, 4);
}

TEST(CorrelatedModel, BuildsOneBlockPlusMultinomials) {
  std::vector<data::MixedComponent> mix(1);
  mix[0] = {1.0, {0.0, 1.0, 2.0}, {1.0, 1.0, 1.0}, {{0.5, 0.5}}};
  const data::LabeledDataset ld = data::mixed_mixture(mix, 100, 14);
  const Model model = Model::correlated_model(ld.dataset);
  ASSERT_EQ(model.num_terms(), 2u);
  // Terms: one multinomial (attr 3) and one 3-attribute multi_normal block.
  bool saw_block = false, saw_multinomial = false;
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    if (model.term(t).spec().kind == TermKind::kMultiNormal) {
      saw_block = true;
      EXPECT_EQ(model.term(t).num_attributes(), 3u);
    }
    if (model.term(t).spec().kind == TermKind::kSingleMultinomial)
      saw_multinomial = true;
  }
  EXPECT_TRUE(saw_block);
  EXPECT_TRUE(saw_multinomial);
}

TEST(CorrelatedModel, SingleRealFallsBackToSingleNormal) {
  std::vector<data::GaussianComponent> mix = {{1.0, {0.0}, {1.0}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 50, 15);
  const Model model = Model::correlated_model(ld.dataset);
  ASSERT_EQ(model.num_terms(), 1u);
  EXPECT_EQ(model.term(0).spec().kind, TermKind::kSingleNormal);
}

TEST(CorrelatedModel, BeatsIndependentModelOnCorrelatedData) {
  const double r = 0.95;
  const std::vector<data::CorrelatedComponent> mix = {
      {1.0, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}}};
  const data::LabeledDataset ld = data::correlated_mixture(mix, 2000, 16);
  SearchConfig config;
  config.start_j_list = {1};
  config.max_tries = 1;
  config.em.max_cycles = 20;
  const Model independent = Model::default_model(ld.dataset);
  const Model correlated = Model::correlated_model(ld.dataset);
  const double score_ind =
      sequential_search(independent, config).top().cs_score;
  const double score_cor =
      sequential_search(correlated, config).top().cs_score;
  // Modeling the correlation captures ~half the entropy of the block.
  EXPECT_GT(score_cor, score_ind + 100.0);
}

TEST(Duplicates, DifferentJNeverDuplicates) {
  const data::LabeledDataset ld = data::paper_dataset(100, 8);
  const Model model = Model::default_model(ld.dataset);
  const Classification a(model, 3);
  const Classification b(model, 4);
  EXPECT_FALSE(a.is_duplicate_of(b, 1.0, 1.0));
}

TEST(Duplicates, WeightPermutationStillDuplicates) {
  const data::LabeledDataset ld = data::paper_dataset(100, 9);
  const Model model = Model::default_model(ld.dataset);
  Classification a(model, 2), b(model, 2);
  a.mutable_weights()[0] = 70.0;
  a.mutable_weights()[1] = 30.0;
  b.mutable_weights()[0] = 30.0;
  b.mutable_weights()[1] = 70.0;
  a.cs_score = b.cs_score = -500.0;
  EXPECT_TRUE(a.is_duplicate_of(b, 1e-4, 1e-3));
}

TEST(Duplicates, ScoreGapBreaksDuplicate) {
  const data::LabeledDataset ld = data::paper_dataset(100, 10);
  const Model model = Model::default_model(ld.dataset);
  Classification a(model, 2), b(model, 2);
  a.cs_score = -500.0;
  b.cs_score = -600.0;
  EXPECT_FALSE(a.is_duplicate_of(b, 1e-4, 1e-3));
}

TEST(Duplicates, RelationIsSymmetric) {
  // The score tolerance used to scale with |this->cs_score| only, so for
  // scores of different magnitude (possible when they straddle zero)
  // a.is_duplicate_of(b) could disagree with b.is_duplicate_of(a) — fatal
  // for a merge rule that must not depend on comparison order.
  const data::LabeledDataset ld = data::paper_dataset(100, 21);
  const Model model = Model::default_model(ld.dataset);
  Classification a(model, 2), b(model, 2);
  a.mutable_weights()[0] = b.mutable_weights()[0] = 60.0;
  a.mutable_weights()[1] = b.mutable_weights()[1] = 40.0;
  // |a - b| = 1.0 sits between 0.7*(1+0.1) and 0.7*(1+0.9): the old
  // asymmetric scaling called this a duplicate from a's side only.
  a.cs_score = 0.9;
  b.cs_score = -0.1;
  EXPECT_EQ(a.is_duplicate_of(b, 0.7, 1e-3), b.is_duplicate_of(a, 0.7, 1e-3));
  EXPECT_TRUE(a.is_duplicate_of(b, 0.7, 1e-3));  // max-magnitude scaling
  // Property over a grid of score pairs and tolerances.
  const double scores[] = {-1000.0, -1000.05, -0.5, 0.0, 0.4, 0.9, 1000.0};
  for (const double sa : scores)
    for (const double sb : scores)
      for (const double tol : {1e-4, 1e-2, 0.7}) {
        a.cs_score = sa;
        b.cs_score = sb;
        EXPECT_EQ(a.is_duplicate_of(b, tol, 1e-3),
                  b.is_duplicate_of(a, tol, 1e-3))
            << "asymmetric at scores " << sa << " / " << sb << ", tol "
            << tol;
      }
}

TEST(Duplicates, NonPositiveWeightTotalsAreNotComparable) {
  // Two classifications whose weights sum to <= 0 carry no share
  // information; they used to be declared duplicates of *everything* with
  // a close score, which silently dropped real tries.
  const data::LabeledDataset ld = data::paper_dataset(100, 22);
  const Model model = Model::default_model(ld.dataset);
  Classification a(model, 2), b(model, 2);  // weights default to zero
  a.cs_score = b.cs_score = -500.0;
  EXPECT_FALSE(a.is_duplicate_of(b, 1.0, 1.0));
  EXPECT_FALSE(b.is_duplicate_of(a, 1.0, 1.0));
  // One degenerate side is just as non-comparable.
  b.mutable_weights()[0] = 60.0;
  b.mutable_weights()[1] = 40.0;
  EXPECT_FALSE(a.is_duplicate_of(b, 1.0, 1.0));
  EXPECT_FALSE(b.is_duplicate_of(a, 1.0, 1.0));
}

/// Runner returning synthetic non-duplicate classifications with a fixed
/// modeled cycle count per try (for budget arithmetic tests).
TryRunner fixed_cycle_runner(const Model& model, int cycles_per_try) {
  return [&model, cycles_per_try](int t, int) {
    Classification c(model, 2);
    c.mutable_weights()[0] = 60.0;
    c.mutable_weights()[1] = 40.0;
    c.cs_score = -500.0 - t;  // distinct scores: never duplicates
    c.cycles = cycles_per_try;
    return TryResult{std::move(c)};
  };
}

TEST(RunSearch, CycleBudgetOvershootReported) {
  const data::LabeledDataset ld = data::paper_dataset(50, 23);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2};
  config.max_tries = 50;
  config.max_total_cycles = 100;
  // 30 cycles per try: the budget is crossed DURING try 4 (120 >= 100).
  // The post-accumulation check must stop there and report the overshoot
  // instead of letting the loop schedule try 5 off a stale pre-check.
  const SearchResult result =
      run_search(model, config, fixed_cycle_runner(model, 30));
  EXPECT_EQ(result.tries, 4);
  EXPECT_EQ(result.total_cycles, 120);
  EXPECT_EQ(result.cycle_overshoot, 20);
}

TEST(RunSearch, NoOvershootWithoutBudget) {
  const data::LabeledDataset ld = data::paper_dataset(50, 24);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2};
  config.max_tries = 3;
  const SearchResult result =
      run_search(model, config, fixed_cycle_runner(model, 30));
  EXPECT_EQ(result.tries, 3);
  EXPECT_EQ(result.cycle_overshoot, 0);
}

/// Seed state holding one converged classification at try 0.
SearchResult seeded_state(const Classification& fixed) {
  SearchResult seed;
  seed.tries = 1;
  seed.total_cycles = fixed.cycles;
  TryResult entry{Classification(fixed)};
  entry.try_index = 0;
  entry.j_requested = static_cast<int>(fixed.num_classes());
  entry.converged = true;
  seed.best.push_back(std::move(entry));
  return seed;
}

TEST(RunSearchFrom, AllDuplicateContinuationKeepsSeedBoard) {
  // Resume from a leaderboard whose continuation tries are ALL duplicates:
  // the seeded board must survive (the PAC_CHECK non-empty invariant holds
  // because the seed entries count), and every continued try is counted as
  // a duplicate.
  const data::LabeledDataset ld = data::paper_dataset(200, 25);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.max_tries = 5;
  config.start_j_list = {3};

  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 200}, identity);
  Classification fixed(model, 3);
  worker.random_init(fixed, 1, 0, config.em);
  worker.converge(fixed, config.em);
  const TryRunner constant_runner = [&](int, int) {
    return TryResult{Classification(fixed)};
  };

  const SearchResult result = run_search_from(
      model, config, constant_runner, seeded_state(fixed));
  EXPECT_EQ(result.tries, 5);       // 1 seeded + 4 continued
  EXPECT_EQ(result.duplicates, 4);  // every continued try
  ASSERT_EQ(result.best.size(), 1u);
  EXPECT_EQ(result.best.front().try_index, 0);  // the seed entry survived
}

TEST(RunSearchFrom, PatienceCountsDuplicateContinuations) {
  // Same all-duplicate continuation, but patience = 2 stops the resumed
  // search after two stale tries instead of exhausting max_tries.
  const data::LabeledDataset ld = data::paper_dataset(200, 26);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.max_tries = 50;
  config.patience = 2;
  config.start_j_list = {3};

  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 200}, identity);
  Classification fixed(model, 3);
  worker.random_init(fixed, 1, 0, config.em);
  worker.converge(fixed, config.em);
  const TryRunner constant_runner = [&](int, int) {
    return TryResult{Classification(fixed)};
  };

  const SearchResult result = run_search_from(
      model, config, constant_runner, seeded_state(fixed));
  EXPECT_EQ(result.tries, 3);  // 1 seeded + 2 stale continuations
  EXPECT_EQ(result.duplicates, 2);
  ASSERT_EQ(result.best.size(), 1u);
}

TEST(ScheduledJ, WalksStartListThenSamplesFromIt) {
  SearchConfig config;
  config.start_j_list = {2, 4, 8};
  config.seed = 5;
  for (int t = 0; t < 3; ++t)
    EXPECT_EQ(scheduled_j(config, t), config.start_j_list[t]);
  for (int t = 3; t < 40; ++t) {
    const int j = scheduled_j(config, t);
    EXPECT_GE(j, 2);
    EXPECT_LE(j, 16);  // clamped to 2x max(start_j_list)
    // Pure function of (config, t): no leaderboard feedback, so a
    // sub-world can compute its slice without seeing the other tries.
    EXPECT_EQ(j, scheduled_j(config, t));
    EXPECT_EQ(j, select_j(config, t, config.start_j_list));
  }
}

/// A board entry with the given score/try/J for merge tests (J implied by
/// the weight count).
TryResult entry_for(const Model& model, double score, int try_index,
                    std::vector<double> weights) {
  Classification c(model, weights.size());
  for (std::size_t j = 0; j < weights.size(); ++j)
    c.mutable_weights()[j] = weights[j];
  c.cs_score = score;
  TryResult e{std::move(c)};
  e.try_index = try_index;
  e.j_requested = static_cast<int>(weights.size());
  return e;
}

TEST(MergeLeaderboards, OrderInvariantDeduplicatedAndTruncated) {
  const data::LabeledDataset ld = data::paper_dataset(100, 27);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.keep_best = 2;
  struct Spec {
    double score;
    int try_index;
    std::vector<double> weights;
  };
  std::vector<Spec> specs = {
      {-500.0, 0, {60.0, 40.0}},
      {-500.0, 3, {60.0, 40.0}},  // duplicate of try 0
      {-520.0, 1, {80.0, 20.0}},
      {-530.0, 2, {50.0, 50.0}},  // non-duplicate, beyond keep_best
  };
  for (int rot = 0; rot < 4; ++rot) {
    std::rotate(specs.begin(), specs.begin() + 1, specs.end());
    std::vector<TryResult> entries;
    for (const Spec& s : specs)
      entries.push_back(entry_for(model, s.score, s.try_index, s.weights));
    const MergedLeaderboard merged =
        merge_leaderboards(config, std::move(entries));
    ASSERT_EQ(merged.best.size(), 2u);
    EXPECT_EQ(merged.best[0].try_index, 0);  // score tie broken by try index
    EXPECT_EQ(merged.best[1].try_index, 1);
    EXPECT_EQ(merged.duplicates, 1);  // try 3 eliminated, try 2 truncated
  }
}

TEST(MergeLeaderboards, EqualScoresKeepLowestTryIndexFirst) {
  const data::LabeledDataset ld = data::paper_dataset(100, 28);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.keep_best = 3;
  std::vector<TryResult> entries;
  // Same score, different class counts: never duplicates of each other.
  entries.push_back(entry_for(model, -500.0, 5, {60.0, 40.0}));
  entries.push_back(entry_for(model, -500.0, 2, {50.0, 30.0, 20.0}));
  const MergedLeaderboard merged =
      merge_leaderboards(config, std::move(entries));
  ASSERT_EQ(merged.best.size(), 2u);
  EXPECT_EQ(merged.best[0].try_index, 2);
  EXPECT_EQ(merged.best[1].try_index, 5);
  EXPECT_EQ(merged.duplicates, 0);
}

}  // namespace
}  // namespace pac::ac

// Try-parallel search (ParallelConfig::try_groups): the merged leaderboard
// must be a pure function of (seed, completed try set) — bit-identical
// across the number of sub-worlds G at fixed sub-world size — and, with
// group-local patience and the split cycle budget on, the completed try
// set, the board and the modeled sweep time must be pure functions of
// (seed, config, G).  See DESIGN.md "Try-parallel search".
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "autoclass/report.hpp"
#include "core/pautoclass.hpp"
#include "data/synth.hpp"
#include "util/error.hpp"

namespace pac::core {
namespace {

mp::World::Config ideal_world(int ranks) {
  mp::World::Config cfg;
  cfg.num_ranks = ranks;
  cfg.machine = net::ideal_machine();
  return cfg;
}

/// Six tries over a three-entry start list so the schedule exercises both
/// the listed prefix and scheduled_j's log-normal tail.
ac::SearchConfig group_search_config() {
  ac::SearchConfig config;
  config.start_j_list = {2, 4, 6};
  config.max_tries = 6;
  config.keep_best = 3;
  config.em.max_cycles = 30;
  config.seed = 2024;
  return config;
}

void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << what << ": " << a << " vs " << b;
}

void expect_bits(std::span<const double> a, std::span<const double> b,
                 const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;  // memcmp on an empty span's null data is UB
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

/// Bitwise equality of two merged search results: counts, per-entry
/// metadata, scores, weights, parameters, and the induced hard labels.
void expect_bitwise_equal(const ac::SearchResult& a,
                          const ac::SearchResult& b) {
  EXPECT_EQ(a.tries, b.tries);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  ASSERT_EQ(a.best.size(), b.best.size());
  for (std::size_t i = 0; i < a.best.size(); ++i) {
    const ac::TryResult& x = a.best[i];
    const ac::TryResult& y = b.best[i];
    EXPECT_EQ(x.try_index, y.try_index);
    EXPECT_EQ(x.j_requested, y.j_requested);
    EXPECT_EQ(x.converged, y.converged);
    const ac::Classification& cx = x.classification;
    const ac::Classification& cy = y.classification;
    ASSERT_EQ(cx.num_classes(), cy.num_classes());
    EXPECT_EQ(cx.cycles, cy.cycles);
    expect_bits(cx.cs_score, cy.cs_score, "cs_score");
    expect_bits(cx.bic_score, cy.bic_score, "bic_score");
    expect_bits(cx.log_likelihood, cy.log_likelihood, "log_likelihood");
    expect_bits(cx.weights(), cy.weights(), "weights");
    expect_bits(cx.log_pis(), cy.log_pis(), "log_pi");
    expect_bits(cx.all_params(), cy.all_params(), "params");
    EXPECT_EQ(ac::assign_labels(cx), ac::assign_labels(cy));
  }
}

TEST(GroupSearch, MergedBoardIsBitIdenticalAcrossGroupCounts) {
  // Sub-world size fixed at 1: worlds of G ranks split into G groups.  Each
  // try's EM trajectory involves the same single-rank fold regardless of G,
  // so the merge contract promises bit identity — not mere closeness.
  const data::LabeledDataset ld = data::paper_dataset(600, 91);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  const ac::SearchConfig config = group_search_config();

  ParallelConfig g1;
  g1.try_groups = 1;
  mp::World w1(ideal_world(1));
  const ParallelOutcome base = run_parallel_search(w1, model, config, g1);
  ASSERT_FALSE(base.search.best.empty());
  EXPECT_EQ(base.search.tries, config.max_tries);

  for (const int groups : {2, 4}) {
    ParallelConfig gp;
    gp.try_groups = groups;
    mp::World world(ideal_world(groups));
    const ParallelOutcome out = run_parallel_search(world, model, config, gp);
    SCOPED_TRACE("groups=" + std::to_string(groups));
    expect_bitwise_equal(out.search, base.search);
  }
}

TEST(GroupSearch, MergedBoardIsBitIdenticalAtSubWorldSizeTwo) {
  // Same contract with distributed EM inside each group: 2 ranks / G=1 vs
  // 4 ranks / G=2 both run every try over a 2-rank sub-world, so the FP
  // fold shape — and hence every bit — matches.
  const data::LabeledDataset ld = data::paper_dataset(500, 92);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  const ac::SearchConfig config = group_search_config();

  ParallelConfig g1;
  g1.try_groups = 1;
  mp::World w2(ideal_world(2));
  const ParallelOutcome base = run_parallel_search(w2, model, config, g1);

  ParallelConfig g2;
  g2.try_groups = 2;
  mp::World w4(ideal_world(4));
  const ParallelOutcome split = run_parallel_search(w4, model, config, g2);
  expect_bitwise_equal(split.search, base.search);
}

TEST(GroupSearch, BoardEntriesHaveUniqueTryIndices) {
  const data::LabeledDataset ld = data::paper_dataset(400, 94);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  const ac::SearchConfig config = group_search_config();
  ParallelConfig gp;
  gp.try_groups = 2;
  mp::World world(ideal_world(4));
  const ParallelOutcome out = run_parallel_search(world, model, config, gp);

  std::set<int> seen;
  for (const ac::TryResult& entry : out.search.best) {
    EXPECT_TRUE(seen.insert(entry.try_index).second)
        << "try " << entry.try_index << " appears twice";
    EXPECT_GE(entry.try_index, 0);
    EXPECT_LT(entry.try_index, config.max_tries);
  }
  // Descending score, try_index breaks ties (the canonical order).
  for (std::size_t i = 1; i < out.search.best.size(); ++i) {
    const double prev = out.search.best[i - 1].classification.cs_score;
    const double cur = out.search.best[i].classification.cs_score;
    EXPECT_GE(prev, cur);
  }
}

TEST(GroupSearch, SharedCycleBudgetStopsEarlyAndReportsOvershoot) {
  const data::LabeledDataset ld = data::paper_dataset(400, 95);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = group_search_config();
  config.max_tries = 50;
  config.max_total_cycles = 60;

  ParallelConfig gp;
  gp.try_groups = 2;
  mp::World world(ideal_world(2));
  const ParallelOutcome out = run_parallel_search(world, model, config, gp);

  // Each group stops starting tries once its own cycles reach its share,
  // ceil(60 / 2) = 30.  A try is never interrupted mid-EM, so each group
  // overshoots its share by less than one try (at most max_cycles + 2
  // cycles with the prune refit); the global count crosses the budget and
  // the overshoot reconciles exactly.
  const std::int64_t try_cap = config.em.max_cycles + 2;
  EXPECT_LT(out.search.tries, config.max_tries);
  EXPECT_GE(out.search.total_cycles, config.max_total_cycles);
  EXPECT_LT(out.search.total_cycles, config.max_total_cycles + 2 * try_cap);
  EXPECT_EQ(out.search.cycle_overshoot,
            out.search.total_cycles - config.max_total_cycles);
  EXPECT_FALSE(out.search.best.empty());

  // The share is taken of what a resumed run left of the budget: resuming
  // the run above with a budget 20 cycles past its total gives each group
  // 10 more cycles, so at least one more try each and at most one try's
  // cycles past the share.
  ac::SearchConfig more = config;
  more.max_total_cycles = out.search.total_cycles + 20;
  const ParallelOutcome resumed =
      run_parallel_search(world, model, more, gp, &out.search);
  EXPECT_GE(resumed.search.tries, out.search.tries + 2);
  EXPECT_GE(resumed.search.total_cycles, more.max_total_cycles);
  EXPECT_LT(resumed.search.total_cycles, more.max_total_cycles + 2 * try_cap);
  EXPECT_EQ(resumed.search.cycle_overshoot,
            resumed.search.total_cycles - more.max_total_cycles);
}

TEST(GroupSearch, PatienceAndBudgetRepeatBitIdentically) {
  // With both stopping rules on, every decision a group makes reads only
  // its own tries, so repeats agree on the completed try set, the board and
  // the modeled sweep time to the bit, whatever the thread timing.
  const data::LabeledDataset ld = data::paper_dataset(300, 99);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = group_search_config();
  config.max_tries = 40;
  config.patience = 1;
  config.max_total_cycles = 90;

  ParallelConfig gp;
  gp.try_groups = 2;
  for (const int ranks : {2, 4}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    mp::World::Config cfg;
    cfg.num_ranks = ranks;
    cfg.machine = net::pentium_cluster();
    mp::World world(cfg);
    const ParallelOutcome first = run_parallel_search(world, model, config, gp);
    // The budget is what stops this sweep early.
    ASSERT_LT(first.search.tries, config.max_tries);
    ASSERT_GT(first.search.cycle_overshoot, 0);
    ASSERT_GT(first.stats.virtual_time, 0.0);
    for (int repeat = 1; repeat < 20; ++repeat) {
      SCOPED_TRACE("repeat=" + std::to_string(repeat));
      const ParallelOutcome again =
          run_parallel_search(world, model, config, gp);
      EXPECT_EQ(again.search.tries, first.search.tries);
      EXPECT_EQ(again.search.total_cycles, first.search.total_cycles);
      EXPECT_EQ(again.search.cycle_overshoot, first.search.cycle_overshoot);
      expect_bitwise_equal(again.search, first.search);
      expect_bits(again.stats.virtual_time, first.stats.virtual_time,
                  "virtual_time");
    }
  }
}

TEST(GroupSearch, ResumeSeedsEveryGroupWithoutDuplicatingTheBoard) {
  const data::LabeledDataset ld = data::paper_dataset(400, 96);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = group_search_config();
  config.max_tries = 2;

  ParallelConfig gp;
  gp.try_groups = 2;
  mp::World world(ideal_world(2));
  const ParallelOutcome first = run_parallel_search(world, model, config, gp);
  ASSERT_EQ(first.search.tries, 2);

  // Continue to 6 tries: the stored board seeds both groups' duplicate
  // elimination, but the merged result must contain each seeded try once.
  ac::SearchConfig more = config;
  more.max_tries = 6;
  const ParallelOutcome resumed =
      run_parallel_search(world, model, more, gp, &first.search);
  EXPECT_EQ(resumed.search.tries, 6);
  std::set<int> seen;
  for (const ac::TryResult& entry : resumed.search.best)
    EXPECT_TRUE(seen.insert(entry.try_index).second);

  // And the resumed run lands on the same board as one uninterrupted run.
  const ParallelOutcome straight = run_parallel_search(world, model, more, gp);
  expect_bitwise_equal(resumed.search, straight.search);
}

TEST(GroupSearch, GroupCountMustDivideTheWorld) {
  const data::LabeledDataset ld = data::paper_dataset(200, 97);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  const ac::SearchConfig config = group_search_config();

  mp::World world(ideal_world(3));
  ParallelConfig bad;
  bad.try_groups = 2;  // 2 does not divide 3
  EXPECT_THROW(run_parallel_search(world, model, config, bad), Error);
  bad.try_groups = 5;  // more groups than ranks
  EXPECT_THROW(run_parallel_search(world, model, config, bad), Error);
}

TEST(GroupSearch, TwoGroupsFinishTheTrySweepFasterThanOne) {
  // Throughput, in modeled virtual time on a comm-bound machine: at equal
  // total ranks, two sub-worlds of two ranks overlap tries that one
  // four-rank world runs back to back, and halving the fold width also
  // halves the per-cycle latency bill.  The deterministic network model
  // makes a firm ratio assertion safe (the bench sweeps this properly).
  const data::LabeledDataset ld = data::paper_dataset(400, 98);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = group_search_config();
  config.max_tries = 4;

  mp::World::Config cfg;
  cfg.num_ranks = 4;
  cfg.machine = net::pentium_cluster();
  mp::World world(cfg);

  ParallelConfig g1;
  g1.try_groups = 1;
  ParallelConfig g2;
  g2.try_groups = 2;
  const ParallelOutcome one = run_parallel_search(world, model, config, g1);
  const ParallelOutcome two = run_parallel_search(world, model, config, g2);
  EXPECT_EQ(one.search.tries, two.search.tries);
  EXPECT_GT(one.stats.virtual_time, 0.0);
  EXPECT_GE(one.stats.virtual_time / two.stats.virtual_time, 1.5)
      << "G=1: " << one.stats.virtual_time
      << " s, G=2: " << two.stats.virtual_time << " s";
}

}  // namespace
}  // namespace pac::core

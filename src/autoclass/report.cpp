#include "autoclass/report.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "autoclass/em.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace pac::ac {

namespace {

/// The serial blocked loop behind the case report and prediction: fills
/// the class-major log-joint tile of items [0, n) of c's dataset
/// kEStepBlock items at a time, in item order, and hands each block to
/// fn(block, tile), class k's block.size() mutable values starting at
/// tile + k * kEStepBlock.
template <typename BlockFn>
void for_each_log_joint_block(const Classification& c, std::size_t n,
                              BlockFn&& fn) {
  std::vector<double> tile(kEStepBlock * c.num_classes());
  for (std::size_t begin = 0; begin < n; begin += kEStepBlock) {
    const data::ItemRange block{begin, std::min(begin + kEStepBlock, n)};
    fill_log_joint(c, block, tile.data(), kEStepBlock);
    fn(block, tile.data());
  }
}

/// The work-shared loop behind the whole-training-set reports: every
/// kEStepBlock block of c's dataset through a BlockRunner of
/// ThreadPool::resolve(0) threads (EmConfig::threads = 0's resolution, so
/// PAC_EM_THREADS), each block's log-joint filled into the running
/// thread's own tile and handed to fn(b, block, tile) as above.  fn writes
/// only block b's own outputs; partials are folded by the caller in block
/// order.
template <typename BlockFn>
void for_each_training_block(const Classification& c, BlockFn&& fn) {
  const data::Dataset& d = c.model().dataset();
  const std::size_t j = c.num_classes();
  BlockRunner runner(ThreadPool::resolve(0), d.store().chunk_rows());
  runner.run(data::ItemRange{0, d.num_items()},
             [&](std::size_t b, data::ItemRange block) {
               double* tile = detail::tile_scratch(kEStepBlock * j);
               fill_log_joint(c, block, tile, kEStepBlock);
               fn(b, block, tile);
             });
}

/// for_each_log_joint_block over a foreign dataset: c's parameters copied
/// onto the model rebound to `foreign`, rebinding once for all its rows.
template <typename BlockFn>
void for_each_foreign_block(const Classification& c,
                            const data::Dataset& foreign, BlockFn&& fn) {
  if (foreign.num_items() == 0) return;  // Model::rebound rejects empty data
  const Model model = c.model().rebound(foreign);
  Classification bound(model, c.num_classes());
  std::ranges::copy(c.log_pis(), bound.mutable_log_pis().begin());
  std::ranges::copy(c.all_params(), bound.all_params_mutable().begin());
  for_each_log_joint_block(bound, foreign.num_items(), fn);
}

/// The first class with the largest value of report-tile item r (the
/// std::max_element rule).
std::int32_t argmax(const double* tile, std::size_t r, std::size_t j) {
  std::size_t best = 0;
  for (std::size_t k = 1; k < j; ++k)
    if (tile[best * kEStepBlock + r] < tile[k * kEStepBlock + r]) best = k;
  return static_cast<std::int32_t>(best);
}

/// Log-joint tile -> posterior membership probabilities in place, and
/// lse[i] = log sum_k exp(item i's values): simd::normalize_columns, the
/// E-step's own normalizer, carried past degenerate items instead of
/// failing.  Such an item (no finite maximum, or a NaN) gets NaN
/// memberships and a NaN lse, as under the old per-row logsumexp.
void normalize_block(double* tile, std::size_t n, std::size_t j,
                     std::size_t ld, double* lse) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0;; ++i) {
    i += simd::normalize_columns(tile + i, n - i, j, ld, lse + i);
    if (i == n) return;
    for (std::size_t k = 0; k < j; ++k) tile[k * ld + i] = kNaN;
    lse[i] = kNaN;
  }
}

}  // namespace

PredictOutput predict(const Classification& c, const data::Dataset& foreign,
                      bool want_membership) {
  const std::size_t n = foreign.num_items();
  const std::size_t j = c.num_classes();
  PredictOutput out;
  out.labels.resize(n);
  if (want_membership) out.membership.resize(n * j);
  double lse[kEStepBlock];
  for_each_foreign_block(c, foreign, [&](data::ItemRange block, double* tile) {
    for (std::size_t r = 0; r < block.size(); ++r)
      out.labels[block.begin + r] = argmax(tile, r, j);
    if (want_membership) {
      // PredictOutput::membership is row-major: transpose the tile back.
      normalize_block(tile, block.size(), j, kEStepBlock, lse);
      simd::columns_to_rows(tile, block.size(), j, kEStepBlock,
                            out.membership.data() + block.begin * j, nullptr);
    }
  });
  return out;
}

std::vector<std::int32_t> predict_labels(const Classification& c,
                                         const data::Dataset& foreign) {
  return predict(c, foreign, /*want_membership=*/false).labels;
}

double predict_log_likelihood(const Classification& c,
                              const data::Dataset& foreign) {
  KahanSum total;
  double lse[kEStepBlock];
  for_each_foreign_block(c, foreign, [&](data::ItemRange block, double* tile) {
    normalize_block(tile, block.size(), c.num_classes(), kEStepBlock, lse);
    for (std::size_t r = 0; r < block.size(); ++r) total.add(lse[r]);
  });
  return total.value();
}

std::vector<std::int32_t> assign_labels(const Classification& c) {
  const std::size_t j = c.num_classes();
  std::vector<std::int32_t> labels(c.model().dataset().num_items());
  for_each_training_block(
      c, [&](std::size_t, data::ItemRange block, const double* tile) {
        for (std::size_t r = 0; r < block.size(); ++r)
          labels[block.begin + r] = argmax(tile, r, j);
      });
  return labels;
}

std::vector<double> membership(const Classification& c, std::size_t item) {
  PAC_REQUIRE(item < c.model().dataset().num_items());
  // One item with ld = 1: the tile is the item's row.
  std::vector<double> row(c.num_classes());
  fill_log_joint(c, data::ItemRange{item, item + 1}, row.data(), 1);
  double lse;
  normalize_block(row.data(), 1, row.size(), 1, &lse);
  return row;
}

std::vector<InfluenceEntry> influence_report(const Classification& c) {
  const Model& model = c.model();
  std::vector<InfluenceEntry> entries;
  entries.reserve(c.num_classes() * model.num_terms());
  for (std::size_t j = 0; j < c.num_classes(); ++j)
    for (std::size_t t = 0; t < model.num_terms(); ++t)
      entries.push_back(InfluenceEntry{
          j, t, model.term(t).influence(c.param_block(j, t))});
  std::stable_sort(entries.begin(), entries.end(),
                   [](const InfluenceEntry& a, const InfluenceEntry& b) {
                     return a.influence > b.influence;
                   });
  return entries;
}

void write_case_report(std::ostream& os, const Classification& c,
                       std::size_t max_items) {
  const std::size_t n = c.model().dataset().num_items();
  const std::size_t limit =
      max_items == 0 ? n : std::min(max_items, n);
  os << "# case report: item  best_class p(best)  second p(second)\n";
  const std::size_t classes = c.num_classes();
  double lse[kEStepBlock];
  for_each_log_joint_block(c, limit, [&](data::ItemRange block, double* tile) {
    normalize_block(tile, block.size(), classes, kEStepBlock, lse);
    for (std::size_t r = 0; r < block.size(); ++r) {
      const auto m = [&](std::size_t k) { return tile[k * kEStepBlock + r]; };
      std::size_t best = 0;
      for (std::size_t j = 1; j < classes; ++j)
        if (m(j) > m(best)) best = j;
      std::size_t second = best == 0 ? (classes > 1 ? 1 : 0) : 0;
      for (std::size_t j = 0; j < classes; ++j)
        if (j != best && m(j) > m(second)) second = j;
      os << block.begin + r << "  " << best << " " << m(best);
      if (classes > 1) os << "  " << second << " " << m(second);
      os << "\n";
    }
  });
  if (limit < n) os << "# ... " << (n - limit) << " more items\n";
  os.flush();
}

double mean_max_membership(const Classification& c) {
  const std::size_t n = c.model().dataset().num_items();
  PAC_REQUIRE(n > 0);
  const std::size_t j = c.num_classes();
  // One compensated partial per block, folded in block-index order like
  // update_wts's log-likelihood: the same value at every thread count.
  std::vector<KahanSum> block_sums(block_count(data::ItemRange{0, n}));
  for_each_training_block(
      c, [&](std::size_t b, data::ItemRange block, double* tile) {
        double lse[kEStepBlock];
        normalize_block(tile, block.size(), j, kEStepBlock, lse);
        // The normalized max is exp(0) / sum = 1 / sum, the item's largest
        // membership (NaN for a degenerate item).
        for (std::size_t r = 0; r < block.size(); ++r)
          block_sums[b].add(tile[argmax(tile, r, j) * kEStepBlock + r]);
      });
  KahanSum sum;
  for (const KahanSum& partial : block_sums) sum.add(partial.value());
  return sum.value() / static_cast<double>(n);
}

void print_report(std::ostream& os, const Classification& c) {
  const Model& model = c.model();
  os << "Classification report\n";
  os << "---------------------\n";
  os << c.describe();
  os << "mean max membership: " << mean_max_membership(c) << "\n";
  os << "\nInfluence values (class, term, KL vs global):\n";
  for (const InfluenceEntry& e : influence_report(c)) {
    os << "  class " << e.class_index << "  "
       << model.term(e.term_index).describe(
              c.param_block(e.class_index, e.term_index))
       << "  influence " << e.influence << "\n";
  }
  os.flush();
}

}  // namespace pac::ac

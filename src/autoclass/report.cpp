#include "autoclass/report.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <span>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/simd.hpp"

namespace pac::ac {

namespace {

/// Items per blocked report pass (matches the E-step's blocking).
constexpr std::size_t kReportBlock = 256;

/// The blocked loop behind every report and prediction: fills the
/// log-joint rows of items [0, n) of c's dataset kReportBlock items at a
/// time and hands each block to fn(block, rows), rows being block.size()
/// x num_classes mutable doubles.
template <typename BlockFn>
void for_each_log_joint_block(const Classification& c, std::size_t n,
                              BlockFn&& fn) {
  const std::size_t j = c.num_classes();
  std::vector<double> rows(kReportBlock * j);
  for (std::size_t begin = 0; begin < n; begin += kReportBlock) {
    const data::ItemRange block{begin, std::min(begin + kReportBlock, n)};
    fill_log_joint(c, block, rows.data());
    fn(block, rows.data());
  }
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

std::int32_t argmax(std::span<const double> row) {
  return static_cast<std::int32_t>(std::max_element(row.begin(), row.end()) -
                                   row.begin());
}

/// Log-joint rows -> posterior membership probabilities in place, and
/// lse[r] = log sum_k exp(row r): simd::normalize_rows, the E-step's own
/// normalizer, carried past degenerate rows instead of failing.  Such a row
/// (no finite maximum, or a NaN) becomes all NaN with a NaN lse, as it did
/// under the old per-row logsumexp normalization.
void normalize_block(double* rows, std::size_t n, std::size_t j,
                     double* lse) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t r = 0;; ++r) {
    r += simd::normalize_rows(rows + r * j, n - r, j, lse + r);
    if (r == n) return;
    std::fill_n(rows + r * j, j, kNaN);
    lse[r] = kNaN;
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
  double lse[kReportBlock];
  for_each_foreign_block(c, foreign, [&](data::ItemRange block, double* rows) {
    for (std::size_t r = 0; r < block.size(); ++r)
      out.labels[block.begin + r] = argmax({rows + r * j, j});
    if (want_membership) {
      normalize_block(rows, block.size(), j, lse);
      std::copy_n(rows, block.size() * j,
                  out.membership.begin() + block.begin * j);
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
  double lse[kReportBlock];
  for_each_foreign_block(c, foreign, [&](data::ItemRange block, double* rows) {
    normalize_block(rows, block.size(), c.num_classes(), lse);
    for (std::size_t r = 0; r < block.size(); ++r) total.add(lse[r]);
  });
  return total.value();
}

std::vector<std::int32_t> assign_labels(const Classification& c) {
  const std::size_t n = c.model().dataset().num_items();
  const std::size_t j = c.num_classes();
  std::vector<std::int32_t> labels(n);
  for_each_log_joint_block(c, n, [&](data::ItemRange block, double* rows) {
    for (std::size_t r = 0; r < block.size(); ++r)
      labels[block.begin + r] = argmax({rows + r * j, j});
  });
  return labels;
}

std::vector<double> membership(const Classification& c, std::size_t item) {
  PAC_REQUIRE(item < c.model().dataset().num_items());
  std::vector<double> row(c.num_classes());
  fill_log_joint(c, data::ItemRange{item, item + 1}, row.data());
  double lse;
  normalize_block(row.data(), 1, row.size(), &lse);
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
  double lse[kReportBlock];
  for_each_log_joint_block(c, limit, [&](data::ItemRange block, double* rows) {
    normalize_block(rows, block.size(), classes, lse);
    for (std::size_t r = 0; r < block.size(); ++r) {
      const std::span<const double> m(rows + r * classes, classes);
      std::size_t best = 0;
      for (std::size_t j = 1; j < m.size(); ++j)
        if (m[j] > m[best]) best = j;
      std::size_t second = best == 0 ? (m.size() > 1 ? 1 : 0) : 0;
      for (std::size_t j = 0; j < m.size(); ++j)
        if (j != best && m[j] > m[second]) second = j;
      os << block.begin + r << "  " << best << " " << m[best];
      if (m.size() > 1) os << "  " << second << " " << m[second];
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
  KahanSum sum;
  double lse[kReportBlock];
  for_each_log_joint_block(c, n, [&](data::ItemRange block, double* rows) {
    normalize_block(rows, block.size(), j, lse);
    // The normalized max is exp(0) / sum = 1 / sum, the row's largest entry.
    for (std::size_t r = 0; r < block.size(); ++r)
      sum.add(*std::max_element(rows + r * j, rows + (r + 1) * j));
  });
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

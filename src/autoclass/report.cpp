#include "autoclass/report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <span>

#include "util/error.hpp"
#include "util/math.hpp"

namespace pac::ac {

namespace {

/// Items per blocked report pass (matches the E-step's blocking).
constexpr std::size_t kReportBlock = 256;

/// The blocked row loop behind every report and prediction: fills the
/// log-joint rows of items [0, n) of c's dataset kReportBlock items at a
/// time and hands each to fn(item, row), row being num_classes mutable
/// doubles.
template <typename RowFn>
void for_each_log_joint_row(const Classification& c, std::size_t n,
                            RowFn&& fn) {
  const std::size_t j = c.num_classes();
  std::vector<double> rows(kReportBlock * j);
  for (std::size_t begin = 0; begin < n; begin += kReportBlock) {
    const data::ItemRange block{begin, std::min(begin + kReportBlock, n)};
    fill_log_joint(c, block, rows.data());
    for (std::size_t r = 0; r < block.size(); ++r)
      fn(block.begin + r, std::span<double>(rows.data() + r * j, j));
  }
}

/// for_each_log_joint_row over a foreign dataset: c's parameters copied
/// onto the model rebound to `foreign`, rebinding once for all its rows.
template <typename RowFn>
void for_each_foreign_row(const Classification& c,
                          const data::Dataset& foreign, RowFn&& fn) {
  if (foreign.num_items() == 0) return;  // Model::rebound rejects empty data
  const Model model = c.model().rebound(foreign);
  Classification bound(model, c.num_classes());
  std::ranges::copy(c.log_pis(), bound.mutable_log_pis().begin());
  std::ranges::copy(c.all_params(), bound.all_params_mutable().begin());
  for_each_log_joint_row(bound, foreign.num_items(), fn);
}

std::int32_t argmax(std::span<const double> row) {
  return static_cast<std::int32_t>(std::max_element(row.begin(), row.end()) -
                                   row.begin());
}

/// Log-joint row -> posterior membership probabilities, in place.
void normalize(std::span<double> row) {
  const double lse = logsumexp(row);
  for (double& v : row) v = std::exp(v - lse);
}

}  // namespace

PredictOutput predict(const Classification& c, const data::Dataset& foreign,
                      bool want_membership) {
  const std::size_t n = foreign.num_items();
  const std::size_t j = c.num_classes();
  PredictOutput out;
  out.labels.resize(n);
  if (want_membership) out.membership.resize(n * j);
  for_each_foreign_row(c, foreign, [&](std::size_t i, std::span<double> row) {
    out.labels[i] = argmax(row);
    if (want_membership) {
      normalize(row);
      std::ranges::copy(row, out.membership.begin() + i * j);
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
  for_each_foreign_row(c, foreign, [&](std::size_t, std::span<double> row) {
    total.add(logsumexp(row));
  });
  return total.value();
}

std::vector<std::int32_t> assign_labels(const Classification& c) {
  const std::size_t n = c.model().dataset().num_items();
  std::vector<std::int32_t> labels(n);
  for_each_log_joint_row(c, n, [&](std::size_t i, std::span<double> row) {
    labels[i] = argmax(row);
  });
  return labels;
}

std::vector<double> membership(const Classification& c, std::size_t item) {
  PAC_REQUIRE(item < c.model().dataset().num_items());
  std::vector<double> row(c.num_classes());
  fill_log_joint(c, data::ItemRange{item, item + 1}, row.data());
  normalize(row);
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
  for_each_log_joint_row(c, limit, [&](std::size_t i, std::span<double> m) {
    normalize(m);
    std::size_t best = 0;
    for (std::size_t j = 1; j < m.size(); ++j)
      if (m[j] > m[best]) best = j;
    std::size_t second = best == 0 ? (m.size() > 1 ? 1 : 0) : 0;
    for (std::size_t j = 0; j < m.size(); ++j)
      if (j != best && m[j] > m[second]) second = j;
    os << i << "  " << best << " " << m[best];
    if (m.size() > 1) os << "  " << second << " " << m[second];
    os << "\n";
  });
  if (limit < n) os << "# ... " << (n - limit) << " more items\n";
  os.flush();
}

double mean_max_membership(const Classification& c) {
  const std::size_t n = c.model().dataset().num_items();
  PAC_REQUIRE(n > 0);
  KahanSum sum;
  for_each_log_joint_row(c, n, [&](std::size_t, std::span<double> row) {
    // max_j exp(row_j - lse): exp is monotone, so normalize only the max.
    sum.add(std::exp(*std::max_element(row.begin(), row.end()) -
                     logsumexp(row)));
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

// Reporting utilities: hard assignments, membership probabilities, the
// attribute-influence report (AutoClass's "influ-o-text" output), and
// prediction on foreign data.  Every per-item quantity here comes from
// fill_log_joint, the E-step's own class-major log-joint fill, and every
// membership and log-likelihood from simd::normalize_columns, the E-step's
// own normalizer.
//
// The whole-training-set passes (assign_labels, mean_max_membership, and so
// print_report) are work-shared like the E-step: they run through the EM's
// BlockRunner (em.hpp) with ThreadPool::resolve(0) threads, the resolution
// of EmConfig::threads = 0 (PAC_EM_THREADS, default 1 = no pool), each
// thread filling its own tile, and fold per-block partials in block-index
// order, so their results do not depend on the thread count.
// write_case_report and the prediction calls run serially in item order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "autoclass/classification.hpp"

namespace pac::ac {

/// Hard class labels: argmax_j of the posterior membership of each item.
/// Work-shared over PAC_EM_THREADS threads.
std::vector<std::int32_t> assign_labels(const Classification& c);

/// Posterior membership probabilities of one item (sums to 1).
std::vector<double> membership(const Classification& c, std::size_t item);

/// One row of the influence report: how strongly a term (attribute or
/// block) separates class j from the global population (KL divergence).
struct InfluenceEntry {
  std::size_t class_index = 0;
  std::size_t term_index = 0;
  double influence = 0.0;
};

/// Influence values for every (class, term), descending by influence.
std::vector<InfluenceEntry> influence_report(const Classification& c);

/// Print the classification summary and influence report (the part of
/// AutoClass's report files a user reads first).
void print_report(std::ostream& os, const Classification& c);

/// AutoClass-style case report: one line per item with its best and
/// second-best class and their membership probabilities.  `max_items`
/// truncates the listing (0 = all items).
void write_case_report(std::ostream& os, const Classification& c,
                       std::size_t max_items = 0);

/// Classification quality diagnostic from the paper's Sec. 2: the mean of
/// each item's maximum membership probability.  ~1 means well-separated
/// classes; ~1/J means meaningless overlap.  Work-shared over
/// PAC_EM_THREADS threads: one compensated sum per 256-item block, the
/// block sums folded in block-index order (like update_wts's
/// log-likelihood; before, one compensated sum ran in item order, so the
/// value may differ from older builds in its last bits).  Bit-identical
/// across thread counts and storage backends.
double mean_max_membership(const Classification& c);

// ---- prediction (AutoClass's "predict" mode): apply a trained
//      classification to data that was not used for training ----

struct PredictOutput {
  std::vector<std::int32_t> labels;  // one per row
  std::vector<double> membership;    // rows x num_classes when requested
};

/// Classify every row of `foreign`, a dataset with the training schema.
/// c's parameters are copied once onto c.model().rebound(foreign), and the
/// rows are then evaluated by fill_log_joint in blocks — the E-step's
/// kernels and normalizer, so on the training rows themselves the labels
/// equal assign_labels and the memberships equal membership() and the
/// EM's own weights bit for bit.  A row with no finite log-joint maximum
/// (or a NaN) keeps its argmax label and gets NaN memberships.
/// Memberships (each row sums to 1) are filled only if `want_membership`.
/// An empty `foreign` gives empty outputs.  Throws pac::Error on a schema
/// mismatch or a row that violates a term family's precondition (see
/// Term::rebind).  pac_serve answers predict requests through this call.
PredictOutput predict(const Classification& c, const data::Dataset& foreign,
                      bool want_membership);

/// Hard labels for every item of a foreign dataset (predict's labels).
std::vector<std::int32_t> predict_labels(const Classification& c,
                                         const data::Dataset& foreign);

/// Sum over the items of a foreign dataset of their observed
/// log-likelihood under the classification: a held-out score for comparing
/// classifications on fresh data.  0.0 for an empty dataset.
double predict_log_likelihood(const Classification& c,
                              const data::Dataset& foreign);

}  // namespace pac::ac

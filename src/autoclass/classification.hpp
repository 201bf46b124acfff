// A Classification: J classes with mixing weights and per-term parameters.
//
// Parameters are stored flat (J x Model::params_per_class() doubles) so a
// classification can be copied, compared, broadcast, and reduced without
// knowing term internals.  Class weights W_j (the E-step's per-class weight
// sums) and the score bookkeeping live here too, because the search layer
// ranks classifications by score and prunes by weight.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "autoclass/model.hpp"

namespace pac::ac {

class Classification {
 public:
  /// J zero-initialized classes over `model`.
  Classification(const Model& model, std::size_t num_classes);

  const Model& model() const noexcept { return *model_; }
  std::size_t num_classes() const noexcept { return num_classes_; }

  // ---- mixing weights ----

  double log_pi(std::size_t j) const { return log_pi_[j]; }
  std::span<const double> log_pis() const noexcept { return log_pi_; }
  std::span<double> mutable_log_pis() noexcept { return log_pi_; }
  /// Class weight W_j = sum_i w_ij from the last E-step.
  double weight(std::size_t j) const { return weights_[j]; }
  std::span<const double> weights() const noexcept { return weights_; }
  std::span<double> mutable_weights() noexcept { return weights_; }

  /// Recompute log pi_j = log (W_j + a) / (N + J a) from the class weights
  /// (a = ModelConfig::class_weight_prior).
  void update_log_pi_from_weights(double total_items);

  // ---- per-class parameter blocks ----

  std::span<double> class_params(std::size_t j);
  std::span<const double> class_params(std::size_t j) const;
  std::span<double> param_block(std::size_t j, std::size_t term);
  std::span<const double> param_block(std::size_t j, std::size_t term) const;
  std::span<const double> all_params() const noexcept { return params_; }
  std::span<double> all_params_mutable() noexcept { return params_; }

  // ---- scores (filled by the EM engine) ----

  /// Observed-data log likelihood sum_i log sum_j pi_j p(x_i | theta_j).
  double log_likelihood = 0.0;
  /// Cheeseman-Stutz approximation of log p(X | T).
  double cs_score = 0.0;
  /// BIC-style score: log_likelihood - 0.5 * free_params * log N.
  double bic_score = 0.0;
  /// EM cycles spent converging this classification.
  int cycles = 0;
  /// Number of classes the try started with (before pruning).
  int initial_classes = 0;

  /// Reorder classes by decreasing weight (canonical form for comparison
  /// and reporting).
  void sort_classes_by_weight();

  /// Keep only the listed classes (canonical order preserved); mixing
  /// weights are recomputed from the surviving W_j.
  Classification filtered(const std::vector<std::size_t>& keep,
                          double total_items) const;

  /// Heuristic duplicate test used by the search's duplicate-elimination
  /// step: same class count, close scores, and close sorted weight vectors.
  /// Symmetric (the score tolerance scales with the larger magnitude);
  /// classifications whose weights sum to <= 0 are never duplicates.
  bool is_duplicate_of(const Classification& other, double score_tolerance,
                       double weight_tolerance) const;

  /// One line per class: weight share and term parameter summaries.
  std::string describe() const;

 private:
  const Model* model_;
  std::size_t num_classes_;
  std::vector<double> log_pi_;
  std::vector<double> weights_;
  std::vector<double> params_;
};

/// Fill `tile` with the log joint log pi_j + sum_t log p(x_i | theta_jt) of
/// every item in `block` of c's dataset, class-major: class k's column of
/// block.size() values starts at tile + k * ld (ld >= block.size(); one
/// item with ld == 1 fills a plain row).  Every column is seeded with its
/// log mixing weight, then each (term, class) log_prob_batch kernel adds
/// into one column with unit stride.  Per item this adds log pi first and
/// then the terms in index order.  The E-step, the reports and prediction
/// all fill through this one function, so they agree bit for bit.
void fill_log_joint(const Classification& c, data::ItemRange block,
                    double* tile, std::size_t ld);

}  // namespace pac::ac

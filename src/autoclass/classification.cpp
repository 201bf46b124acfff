#include "autoclass/classification.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/error.hpp"
#include "util/math.hpp"

namespace pac::ac {

Classification::Classification(const Model& model, std::size_t num_classes)
    : model_(&model), num_classes_(num_classes) {
  PAC_REQUIRE_MSG(num_classes >= 1, "a classification needs >= 1 class");
  log_pi_.assign(num_classes, std::log(1.0 / static_cast<double>(num_classes)));
  weights_.assign(num_classes, 0.0);
  params_.assign(num_classes * model.params_per_class(), 0.0);
  initial_classes = static_cast<int>(num_classes);
}

void Classification::update_log_pi_from_weights(double total_items) {
  const double a = model_->config().class_weight_prior;
  const double denom =
      total_items + a * static_cast<double>(num_classes_);
  for (std::size_t j = 0; j < num_classes_; ++j)
    log_pi_[j] = std::log((weights_[j] + a) / denom);
}

std::span<double> Classification::class_params(std::size_t j) {
  PAC_REQUIRE(j < num_classes_);
  return std::span<double>(params_.data() + j * model_->params_per_class(),
                           model_->params_per_class());
}

std::span<const double> Classification::class_params(std::size_t j) const {
  PAC_REQUIRE(j < num_classes_);
  return std::span<const double>(
      params_.data() + j * model_->params_per_class(),
      model_->params_per_class());
}

std::span<double> Classification::param_block(std::size_t j,
                                              std::size_t term) {
  PAC_REQUIRE(j < num_classes_ && term < model_->num_terms());
  return std::span<double>(params_.data() + j * model_->params_per_class() +
                               model_->param_offset(term),
                           model_->term(term).param_size());
}

std::span<const double> Classification::param_block(std::size_t j,
                                                    std::size_t term) const {
  PAC_REQUIRE(j < num_classes_ && term < model_->num_terms());
  return std::span<const double>(
      params_.data() + j * model_->params_per_class() +
          model_->param_offset(term),
      model_->term(term).param_size());
}

void Classification::sort_classes_by_weight() {
  std::vector<std::size_t> order(num_classes_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return weights_[a] > weights_[b];
  });
  const std::size_t ppc = model_->params_per_class();
  std::vector<double> new_log_pi(num_classes_), new_weights(num_classes_),
      new_params(params_.size());
  for (std::size_t j = 0; j < num_classes_; ++j) {
    new_log_pi[j] = log_pi_[order[j]];
    new_weights[j] = weights_[order[j]];
    std::copy_n(params_.begin() + order[j] * ppc, ppc,
                new_params.begin() + j * ppc);
  }
  log_pi_ = std::move(new_log_pi);
  weights_ = std::move(new_weights);
  params_ = std::move(new_params);
}

Classification Classification::filtered(const std::vector<std::size_t>& keep,
                                        double total_items) const {
  PAC_REQUIRE_MSG(!keep.empty(), "cannot drop every class");
  Classification out(*model_, keep.size());
  const std::size_t ppc = model_->params_per_class();
  for (std::size_t j = 0; j < keep.size(); ++j) {
    PAC_REQUIRE(keep[j] < num_classes_);
    out.weights_[j] = weights_[keep[j]];
    std::copy_n(params_.begin() + keep[j] * ppc, ppc,
                out.params_.begin() + j * ppc);
  }
  out.update_log_pi_from_weights(total_items);
  out.initial_classes = initial_classes;
  return out;
}

bool Classification::is_duplicate_of(const Classification& other,
                                     double score_tolerance,
                                     double weight_tolerance) const {
  if (num_classes_ != other.num_classes_) return false;
  // The relative score tolerance scales with the larger magnitude so the
  // relation is symmetric: a.is_duplicate_of(b) == b.is_duplicate_of(a).
  // (Scaling by |this->cs_score| alone disagreed between the two orders
  // whenever the scores straddled zero.)
  const double score_scale =
      1.0 + std::max(std::abs(cs_score), std::abs(other.cs_score));
  if (std::abs(cs_score - other.cs_score) > score_tolerance * score_scale)
    return false;
  // Compare weight shares in canonical (descending) order.
  std::vector<double> a(weights_.begin(), weights_.end());
  std::vector<double> b(other.weights_.begin(), other.weights_.end());
  std::sort(a.rbegin(), a.rend());
  std::sort(b.rbegin(), b.rend());
  const double total_a = std::accumulate(a.begin(), a.end(), 0.0);
  const double total_b = std::accumulate(b.begin(), b.end(), 0.0);
  // Non-positive weight totals carry no share information: such
  // classifications are non-comparable, not duplicates of everything.
  if (total_a <= 0.0 || total_b <= 0.0) return false;
  for (std::size_t j = 0; j < a.size(); ++j)
    if (std::abs(a[j] / total_a - b[j] / total_b) > weight_tolerance)
      return false;
  return true;
}

std::string Classification::describe() const {
  std::ostringstream os;
  const double total =
      std::accumulate(weights_.begin(), weights_.end(), 0.0);
  os << num_classes_ << " classes, log L = " << log_likelihood
     << ", CS score = " << cs_score << "\n";
  for (std::size_t j = 0; j < num_classes_; ++j) {
    os << "  class " << j << ": share "
       << (total > 0.0 ? weights_[j] / total : 0.0);
    for (std::size_t t = 0; t < model_->num_terms(); ++t)
      os << "; " << model_->term(t).describe(param_block(j, t));
    os << "\n";
  }
  return os.str();
}

void fill_log_joint(const Classification& c, data::ItemRange block,
                    double* tile, std::size_t ld) {
  const Model& model = c.model();
  const std::size_t j = c.num_classes();
  for (std::size_t k = 0; k < j; ++k)
    std::fill_n(tile + k * ld, block.size(), c.log_pi(k));
  for (std::size_t t = 0; t < model.num_terms(); ++t)
    for (std::size_t k = 0; k < j; ++k)
      model.term(t).log_prob_batch(block, c.param_block(k, t), tile + k * ld,
                                   1);
}

}  // namespace pac::ac

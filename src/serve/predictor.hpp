// Classification inference for pac_serve.
//
// The serving hot path is offline prediction: predict_batch is ac::predict,
// which copies the trained parameters onto Model::rebound(batch) once and
// evaluates the wire-decoded query rows through ac::fill_log_joint — the
// E-step's own kernelized log-joint fill.  A served response is therefore
// the same computation as ac::predict_labels on equal rows, and
// tests/test_serve.cpp diffs both against a per-item reference built from
// one-item log_prob_batch calls.
//
// Admission rules are derived ONCE from the model's term structure and
// enforced per request at decode time (on the connection's reader thread),
// so a row that violates a family precondition — a non-positive value
// under a lognormal term, a missing value inside a multi_normal block —
// fails that one request with a named row/attribute instead of throwing
// mid-batch and poisoning co-batched neighbours.
#pragma once

#include <vector>

#include "autoclass/report.hpp"
#include "data/dataset.hpp"

namespace pac::serve {

/// Per-attribute admission constraints implied by the model's term families.
struct AdmissionRules {
  /// Attribute must be > 0 when present (single_lognormal).
  std::vector<bool> requires_positive;
  /// Attribute must not be missing (member of a multi_normal block).
  std::vector<bool> forbids_missing;
};

/// Derive the admission rules from `model`'s term structure.
AdmissionRules derive_admission_rules(const ac::Model& model);

/// Check every row of `batch` against `rules`; throws ProtocolError naming
/// the first offending row and attribute.
void validate_batch(const AdmissionRules& rules, const data::Dataset& batch);

using ac::PredictOutput;

/// Classify every row of `batch` under `c` (trained on another dataset with
/// the same schema): serve's name for ac::predict.
inline constexpr auto& predict_batch = ac::predict;

}  // namespace pac::serve

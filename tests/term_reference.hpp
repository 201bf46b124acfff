// Per-item references for the term tests, built from the batch kernels.
//
// Term has no per-item entry points: every family reads its data through
// block views and computes through the util/simd.hpp kernels.  A test that
// wants one item's value runs the batch kernel over the one-item range
// {i, i+1}.  A batch of one takes the kernels' scalar tail, and a full
// block takes the vector lanes, so diffing a block against these checks
// the lanes against a per-item value at every dispatch level.
#pragma once

#include <span>

#include "autoclass/model.hpp"

namespace pac::ac {

/// acc + the term's log-probability of `item` under `params`: one
/// log_prob_batch call on {item, item + 1} that accumulates into `acc`, so
/// a caller summing a log-joint gets the fill's exact additions.
inline double log_prob_one(const Term& term, std::size_t item,
                           std::span<const double> params, double acc = 0.0) {
  term.log_prob_batch(data::ItemRange{item, item + 1}, params, &acc, 1);
  return acc;
}

/// Absorb `item` with membership weight `w` into `stats`: one
/// accumulate_batch call on {item, item + 1}.  As in every fold, w <= 0
/// adds nothing, and neither does a missing value unless the model counts
/// it as an extra symbol.
inline void accumulate_one(const Term& term, std::size_t item, double w,
                           std::span<double> stats) {
  term.accumulate_batch(data::ItemRange{item, item + 1}, &w, 1, stats);
}

}  // namespace pac::ac

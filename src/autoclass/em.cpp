#include "autoclass/em.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <sstream>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pac::ac {

namespace {
/// Stream ids for the counter-based RNG, one per random purpose, so adding
/// a purpose never perturbs another purpose's draws.
constexpr std::uint64_t kInitStream = 0x1A17;
/// Fallback stream for seed-item redraws once the primary draw budget is
/// exhausted; offset far past any plausible try_index so the two purpose
/// stream families never overlap.
constexpr std::uint64_t kSeedFallbackStream = kInitStream + (1ULL << 32);
}  // namespace

BlockRunner::BlockRunner(std::size_t threads, std::size_t chunk_rows)
    : threads_(std::max<std::size_t>(threads, 1)), chunk_rows_(chunk_rows) {}

BlockRunner::~BlockRunner() = default;

void BlockRunner::set_threads(std::size_t threads) {
  threads = std::max<std::size_t>(threads, 1);
  if (threads != threads_) pool_.reset();
  threads_ = threads;
}

void BlockRunner::run(
    data::ItemRange range,
    const std::function<void(std::size_t, data::ItemRange)>& fn) {
  const std::size_t blocks = block_count(range);
  std::mutex error_mutex;
  std::size_t error_block = blocks;
  std::exception_ptr error;
  const auto run_block = [&](std::size_t b) {
    const std::size_t lo = range.begin + b * kEStepBlock;
    try {
      fn(b, data::ItemRange{lo, std::min(lo + kEStepBlock, range.end)});
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (b < error_block) {
        error_block = b;
        error = std::current_exception();
      }
    }
  };
  const std::size_t run = std::max<std::size_t>(
      1, std::min(chunk_rows_ / kEStepBlock,
                  (blocks + threads_ - 1) / threads_));
  const std::size_t runs = (blocks + run - 1) / run;
  if (threads_ == 1 || runs <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) run_block(b);
  } else {
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
    pool_->run(runs, [&](std::size_t r) {
      const std::size_t end = std::min(blocks, (r + 1) * run);
      for (std::size_t b = r * run; b < end; ++b) run_block(b);
    });
  }
  if (error) std::rethrow_exception(error);
}

namespace detail {

double* tile_scratch(std::size_t doubles) {
  thread_local std::vector<double> tile;
  if (tile.size() < doubles) tile.resize(doubles);
  return tile.data();
}

std::vector<std::size_t> draw_seed_items(const CounterRng& rng, std::size_t n,
                                         std::size_t j,
                                         std::uint64_t try_index,
                                         std::uint64_t primary_budget) {
  PAC_REQUIRE(n > 0);
  if (primary_budget == 0) primary_budget = 16 * static_cast<std::uint64_t>(j);
  std::vector<std::size_t> seeds;
  seeds.reserve(j);
  const auto draw_index = [&](std::uint64_t stream, std::uint64_t counter) {
    return std::min(
        n - 1, static_cast<std::size_t>(rng.uniform(stream, seeds.size(),
                                                    counter) *
                                        static_cast<double>(n)));
  };
  std::uint64_t draw = 0;
  while (seeds.size() < j) {
    // Primary stream: byte-for-byte the historical draw sequence, so runs
    // that never exhaust the budget (collisions are rare for j << n) keep
    // their exact trajectories.
    const std::size_t candidate = draw_index(kInitStream + try_index, draw);
    ++draw;
    if (std::find(seeds.begin(), seeds.end(), candidate) == seeds.end()) {
      seeds.push_back(candidate);
      continue;
    }
    if (draw <= primary_budget) continue;
    if (seeds.size() >= n) {
      // More classes than items: distinct seeds no longer exist, so the
      // duplicate is accepted (the zero-separation classes are unavoidable
      // and the J-ladder prunes them).
      seeds.push_back(candidate);
      continue;
    }
    // Budget exhausted with distinct seeds still available: redraw from the
    // widened fallback stream and resolve any residual collision by probing
    // to the next free index.  Still a pure counter function — identical on
    // every rank and partitioning — and bounded, where the old code pushed
    // the duplicate and produced two zero-separation classes.
    std::size_t fallback = draw_index(kSeedFallbackStream + try_index, draw);
    while (std::find(seeds.begin(), seeds.end(), fallback) != seeds.end())
      fallback = (fallback + 1) % n;
    seeds.push_back(fallback);
  }
  return seeds;
}

}  // namespace detail

void Reducer::gather_weight_matrix(std::span<const double> local,
                                   std::span<double> full,
                                   data::ItemRange range, std::size_t j) {
  PAC_REQUIRE(local.size() == range.size() * j);
  PAC_REQUIRE(full.size() >= range.end * j);
  std::copy(local.begin(), local.end(), full.begin() + range.begin * j);
}

EmWorker::EmWorker(const Model& model, data::ItemRange range,
                   Reducer& reducer, bool partition_params)
    : model_(&model),
      data_(&model.dataset()),
      range_(range),
      reducer_(&reducer),
      partition_params_(partition_params),
      runner_(1, data_->store().chunk_rows()) {
  PAC_REQUIRE(range.end <= data_->num_items());
}

EmWorker::~EmWorker() = default;

void EmWorker::reshape_weights(std::size_t j) {
  weights_size_ = range_.size() * j;
  if (weights_size_ > weights_capacity_) {
    weights_ = std::make_unique_for_overwrite<double[]>(weights_size_);
    weights_capacity_ = weights_size_;
  }
}

void EmWorker::random_init(Classification& c, std::uint64_t seed,
                           std::uint64_t try_index, const EmConfig& config) {
  // Try-generation span: seed drawing, initial soft assignment, and the
  // first weight reduction (includes the modeled per-try overhead charge).
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "random_init");
  const std::size_t j = c.num_classes();
  num_classes_ = j;
  reshape_weights(j);
  if (!partition_params_)
    full_weights_.assign(data_->num_items() * j, 0.0);
  runner_.set_threads(ThreadPool::resolve(config.threads));

  PAC_REQUIRE(config.init_hard_weight > 0.0 && config.init_hard_weight <= 1.0);
  const double rest =
      j > 1 ? (1.0 - config.init_hard_weight) / static_cast<double>(j - 1)
            : 0.0;
  const double home = j > 1 ? config.init_hard_weight : 1.0;

  // Seed-item initialization: J random items act as class centres and every
  // item is (softly) assigned to its nearest seed.  Seeds are drawn from the
  // *global* index space and distances are pure functions of item pairs, so
  // the initial weights are identical for every partitioning of the data.
  const CounterRng rng(seed);
  const std::size_t n = data_->num_items();
  const std::vector<std::size_t> seeds =
      detail::draw_seed_items(rng, n, j, try_index);

  // The seed table: row k holds seed k's values of every term's covered
  // attributes, in term order, missing values kept and discrete symbols
  // stored exactly as doubles.  It is gathered once, before the scan, so
  // the scan reads only this rank's partition.  (On a real multicomputer
  // each seed's owner rank would read its row and broadcast it; every rank
  // here gathers the rows from the dataset it already has open.)
  const std::size_t width = model_->covered_attributes();
  std::vector<double> seed_table(j * width);
  double* cell = seed_table.data();
  for (std::size_t k = 0; k < j; ++k)
    for (std::size_t t = 0; t < model_->num_terms(); ++t)
      for (const std::size_t a : model_->term(t).spec().attributes)
        *cell++ = data_->schema().at(a).kind == data::AttributeKind::kReal
                      ? data_->real_value(seeds[k], a)
                      : static_cast<double>(data_->discrete_value(seeds[k], a));

  // Blocked nearest-seed assignment: per block, each (term, seed) pair
  // accumulates one distance column across the whole item block — the same
  // column-major kernel shape as the E-step, fed by per-block column views
  // on either storage backend.  Per (item, seed) the additions happen in
  // term order from 0.0 and the strict < argmin keeps the first minimum, so
  // the assignment is a pure function of the two rows and, like the
  // E-step, of kEStepBlock, never of the thread count.  Every row of
  // weights_ is written here, by the thread that runs its block.
  runner_.run(range_, [&](std::size_t, data::ItemRange block) {
    std::vector<double> dist(block.size() * j, 0.0);
    for (std::size_t k = 0; k < j; ++k) {
      const double* seed_row = seed_table.data() + k * width;
      for (std::size_t t = 0; t < model_->num_terms(); ++t) {
        const Term& term = model_->term(t);
        term.seed_distance_batch(
            block, std::span<const double>(seed_row, term.num_attributes()),
            dist.data() + k, j);
        seed_row += term.num_attributes();
      }
    }
    for (std::size_t r = 0; r < block.size(); ++r) {
      const double* row_dist = dist.data() + r * j;
      std::size_t home_class = 0;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < j; ++k) {
        if (row_dist[k] < best) {
          best = row_dist[k];
          home_class = k;
        }
      }
      double* row = weights_.get() + (block.begin - range_.begin + r) * j;
      for (std::size_t k = 0; k < j; ++k) row[k] = rest;
      row[home_class] = home;
    }
  });

  // W_j fold in plain item order over the filled rows — the same sequential
  // additions the old per-item loop performed.
  std::vector<double> wj_and_loglike(j + 1, 0.0);
  for (std::size_t r = 0; r < range_.size(); ++r) {
    const double* row = weights_.get() + r * j;
    for (std::size_t k = 0; k < j; ++k) wj_and_loglike[k] += row[k];
  }
  reducer_->charge(PhaseWork{Phase::kTryOverhead, range_.size(), j, 0});
  reducer_->reduce_weights(std::span<double>(wj_and_loglike));
  std::copy_n(wj_and_loglike.begin(), j, c.mutable_weights().begin());
  if (!partition_params_) {
    // The WtsOnly baseline's first M-step scans the whole dataset, so the
    // initial weights must be assembled globally as well.
    reducer_->gather_weight_matrix(local_weights(),
                                   std::span<double>(full_weights_), range_,
                                   j);
  }
  c.log_likelihood = 0.0;
}

namespace {

/// The E-step's degenerate-row failure: the item whose class-k value is
/// `item[k * ld]` (still the raw log-joint values, the normalizer stops
/// before touching them) is all -inf, holds a +inf or holds a NaN.
/// Exp-normalizing it would turn its memberships into NaNs that silently
/// poison the weight reduction, so fail loudly, naming the item and its
/// least-impossible class.
DegenerateRowError degenerate_row_error(std::size_t global_item,
                                        const double* item, std::size_t j,
                                        std::size_t ld) {
  std::size_t best = 0;
  for (std::size_t k = 1; k < j; ++k)
    if (item[k * ld] > item[best * ld]) best = k;
  std::ostringstream os;
  os << "update_wts: item " << global_item
     << " has no finite log-likelihood (J=" << j << ", best class " << best
     << " at " << item[best * ld]
     << ") — zero-support value, emptied class or "
     << "NaN parameter; widen the priors or drop the offending attribute";
  return DegenerateRowError(os.str(), global_item, j);
}

}  // namespace

double EmWorker::update_wts(Classification& c) {
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "update_wts");
  PAC_CHECK(&c.model() == model_);
  const std::size_t j = c.num_classes();
  PAC_CHECK_MSG(j == num_classes_, "call random_init before update_wts");
  const std::size_t blocks = block_count(range_);

  // Per-block partials: one W_j row and one compensated log-likelihood per
  // block.  Blocks are claimed by whatever thread is free; determinism
  // comes from the block-ordered fold below, and the runner rethrows the
  // lowest-indexed block's error whatever thread hit it.
  std::vector<double> block_wj(blocks * j, 0.0);
  std::vector<KahanSum> block_loglike(blocks);
  runner_.run(range_, [&](std::size_t b, data::ItemRange block) {
    // Class-major tile (column k at tile + k * kEStepBlock): unit-stride
    // fill and normalization, then one transpose into the row-major
    // weights_ fused with the block's per-class W_j fold in item order.
    double* tile = detail::tile_scratch(kEStepBlock * j);
    fill_log_joint(c, block, tile, kEStepBlock);
    double lse[kEStepBlock];
    const std::size_t bad =
        simd::normalize_columns(tile, block.size(), j, kEStepBlock, lse);
    if (bad < block.size())
      throw degenerate_row_error(block.begin + bad, tile + bad, j,
                                 kEStepBlock);
    double* rows = weights_.get() + (block.begin - range_.begin) * j;
    simd::columns_to_rows(tile, block.size(), j, kEStepBlock, rows,
                          block_wj.data() + b * j);
    for (std::size_t r = 0; r < block.size(); ++r)
      block_loglike[b].add(lse[r]);
  });

  // Block-ordered fold: W_j and the log-likelihood fold block by block — a
  // pure function of kEStepBlock, bit-identical for any thread count.
  std::vector<double> wj_and_loglike(j + 1, 0.0);
  KahanSum loglike;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t k = 0; k < j; ++k)
      wj_and_loglike[k] += block_wj[b * j + k];
    loglike.add(block_loglike[b].value());
  }
  wj_and_loglike[j] = loglike.value();

  reducer_->charge(PhaseWork{Phase::kUpdateWts, range_.size(), j,
                             model_->covered_attributes()});
  // Total exchange of the class weight sums and the log-likelihood
  // (the Allreduce of paper Fig. 4).
  reducer_->reduce_weights(std::span<double>(wj_and_loglike));

  std::copy_n(wj_and_loglike.begin(), j, c.mutable_weights().begin());
  c.log_likelihood = wj_and_loglike[j];

  if (!partition_params_) {
    // WtsOnly baseline: every rank needs the whole weight matrix because it
    // will recompute the parameters over the entire dataset.
    reducer_->gather_weight_matrix(
        local_weights(), std::span<double>(full_weights_), range_, j);
  }
  return c.log_likelihood;
}

void EmWorker::accumulate_statistics(const Classification& c) {
  const std::size_t j = c.num_classes();
  const std::size_t spc = model_->stats_per_class();
  const bool full = !partition_params_;
  const std::size_t begin = full ? 0 : range_.begin;
  const std::size_t end = full ? data_->num_items() : range_.end;
  const double* weights = full ? full_weights_.data() : weights_.get();
  const std::size_t weight_base = full ? 0 : range_.begin;

  // Per-block J x stats_per_class partials, folded below in block-index
  // order — the same determinism structure as the E-step.
  const data::ItemRange range{begin, end};
  const std::size_t blocks = block_count(range);
  block_stats_.assign(blocks * j * spc, 0.0);
  runner_.run(range, [&](std::size_t b, data::ItemRange block) {
    const double* block_weights = weights + (block.begin - weight_base) * j;
    double* stats = block_stats_.data() + b * j * spc;
    // (class, term)-major: each Term::accumulate_batch call folds one
    // class's weight column over the whole block, in the term's pinned
    // association — the virtual dispatch, column pointers and lane
    // registers hoisted out of the item loop.
    for (std::size_t k = 0; k < j; ++k) {
      double* class_stats = stats + k * spc;
      for (std::size_t t = 0; t < model_->num_terms(); ++t) {
        const Term& term = model_->term(t);
        term.accumulate_batch(
            block, block_weights + k, j,
            std::span<double>(class_stats + model_->stats_offset(t),
                              term.stats_size()));
      }
    }
  });

  stats_.assign(j * spc, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* partial = block_stats_.data() + b * j * spc;
    for (std::size_t s = 0; s < j * spc; ++s) stats_[s] += partial[s];
  }
}

void EmWorker::update_parameters(Classification& c) {
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "update_parameters");
  PAC_CHECK_MSG(c.num_classes() == num_classes_,
                "call random_init before update_parameters");
  accumulate_statistics(c);

  const std::size_t j = c.num_classes();
  const std::size_t spc = model_->stats_per_class();
  const std::size_t accumulated_items =
      partition_params_ ? range_.size() : data_->num_items();
  reducer_->charge(PhaseWork{Phase::kUpdateParams, accumulated_items, j,
                             model_->covered_attributes()});
  if (partition_params_) {
    // Total exchange of the sufficient statistics (paper Fig. 5).
    reducer_->reduce_statistics(std::span<double>(stats_), j);
  }

  for (std::size_t k = 0; k < j; ++k) {
    double* class_stats = stats_.data() + k * spc;
    for (std::size_t t = 0; t < model_->num_terms(); ++t)
      model_->term(t).update_params(
          std::span<const double>(class_stats + model_->stats_offset(t),
                                  model_->term(t).stats_size()),
          c.param_block(k, t));
  }
  c.update_log_pi_from_weights(static_cast<double>(data_->num_items()));
}

void EmWorker::update_approximations(Classification& c) {
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "update_approximations");
  const std::size_t j = c.num_classes();
  const std::size_t spc = model_->stats_per_class();
  PAC_CHECK_MSG(stats_.size() == j * spc,
                "call update_parameters before update_approximations");

  // Cheeseman-Stutz: log p(X|T) ~ log m(X') + log p(X|theta) - log p(X'|theta)
  // where X' is the fractionally completed data (the statistics).
  double log_marginal_complete = 0.0;  // log m(X'): closed-form conjugates
  double loglike_complete = 0.0;       // log p(X'|theta)
  for (std::size_t k = 0; k < j; ++k) {
    const double* class_stats = stats_.data() + k * spc;
    loglike_complete += c.weight(k) * c.log_pi(k);
    for (std::size_t t = 0; t < model_->num_terms(); ++t) {
      const std::span<const double> term_stats(
          class_stats + model_->stats_offset(t),
          model_->term(t).stats_size());
      log_marginal_complete += model_->term(t).log_marginal(term_stats);
      loglike_complete += model_->term(t).log_likelihood_of_stats(
          term_stats, c.param_block(k, t));
    }
  }
  // Class-weight marginal: Dirichlet-multinomial over the W_j.
  const double a = model_->config().class_weight_prior;
  std::vector<double> alpha_posterior(j), alpha_prior(j, a);
  for (std::size_t k = 0; k < j; ++k)
    alpha_posterior[k] = a + c.weight(k);
  log_marginal_complete +=
      log_multivariate_beta(std::span<const double>(alpha_posterior)) -
      log_multivariate_beta(std::span<const double>(alpha_prior));

  c.cs_score =
      log_marginal_complete + c.log_likelihood - loglike_complete;
  c.bic_score = c.log_likelihood -
                0.5 * static_cast<double>(model_->free_params(j)) *
                    std::log(static_cast<double>(data_->num_items()));
  reducer_->charge(PhaseWork{Phase::kUpdateApprox, 0, j,
                             model_->covered_attributes()});
}

ConvergeOutcome EmWorker::converge(Classification& c,
                                   const EmConfig& config) {
  PAC_REQUIRE(config.max_cycles >= 1);
  PAC_REQUIRE(config.sigma_window >= 2);
  ConvergeOutcome outcome;
  double previous_score = -std::numeric_limits<double>::infinity();
  int small_deltas = 0;
  std::vector<double> recent_deltas;  // ring of the last sigma_window deltas
  trace::Recorder* rec =
      trace::compiled_in() ? reducer_->recorder() : nullptr;
  for (int cycle = 0; cycle < config.max_cycles; ++cycle) {
    PAC_TRACE_SCOPE(rec, "em", "base_cycle");
    update_parameters(c);   // M-step from current weights
    update_wts(c);          // E-step with the new parameters
    update_approximations(c);
    reducer_->charge(PhaseWork{Phase::kCycleOverhead, 0, c.num_classes(), 0});
    if (rec != nullptr) rec->metrics().counter("em.cycles").add(1);
    outcome.cycles = cycle + 1;
    const double delta = std::abs(c.cs_score - previous_score) /
                         (1.0 + std::abs(c.cs_score));
    if (cycle + 1 >= config.min_cycles) {
      if (rec != nullptr)
        rec->metrics().counter("em.convergence_checks").add(1);
      if (config.convergence == ConvergenceKind::kRelDelta) {
        small_deltas = delta < config.rel_delta ? small_deltas + 1 : 0;
        if (small_deltas >= config.delta_cycles) {
          outcome.converged = true;
          break;
        }
      } else {
        recent_deltas.push_back(delta);
        if (recent_deltas.size() >
            static_cast<std::size_t>(config.sigma_window))
          recent_deltas.erase(recent_deltas.begin());
        if (recent_deltas.size() ==
            static_cast<std::size_t>(config.sigma_window)) {
          const auto [lo, hi] =
              std::minmax_element(recent_deltas.begin(), recent_deltas.end());
          if (*hi - *lo < config.rel_delta && *hi < 10.0 * config.rel_delta) {
            outcome.converged = true;
            break;
          }
        }
      }
    }
    previous_score = c.cs_score;
  }
  c.cycles = outcome.cycles;
  return outcome;
}

Classification EmWorker::prune_and_refit(const Classification& c,
                                         const EmConfig& config) {
  if (config.min_class_weight <= 0.0) return c;
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "prune_and_refit");
  std::vector<std::size_t> keep;
  for (std::size_t k = 0; k < c.num_classes(); ++k)
    if (c.weight(k) >= config.min_class_weight) keep.push_back(k);
  if (keep.size() == c.num_classes() || keep.empty()) return c;

  Classification pruned =
      c.filtered(keep, static_cast<double>(data_->num_items()));
  pruned.initial_classes = c.initial_classes;
  // Refit: one E-step to rebuild weights for the survivors, then one full
  // cycle so parameters and scores are consistent.
  num_classes_ = pruned.num_classes();
  // The refit is try-level overhead on top of the charged cycles: the
  // weight reshape and survivor bookkeeping scan the rank's items once,
  // like random_init's setup pass.
  reducer_->charge(PhaseWork{Phase::kTryOverhead, range_.size(), num_classes_, 0});
  reshape_weights(num_classes_);  // update_wts below writes every value
  if (!partition_params_)
    full_weights_.assign(data_->num_items() * num_classes_, 0.0);
  update_wts(pruned);
  update_parameters(pruned);
  update_wts(pruned);
  update_approximations(pruned);
  pruned.cycles = c.cycles + 2;
  return pruned;
}

}  // namespace pac::ac

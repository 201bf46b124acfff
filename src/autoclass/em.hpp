// The AutoClass EM engine: base_cycle = update_wts, update_parameters,
// update_approximations (paper Figs. 1-3).
//
// EmWorker holds one rank's share of the E/M workspaces and runs the cycle
// over its item partition.  Everything that must become *global* — per-class
// weight sums, the data log-likelihood, and the per-class sufficient
// statistics — goes through a Reducer, the seam where the paper's
// parallelization plugs in:
//
//   * the default Reducer is the identity (sequential AutoClass: the
//     partition is the whole dataset and local sums are global sums);
//   * src/core's ParallelReducer Allreduces the same buffers across ranks
//     (paper Figs. 4-5) and charges virtual time for compute + network.
//
// Because the initial weights come from a counter-based per-item RNG and the
// reductions fold in rank order, the EM trajectory is the same whatever the
// partitioning — the property the equivalence tests pin down.
//
// Inside a rank, the E- and M-step item loops are blocked (kEStepBlock
// items) and may be work-shared across a small persistent ThreadPool
// (EmConfig::threads / PAC_EM_THREADS) through BlockRunner, the same
// helper the whole-training-set reports use.  Each block fills its own
// partial accumulators, which the owner folds in block-index order — so
// every result is a pure function of the block size, bit-identical across
// 1/2/N threads and across both transport backends (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "autoclass/classification.hpp"
#include "data/dataset.hpp"
#include "util/error.hpp"

namespace pac {
class CounterRng;
class ThreadPool;
}

namespace pac::trace {
class Recorder;
}

namespace pac::ac {

/// Items per E-step / M-step block: big enough to amortize the per-(term,
/// class) kernel dispatch, small enough that a block's class-major
/// likelihood tile stays in L1/L2 alongside the term columns.  Also the
/// unit of intra-rank work sharing: per-block partials are folded in
/// block-index order, so every EM result is a pure function of this
/// constant and never of the thread count.
inline constexpr std::size_t kEStepBlock = 256;

/// Number of kEStepBlock blocks covering `range`.
inline std::size_t block_count(data::ItemRange range) noexcept {
  return (range.size() + kEStepBlock - 1) / kEStepBlock;
}

/// The block-run helper behind every pass over a range of items: the seed
/// scan of random_init, the E- and M-steps, and the whole-training-set
/// reports (assign_labels, mean_max_membership).  run() calls fn(b, block)
/// for every kEStepBlock block of the range.  With more than one thread,
/// threads claim runs of consecutive blocks spanning one storage chunk
/// (single blocks on a resident store), so they load different chunks at
/// the same time instead of queueing for one; a run is at most a thread's
/// share, so small ranges still spread over every thread.  Callers write
/// per-block partials and fold them in block-index order, so which thread
/// ran a block never changes a result.  The pool is built by the first
/// run() with more than one run of blocks to share, and never at one
/// thread.
class BlockRunner {
 public:
  /// `threads` is a resolved count (ThreadPool::resolve); 0 is taken as 1.
  /// `chunk_rows` is the rows the store behind the ranges loads at a time
  /// (ColumnStore::chunk_rows, 0 = resident).
  BlockRunner(std::size_t threads, std::size_t chunk_rows);
  ~BlockRunner();

  BlockRunner(const BlockRunner&) = delete;
  BlockRunner& operator=(const BlockRunner&) = delete;

  /// Change the thread count; a pool of another size is dropped.
  void set_threads(std::size_t threads);

  /// Run fn(b, block) for every block b of `range`.  An exception from fn
  /// is held per block while every other block still runs; after the join
  /// the lowest-indexed block's exception is rethrown, whatever thread hit
  /// it.
  void run(data::ItemRange range,
           const std::function<void(std::size_t, data::ItemRange)>& fn);

 private:
  std::size_t threads_ = 1;
  std::size_t chunk_rows_ = 0;
  std::unique_ptr<ThreadPool> pool_;  // built lazily, only when threads_ > 1
};

namespace detail {
/// This thread's class-major block tile: a heap buffer of at least `doubles`
/// values, reused across blocks, passes and callers (the E-step and the
/// work-shared reports).
double* tile_scratch(std::size_t doubles);
}  // namespace detail

/// E-step failure: an item's likelihood row has no finite maximum — -inf
/// under *every* class (e.g. a zero-support multinomial symbol in an
/// emptied class), a +inf entry, or a NaN anywhere — which would otherwise
/// flow through the normalizer into NaN membership weights and silently
/// poison the reduction.
class DegenerateRowError : public Error {
 public:
  DegenerateRowError(std::string message, std::size_t bad_item,
                     std::size_t classes)
      : Error(std::move(message)), item(bad_item), num_classes(classes) {}

  std::size_t item = 0;         // global item index of the degenerate row
  std::size_t num_classes = 0;  // J of the classification being fit
};

namespace detail {
/// Draw `j` seed-item indices over `[0, n)` for try `try_index` — a pure
/// function of the counter RNG, identical on every rank and partitioning.
/// Seeds are distinct whenever j <= n: collisions redraw from the primary
/// stream until `primary_budget` draws are spent (0 = the default 16*j),
/// after which a widened fallback stream plus deterministic probing to the
/// next free index guarantees distinct seeds without unbounded looping.
/// Exposed for tests, which shrink the budget to force the fallback.
std::vector<std::size_t> draw_seed_items(const CounterRng& rng, std::size_t n,
                                         std::size_t j,
                                         std::uint64_t try_index,
                                         std::uint64_t primary_budget = 0);
}  // namespace detail

/// Convergence test flavours (mirroring AutoClass C's converge functions).
enum class ConvergenceKind {
  /// Stop when the relative score delta stays below rel_delta for
  /// delta_cycles consecutive cycles (AutoClass "converge_search_3" style).
  kRelDelta,
  /// Stop when the spread (max - min) of the last sigma_window score
  /// deltas falls below rel_delta — robust against oscillating deltas
  /// (AutoClass "converge_search_4" style).
  kSigmaDelta,
};

/// Convergence and initialization knobs for one EM try.
struct EmConfig {
  int max_cycles = 200;
  /// Cycles to run before convergence tests begin.
  int min_cycles = 3;
  ConvergenceKind convergence = ConvergenceKind::kRelDelta;
  /// Converge when |score delta| / (1 + |score|) stays below this...
  double rel_delta = 1e-6;
  /// ...for this many consecutive cycles (kRelDelta only).
  int delta_cycles = 2;
  /// Window width for the kSigmaDelta spread test.
  int sigma_window = 4;
  /// Drop classes whose final weight W_j falls below this (AutoClass's
  /// empty-class absorption); <= 0 disables pruning.
  double min_class_weight = 1.5;
  /// Initial membership weight given to the randomly drawn home class
  /// (the rest is spread uniformly): a "smoothed hard" initialization.
  double init_hard_weight = 0.9;
  /// Intra-rank worker threads work-sharing the E-step and M-step block
  /// loops (the hybrid SPMD x threads layer).  0 = read the PAC_EM_THREADS
  /// environment variable, defaulting to 1 (no pool, today's behavior).
  /// Results are deterministic in the block size and *invariant in the
  /// thread count*: per-block partials are folded in block-index order, so
  /// every value is bit-identical for any setting.
  int threads = 0;
};

/// Cost-charging phases (matching the paper's profile of base_cycle).
enum class Phase {
  kUpdateWts,
  kUpdateParams,
  kUpdateApprox,
  kCycleOverhead,
  kTryOverhead,
};

/// Work counts reported to the Reducer for virtual-time charging.
struct PhaseWork {
  Phase phase = Phase::kUpdateWts;
  std::size_t items = 0;
  std::size_t classes = 0;
  std::size_t attributes = 0;
};

/// The parallelization seam.  The default implementation is sequential
/// AutoClass: no reduction partners, no time model.
class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Make [W_0..W_{J-1}, log_likelihood] global (update_wts, paper Fig. 4).
  virtual void reduce_weights(std::span<double> weights_and_loglike) {
    (void)weights_and_loglike;
  }

  /// Make the J x stats_per_class statistics matrix global
  /// (update_parameters, paper Fig. 5).
  virtual void reduce_statistics(std::span<double> stats,
                                 std::size_t num_classes) {
    (void)stats;
    (void)num_classes;
  }

  /// WtsOnly strategy support: assemble the full N x J weight matrix from
  /// per-rank blocks.  `local` is this rank's block (range.size() x J rows
  /// of `full`); the default (sequential) copies it into place.
  virtual void gather_weight_matrix(std::span<const double> local,
                                    std::span<double> full,
                                    data::ItemRange range, std::size_t j);

  /// Charge modeled compute time for a phase (default: no time model).
  virtual void charge(const PhaseWork& work) { (void)work; }

  /// This rank's instrumentation sink, or nullptr when the run is not
  /// instrumented (the default, and the sequential driver).  The EM engine
  /// records its base_cycle sub-phase spans and cycle/convergence counters
  /// through it; src/core's ParallelReducer forwards the Comm's recorder.
  virtual ::pac::trace::Recorder* recorder() { return nullptr; }
};

/// Outcome of converging one classification.
struct ConvergeOutcome {
  int cycles = 0;
  bool converged = false;  // false = stopped at max_cycles
};

class EmWorker {
 public:
  /// `range` is this rank's item partition.  If `partition_params` is false
  /// (the WtsOnly baseline), update_parameters runs over the *entire*
  /// dataset using the gathered weight matrix instead of reducing
  /// statistics.
  EmWorker(const Model& model, data::ItemRange range, Reducer& reducer,
           bool partition_params = true);
  ~EmWorker();

  EmWorker(const EmWorker&) = delete;
  EmWorker& operator=(const EmWorker&) = delete;

  const Model& model() const noexcept { return *model_; }
  data::ItemRange range() const noexcept { return range_; }

  /// Draw the initial membership weights for try `try_index` from the
  /// counter-based RNG (partition-invariant) and make W_j global.
  void random_init(Classification& c, std::uint64_t seed,
                   std::uint64_t try_index, const EmConfig& config);

  /// E-step over the local partition; fills the local weight matrix, the
  /// global class weights W_j, and the global observed log-likelihood
  /// (returned and stored in c.log_likelihood).  `c` must be bound to this
  /// worker's model.  Per kEStepBlock block, in this thread's class-major
  /// tile: fill_log_joint (the term-major batch kernels the reports and
  /// prediction share; per item log pi_j, then the terms in index order),
  /// simd::normalize_columns, then simd::columns_to_rows writes the rows of
  /// the local weight matrix and the block's W_j partial, and the block's
  /// log-likelihood partial sums lse.  Blocks are work-shared across the
  /// configured thread pool and the partials are folded in block-index
  /// order, so every result is a pure function of the block size —
  /// bit-identical across thread counts, SIMD levels and transport
  /// backends.  Throws DegenerateRowError if any item's row has no finite
  /// maximum (the lowest-indexed offending block wins, whatever thread
  /// found it).
  double update_wts(Classification& c);

  /// M-step: accumulate local statistics — blocked, (class, term)-major
  /// over the membership matrix via Term::accumulate_batch (each call one
  /// class's weight column over one block, in the term's pinned
  /// association), work-shared across the thread pool with per-block
  /// partial statistics folded in block-index order — make them global,
  /// and recompute every class's parameters and mixing weight.
  void update_parameters(Classification& c);

  /// Score bookkeeping: Cheeseman-Stutz and BIC scores from the current
  /// global statistics (cheap; paper Sec. 3 measures it as negligible).
  void update_approximations(Classification& c);

  /// init + cycle to convergence (the "new classification try" of Fig. 2).
  ConvergeOutcome converge(Classification& c, const EmConfig& config);

  /// Drop classes below the weight floor and refit once (returns the input
  /// unchanged when nothing is pruned).
  Classification prune_and_refit(const Classification& c,
                                 const EmConfig& config);

  /// Local block of membership weights (range.size() x J, row-major) from
  /// the last update_wts / random_init.
  std::span<const double> local_weights() const noexcept {
    return {weights_.get(), weights_size_};
  }

  /// Global statistics matrix (J x stats_per_class) from the last
  /// update_parameters / random_init.
  std::span<const double> statistics() const noexcept { return stats_; }

 private:
  /// The blocked statistics accumulation of update_parameters: per-block
  /// partials folded in block-index order, so the result is invariant in
  /// the thread count.
  void accumulate_statistics(const Classification& c);
  /// Size the local weight matrix to range.size() x j values, left
  /// uninitialized: its one writer, the parallel block loop of random_init
  /// or update_wts, writes every value, and so is also the first touch of
  /// fresh pages.  Keeps the allocation when it is large enough.
  void reshape_weights(std::size_t j);

  const Model* model_;
  const data::Dataset* data_;
  data::ItemRange range_;
  Reducer* reducer_;
  bool partition_params_;

  std::size_t num_classes_ = 0;
  std::unique_ptr<double[]> weights_; // local items x J
  std::size_t weights_size_ = 0;      // values in use
  std::size_t weights_capacity_ = 0;  // values allocated
  std::vector<double> full_weights_;  // all items x J (WtsOnly only)
  std::vector<double> stats_;         // J x stats_per_class
  std::vector<double> block_stats_;   // per-block J x stats_per_class partials
  BlockRunner runner_;                // threads resolved at random_init
};

}  // namespace pac::ac

// P-AutoClass: the SPMD parallelization of AutoClass (the paper's
// contribution, Sec. 3).
//
// The dataset is block-partitioned across the ranks of a minimpi World.
// Every rank runs the identical search loop (BIG_LOOP control flow is
// replicated); inside a try, the EM phases distribute work and form global
// values with Allreduce:
//
//   update_wts        — each rank computes w_ij for its items, sums local
//                       W_j, then one Allreduce of [W_j..., logL]
//                       (paper Fig. 4);
//   update_parameters — each rank accumulates local sufficient statistics,
//                       then Allreduce of the statistics (paper Fig. 5),
//                       after which every rank computes identical MAP
//                       parameters.
//
// Two strategies are provided:
//   kFull    — the paper's P-AutoClass (both phases parallel);
//   kWtsOnly — the Miller & Guo-style baseline [paper ref. 7]: only
//              update_wts is distributed; the full weight matrix is
//              Allgathered and every rank recomputes parameters over the
//              whole dataset.
// and two reduction granularities (the paper's Fig. 5 draws the Allreduce
// inside the class/attribute loops):
//   kPerTerm — one Allreduce per (class, term): many small messages;
//   kFused   — a single Allreduce of the whole statistics buffer.
//
// Virtual time: ranks charge compute via the Machine's CostBook and the
// collectives charge network time, so RunStats.virtual_time is the modeled
// elapsed time on the target multicomputer — the quantity plotted in the
// paper's Figures 6-8.
#pragma once

#include <iosfwd>
#include <string>

#include "autoclass/search.hpp"
#include "mp/comm.hpp"

namespace pac::core {

enum class Strategy {
  kFull,     // P-AutoClass: update_wts and update_parameters both parallel
  kWtsOnly,  // baseline: only update_wts parallel (Miller & Guo style)
};

enum class ReduceGranularity {
  kPerTerm,  // Allreduce inside the class/term loops (paper Fig. 5)
  kFused,    // single Allreduce of the packed statistics buffer
};

const char* to_string(Strategy s) noexcept;
const char* to_string(ReduceGranularity g) noexcept;

struct ParallelConfig {
  Strategy strategy = Strategy::kFull;
  ReduceGranularity granularity = ReduceGranularity::kPerTerm;
  /// Charge modeled compute time (disable for pure-semantics tests).
  bool charge_costs = true;
  /// Load-imbalance ablation: rank 0 receives this multiple of the average
  /// partition (1 = the paper's equal-size split).  Full strategy only.
  double partition_skew = 1.0;
  /// Try-parallel search (the third parallelism level: tries x ranks x
  /// threads).  0 = the classic replicated BIG_LOOP over the whole world.
  /// G >= 1 splits the world into G equal sub-worlds; sub-world g runs the
  /// global tries t with t % G == g from the shared scheduled_j sequence
  /// (block-partitioned EM inside each sub-world), applies patience and an
  /// equal share of the cycle budget to its own tries only, and the
  /// per-group leaderboards are merged with the canonical rule
  /// (ac::merge_leaderboards) in a final all-world reduction, the only
  /// contact between groups.  Must divide the world size.  See DESIGN.md
  /// for the determinism contract.
  int try_groups = 0;
};

/// Per-rank virtual time split by EM phase (compute charges only; network
/// and wait time are tracked by the Comm itself).
struct PhaseProfile {
  double wts = 0.0;
  double params = 0.0;
  double approx = 0.0;
  double overhead = 0.0;

  double total() const noexcept { return wts + params + approx + overhead; }
};

/// The Reducer that turns the sequential EM engine into P-AutoClass.
class ParallelReducer final : public ac::Reducer {
 public:
  ParallelReducer(mp::Comm& comm, const ac::Model& model,
                  const ParallelConfig& config);

  void reduce_weights(std::span<double> weights_and_loglike) override;
  void reduce_statistics(std::span<double> stats,
                         std::size_t num_classes) override;
  void gather_weight_matrix(std::span<const double> local,
                            std::span<double> full, data::ItemRange range,
                            std::size_t j) override;
  void charge(const ac::PhaseWork& work) override;
  /// The EM engine's instrumentation sink: this rank's Comm recorder (null
  /// when the run is not instrumented).
  trace::Recorder* recorder() override { return comm_->recorder(); }

  const PhaseProfile& profile() const noexcept { return profile_; }

 private:
  mp::Comm* comm_;
  const ac::Model* model_;
  ParallelConfig config_;
  PhaseProfile profile_;
};

/// Everything a figure harness needs from one parallel run.
struct ParallelOutcome {
  ac::SearchResult search;  // identical on every rank; rank 0's copy
  mp::RunStats stats;
  PhaseProfile profile;  // rank 0's phase breakdown
};

/// Run the full classification search (BIG_LOOP) on `world`.  If `resume`
/// is non-null, the stored leaderboard seeds every rank's replicated search
/// state and tries continue from the stored count (see
/// autoclass/checkpoint.hpp).  With `parallel.try_groups > 0` the world is
/// split into concurrent sub-worlds running disjoint slices of the shared
/// try schedule (try-parallel mode); the returned leaderboard is the
/// canonical merge of every sub-world's board and is identical on all
/// ranks.
ParallelOutcome run_parallel_search(mp::World& world, const ac::Model& model,
                                    const ac::SearchConfig& config,
                                    const ParallelConfig& parallel = {},
                                    const ac::SearchResult* resume = nullptr);

/// Run exactly `cycles` base_cycle iterations of a J-class classification
/// (no search, no convergence test): the measurement used by the paper's
/// scaleup experiment (Fig. 8).  Returns the virtual time per cycle.
struct BaseCycleMeasurement {
  double seconds_per_cycle = 0.0;
  mp::RunStats stats;
  PhaseProfile profile;
};

BaseCycleMeasurement measure_base_cycle(mp::World& world,
                                        const ac::Model& model, int j,
                                        int cycles, std::uint64_t seed = 7,
                                        const ParallelConfig& parallel = {});

/// Per-run EM sub-phase seconds, recovered from the merged instrumentation
/// registry of an instrumented run (sums of the per-rank phase-span
/// histograms; see util/trace.hpp).  For a single-rank run the sum of
/// random_init + the three update phases accounts for the entire modeled
/// elapsed time up to the (tiny) per-cycle bookkeeping overhead.
struct EmPhaseBreakdown {
  double update_wts = 0.0;
  double update_parameters = 0.0;
  double update_approximations = 0.0;
  double random_init = 0.0;   // try-generation (init + first reduction)
  double base_cycle = 0.0;    // whole-cycle spans (contains the updates)
  std::uint64_t cycles = 0;
  std::uint64_t convergence_checks = 0;

  /// Sum of the disjoint spans (the three updates + try generation).
  double phase_sum() const noexcept {
    return update_wts + update_parameters + update_approximations +
           random_init;
  }

  static EmPhaseBreakdown from(const metrics::Registry& metrics);
};

/// Emit the combined observability output of an instrumented run: the
/// plain-text metrics report to `text_out` and, when `chrome_json_path` is
/// non-empty, the chrome://tracing JSON to that file.  Returns false (and
/// writes nothing) when the run was not instrumented.
bool write_reports(std::ostream& text_out, const mp::RunStats& stats,
                   const std::string& chrome_json_path = "");

}  // namespace pac::core

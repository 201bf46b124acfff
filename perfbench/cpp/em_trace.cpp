// Traced replays of the fit workloads.  `fit` re-runs what
// `pautoclass_cli --jlist J --tries 1` does; `search` re-runs the
// try-parallel search of `pautoclass_cli --procs P --try-groups G`.  Both
// time every layer from outside its public entry point:
//   - data:   a ColumnStore decorator around the ChunkedStore counts and
//             times real_block / discrete_block; chunk_loads() is read
//             around the cycle loop;
//   - em:     the EmWorker phases are called one by one, exactly in the
//             order EmWorker::converge calls them;
//   - core:   an ac::Reducer decorator around core::ParallelReducer times
//             each reduce call; the Allreduces a call issues are counted by
//             the mp layer (RunStats::collective_calls);
//   - terms:  separate log_prob_batch / accumulate_batch passes over the
//             same blocks after the last cycle;
//   - mp:     direct Comm::allreduce probes.
// The replays print the final log-likelihood so the harness can check it
// against the untraced binary bit for bit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>

#include "autoclass/checkpoint.hpp"
#include "core/pautoclass.hpp"
#include "data/io.hpp"
#include "pacbench.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace pacbench {

namespace {

using namespace pac;

/// The E/M step block size (em.cpp's kEStepBlock); the separate term
/// passes walk the partition in the same blocks.
constexpr std::size_t kBlock = 256;

struct FetchCounters {
  std::atomic<std::uint64_t> fetches{0};
  std::atomic<std::uint64_t> nanos{0};
};

/// Counts and times every block fetch of a chunked store.  Fetches run on
/// every EM thread at once, so the time is summed over threads.
class TimingStore final : public data::ColumnStore {
 public:
  TimingStore(std::shared_ptr<data::ChunkedStore> inner,
              std::shared_ptr<FetchCounters> counters)
      : ColumnStore(inner->schema(), inner->num_items()),
        inner_(std::move(inner)),
        counters_(std::move(counters)) {}

  bool resident() const noexcept override { return false; }
  data::ColumnBlockView<double> real_block(
      std::size_t attr, data::ItemRange range) const override {
    const auto start = std::chrono::steady_clock::now();
    auto view = inner_->real_block(attr, range);
    record(start);
    return view;
  }
  data::ColumnBlockView<std::int32_t> discrete_block(
      std::size_t attr, data::ItemRange range) const override {
    const auto start = std::chrono::steady_clock::now();
    auto view = inner_->discrete_block(attr, range);
    record(start);
    return view;
  }
  double real_value(std::size_t item, std::size_t attr) const override {
    return inner_->real_value(item, attr);
  }
  std::int32_t discrete_value(std::size_t item,
                              std::size_t attr) const override {
    return inner_->discrete_value(item, attr);
  }
  const data::ColumnProfile& profile(std::size_t attr) const override {
    return inner_->profile(attr);
  }
  std::shared_ptr<data::ColumnStore> clone() override {
    return std::make_shared<TimingStore>(inner_, counters_);
  }

 private:
  void record(std::chrono::steady_clock::time_point start) const {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    counters_->fetches.fetch_add(1, std::memory_order_relaxed);
    counters_->nanos.fetch_add(static_cast<std::uint64_t>(ns),
                               std::memory_order_relaxed);
  }

  std::shared_ptr<data::ChunkedStore> inner_;
  std::shared_ptr<FetchCounters> counters_;
};

mp::World::Config world_config() {
  mp::World::Config cfg;
  cfg.num_ranks = 1;
  cfg.machine = net::machine_by_name("meiko-cs2");
  return cfg;
}

/// The Allreduces one ParallelReducer call issues, as the mp layer counts
/// them: each call runs once on a one-rank world of its own, and the world's
/// RunStats::collective_calls are read afterwards.
struct AllreducesPerCall {
  std::uint64_t weights = 0;
  std::vector<std::uint64_t> statistics;  // by class count
};

/// Counts for every class count up to `max_classes` (pruning shrinks a
/// classification below its starting count).
AllreducesPerCall count_allreduces(const ac::Model& model,
                                   const core::ParallelConfig& parallel,
                                   std::size_t max_classes) {
  const auto count = [&](const std::function<void(ac::Reducer&)>& call) {
    mp::World world(world_config());
    const mp::RunStats stats = world.run([&](mp::Comm& comm) {
      core::ParallelReducer reducer(comm, model, parallel);
      call(reducer);
    });
    return stats.collective_calls[static_cast<std::size_t>(
        net::CollectiveKind::kAllreduce)];
  };
  AllreducesPerCall out;
  out.weights = count([](ac::Reducer& r) {
    std::vector<double> v(2, 0.0);
    r.reduce_weights(v);
  });
  out.statistics.push_back(0);
  for (std::size_t classes = 1; classes <= max_classes; ++classes) {
    out.statistics.push_back(count([&](ac::Reducer& r) {
      std::vector<double> v(classes * model.stats_per_class(), 0.0);
      r.reduce_statistics(v, classes);
    }));
  }
  return out;
}

/// Times each reduce call of the wrapped reducer and adds up the Allreduces
/// it issues.
class TimingReducer final : public ac::Reducer {
 public:
  TimingReducer(ac::Reducer& inner, const AllreducesPerCall& per_call)
      : inner_(inner), per_call_(per_call) {}

  void reduce_weights(std::span<double> weights_and_loglike) override {
    const double start = now_s();
    inner_.reduce_weights(weights_and_loglike);
    finish(start, per_call_.weights);
  }
  void reduce_statistics(std::span<double> stats,
                         std::size_t num_classes) override {
    const double start = now_s();
    inner_.reduce_statistics(stats, num_classes);
    finish(start, per_call_.statistics.at(num_classes));
  }
  void gather_weight_matrix(std::span<const double> local,
                            std::span<double> full, data::ItemRange range,
                            std::size_t j) override {
    inner_.gather_weight_matrix(local, full, range, j);
  }
  void charge(const ac::PhaseWork& work) override { inner_.charge(work); }
  trace::Recorder* recorder() override { return inner_.recorder(); }

  double seconds = 0.0;           // summed over calls
  std::uint64_t allreduces = 0;   // Allreduce collectives issued
  std::vector<double> calls;      // each call's duration, in call order

 private:
  void finish(double start, std::uint64_t collectives) {
    const double d = now_s() - start;
    seconds += d;
    allreduces += collectives;
    calls.push_back(d);
  }

  ac::Reducer& inner_;
  const AllreducesPerCall& per_call_;
};

/// Wall seconds and counts of one rank's EM work, summed over tries.
struct Phases {
  double random_init = 0.0;
  double update_wts = 0.0;
  double update_parameters = 0.0;
  double update_approximations = 0.0;
  double reduce_in_wts = 0.0;
  double reduce_in_parameters = 0.0;
  double cycles_wall = 0.0;  // whole cycles, convergence test included
  double prune = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t item_class_cycles = 0;
  std::uint64_t allreduces_in_cycles = 0;
  std::uint64_t fetches_in_cycles = 0;
  std::uint64_t fetch_nanos_in_cycles = 0;
  std::uint64_t chunk_loads_in_cycles = 0;
  std::uint64_t chunk_loads_in_init = 0;
};

/// What the replay can see of the data layer (null members on a resident
/// store, whose terms read whole columns and fetch no blocks).
struct DataTap {
  std::shared_ptr<data::ChunkedStore> chunked;
  std::shared_ptr<FetchCounters> counters;

  std::uint64_t loads() const { return chunked ? chunked->chunk_loads() : 0; }
  std::uint64_t fetches() const { return counters ? counters->fetches.load() : 0; }
  std::uint64_t nanos() const { return counters ? counters->nanos.load() : 0; }
};

/// One try exactly as core's run_try runs it (random_init, the
/// EmWorker::converge loop, prune_and_refit), with each phase timed.
/// `after_cycles` sees the converged, not yet pruned classification.
template <class AfterCycles>
ac::Classification replay_try(ac::EmWorker& worker, TimingReducer& reducer,
                              const ac::Model& model,
                              const ac::SearchConfig& config, int try_index,
                              int j, const DataTap& tap, Phases& ph,
                              AfterCycles&& after_cycles) {
  const ac::EmConfig& em = config.em;
  PAC_REQUIRE_MSG(em.convergence == ac::ConvergenceKind::kRelDelta,
                  "the replay mirrors the default convergence test only");
  ac::Classification c(model, static_cast<std::size_t>(j));
  std::uint64_t loads0 = tap.loads();
  double start = now_s();
  worker.random_init(c, config.seed, static_cast<std::uint64_t>(try_index),
                     em);
  ph.random_init += now_s() - start;
  ph.chunk_loads_in_init += tap.loads() - loads0;

  loads0 = tap.loads();
  const std::uint64_t fetches0 = tap.fetches();
  const std::uint64_t nanos0 = tap.nanos();
  double previous_score = -std::numeric_limits<double>::infinity();
  int small_deltas = 0;
  int cycles = 0;
  for (int cycle = 0; cycle < em.max_cycles; ++cycle) {
    const double t0 = now_s();
    const double r0 = reducer.seconds;
    const std::uint64_t a0 = reducer.allreduces;
    worker.update_parameters(c);
    const double t1 = now_s();
    const double r1 = reducer.seconds;
    worker.update_wts(c);
    const double t2 = now_s();
    const double r2 = reducer.seconds;
    worker.update_approximations(c);
    reducer.charge(
        ac::PhaseWork{ac::Phase::kCycleOverhead, 0, c.num_classes(), 0});
    const double t3 = now_s();
    ph.update_parameters += t1 - t0;
    ph.reduce_in_parameters += r1 - r0;
    ph.update_wts += t2 - t1;
    ph.reduce_in_wts += r2 - r1;
    ph.update_approximations += t3 - t2;
    ph.allreduces_in_cycles += reducer.allreduces - a0;
    cycles = cycle + 1;
    const double delta = std::abs(c.cs_score - previous_score) /
                         (1.0 + std::abs(c.cs_score));
    bool converged = false;
    if (cycle + 1 >= em.min_cycles) {
      small_deltas = delta < em.rel_delta ? small_deltas + 1 : 0;
      converged = small_deltas >= em.delta_cycles;
    }
    ph.cycles_wall += now_s() - t0;
    if (converged) break;
    previous_score = c.cs_score;
  }
  c.cycles = cycles;
  ph.cycles += static_cast<std::uint64_t>(cycles);
  ph.item_class_cycles += static_cast<std::uint64_t>(cycles) *
                          static_cast<std::uint64_t>(j) *
                          worker.range().size();
  ph.chunk_loads_in_cycles += tap.loads() - loads0;
  ph.fetches_in_cycles += tap.fetches() - fetches0;
  ph.fetch_nanos_in_cycles += tap.nanos() - nanos0;

  after_cycles(c);

  start = now_s();
  ac::Classification out = worker.prune_and_refit(c, em);
  ph.prune += now_s() - start;
  return out;
}

struct TermPasses {
  double fill = 0.0;
  double accumulate = 0.0;
  std::uint64_t item_classes = 0;
};

/// One E-step fill (Term::log_prob_batch) and one M-step accumulation
/// (Term::accumulate_batch) over the partition, block by block on a pool
/// of the EM's thread count, without the normalization and folds around
/// them.  `weights` is the worker's membership matrix for `c`.
TermPasses time_term_passes(const ac::Model& model,
                            const ac::Classification& c,
                            std::span<const double> weights,
                            data::ItemRange range, std::size_t threads) {
  const std::size_t j = c.num_classes();
  const std::size_t spc = model.stats_per_class();
  const std::size_t blocks = (range.size() + kBlock - 1) / kBlock;
  const auto block = [&](std::size_t b) {
    const std::size_t lo = range.begin + b * kBlock;
    return data::ItemRange{lo, std::min(lo + kBlock, range.end)};
  };
  ThreadPool pool(threads);
  TermPasses out;
  out.item_classes = range.size() * j;

  std::vector<double> rows(range.size() * j, 0.0);
  double start = now_s();
  pool.run(blocks, [&](std::size_t b) {
    const data::ItemRange r = block(b);
    double* out_rows = rows.data() + (r.begin - range.begin) * j;
    for (std::size_t k = 0; k < j; ++k)
      for (std::size_t t = 0; t < model.num_terms(); ++t)
        model.term(t).log_prob_batch(r, c.param_block(k, t), out_rows + k, j);
  });
  out.fill = now_s() - start;

  std::vector<double> partials(blocks * j * spc, 0.0);
  start = now_s();
  pool.run(blocks, [&](std::size_t b) {
    const data::ItemRange r = block(b);
    const double* w = weights.data() + (r.begin - range.begin) * j;
    double* part = partials.data() + b * j * spc;
    for (std::size_t k = 0; k < j; ++k)
      for (std::size_t t = 0; t < model.num_terms(); ++t)
        model.term(t).accumulate_batch(
            r, w + k, j,
            std::span<double>(part + k * spc + model.stats_offset(t),
                              model.term(t).stats_size()));
  });
  out.accumulate = now_s() - start;
  return out;
}

/// Median duration (seconds) of `reps` Allreduces of `count` doubles.
double probe_allreduce(mp::Comm& comm, std::size_t count, int reps) {
  std::vector<double> buf(count, 1.0);
  std::vector<double> samples;
  comm.barrier();
  for (int i = 0; i < reps; ++i) {
    const double start = now_s();
    comm.allreduce_inplace(std::span<double>(buf), mp::ReduceOp::kSum);
    samples.push_back(now_s() - start);
  }
  return median(samples);
}

constexpr int kProbeReps = 200;

void put_phases(Record& rec, const Phases& ph) {
  rec.num("em.random_init_s", ph.random_init);
  rec.num("em.update_wts_s", ph.update_wts);
  rec.num("em.update_parameters_s", ph.update_parameters);
  rec.num("em.update_approximations_s", ph.update_approximations);
  rec.num("em.cycles_wall_s", ph.cycles_wall);
  rec.num("em.prune_s", ph.prune);
  rec.num("core.reduce_in_wts_s", ph.reduce_in_wts);
  rec.num("core.reduce_in_parameters_s", ph.reduce_in_parameters);
  rec.num("em.cycles", static_cast<double>(ph.cycles));
  rec.num("em.item_class_cycles", static_cast<double>(ph.item_class_cycles));
  rec.num("core.allreduces_in_cycles",
          static_cast<double>(ph.allreduces_in_cycles));
  rec.num("data.block_fetches_in_cycles",
          static_cast<double>(ph.fetches_in_cycles));
  rec.num("data.block_fetch_s_in_cycles",
          static_cast<double>(ph.fetch_nanos_in_cycles) * 1e-9);
  rec.num("data.chunk_loads_in_cycles",
          static_cast<double>(ph.chunk_loads_in_cycles));
  rec.num("data.chunk_loads_in_init",
          static_cast<double>(ph.chunk_loads_in_init));
}

ac::SearchConfig search_config(const Cli& cli) {
  // The same mapping from flags to SearchConfig as pautoclass_cli.
  ac::SearchConfig search;
  search.start_j_list.clear();
  for (const auto j : cli.get_int_list("jlist", {2, 4, 8}))
    search.start_j_list.push_back(static_cast<int>(j));
  search.max_tries = static_cast<int>(cli.get_int("tries", 5));
  search.em.max_cycles = static_cast<int>(cli.get_int("max-cycles", 100));
  search.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1234));
  return search;
}

}  // namespace

int run_fit(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  const std::string path = cli.get_string("data", "");
  const std::string out_path = cli.get_string("out", "");
  const auto budget_mb =
      static_cast<std::size_t>(cli.get_int("data-budget-mb", 0));
  const int scaling_cycles = static_cast<int>(cli.get_int("scaling-cycles", 0));
  if (path.empty() || out_path.empty()) return usage();
  const ac::SearchConfig search = search_config(cli);
  PAC_REQUIRE_MSG(search.max_tries == 1, "fit replays a one-try search");
  Record rec;

  // 1. Data, opened as open_dataset opens it for pautoclass_cli.
  DataTap tap;
  double start = now_s();
  const data::Dataset dataset = [&] {
    if (budget_mb == 0) return data::open_dataset(path);
    tap.chunked = data::ChunkedStore::open(path, budget_mb << 20);
    tap.counters = std::make_shared<FetchCounters>();
    return data::Dataset(
        std::make_shared<TimingStore>(tap.chunked, tap.counters));
  }();
  rec.num("data.open_s", now_s() - start);
  const ac::Model model = ac::Model::default_model(dataset);
  if (tap.chunked)
    rec.num("data.chunk_rows", static_cast<double>(tap.chunked->chunk_rows()));

  // 2. The fit, phase by phase, on a one-rank modeled world.
  const core::ParallelConfig parallel;
  const int j = ac::select_j(search, 0, {});
  const AllreducesPerCall per_call =
      count_allreduces(model, parallel, static_cast<std::size_t>(j));
  mp::World world(world_config());
  const std::size_t threads = ThreadPool::resolve(0);
  Phases ph;
  TermPasses passes;
  double fit_wall = 0.0;
  double scaling_1 = 0.0;
  double scaling_n = 0.0;
  double probe_small = 0.0;
  double probe_stats = 0.0;
  std::vector<double> reduce_calls;
  ac::Classification result(model, 1);
  world.run([&](mp::Comm& comm) {
    core::ParallelReducer inner(comm, model, parallel);
    TimingReducer reducer(inner, per_call);
    const data::ItemRange range =
        data::block_partition(dataset.num_items(), comm.size(), comm.rank());
    ac::EmWorker worker(model, range, reducer,
                        parallel.strategy == core::Strategy::kFull);
    double pass_s = 0.0;
    const double fit_start = now_s();
    result = replay_try(worker, reducer, model, search, 0, j, tap, ph,
                        [&](const ac::Classification& c) {
                          const double t = now_s();
                          passes = time_term_passes(model, c,
                                                    worker.local_weights(),
                                                    range, threads);
                          pass_s = now_s() - t;
                        });
    fit_wall = now_s() - fit_start - pass_s;
    reduce_calls = reducer.calls;

    // E+M cycles at one thread and at the configured count, same data.
    for (int pass = 0; pass < 2 && scaling_cycles > 0; ++pass) {
      ac::EmConfig em = search.em;
      em.threads = pass == 0 ? 1 : static_cast<int>(threads);
      ac::EmWorker w(model, range, inner);
      ac::Classification c(model, static_cast<std::size_t>(j));
      w.random_init(c, search.seed, 0, em);
      const double t = now_s();
      for (int k = 0; k < scaling_cycles; ++k) {
        w.update_parameters(c);
        w.update_wts(c);
      }
      (pass == 0 ? scaling_1 : scaling_n) = now_s() - t;
    }

    probe_small = probe_allreduce(comm, static_cast<std::size_t>(j) + 1,
                                  kProbeReps);
    probe_stats = probe_allreduce(
        comm, static_cast<std::size_t>(j) * model.stats_per_class(),
        kProbeReps);
  });

  rec.num("fit.wall_s", fit_wall);
  rec.num("fit.log_likelihood", result.log_likelihood);
  rec.num("fit.cs_score", result.cs_score);
  put_phases(rec, ph);
  rec.num("terms.fill_s", passes.fill);
  rec.num("terms.accumulate_s", passes.accumulate);
  rec.num("terms.item_classes", static_cast<double>(passes.item_classes));
  rec.list("core.reduce_calls", reduce_calls);
  rec.num("thread_pool.one_thread_s", scaling_1);
  rec.num("thread_pool.n_threads_s", scaling_n);
  rec.num("mp.allreduce_small_s", probe_small);
  rec.num("mp.allreduce_stats_s", probe_stats);
  rec.write(out_path);
  return 0;
}

int run_search(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  const std::string path = cli.get_string("data", "");
  const std::string out_prefix = cli.get_string("out", "");
  const std::string checkpoint = cli.get_string("checkpoint", "");
  const int procs = static_cast<int>(cli.get_int("procs", 1));
  const int groups = static_cast<int>(cli.get_int("try-groups", 1));
  if (path.empty() || out_prefix.empty() || checkpoint.empty() || procs < 1 ||
      groups < 1 || procs % groups != 0)
    return usage();
  const ac::SearchConfig search = search_config(cli);
  Record common;

  double start = now_s();
  const data::Dataset dataset = data::open_dataset(path);
  common.num("data.open_s", now_s() - start);
  const ac::Model model = ac::Model::default_model(dataset);
  mp::World::Config cfg = world_config();
  cfg.num_ranks = procs;
  mp::World world(cfg);

  // 1. The search itself, as pautoclass_cli runs it, and its checkpoint.
  core::ParallelConfig parallel;
  parallel.try_groups = groups;
  int max_j = 1;
  for (int t = 0; t < search.max_tries; ++t)
    max_j = std::max(max_j, ac::scheduled_j(search, t));
  const AllreducesPerCall per_call =
      count_allreduces(model, parallel, static_cast<std::size_t>(max_j));
  const core::ParallelOutcome outcome =
      core::run_parallel_search(world, model, search, parallel);
  common.num("search.wall_s", outcome.stats.wall_seconds);
  std::vector<double> board_tries;
  std::vector<double> board_loglik;
  for (const ac::TryResult& entry : outcome.search.best) {
    board_tries.push_back(entry.try_index);
    board_loglik.push_back(entry.classification.log_likelihood);
  }
  common.list("search.board_tries", board_tries);
  common.list("search.board_loglik", board_loglik);
  start = now_s();
  ac::save_search_result_file(checkpoint, outcome.search);
  common.num("checkpoint.save_s", now_s() - start);
  common.num("checkpoint.bytes",
             static_cast<double>(std::filesystem::file_size(checkpoint)));
  start = now_s();
  const ac::SearchResult loaded = ac::load_search_result_file(checkpoint, model);
  common.num("checkpoint.load_s", now_s() - start);
  PAC_CHECK(loaded.tries == outcome.search.tries);

  // 2. The same tries again, as each sub-world runs them, with every rank's
  // reducer wrapped in a timer.  Ranks are threads; each owns its slot.
  // 3. Try 0 once more with the whole world as one sub-world, so that every
  // reduce call exchanges between ranks even where the search's sub-worlds
  // have one rank each: the collectives' cost and wait come from this pass.
  struct RankTrace {
    int group = 0;
    Phases ph;
    std::vector<double> collective_calls;
    std::vector<double> tries;
    std::vector<double> loglik;
    double wall = 0.0;
    double probe_small = 0.0;
    double probe_stats = 0.0;
  };
  std::vector<RankTrace> traces(static_cast<std::size_t>(procs));
  world.run([&](mp::Comm& comm) {
    RankTrace& tr = traces[static_cast<std::size_t>(comm.rank())];
    const double t0 = now_s();
    const int sub_size = comm.size() / groups;
    tr.group = comm.rank() / sub_size;
    mp::Comm sub = comm.split(tr.group, comm.rank());
    core::ParallelReducer inner(sub, model, parallel);
    TimingReducer reducer(inner, per_call);
    const data::ItemRange range =
        data::block_partition(dataset.num_items(), sub.size(), sub.rank());
    ac::EmWorker worker(model, range, reducer,
                        parallel.strategy == core::Strategy::kFull);
    const DataTap no_tap;
    for (int t = tr.group; t < search.max_tries; t += groups) {
      const int j = ac::scheduled_j(search, t);
      const ac::Classification c = replay_try(
          worker, reducer, model, search, t, j, no_tap, tr.ph,
          [](const ac::Classification&) {});
      tr.tries.push_back(t);
      tr.loglik.push_back(c.log_likelihood);
    }
    comm.barrier();
    tr.wall = now_s() - t0;

    core::ParallelReducer whole(comm, model, parallel);
    TimingReducer timed(whole, per_call);
    ac::EmWorker w(model,
                   data::block_partition(dataset.num_items(), comm.size(),
                                         comm.rank()),
                   timed, parallel.strategy == core::Strategy::kFull);
    Phases unused;
    replay_try(w, timed, model, search, 0, ac::scheduled_j(search, 0), no_tap,
               unused, [](const ac::Classification&) {});
    tr.collective_calls = timed.calls;

    tr.probe_small = probe_allreduce(comm, 9, kProbeReps);
    tr.probe_stats = probe_allreduce(comm, 8 * model.stats_per_class(),
                                     kProbeReps);
  });

  for (int rank = 0; rank < procs; ++rank) {
    const RankTrace& tr = traces[static_cast<std::size_t>(rank)];
    Record rec = common;
    rec.num("rank", rank);
    rec.num("group", tr.group);
    rec.num("replay.wall_s", tr.wall);
    rec.list("replay.tries", tr.tries);
    rec.list("replay.loglik", tr.loglik);
    put_phases(rec, tr.ph);
    rec.list("core.reduce_calls", tr.collective_calls);
    rec.num("mp.allreduce_small_s", tr.probe_small);
    rec.num("mp.allreduce_stats_s", tr.probe_stats);
    rec.write(out_prefix + ".rank" + std::to_string(rank) + ".json");
  }
  return 0;
}

}  // namespace pacbench

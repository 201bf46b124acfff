// google-benchmark micro suite: the numeric kernels and runtime primitives
// that dominate P-AutoClass's host-side cost.  Wall-clock (not virtual)
// time, for performance-regression tracking of the implementation itself.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "autoclass/em.hpp"
#include "data/synth.hpp"
#include "mp/comm.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace pac;

/// One E-step block's normalization: a class-major 8 x 256 tile (J=8
/// columns of 256 items) of log-joint values through
/// simd::normalize_columns at the pinned dispatch level.  The tile is
/// restored from a copy each iteration (the normalizer works in place); the
/// copy is part of the measured time in both variants.  The names keep the
/// BM_NormalizeRows* spelling of the committed baselines.
void run_normalize_rows(benchmark::State& state, simd::Level level) {
  constexpr std::size_t kItems = 256, kJ = 8;
  const simd::ScopedForceLevel pin(level);
  Xoshiro256ss rng(1);
  std::vector<double> input(kItems * kJ);
  for (double& x : input) x = uniform_in(rng, -30.0, 0.0);
  std::vector<double> tile(input.size()), lse(kItems);
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), tile.begin());
    benchmark::DoNotOptimize(simd::normalize_columns(tile.data(), kItems, kJ,
                                                     kItems, lse.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kItems * kJ);
}

void BM_NormalizeRows(benchmark::State& state) {
  run_normalize_rows(state, simd::Level::kScalar);
}
BENCHMARK(BM_NormalizeRows);

void BM_NormalizeRowsSimd(benchmark::State& state) {
  run_normalize_rows(state, simd::Level::kAvx2);
}
BENCHMARK(BM_NormalizeRowsSimd);

void BM_KahanSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256ss rng(2);
  std::vector<double> v(n);
  for (double& x : v) x = uniform_in(rng, -1.0, 1.0);
  for (auto _ : state) {
    KahanSum k;
    for (const double x : v) k.add(x);
    benchmark::DoNotOptimize(k.value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KahanSum)->Arg(1024)->Arg(65536);

void BM_CounterRng(benchmark::State& state) {
  const CounterRng rng(3);
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform(1, i++));
}
BENCHMARK(BM_CounterRng);

void BM_Cholesky(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  Xoshiro256ss rng(4);
  std::vector<double> base(d * d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j <= i; ++j)
      base[i * d + j] = base[j * d + i] = uniform_in(rng, -0.2, 0.2);
    base[i * d + i] += static_cast<double>(d);
  }
  for (auto _ : state) {
    std::vector<double> a = base;
    benchmark::DoNotOptimize(spd::cholesky(a, d));
  }
}
BENCHMARK(BM_Cholesky)->Arg(2)->Arg(8)->Arg(32);

// ---- E-step kernel benches: vector lanes vs the portable kernel bodies ----

/// Gaussian-heavy workload for the headline E-step comparison: 8 real
/// attributes x 8 classes is 64 per-item log-probabilities per E-step
/// pass, the regime the batched term kernels were built for.
data::LabeledDataset gaussian_heavy_dataset(std::size_t n) {
  constexpr std::size_t kDim = 8;
  std::vector<data::GaussianComponent> mix(4);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, 0.0);
    mix[c].sigma.assign(kDim, 1.0);
    for (std::size_t a = 0; a < kDim; ++a) {
      mix[c].mean[a] = static_cast<double>((c + a) % 4) * 2.5;
      mix[c].sigma[a] = 0.6 + 0.1 * static_cast<double>(a % 3);
    }
  }
  data::LabeledDataset ld = data::gaussian_mixture(mix, n, 17);
  data::inject_missing(ld.dataset, 0.02, 5);
  return ld;
}

/// One full E-step per iteration from a fixed post-M-step state.  `level`
/// pins the SIMD dispatch for the whole measurement, so the plain benches
/// time the portable kernel bodies on vector-capable hosts and the *Simd
/// variants the vector lanes (clamped to what the host supports, so they
/// degenerate to the portable numbers on scalar-only CPUs).
void run_update_wts(benchmark::State& state, const ac::Model& model,
                    std::size_t j, simd::Level level = simd::Level::kScalar) {
  const simd::ScopedForceLevel pin(level);
  const std::size_t n = model.dataset().num_items();
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, n}, identity);
  ac::Classification c(model, j);
  worker.random_init(c, 7, 0, ac::EmConfig{});
  worker.update_parameters(c);
  for (auto _ : state) benchmark::DoNotOptimize(worker.update_wts(c));
  state.SetItemsProcessed(state.iterations() * n * j);
}

void BM_UpdateWtsGaussian(benchmark::State& state) {
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 8);
}
BENCHMARK(BM_UpdateWtsGaussian);

void BM_UpdateWtsGaussianSimd(benchmark::State& state) {
  // The vectorized E-step on the headline workload; bit-identical results
  // to BM_UpdateWtsGaussian, measured at the host's best dispatch level.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 8,
                 simd::Level::kAvx2);
}
BENCHMARK(BM_UpdateWtsGaussianSimd);

void BM_UpdateWtsMultinomial(benchmark::State& state) {
  std::vector<data::CategoricalComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    for (std::size_t a = 0; a < 6; ++a) {
      std::vector<double> p(4, 0.15);
      p[(a + c) % 4] = 0.55;
      mix[c].probs.push_back(std::move(p));
    }
  }
  data::LabeledDataset ld = data::categorical_mixture(mix, 4000, 19);
  data::inject_missing(ld.dataset, 0.02, 5);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 4);
}
BENCHMARK(BM_UpdateWtsMultinomial);

void BM_UpdateWtsMultiNormal(benchmark::State& state) {
  constexpr std::size_t kDim = 4;
  std::vector<data::CorrelatedComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, static_cast<double>(c) * 3.0);
    mix[c].chol.assign(kDim * kDim, 0.0);
    for (std::size_t i = 0; i < kDim; ++i) {
      mix[c].chol[i * kDim + i] = 0.8;
      if (i > 0) mix[c].chol[i * kDim + i - 1] = 0.2;
    }
  }
  // No missing values: the multi_normal term requires complete rows.
  const data::LabeledDataset ld = data::correlated_mixture(mix, 4000, 21);
  run_update_wts(state, ac::Model::correlated_model(ld.dataset), 4);
}
BENCHMARK(BM_UpdateWtsMultiNormal);

void BM_UpdateWtsMultiNormalSimd(benchmark::State& state) {
  // Lane-parallel forward-solve E-step for the correlated block term.
  constexpr std::size_t kDim = 4;
  std::vector<data::CorrelatedComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, static_cast<double>(c) * 3.0);
    mix[c].chol.assign(kDim * kDim, 0.0);
    for (std::size_t i = 0; i < kDim; ++i) {
      mix[c].chol[i * kDim + i] = 0.8;
      if (i > 0) mix[c].chol[i * kDim + i - 1] = 0.2;
    }
  }
  const data::LabeledDataset ld = data::correlated_mixture(mix, 4000, 21);
  run_update_wts(state, ac::Model::correlated_model(ld.dataset), 4,
                 simd::Level::kAvx2);
}
BENCHMARK(BM_UpdateWtsMultiNormalSimd);

void BM_UpdateWtsLognormal(benchmark::State& state) {
  const std::size_t n = 4000;
  data::Dataset d(data::Schema({data::Attribute::real("x", 0.01),
                                data::Attribute::real("y", 0.01)}),
                  n);
  Xoshiro256ss rng(23);
  for (std::size_t i = 0; i < n; ++i) {
    d.set_real(i, 0, std::exp(0.4 + 0.5 * normal01(rng)));
    d.set_real(i, 1, std::exp(-0.2 + 0.3 * normal01(rng)));
  }
  const ac::Model model(d, {{ac::TermKind::kSingleLognormal, {0}},
                            {ac::TermKind::kSingleLognormal, {1}}});
  run_update_wts(state, model, 4);
}
BENCHMARK(BM_UpdateWtsLognormal);

void BM_UpdateWtsMultinomialSimd(benchmark::State& state) {
  // Masked-gather table lookup E-step for the discrete term.
  std::vector<data::CategoricalComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    for (std::size_t a = 0; a < 6; ++a) {
      std::vector<double> p(4, 0.15);
      p[(a + c) % 4] = 0.55;
      mix[c].probs.push_back(std::move(p));
    }
  }
  data::LabeledDataset ld = data::categorical_mixture(mix, 4000, 19);
  data::inject_missing(ld.dataset, 0.02, 5);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 4,
                 simd::Level::kAvx2);
}
BENCHMARK(BM_UpdateWtsMultinomialSimd);

void BM_UpdateWtsMixed(benchmark::State& state) {
  // Mixed real + discrete + ignored attribute: exercises every kernel
  // dispatch shape the default and explicit models produce.
  std::vector<data::MixedComponent> mix(2);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean = {static_cast<double>(c) * 2.0, 1.0 - static_cast<double>(c)};
    mix[c].sigma = {1.0, 0.7};
    mix[c].probs = {{0.2 + 0.5 * static_cast<double>(c),
                     0.8 - 0.5 * static_cast<double>(c)}};
  }
  data::LabeledDataset ld = data::mixed_mixture(mix, 4000, 27);
  data::inject_missing(ld.dataset, 0.02, 5);
  const ac::Model model(ld.dataset, {{ac::TermKind::kSingleNormal, {0}},
                                     {ac::TermKind::kIgnore, {1}},
                                     {ac::TermKind::kSingleMultinomial, {2}}});
  run_update_wts(state, model, 4);
}
BENCHMARK(BM_UpdateWtsMixed);

// ---- M-step kernel benches ----

/// One full M-step per iteration from a fixed post-E-step state.
/// `threads` sizes the intra-rank pool; `level` pins the SIMD dispatch for
/// the measurement, so the plain benches time the portable 4-lane folds
/// and the *Simd variants the vector lanes (clamped to what the host
/// supports, so they degenerate to the portable numbers on scalar-only
/// CPUs).
void run_update_params(benchmark::State& state, const ac::Model& model,
                       std::size_t j, int threads = 1,
                       simd::Level level = simd::Level::kScalar) {
  const simd::ScopedForceLevel pin(level);
  const std::size_t n = model.dataset().num_items();
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, n}, identity);
  ac::Classification c(model, j);
  ac::EmConfig config;
  config.threads = threads;
  worker.random_init(c, 7, 0, config);
  worker.update_parameters(c);
  worker.update_wts(c);
  for (auto _ : state) {
    worker.update_parameters(c);
    benchmark::DoNotOptimize(c.all_params().data());
  }
  state.SetItemsProcessed(state.iterations() * n * j);
}

void BM_UpdateParamsGaussian(benchmark::State& state) {
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 8);
}
BENCHMARK(BM_UpdateParamsGaussian);

void BM_UpdateParamsGaussianSimd(benchmark::State& state) {
  // The headline M-step workload with the moment folds on the vector lanes
  // (the host's best dispatch level); same bits as BM_UpdateParamsGaussian.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 8,
                    /*threads=*/1, simd::Level::kAvx2);
}
BENCHMARK(BM_UpdateParamsGaussianSimd);

void BM_UpdateParamsGaussianThreads4(benchmark::State& state) {
  // The hybrid layer on the same workload.  Wall-clock scaling tracks the
  // host's core count (a single-core container shows none); results are
  // bit-identical to the 1-thread bench by construction.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 8,
                    /*threads=*/4);
}
BENCHMARK(BM_UpdateParamsGaussianThreads4);

void BM_UpdateParamsMultinomial(benchmark::State& state) {
  std::vector<data::CategoricalComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    for (std::size_t a = 0; a < 6; ++a) {
      std::vector<double> p(4, 0.15);
      p[(a + c) % 4] = 0.55;
      mix[c].probs.push_back(std::move(p));
    }
  }
  data::LabeledDataset ld = data::categorical_mixture(mix, 4000, 19);
  data::inject_missing(ld.dataset, 0.02, 5);
  run_update_params(state, ac::Model::default_model(ld.dataset), 4);
}
BENCHMARK(BM_UpdateParamsMultinomial);

void BM_UpdateParamsMultiNormal(benchmark::State& state) {
  constexpr std::size_t kDim = 4;
  std::vector<data::CorrelatedComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, static_cast<double>(c) * 3.0);
    mix[c].chol.assign(kDim * kDim, 0.0);
    for (std::size_t i = 0; i < kDim; ++i) {
      mix[c].chol[i * kDim + i] = 0.8;
      if (i > 0) mix[c].chol[i * kDim + i - 1] = 0.2;
    }
  }
  const data::LabeledDataset ld = data::correlated_mixture(mix, 4000, 21);
  run_update_params(state, ac::Model::correlated_model(ld.dataset), 4);
}
BENCHMARK(BM_UpdateParamsMultiNormal);

void BM_UpdateParamsMultiNormalSimd(benchmark::State& state) {
  // The block term's scatter fold on the vector lanes.
  constexpr std::size_t kDim = 4;
  std::vector<data::CorrelatedComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, static_cast<double>(c) * 3.0);
    mix[c].chol.assign(kDim * kDim, 0.0);
    for (std::size_t i = 0; i < kDim; ++i) {
      mix[c].chol[i * kDim + i] = 0.8;
      if (i > 0) mix[c].chol[i * kDim + i - 1] = 0.2;
    }
  }
  const data::LabeledDataset ld = data::correlated_mixture(mix, 4000, 21);
  run_update_params(state, ac::Model::correlated_model(ld.dataset), 4,
                    /*threads=*/1, simd::Level::kAvx2);
}
BENCHMARK(BM_UpdateParamsMultiNormalSimd);

void BM_UpdateParamsLognormal(benchmark::State& state) {
  const std::size_t n = 4000;
  data::Dataset d(data::Schema({data::Attribute::real("x", 0.01),
                                data::Attribute::real("y", 0.01)}),
                  n);
  Xoshiro256ss rng(23);
  for (std::size_t i = 0; i < n; ++i) {
    d.set_real(i, 0, std::exp(0.4 + 0.5 * normal01(rng)));
    d.set_real(i, 1, std::exp(-0.2 + 0.3 * normal01(rng)));
  }
  const ac::Model model(d, {{ac::TermKind::kSingleLognormal, {0}},
                            {ac::TermKind::kSingleLognormal, {1}}});
  run_update_params(state, model, 4);
}
BENCHMARK(BM_UpdateParamsLognormal);

void BM_UpdateParamsMixed(benchmark::State& state) {
  std::vector<data::MixedComponent> mix(2);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean = {static_cast<double>(c) * 2.0, 1.0 - static_cast<double>(c)};
    mix[c].sigma = {1.0, 0.7};
    mix[c].probs = {{0.2 + 0.5 * static_cast<double>(c),
                     0.8 - 0.5 * static_cast<double>(c)}};
  }
  data::LabeledDataset ld = data::mixed_mixture(mix, 4000, 27);
  data::inject_missing(ld.dataset, 0.02, 5);
  const ac::Model model(ld.dataset, {{ac::TermKind::kSingleNormal, {0}},
                                     {ac::TermKind::kIgnore, {1}},
                                     {ac::TermKind::kSingleMultinomial, {2}}});
  run_update_params(state, model, 4);
}
BENCHMARK(BM_UpdateParamsMixed);

void BM_EmBaseCycle(benchmark::State& state) {
  // Host throughput of one full base_cycle (sequential), items x classes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const int j = static_cast<int>(state.range(1));
  const data::LabeledDataset ld = data::paper_dataset(n, 6);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, n}, identity);
  ac::Classification c(model, static_cast<std::size_t>(j));
  worker.random_init(c, 7, 0, ac::EmConfig{});
  for (auto _ : state) {
    worker.update_parameters(c);
    benchmark::DoNotOptimize(worker.update_wts(c));
    worker.update_approximations(c);
  }
  state.SetItemsProcessed(state.iterations() * n * j);
}
BENCHMARK(BM_EmBaseCycle)->Args({2000, 4})->Args({2000, 16})->Args({10000, 8});

void BM_Allreduce(benchmark::State& state) {
  // Host-side cost of the deterministic allreduce (4 rank threads).
  const auto n = static_cast<std::size_t>(state.range(0));
  mp::World::Config cfg;
  cfg.num_ranks = 4;
  cfg.machine = net::ideal_machine();
  mp::World world(cfg);
  for (auto _ : state) {
    world.run([n](mp::Comm& comm) {
      std::vector<double> v(n, 1.0);
      for (int i = 0; i < 16; ++i)
        comm.allreduce_inplace<double>(v, mp::ReduceOp::kSum);
    });
  }
  state.SetItemsProcessed(state.iterations() * 16 * n);
}
BENCHMARK(BM_Allreduce)->Arg(16)->Arg(4096);

void BM_AllreduceScalarHot(benchmark::State& state) {
  // The EM hot path in miniature: thousands of tiny scalar allreduces per
  // search.  Guards the thread-local scratch reuse in the collective folds
  // (no per-call temporary vector).
  mp::World::Config cfg;
  cfg.num_ranks = 4;
  cfg.machine = net::ideal_machine();
  mp::World world(cfg);
  for (auto _ : state) {
    world.run([](mp::Comm& comm) {
      double acc = 1.0;
      for (int i = 0; i < 256; ++i)
        acc = comm.allreduce_scalar(acc, mp::ReduceOp::kMax);
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_AllreduceScalarHot);

/// Smoke-tier correctness gate for the scratch-buffer fold path: the small
/// collectives the EM loop hammers must still produce exact results after
/// the allocation-free rewrite.  Returns false (and prints) on mismatch.
bool check_scratch_fold_path() {
  mp::World::Config cfg;
  cfg.num_ranks = 4;
  cfg.machine = net::ideal_machine();
  mp::World world(cfg);
  std::atomic<int> failures{0};
  world.run([&failures](mp::Comm& comm) {
    for (int i = 1; i <= 64; ++i) {
      const double sum = comm.allreduce_scalar(static_cast<double>(i));
      if (sum != 4.0 * i) failures.fetch_add(1);
      const auto gathered = comm.allgather_value<int>(comm.rank() + i);
      for (int r = 0; r < comm.size(); ++r)
        if (gathered[static_cast<std::size_t>(r)] != r + i)
          failures.fetch_add(1);
    }
  });
  if (failures.load() != 0) {
    std::fprintf(stderr,
                 "micro_kernels: scratch fold check FAILED (%d mismatches)\n",
                 failures.load());
    return false;
  }
  return true;
}

/// The runs of one smoke gate, required memcmp-equal to the first run.
bool all_bit_equal(const std::vector<std::vector<double>>& runs,
                   const char* what) {
  for (std::size_t v = 1; v < runs.size(); ++v) {
    if (runs[v].size() != runs[0].size() ||
        std::memcmp(runs[v].data(), runs[0].data(),
                    runs[0].size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "micro_kernels: %s level/thread equality FAILED (%zu)\n",
                   what, v);
      return false;
    }
  }
  return true;
}

/// Smoke-tier correctness gates for the batched M- and E-steps, on the
/// workload the headline benches measure: one M-step then one E-step on the
/// vector lanes at 1 thread, on the portable kernel bodies at 1 thread, and
/// on the vector lanes through the pool.  The statistics and parameters,
/// then the weights and log-likelihood, must be bit-identical in all three.
/// On scalar-only hosts the vector variants clamp to the portable bodies
/// and the gates still check the pool.
bool check_em_kernel_equality() {
  const data::LabeledDataset ld = gaussian_heavy_dataset(1000);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  struct Variant {
    pac::simd::Level level;
    int threads;
  };
  std::vector<std::vector<double>> mstep, estep;
  for (const Variant v : {Variant{pac::simd::Level::kAvx2, 1},
                          Variant{pac::simd::Level::kScalar, 1},
                          Variant{pac::simd::Level::kAvx2, 4}}) {
    const pac::simd::ScopedForceLevel pin(v.level);
    ac::Reducer identity;
    ac::EmWorker worker(model, data::ItemRange{0, 1000}, identity);
    ac::Classification c(model, 6);
    ac::EmConfig config;
    config.threads = v.threads;
    worker.random_init(c, 9, 0, config);
    worker.update_parameters(c);
    const auto s = worker.statistics();
    const auto p = c.all_params();
    mstep.emplace_back(s.begin(), s.end());
    mstep.back().insert(mstep.back().end(), p.begin(), p.end());
    const double loglike = worker.update_wts(c);
    const auto w = worker.local_weights();
    estep.emplace_back(w.begin(), w.end());
    estep.back().push_back(loglike);
  }
  return all_bit_equal(mstep, "M-step") && all_bit_equal(estep, "E-step");
}

}  // namespace

// BENCHMARK_MAIN() plus a --smoke flag: the CI tier maps it to a minimal
// measurement time so every kernel still executes once under sanitizers.
// --print-simd reports the resolved dispatch level and exits (used by
// scripts/check.sh to label its output).  The resolved level is also
// attached to the JSON context as "pac_simd" so committed baselines record
// what they measured.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--print-simd") == 0) {
      std::printf("%s\n", pac::simd::describe());
      return 0;
    }
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static char min_time[] = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::AddCustomContext("pac_simd", pac::simd::describe());
  // The project's own build flavor (context.library_build_type describes
  // the google-benchmark library, not this code).  bench_diff.py matches
  // candidate and baseline on this key: debug and release runs have very
  // different vector-over-portable ratios.
#ifdef NDEBUG
  benchmark::AddCustomContext("pac_build", "release");
#else
  benchmark::AddCustomContext("pac_build", "debug");
#endif
  std::fprintf(stderr, "micro_kernels: %s\n", pac::simd::describe());
  if (smoke && !check_scratch_fold_path()) return 1;
  if (smoke && !check_em_kernel_equality()) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

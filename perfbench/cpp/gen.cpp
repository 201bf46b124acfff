// Seeded workload inputs.  Each shape is a pure function of (rows, seed);
// the harness picks shape and size per workload, so the programs under test
// only ever see the generated files.
#include <cstdint>
#include <string>
#include <vector>

#include "data/format.hpp"
#include "data/synth.hpp"
#include "pacbench.hpp"

namespace pacbench {

namespace {

using namespace pac;

/// The 8-dim shape of bench/micro_kernels.cpp's gaussian_heavy_dataset: four
/// diagonal components, 2% of the entries missing.
data::Dataset gaussian8(std::size_t rows, std::uint64_t seed) {
  constexpr std::size_t kDim = 8;
  std::vector<data::GaussianComponent> mix(4);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].mean.assign(kDim, 0.0);
    mix[c].sigma.assign(kDim, 1.0);
    for (std::size_t a = 0; a < kDim; ++a) {
      mix[c].mean[a] = static_cast<double>((c + a) % 4) * 2.5;
      mix[c].sigma[a] = 0.6 + 0.1 * static_cast<double>(a % 3);
    }
  }
  data::LabeledDataset ld = data::gaussian_mixture(mix, rows, seed);
  data::inject_missing(ld.dataset, 0.02, seed + 1);
  return std::move(ld.dataset);
}

/// A census-like table: three real attributes (age, log-income, a rate) and
/// three discrete ones (household size, region, employment), three
/// segments, 3% of the entries missing.
data::Dataset census(std::size_t rows, std::uint64_t seed) {
  const std::vector<data::MixedComponent> mix = {
      {0.40, {23.0, 9.6, 0.85}, {3.0, 0.35, 0.08},
       {{0.55, 0.30, 0.10, 0.04, 0.01},
        {0.20, 0.20, 0.15, 0.15, 0.10, 0.10, 0.05, 0.05},
        {0.60, 0.30, 0.10}}},
      {0.35, {41.0, 10.9, 0.65}, {7.0, 0.30, 0.08},
       {{0.05, 0.15, 0.30, 0.35, 0.15},
        {0.10, 0.15, 0.20, 0.15, 0.15, 0.10, 0.10, 0.05},
        {0.10, 0.85, 0.05}}},
      {0.25, {70.0, 10.2, 0.45}, {6.0, 0.40, 0.08},
       {{0.35, 0.55, 0.07, 0.02, 0.01},
        {0.05, 0.10, 0.10, 0.15, 0.20, 0.20, 0.10, 0.10},
        {0.05, 0.10, 0.85}}},
  };
  data::LabeledDataset ld = data::mixed_mixture(mix, rows, seed);
  data::inject_missing(ld.dataset, 0.03, seed + 1);
  return std::move(ld.dataset);
}

}  // namespace

int run_gen(const std::vector<std::string>& args) {
  if (args.size() != 4) return usage();
  const std::string& shape = args[0];
  const std::size_t rows = std::stoull(args[1]);
  const std::uint64_t seed = std::stoull(args[2]);
  data::Dataset ds;
  if (shape == "paper")
    ds = data::paper_dataset(rows, seed).dataset;
  else if (shape == "gaussian8")
    ds = gaussian8(rows, seed);
  else if (shape == "census")
    ds = census(rows, seed);
  else
    return usage();
  data::format::write_pacb_file(args[3], ds);
  return 0;
}

}  // namespace pacbench

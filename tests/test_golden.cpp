// Golden pins: absolute fingerprints of five small EM fits, one per term
// family mix.  Every relative suite (threads, SIMD levels, transports,
// backends) compares two runs of the same code; these pin what the code
// computes, so any change to a kernel's association, a prior or the row
// normalizer shows up here as a failed pin.
//
// Each fit runs J=3 classes from a fixed seed for 6 cycles through the
// identity Reducer, and records per cycle the log-likelihood and the
// Cheeseman-Stutz score as hexfloats, plus an FNV-1a hash of the final
// parameter bytes.  Each fit runs at the forced-scalar level and at the
// host's detected level against the same pins.
//
// The J=8 rungs reach what J=3 cannot: the 4-class AVX2 lanes of the
// tile transpose and its W_j fold, and full 4-item x 8-class normalizer
// groups.  They also pin the final classification's reports, the mean max
// membership (hexfloat) and an FNV-1a hash of assign_labels, and run at
// PAC_EM_THREADS 1 and 4, so the work-shared EM and report passes are
// pinned as well.
//
// When a change moves the trajectories on purpose, the failure prints the
// replacement pin for the fit, ready to paste over the old one; say so in
// CHANGES.md.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "autoclass/em.hpp"
#include "autoclass/report.hpp"
#include "data/synth.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace pac::ac {
namespace {

using data::Attribute;
using data::Dataset;
using data::Schema;

constexpr std::size_t kClasses = 3;
constexpr std::size_t kLadderClasses = 8;
constexpr int kCycles = 6;
constexpr std::uint64_t kSeed = 2026;

struct Golden {
  double log_likelihood[kCycles];
  double cs_score[kCycles];
  std::uint64_t params_hash;
};

/// The reports of a fit's final classification.
struct ReportPin {
  double mean_max_membership;
  std::uint64_t labels_hash;  // FNV-1a of assign_labels' bytes
};

template <typename T>
std::uint64_t fnv1a(std::span<const T> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The fit at J = `classes`; fills `report` from the final classification
/// when it is given.
Golden fit(const Model& model, std::size_t classes = kClasses,
           ReportPin* report = nullptr) {
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, model.dataset().num_items()},
                  identity);
  Classification c(model, classes);
  worker.random_init(c, kSeed, 0, EmConfig{});
  Golden g{};
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    worker.update_parameters(c);
    worker.update_wts(c);
    worker.update_approximations(c);
    g.log_likelihood[cycle] = c.log_likelihood;
    g.cs_score[cycle] = c.cs_score;
  }
  g.params_hash = fnv1a(c.all_params());
  if (report != nullptr) {
    report->mean_max_membership = mean_max_membership(c);
    const std::vector<std::int32_t> labels = assign_labels(c);
    report->labels_hash = fnv1a(std::span<const std::int32_t>(labels));
  }
  return g;
}

/// `values` as hexfloat initializer lines, two per line.
std::string hex_list(const double* values) {
  std::string out = "{";
  char buf[64];
  for (int i = 0; i < kCycles; ++i) {
    const char* sep = i == 0 ? "" : i % 2 == 0 ? ",\n       " : ", ";
    std::snprintf(buf, sizeof buf, "%s%a", sep, values[i]);
    out += buf;
  }
  return out + "}";
}

/// The pin for `g`, formatted as the initializer the test holds.
std::string paste_ready(const Golden& g) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016llxULL",
                static_cast<unsigned long long>(g.params_hash));
  return "  const Golden pin = {\n      " + hex_list(g.log_likelihood) +
         ",\n      " + hex_list(g.cs_score) + ",\n      " + hash + "};";
}

/// The report pin for `r`, formatted as the initializer the test holds.
std::string paste_ready(const ReportPin& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "  const ReportPin report = {%a, 0x%016llxULL};",
                r.mean_max_membership,
                static_cast<unsigned long long>(r.labels_hash));
  return buf;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool matches(const Golden& got, const Golden& pin) {
  bool match = got.params_hash == pin.params_hash;
  for (int i = 0; i < kCycles; ++i)
    match = match && same_bits(got.log_likelihood[i], pin.log_likelihood[i]) &&
            same_bits(got.cs_score[i], pin.cs_score[i]);
  return match;
}

void expect_golden(const Model& model, const Golden& pin) {
  for (const simd::Level level :
       {simd::Level::kScalar, simd::detected_level()}) {
    const simd::ScopedForceLevel force(level);
    const Golden got = fit(model);
    EXPECT_TRUE(matches(got, pin))
        << "golden pin moved at level " << simd::to_string(force.effective())
        << "; if the change is intended, the new pin is:\n"
        << paste_ready(got);
  }
}

/// A J=8 rung of the ladder: the fit and its reports at both dispatch
/// levels, with the EM and the reports at PAC_EM_THREADS 1 and 4.
void expect_golden_ladder(const Model& model, const Golden& pin,
                          const ReportPin& report_pin) {
  for (const char* threads : {"1", "4"}) {
    setenv("PAC_EM_THREADS", threads, 1);
    for (const simd::Level level :
         {simd::Level::kScalar, simd::detected_level()}) {
      const simd::ScopedForceLevel force(level);
      ReportPin report{};
      const Golden got = fit(model, kLadderClasses, &report);
      EXPECT_TRUE(matches(got, pin) &&
                  same_bits(report.mean_max_membership,
                            report_pin.mean_max_membership) &&
                  report.labels_hash == report_pin.labels_hash)
          << "golden J=" << kLadderClasses << " pin moved at level "
          << simd::to_string(force.effective()) << " with " << threads
          << " thread(s); if the change is intended, the new pins are:\n"
          << paste_ready(got) << "\n"
          << paste_ready(report);
    }
  }
  unsetenv("PAC_EM_THREADS");
}

TEST(Golden, NormalWithMissing) {
  data::LabeledDataset ld = data::paper_dataset(600, 91);
  data::inject_missing(ld.dataset, 0.15, 31);
  const Golden pin = {
      {-0x1.de246c36bfc05p+12, -0x1.d9938bc700889p+12,
       -0x1.d6cca144a790dp+12, -0x1.d58d6eceea9d2p+12,
       -0x1.d477bcc17c42fp+12, -0x1.d38c31f9913f6p+12},
      {-0x1.e066e4e3bf775p+12, -0x1.dc01b22e557acp+12,
       -0x1.d98f029f3f72p+12, -0x1.d87b8f45bc201p+12,
       -0x1.d77d5280e1a1ap+12, -0x1.d6a768b253ddap+12},
      0x20c9a4e9e41678d0ULL};
  expect_golden(Model::default_model(ld.dataset), pin);
}

TEST(Golden, NormalWithMissingJ8) {
  data::LabeledDataset ld = data::paper_dataset(600, 91);
  data::inject_missing(ld.dataset, 0.15, 31);
  const Golden pin = {
      {-0x1.ce7af7161004dp+12, -0x1.c575819e5ca98p+12,
       -0x1.c1ec0a7d53a47p+12, -0x1.bf8d937792442p+12,
       -0x1.bda0b2e044cb2p+12, -0x1.bd1f0753e13eep+12},
      {-0x1.d42665c996039p+12, -0x1.cce799336ce0dp+12,
       -0x1.cac664662ad62p+12, -0x1.c9c1a748a5e75p+12,
       -0x1.c982c5cb81aa7p+12, -0x1.c997e3e5e40dap+12},
      0x82f3fe1fa9bc5b5cULL};
  const ReportPin report = {0x1.c616d0dd03b03p-1, 0x6f13ed1c22c359e0ULL};
  expect_golden_ladder(Model::default_model(ld.dataset), pin, report);
}

TEST(Golden, MultinomialMissingAsExtraValue) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.4, {{0.8, 0.1, 0.1}, {0.9, 0.1}}},
      {0.3, {{0.1, 0.1, 0.8}, {0.2, 0.8}}},
      {0.3, {{0.3, 0.4, 0.3}, {0.5, 0.5}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 600, 92);
  data::inject_missing(ld.dataset, 0.1, 32);
  ModelConfig config;
  config.missing_as_extra_value = true;
  const Golden pin = {
      {-0x1.48da9ac9ef03ap+10, -0x1.4847b7e205778p+10,
       -0x1.483b25b843a03p+10, -0x1.4839550e5529cp+10,
       -0x1.4838b14cb3a82p+10, -0x1.48384f826dd0ep+10},
      {-0x1.546041792d47cp+10, -0x1.53cc3a1d13deap+10,
       -0x1.53c293498de5dp+10, -0x1.53c4edaeec4b8p+10,
       -0x1.53c891de02e6bp+10, -0x1.53cc48fd7e326p+10},
      0x124e30e2bc1043daULL};
  expect_golden(Model::default_model(ld.dataset, config), pin);
}

TEST(Golden, CorrelatedModel) {
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0, 0.5, 0.8, 0.0, 0.2, -0.3, 0.9}},
      {0.5, {3.0, 1.0, -2.0}, {0.7, 0.0, 0.0, -0.4, 0.9, 0.0, 0.1, 0.3, 0.6}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 600, 93);
  const Golden pin = {
      {-0x1.5cb3d7c5d5a1p+13, -0x1.5af31e665a2f7p+13,
       -0x1.588aa26da6d34p+13, -0x1.572ca8a8ddb77p+13,
       -0x1.564cc5e49a9dap+13, -0x1.5583086cae3a4p+13},
      {-0x1.5edb2b96c582fp+13, -0x1.5d1d45611d69cp+13,
       -0x1.5adfacd6bc341p+13, -0x1.59c6546a2d813p+13,
       -0x1.58fb7a8114652p+13, -0x1.5838b1bb5662fp+13},
      0x56124b1d7f0135f2ULL};
  expect_golden(Model::correlated_model(ld.dataset), pin);
}

TEST(Golden, CorrelatedModelJ8) {
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0, 0.5, 0.8, 0.0, 0.2, -0.3, 0.9}},
      {0.5, {3.0, 1.0, -2.0}, {0.7, 0.0, 0.0, -0.4, 0.9, 0.0, 0.1, 0.3, 0.6}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 600, 93);
  const Golden pin = {
      {-0x1.580109291c01dp+13, -0x1.54b5dcfb95996p+13,
       -0x1.53fa8e3d344bfp+13, -0x1.53c1d65261a23p+13,
       -0x1.53a91cf823732p+13, -0x1.539aeb62d838ep+13},
      {-0x1.5d12e78cd69dcp+13, -0x1.5a573321c978p+13,
       -0x1.59eb515116afcp+13, -0x1.59c3e0aeddb7ep+13,
       -0x1.59aa35a828f3p+13, -0x1.59961b222cc48p+13},
      0x1c54f87da074e57eULL};
  const ReportPin report = {0x1.5f7848d456ea1p-1, 0xee42e1f62721c1b2ULL};
  expect_golden_ladder(Model::correlated_model(ld.dataset), pin, report);
}

TEST(Golden, LognormalWithMissing) {
  Dataset d(Schema({Attribute::real("mass", 0.01)}), 600);
  Xoshiro256ss rng(94);
  for (std::size_t i = 0; i < 600; ++i)
    d.set_real(i, 0, std::exp((i % 3 == 0 ? 2.0 : 0.5) +
                              0.4 * normal01(rng)));
  for (std::size_t i = 5; i < 600; i += 11) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  const Golden pin = {
      {-0x1.cbe59e48af74p+11, -0x1.c995d9c4a6ecdp+11,
       -0x1.c8d37e2129604p+11, -0x1.c88340dbafe2ep+11,
       -0x1.c854670fc9936p+11, -0x1.c83458a22e989p+11},
      {-0x1.cea35a1589edfp+11, -0x1.cc77298845736p+11,
       -0x1.cbcb0dffb4689p+11, -0x1.cb8a2f7a343c9p+11,
       -0x1.cb66522c5aff4p+11, -0x1.cb4ef91b64261p+11},
      0x5347d4f0d9e09110ULL};
  expect_golden(Model(d, {spec}), pin);
}

TEST(Golden, MixedModelWithIgnore) {
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
  mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
  data::LabeledDataset ld = data::mixed_mixture(mix, 600, 95);
  data::inject_missing(ld.dataset, 0.1, 35);
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  const Golden pin = {
      {-0x1.eb8bcfb7f06ecp+11, -0x1.dd4d59e6d2604p+11,
       -0x1.db420cdb41192p+11, -0x1.db2d11d79087cp+11,
       -0x1.db27cecc62905p+11, -0x1.db2497dc0ae41p+11},
      {-0x1.ef295042c039cp+11, -0x1.e1ed1ab60a8dfp+11,
       -0x1.e0872a8c08dep+11, -0x1.e080c3f7f5f52p+11,
       -0x1.e07b988afd691p+11, -0x1.e077e123f11aep+11},
      0x52fa68eeb0abae84ULL};
  expect_golden(Model(ld.dataset, std::move(specs)), pin);
}

}  // namespace
}  // namespace pac::ac

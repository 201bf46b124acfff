// Serving-path benchmarks for pac_serve (DESIGN.md §7, EXPERIMENTS.md).
//
// Two tiers in one binary:
//
//  1. Google-benchmark micros over the in-process inference path, feeding
//     the ratio gate in scripts/bench_diff.py:
//       BM_ServePredictRowwise        predict_batch called one row at a
//                                     time (an unbatched server would pay
//                                     one Model::rebound per request)
//       BM_ServePredictBatched        predict_batch over the whole batch —
//                                     the micro-batched serving hot path
//     predict_batch is ac::predict, the one offline/served prediction
//     path.  The gated ratio is batched-vs-rowwise (the micro-batching
//     win), a within-run ratio, so it survives machine changes like the
//     other pairs.
//
//  2. A socket-level latency/QPS section: an in-process Server, client
//     threads at {1, 8, 64} concurrency each issuing synchronous predict
//     requests, then sustained QPS plus p50/p99/max request latency read
//     back from the server's own serve.request_seconds histogram (the
//     same metrics a production pac_serve reports via kStats).  Runs
//     before the google-benchmark suite; --smoke shrinks the request
//     counts and drops the 64-client rung so the section also fits under
//     sanitizers.
//
// Refreshing the committed baseline (bench/baselines/):
//   build/bench/serve_latency --benchmark_out_format=json
//       --benchmark_out=BENCH_<date>_serve_latency.json
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autoclass/search.hpp"
#include "data/dataset.hpp"
#include "serve/client.hpp"
#include "serve/predictor.hpp"
#include "serve/server.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using pac::data::Attribute;
using pac::data::Dataset;
using pac::data::Schema;

// Same five-family shape the serve tests use: the batch pays every term
// kind the kernel tier dispatches on (normal, multinomial, multi-normal
// block, lognormal, ignore).
Schema serve_schema() {
  return Schema({Attribute::real("x", 0.01), Attribute::discrete("d", 3),
                 Attribute::real("y", 0.01), Attribute::real("z", 0.01),
                 Attribute::real("w", 0.01), Attribute::real("junk", 0.01)});
}

Dataset serve_dataset(std::size_t n, std::uint64_t seed) {
  Dataset ds(serve_schema(), n);
  pac::Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool c = i % 2 == 0;
    ds.set_real(i, 0, (c ? 0.0 : 6.0) + pac::normal01(rng));
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    ds.set_discrete(i, 1, c ? (u < 0.8 ? 0 : 1) : (u < 0.8 ? 2 : 1));
    const double g1 = pac::normal01(rng);
    const double g2 = pac::normal01(rng);
    ds.set_real(i, 2, (c ? -3.0 : 3.0) + g1);
    ds.set_real(i, 3, (c ? -3.0 : 3.0) + 0.8 * g1 + 0.6 * g2);
    ds.set_real(i, 4, std::exp((c ? 0.0 : 2.0) + 0.3 * pac::normal01(rng)));
    ds.set_real(i, 5, pac::normal01(rng));
  }
  return ds;
}

pac::ac::Model serve_model(const Dataset& ds) {
  std::vector<pac::ac::TermSpec> specs(5);
  specs[0] = {pac::ac::TermKind::kSingleNormal, {0}};
  specs[1] = {pac::ac::TermKind::kSingleMultinomial, {1}};
  specs[2] = {pac::ac::TermKind::kMultiNormal, {2, 3}};
  specs[3] = {pac::ac::TermKind::kSingleLognormal, {4}};
  specs[4] = {pac::ac::TermKind::kIgnore, {5}};
  return pac::ac::Model(ds, specs);
}

// One trained classification + probe batch shared by every benchmark:
// fitting dominates setup, so pay it once.
struct ServeFixture {
  Dataset train;
  pac::ac::Model model;
  pac::ac::Classification classification;
  Dataset probe;

  ServeFixture()
      : train(serve_dataset(2000, 41)),
        model(serve_model(train)),
        classification(fit(model)),
        probe(serve_dataset(256, 42)) {}

  static pac::ac::Classification fit(const pac::ac::Model& model) {
    pac::ac::SearchConfig config;
    config.start_j_list = {4};
    config.max_tries = 1;
    config.em.max_cycles = 20;
    config.seed = 1234;
    return pac::ac::sequential_search(model, config).top();
  }
};

const ServeFixture& fixture() {
  static const ServeFixture f;
  return f;
}

void BM_ServePredictRowwise(benchmark::State& state) {
  const ServeFixture& f = fixture();
  for (auto _ : state) {
    for (std::size_t i = 0; i < f.probe.num_items(); ++i) {
      auto out =
          pac::serve::predict_batch(f.classification, f.probe.slice(i, i + 1),
                                    /*want_membership=*/false);
      benchmark::DoNotOptimize(out.labels.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.probe.num_items()));
}
BENCHMARK(BM_ServePredictRowwise);

void BM_ServePredictBatched(benchmark::State& state) {
  const ServeFixture& f = fixture();
  for (auto _ : state) {
    auto out = pac::serve::predict_batch(f.classification, f.probe,
                                         /*want_membership=*/false);
    benchmark::DoNotOptimize(out.labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.probe.num_items()));
}
BENCHMARK(BM_ServePredictBatched);

// ---- socket-level latency/QPS section ----

struct LatencyResult {
  int clients = 0;
  std::uint64_t requests = 0;
  double seconds = 0.0;
  // NaN until the server histogram has samples (Histogram::quantile returns
  // NaN for an empty histogram); rendered as "n/a" rather than 0.
  double p50_us = std::numeric_limits<double>::quiet_NaN();
  double p99_us = std::numeric_limits<double>::quiet_NaN();
  double max_us = std::numeric_limits<double>::quiet_NaN();
};

/// Format a latency figure for the report line: "n/a" when unmeasured.
std::string fmt_us(double us) {
  if (std::isnan(us)) return "      n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%9.1f", us);
  return buf;
}

LatencyResult run_latency_rung(const ServeFixture& f, int clients,
                               std::uint64_t requests_per_client,
                               std::size_t rows_per_request) {
  pac::serve::ServerOptions opts;
  opts.max_batch_rows = 256;
  opts.max_delay_ms = 0.2;
  pac::serve::Server server(f.model, f.classification, opts);
  server.start();

  const Dataset request = f.probe.slice(0, rows_per_request);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pac::serve::Client client(server.bound_address());
      for (std::uint64_t r = 0; r < requests_per_client; ++r) {
        auto resp = client.predict(request, /*want_membership=*/false);
        benchmark::DoNotOptimize(resp.labels.data());
      }
      (void)c;
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.stop();

  LatencyResult res;
  res.clients = clients;
  res.requests =
      requests_per_client * static_cast<std::uint64_t>(clients);
  res.seconds = elapsed;
  const pac::metrics::Histogram* h =
      server.metrics().find_histogram("serve.request_seconds");
  if (h != nullptr) {
    // quantile() is NaN when no request was recorded; keep it that way.
    res.p50_us = h->quantile(0.50) * 1e6;
    res.p99_us = h->quantile(0.99) * 1e6;
    if (h->count() > 0) res.max_us = h->max() * 1e6;
  }
  return res;
}

bool run_latency_section(bool smoke) {
  const ServeFixture& f = fixture();
  const std::uint64_t per_client = smoke ? 20 : 200;
  const std::size_t rows = 8;
  std::vector<int> rungs = {1, 8};
  if (!smoke) rungs.push_back(64);
  std::fprintf(stderr,
               "serve_latency: socket tier (%llu requests/client, %zu "
               "rows/request)\n",
               static_cast<unsigned long long>(per_client), rows);
  for (int clients : rungs) {
    LatencyResult r;
    try {
      r = run_latency_rung(f, clients, per_client, rows);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_latency: socket tier FAILED at %d clients: %s\n",
                   clients, e.what());
      return false;
    }
    if (r.requests == 0 || r.seconds <= 0.0) {
      std::fprintf(stderr, "serve_latency: socket tier produced no traffic\n");
      return false;
    }
    std::printf(
        "serve_latency: clients=%-3d requests=%-6llu qps=%10.1f "
        "p50_us=%s p99_us=%s max_us=%s\n",
        r.clients, static_cast<unsigned long long>(r.requests),
        static_cast<double>(r.requests) / r.seconds, fmt_us(r.p50_us).c_str(),
        fmt_us(r.p99_us).c_str(), fmt_us(r.max_us).c_str());
  }
  return true;
}

}  // namespace

// Same harness contract as micro_kernels: --smoke maps to a minimal
// measurement time (and a smaller socket tier) so CI's sanitizer tier
// still executes everything; the resolved SIMD level and the project's
// own build flavor are attached to the JSON context so committed
// baselines record what they measured.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
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
#ifdef NDEBUG
  benchmark::AddCustomContext("pac_build", "release");
#else
  benchmark::AddCustomContext("pac_build", "debug");
#endif
  std::fprintf(stderr, "serve_latency: %s\n", pac::simd::describe());
  if (!run_latency_section(smoke)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

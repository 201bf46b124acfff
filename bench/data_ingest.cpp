// Ingest-path benchmarks for the .pacb out-of-core data path (DESIGN.md
// §10): how fast rows get from disk into kernel-consumable columns.
//
//   BM_IngestAscii        parse the .hd2/.db2 decimal text pair (the
//                         pre-.pacb loader, kept as a compatibility shim)
//   BM_IngestBinary       load the same rows from .pacb fully resident —
//                         one pass of CRC-checked memcpy-width reads
//   BM_IngestChunkedScan  open a larger .pacb of the same shape (65536
//                         rows, 2048-row chunks) chunk-backed under a
//                         budget that covers half the file and stream
//                         every column in kernel-sized 256-item blocks
//                         (one full E-step's worth of data motion,
//                         evictions included)
//   BM_IngestChunkedScanThreads
//                         the same scan by 4 threads of a ThreadPool, each
//                         claiming chunk-aligned runs of blocks and reading
//                         every column per block, as the EM threads do;
//                         wall-clock time
//
// Two ratios are gated (scripts/bench_diff.py).  binary-over-ascii: the
// binary loader must stay well ahead of text parsing, since that gap is the
// whole reason pac_convert exists.  chunked-scan-4-threads: four readers
// must finish the scan well ahead of one, so a store that serializes its
// readers again (one lock around pread + CRC, or every thread on one chunk)
// fails the gate.  The smaller chunks give each of the 4 threads its own
// chunks inside the half-file budget.
//
// Refreshing the committed baseline (bench/baselines/):
//   build/bench/data_ingest --benchmark_out_format=json
//       --benchmark_out=BENCH_<date>_data_ingest.json
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/format.hpp"
#include "data/io.hpp"
#include "data/synth.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pac;

constexpr std::size_t kRows = 20000;
constexpr std::size_t kBlock = 256;
// The scan file: 32 chunks of 8 blocks (16 KB a column), so 4 threads
// get whole rounds of runs and each has its own chunks inside the budget.
constexpr std::size_t kScanRows = 65536;
constexpr std::uint32_t kScanChunkRows = 2048;

/// One fixture dataset on disk in both formats, written once per process.
struct Files {
  std::string hd2, db2, pacb, scan_pacb;
  std::size_t rows;

  Files() {
    const std::string prefix =
        "/tmp/pac_bench_ingest_" + std::to_string(::getpid());
    hd2 = prefix + ".hd2";
    db2 = prefix + ".db2";
    pacb = prefix + ".pacb";
    scan_pacb = prefix + "_scan.pacb";
    rows = kRows;
    const data::Dataset dataset = data::paper_dataset(rows, 7).dataset;
    data::write_header_file(hd2, dataset.schema());
    data::write_data_file(db2, dataset);
    data::format::write_pacb_file(pacb, dataset);
    data::format::write_pacb_file(
        scan_pacb, data::paper_dataset(kScanRows, 7).dataset, kScanChunkRows);
  }
  ~Files() {
    std::remove(hd2.c_str());
    std::remove(db2.c_str());
    std::remove(pacb.c_str());
    std::remove(scan_pacb.c_str());
  }
  /// Half the file's column bytes: every full scan must evict and reload.
  std::size_t scan_budget() const {
    return kScanRows * 2 * sizeof(double) / 2;
  }
};

const Files& files() {
  static Files f;
  return f;
}

void BM_IngestAscii(benchmark::State& state) {
  const Files& f = files();
  for (auto _ : state) {
    data::OpenOptions options;
    options.header_path = f.hd2;
    benchmark::DoNotOptimize(data::open_dataset(f.db2, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.rows));
}
BENCHMARK(BM_IngestAscii);

void BM_IngestBinary(benchmark::State& state) {
  const Files& f = files();
  for (auto _ : state)
    benchmark::DoNotOptimize(data::open_dataset(f.pacb));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.rows));
}
BENCHMARK(BM_IngestBinary);

void BM_IngestChunkedScan(benchmark::State& state) {
  const Files& f = files();
  double sink = 0.0;
  std::size_t loads = 0;
  for (auto _ : state) {
    const auto store = data::ChunkedStore::open(f.scan_pacb, f.scan_budget());
    const data::Dataset dataset(store);
    for (std::size_t a = 0; a < dataset.num_attributes(); ++a)
      for (std::size_t begin = 0; begin < kScanRows; begin += kBlock) {
        const data::ItemRange range{begin,
                                    std::min(begin + kBlock, kScanRows)};
        const auto view = dataset.real_block(a, range);
        sink += view[view.size() - 1];
      }
    loads += store->chunk_loads();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["chunk_loads"] = benchmark::Counter(
      static_cast<double>(loads), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kScanRows));
}
// Both chunked scans measure over at least 0.1 s, also under --smoke (a
// per-benchmark MinTime overrides --benchmark_min_time): in a 0.01 s window
// one stalled thread could sink the chunked-scan-4-threads gate's ratio.
BENCHMARK(BM_IngestChunkedScan)->MinTime(0.1);

void BM_IngestChunkedScanThreads(benchmark::State& state) {
  const Files& f = files();
  static ThreadPool pool(4);  // warm across the harness's repeated calls
  const std::size_t run_rows = kScanChunkRows;
  const std::size_t runs = (kScanRows + run_rows - 1) / run_rows;
  std::vector<double> partial(runs, 0.0);
  std::size_t loads = 0;
  for (auto _ : state) {
    const auto store = data::ChunkedStore::open(f.scan_pacb, f.scan_budget());
    const data::Dataset dataset(store);
    pool.run(runs, [&](std::size_t r) {
      const std::size_t end = std::min((r + 1) * run_rows, kScanRows);
      for (std::size_t begin = r * run_rows; begin < end; begin += kBlock) {
        const data::ItemRange range{begin, std::min(begin + kBlock, end)};
        for (std::size_t a = 0; a < dataset.num_attributes(); ++a) {
          const auto view = dataset.real_block(a, range);
          partial[r] += view[view.size() - 1];
        }
      }
    });
    loads += store->chunk_loads();
  }
  benchmark::DoNotOptimize(partial.data());
  state.counters["chunk_loads"] = benchmark::Counter(
      static_cast<double>(loads), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kScanRows));
}
BENCHMARK(BM_IngestChunkedScanThreads)->UseRealTime()->MinTime(0.1);

}  // namespace

// Same harness contract as micro_kernels: --smoke maps to a minimal
// measurement time so every loader path still executes under sanitizers.
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
#ifdef NDEBUG
  benchmark::AddCustomContext("pac_build", "release");
#else
  benchmark::AddCustomContext("pac_build", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

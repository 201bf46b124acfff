// The out-of-core determinism contract (DESIGN.md §10): at fixed block
// size, EM trajectories are memcmp-identical between the resident and
// chunk-backed Dataset backends — across intra-rank thread counts and
// across all three transports — even when the chunk budget is tiny enough
// to force continuous eviction mid-E-step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "autoclass/em.hpp"
#include "autoclass/report.hpp"
#include "autoclass/search.hpp"
#include "data/format.hpp"
#include "data/io.hpp"
#include "data/synth.hpp"
#include "transport_test_util.hpp"

namespace pac {
namespace {

/// Write the standard synthetic dataset to a .pacb and hand back resident
/// and chunked views of the same bytes.  The default chunks are deliberately
/// odd and smaller than a 256-item kernel block, so blocks straddle chunk
/// borders.  The default ~4 KB budget holds about one chunk, forcing
/// eviction throughout every E-step.
struct BackendPair {
  std::string path;
  data::Dataset resident;
  data::Dataset chunked;

  BackendPair(std::size_t n, std::uint64_t seed, std::uint32_t chunk_rows = 193,
              std::size_t budget_bytes = 4096)
      : path("/tmp/pac_ooc_" + std::to_string(::getpid()) + "_" +
             std::to_string(seed) + "_" + std::to_string(chunk_rows) +
             ".pacb"),
        resident(data::paper_dataset(n, seed).dataset) {
    data::format::write_pacb_file(path, resident, chunk_rows);
    chunked = data::Dataset(data::ChunkedStore::open(path, budget_bytes));
  }
  ~BackendPair() { std::remove(path.c_str()); }

  std::size_t chunk_loads() const {
    return dynamic_cast<const data::ChunkedStore&>(chunked.store())
        .chunk_loads();
  }
};

/// Run `cycles` full EM cycles single-rank and append every weight,
/// parameter, class weight, and log-likelihood to `sink`.
std::vector<double> em_trajectory(const data::Dataset& dataset, int threads,
                                  int cycles) {
  const ac::Model model = ac::Model::default_model(dataset);
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, dataset.num_items()},
                      identity);
  ac::Classification c(model, 4);
  ac::EmConfig config;
  config.threads = threads;
  worker.random_init(c, 515, 0, config);
  std::vector<double> sink;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    worker.update_parameters(c);
    sink.push_back(worker.update_wts(c));
    const std::span<const double> w = worker.local_weights();
    sink.insert(sink.end(), w.begin(), w.end());
    const std::span<const double> params = c.all_params();
    sink.insert(sink.end(), params.begin(), params.end());
    for (std::size_t j = 0; j < c.num_classes(); ++j)
      sink.push_back(c.weight(j));
  }
  return sink;
}

void expect_same_trajectory(const std::vector<double>& a,
                            const std::vector<double>& b,
                            const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  if (a.empty()) return;  // memcmp on an empty vector's null data is UB
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << label << ": chunked backend diverged from resident";
}

/// Chunk geometries for the bit-identity suites.  193 rows is smaller than
/// one block, so the EM threads claim single blocks; 1000 rows gives runs of
/// 3 blocks that straddle chunk borders, 1024 aligned runs of 4.
constexpr std::uint32_t kGeometries[] = {193, 1000, 1024};

TEST(OutOfCore, EmTrajectoryBitIdenticalAcrossThreadCounts) {
  for (const std::uint32_t chunk_rows : kGeometries) {
    SCOPED_TRACE(chunk_rows);
    // 6000 items = 24 blocks, so every thread count gets whole runs.
    const BackendPair pair(chunk_rows == 193 ? 1500 : 6000, 51, chunk_rows);
    const std::vector<double> single = em_trajectory(pair.chunked, 1, 4);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      const std::vector<double> res =
          em_trajectory(pair.resident, threads, 4);
      const std::vector<double> chk = em_trajectory(pair.chunked, threads, 4);
      expect_same_trajectory(res, chk, "threads");
      // And the thread count itself must not matter (the existing
      // invariant, re-pinned on the chunked backend).
      expect_same_trajectory(chk, single, "threads-vs-1");
    }
  }
}

TEST(OutOfCore, RandomInitReadsEachChunkOnce) {
  // 32 seeds whose rows span far more chunks than the budget holds.  The
  // seed table is gathered once (at most J x columns loads), and the scan
  // then loads each chunk of the partition once, so the count does not
  // grow with J; the initial weights stay those of the resident run.
  constexpr std::size_t kJ = 32;
  constexpr std::uint32_t kChunkRows = 1000;  // blocks straddle chunk borders
  constexpr std::size_t kItems = 8000;
  // Room for a straddling block's two chunks of each column, and then some.
  constexpr std::size_t kBudget = 6 * kChunkRows * sizeof(double);
  const BackendPair pair(kItems, 55, kChunkRows, kBudget);
  const std::size_t columns = pair.resident.num_attributes();
  ASSERT_LT(10 * kBudget, kJ * columns * kChunkRows * sizeof(double));
  const std::size_t chunks = (kItems + kChunkRows - 1) / kChunkRows;

  auto init_weights = [](const data::Dataset& dataset, int threads) {
    const ac::Model model = ac::Model::default_model(dataset);
    ac::Reducer identity;
    ac::EmWorker worker(model, data::ItemRange{0, dataset.num_items()},
                        identity);
    ac::Classification c(model, kJ);
    ac::EmConfig config;
    config.threads = threads;
    worker.random_init(c, 515, 0, config);
    const std::span<const double> w = worker.local_weights();
    return std::vector<double>(w.begin(), w.end());
  };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const std::size_t before = pair.chunk_loads();
    const std::vector<double> chk = init_weights(pair.chunked, threads);
    if (threads == 1) {
      EXPECT_LE(pair.chunk_loads() - before, chunks * columns + kJ * columns);
    }
    expect_same_trajectory(init_weights(pair.resident, threads), chk,
                           "initial weights");
  }
}

/// A classification of `model`'s data after a few one-thread EM cycles.
ac::Classification fitted(const ac::Model& model, std::size_t j) {
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, model.dataset().num_items()},
                      identity);
  ac::Classification c(model, j);
  ac::EmConfig config;
  config.threads = 1;
  worker.random_init(c, 515, 0, config);
  for (int cycle = 0; cycle < 3; ++cycle) {
    worker.update_parameters(c);
    worker.update_wts(c);
  }
  return c;
}

TEST(ThreadInvariance, ReportsMatchAtOneTwoFourThreads) {
  // The whole-training-set reports share the EM's block runner and read
  // PAC_EM_THREADS; their values must not depend on it, nor on the
  // backend.  Every dataset ends in an odd partial block, and the ~4 KB
  // budget is far below the column bytes, so chunks are evicted
  // throughout each report pass.
  for (const std::uint32_t chunk_rows : kGeometries) {
    SCOPED_TRACE(chunk_rows);
    const BackendPair pair(chunk_rows == 193 ? 1001 : 6001, 56, chunk_rows);
    const ac::Model resident = ac::Model::default_model(pair.resident);
    const ac::Model chunked = ac::Model::default_model(pair.chunked);
    const ac::Classification rc = fitted(resident, 5);
    const ac::Classification cc = fitted(chunked, 5);
    const double mean_max = ac::mean_max_membership(rc);
    const std::vector<std::int32_t> labels = ac::assign_labels(rc);
    for (const char* threads : {"1", "2", "4"}) {
      SCOPED_TRACE(threads);
      setenv("PAC_EM_THREADS", threads, 1);
      for (const ac::Classification* c : {&rc, &cc}) {
        const double got = ac::mean_max_membership(*c);
        EXPECT_EQ(std::memcmp(&got, &mean_max, sizeof got), 0)
            << got << " vs " << mean_max;
        EXPECT_EQ(ac::assign_labels(*c), labels);
      }
    }
    unsetenv("PAC_EM_THREADS");
  }
}

TEST(OutOfCore, ReportPassLoadsEachChunkOnce) {
  // Chunks of 4 whole blocks, so a thread's run of blocks is one chunk, and
  // twice as many chunks as threads (the last one partial).
  constexpr std::uint32_t kChunkRows = 1024;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kChunks = 2 * kThreads;
  constexpr std::size_t kItems = kChunks * kChunkRows - 100;
  constexpr std::size_t kChunkBytes = kChunkRows * sizeof(double);
  const BackendPair pair(kItems, 57, kChunkRows);
  const std::size_t columns = pair.resident.num_attributes();
  const ac::Model model = ac::Model::default_model(pair.resident);
  const ac::Classification c = fitted(model, 4);
  const double resident_value = ac::mean_max_membership(c);

  // One report pass over a freshly opened store, c's parameters bound to
  // it: returns the pass's chunk loads.
  const auto pass_loads = [&](std::size_t budget, const char* threads) {
    const data::Dataset fresh(data::ChunkedStore::open(pair.path, budget));
    const ac::Model bound_model = model.rebound(fresh);
    ac::Classification bound(bound_model, c.num_classes());
    std::ranges::copy(c.log_pis(), bound.mutable_log_pis().begin());
    std::ranges::copy(c.all_params(), bound.all_params_mutable().begin());
    const auto& store = dynamic_cast<const data::ChunkedStore&>(fresh.store());
    setenv("PAC_EM_THREADS", threads, 1);
    const std::size_t before = store.chunk_loads();
    const double value = ac::mean_max_membership(bound);
    const std::size_t loads = store.chunk_loads() - before;
    unsetenv("PAC_EM_THREADS");
    EXPECT_EQ(std::memcmp(&value, &resident_value, sizeof value), 0);
    return loads;
  };
  // A budget of threads x columns chunks: the single-threaded pass loads
  // every chunk exactly once while evicting.  (With 4 threads under this
  // budget, a thread starting its next chunk can evict one that another
  // thread still reads, which then loads again: 18 loads instead of 16 in
  // most runs, a count that depends on thread timing.)
  EXPECT_EQ(pass_loads(kThreads * columns * kChunkBytes, "1"),
            kChunks * columns);
  // A budget that holds every chunk: one pass loads each chunk once at 1
  // and at 4 threads, single-flight sharing the loads that threads race on.
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(pass_loads(kChunks * columns * kChunkBytes, threads),
              kChunks * columns);
  }
}

TEST(OutOfCore, SearchResultIdenticalAcrossBackends) {
  for (const std::uint32_t chunk_rows : kGeometries) {
    SCOPED_TRACE(chunk_rows);
    const BackendPair pair(chunk_rows == 193 ? 1200 : 5000, 52, chunk_rows);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      ac::SearchConfig config;
      config.start_j_list = {3, 5};
      config.max_tries = 2;
      config.em.max_cycles = 20;
      config.em.threads = threads;
      const ac::SearchResult res = ac::sequential_search(
          ac::Model::default_model(pair.resident), config);
      const ac::SearchResult chk = ac::sequential_search(
          ac::Model::default_model(pair.chunked), config);
      ASSERT_EQ(res.best.size(), chk.best.size());
      for (std::size_t b = 0; b < res.best.size(); ++b) {
        const ac::Classification& rc = res.best[b].classification;
        const ac::Classification& cc = chk.best[b].classification;
        EXPECT_EQ(std::memcmp(&rc.cs_score, &cc.cs_score, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&rc.log_likelihood, &cc.log_likelihood,
                              sizeof(double)),
                  0);
        ASSERT_EQ(rc.all_params().size(), cc.all_params().size());
        EXPECT_EQ(std::memcmp(rc.all_params().data(), cc.all_params().data(),
                              rc.all_params().size() * sizeof(double)),
                  0)
            << "leaderboard entry " << b;
      }
    }
  }
}

/// One rank's cycle under a transport world, run over both backends.  Each
/// rank opens its own chunked view (ranks-as-threads share nothing, exactly
/// like pac_launch'd processes each mapping the file).
std::vector<std::vector<double>> transport_trajectories(
    const data::Dataset& dataset, int ranks, bool hybrid) {
  std::vector<std::vector<double>> sinks(
      static_cast<std::size_t>(ranks));
  const ac::Model model = ac::Model::default_model(dataset);
  const auto fn = [&](mp::Comm& comm) {
    mp::testutil::cycle_suite(comm, model, /*threads=*/2,
                              sinks[static_cast<std::size_t>(comm.rank())]);
  };
  if (hybrid) {
    mp::testutil::run_hybrid_world(ranks, fn);
  } else {
    mp::testutil::run_socket_world(ranks, fn);
  }
  return sinks;
}

TEST(OutOfCore, TransportsSeeIdenticalTrajectories) {
  const BackendPair pair(900, 53);
  for (const int ranks : {2, 4}) {
    SCOPED_TRACE(ranks);
    // In-process reference on the resident backend...
    std::vector<std::vector<double>> reference(
        static_cast<std::size_t>(ranks));
    {
      const ac::Model model = ac::Model::default_model(pair.resident);
      mp::World::Config cfg;
      cfg.num_ranks = ranks;
      mp::World world(cfg);
      world.run([&](mp::Comm& comm) {
        mp::testutil::cycle_suite(
            comm, model, /*threads=*/2,
            reference[static_cast<std::size_t>(comm.rank())]);
      });
    }
    // ...must match the chunked backend on every transport.
    mp::testutil::expect_bit_identical(
        transport_trajectories(pair.chunked, ranks, /*hybrid=*/false),
        reference);
    mp::testutil::expect_bit_identical(
        transport_trajectories(pair.chunked, ranks, /*hybrid=*/true),
        reference);
  }
}

TEST(OutOfCore, ChunkedBackendRefusesMutation) {
  const BackendPair pair(300, 54);
  data::Dataset chunked = pair.chunked;
  EXPECT_THROW(chunked.set_real(0, 0, 1.0), pac::Error);
  EXPECT_THROW(chunked.real_column(0), pac::Error);
}

}  // namespace
}  // namespace pac

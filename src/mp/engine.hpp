// Rendezvous engine for minimpi collectives.
//
// Every collective over a group funnels through CollectiveEngine::run(): each
// rank submits its input/output buffer pointers and its virtual arrival time,
// then blocks; the last rank to arrive executes the fold callback exactly
// once — with every other participant parked on the condition variable, so
// the fold may freely read all inputs and write all outputs — computes the
// collective's completion time (max arrival + modeled network cost), and
// releases everyone.
//
// This gives two properties the clustering engine depends on:
//   * determinism — the fold combines contributions in rank order, so the
//     result is bit-identical run to run;
//   * virtual time — all ranks leave the collective at the same modeled
//     completion instant, exactly like a synchronizing collective on a real
//     multicomputer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "mp/status.hpp"

namespace pac::mp {

/// One rank's contribution to a collective.
struct CollectiveSlot {
  const void* in = nullptr;
  void* out = nullptr;
  double arrival = 0.0;
};

using FoldFn = std::function<void(std::span<const CollectiveSlot>)>;

class CollectiveEngine {
 public:
  explicit CollectiveEngine(int size);

  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;

  /// Participate in the next collective phase.  `cost` is the modeled network
  /// time for this collective (identical across ranks by the usual matching-
  /// arguments contract).  Returns the completion virtual time.  `fold` may
  /// be empty (barrier).  Throws Aborted if the world is torn down.
  double run(int rank, const void* in, void* out, double arrival, double cost,
             const FoldFn& fold);

  /// Wake all waiters with Aborted; subsequent run() calls also throw.
  void abort();

  int size() const noexcept { return size_; }

 private:
  const int size_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<CollectiveSlot> slots_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  double done_time_ = 0.0;
  bool aborted_ = false;
};

}  // namespace pac::mp

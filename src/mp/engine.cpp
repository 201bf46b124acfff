#include "mp/engine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pac::mp {

CollectiveEngine::CollectiveEngine(int size) : size_(size), slots_(size) {
  PAC_REQUIRE(size >= 1);
}

double CollectiveEngine::run(int rank, const void* in, void* out,
                             double arrival, double cost, const FoldFn& fold) {
  PAC_REQUIRE(rank >= 0 && rank < size_);
  std::unique_lock<std::mutex> lock(mutex_);
  if (aborted_) throw Aborted{};
  const std::uint64_t my_generation = generation_;
  slots_[rank] = CollectiveSlot{in, out, arrival};
  if (++arrived_ == size_) {
    double max_arrival = slots_[0].arrival;
    for (const auto& s : slots_)
      max_arrival = std::max(max_arrival, s.arrival);
    if (fold) fold(std::span<const CollectiveSlot>(slots_));
    done_time_ = max_arrival + cost;
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return done_time_;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation || aborted_; });
  if (generation_ == my_generation) throw Aborted{};
  return done_time_;
}

void CollectiveEngine::abort() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

}  // namespace pac::mp

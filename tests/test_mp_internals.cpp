// Direct unit tests for the minimpi internals: Mailbox matching/abort
// semantics and the CollectiveEngine rendezvous, exercised without a World.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mp/engine.hpp"
#include "mp/mailbox.hpp"
#include "util/error.hpp"

namespace pac::mp {
namespace {

Message make_message(int context, int source, int tag,
                     std::vector<std::byte> payload = {}) {
  Message m;
  m.context = context;
  m.source = source;
  m.tag = tag;
  m.payload = std::move(payload);
  return m;
}

TEST(Mailbox, MatchesContextSourceAndTag) {
  Mailbox box;
  box.push(make_message(0, 1, 10));
  box.push(make_message(1, 1, 10));  // different context
  box.push(make_message(0, 2, 10));  // different source
  EXPECT_EQ(box.pop(0, 2, 10).source, 2);
  EXPECT_EQ(box.pop(1, 1, 10).context, 1);
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, WildcardsTakeEarliestMatch) {
  Mailbox box;
  box.push(make_message(0, 3, 7));
  box.push(make_message(0, 1, 9));
  const Message out = box.pop(0, kAnySource, kAnyTag);
  EXPECT_EQ(out.source, 3);  // arrival order, not source order
  EXPECT_EQ(out.tag, 7);
}

TEST(Mailbox, BlockingPopWakesOnPush) {
  Mailbox box;
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    const Message m = box.pop(0, 4, 2);
    EXPECT_EQ(m.payload.size(), 3u);
    got = true;
  });
  // Push a non-matching message first, then the matching one.
  box.push(make_message(0, 4, 1));
  box.push(make_message(0, 4, 2, std::vector<std::byte>(3)));
  receiver.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(box.pending(), 1u);  // the non-matching one remains
}

TEST(Mailbox, AbortWakesBlockedPop) {
  Mailbox box;
  std::atomic<bool> aborted{false};
  std::thread receiver([&] {
    try {
      (void)box.pop(0, 0, 0);
    } catch (const Aborted&) {
      aborted = true;
    }
  });
  box.abort();
  receiver.join();
  EXPECT_TRUE(aborted.load());
  // After reset the mailbox works again.
  box.reset();
  box.push(make_message(0, 0, 0, std::vector<std::byte>(2)));
  EXPECT_EQ(box.pop(0, 0, 0).payload.size(), 2u);
}

TEST(Engine, FoldRunsExactlyOncePerPhase) {
  constexpr int kRanks = 4;
  CollectiveEngine engine(kRanks);
  std::atomic<int> folds{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      for (int phase = 0; phase < 10; ++phase) {
        engine.run(r, nullptr, nullptr, /*arrival=*/0.0, /*cost=*/0.0,
                   [&](std::span<const CollectiveSlot>) { ++folds; });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(folds.load(), 10);
}

TEST(Engine, CompletionTimeIsMaxArrivalPlusCost) {
  constexpr int kRanks = 3;
  CollectiveEngine engine(kRanks);
  std::vector<double> done(kRanks, 0.0);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      done[r] = engine.run(r, nullptr, nullptr, /*arrival=*/r * 1.0,
                           /*cost=*/0.5, FoldFn{});
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < kRanks; ++r) EXPECT_DOUBLE_EQ(done[r], 2.5);
}

TEST(Engine, FoldSeesEveryRanksSlots) {
  constexpr int kRanks = 5;
  CollectiveEngine engine(kRanks);
  std::vector<double> inputs(kRanks);
  std::vector<double> outputs(kRanks, 0.0);
  for (int r = 0; r < kRanks; ++r) inputs[r] = r * 10.0;
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      engine.run(r, &inputs[r], &outputs[r], 0.0, 0.0,
                 [](std::span<const CollectiveSlot> slots) {
                   double sum = 0.0;
                   for (const auto& s : slots)
                     sum += *static_cast<const double*>(s.in);
                   for (const auto& s : slots)
                     *static_cast<double*>(s.out) = sum;
                 });
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < kRanks; ++r) EXPECT_DOUBLE_EQ(outputs[r], 100.0);
}

TEST(Engine, AbortReleasesWaiters) {
  CollectiveEngine engine(2);
  std::atomic<bool> threw{false};
  std::thread waiter([&] {
    try {
      engine.run(0, nullptr, nullptr, 0.0, 0.0, FoldFn{});
    } catch (const Aborted&) {
      threw = true;
    }
  });
  engine.abort();
  waiter.join();
  EXPECT_TRUE(threw.load());
  // Later arrivals also throw.
  EXPECT_THROW(engine.run(1, nullptr, nullptr, 0.0, 0.0, FoldFn{}), Aborted);
}

TEST(Engine, SingleRankCompletesImmediately) {
  CollectiveEngine engine(1);
  int folds = 0;
  const double done =
      engine.run(0, nullptr, nullptr, 3.0, 0.25,
                 [&](std::span<const CollectiveSlot>) { ++folds; });
  EXPECT_DOUBLE_EQ(done, 3.25);
  EXPECT_EQ(folds, 1);
}

TEST(Engine, RejectsOutOfRangeRank) {
  CollectiveEngine engine(2);
  EXPECT_THROW(engine.run(2, nullptr, nullptr, 0.0, 0.0, FoldFn{}),
               pac::Error);
  EXPECT_THROW(engine.run(-1, nullptr, nullptr, 0.0, 0.0, FoldFn{}),
               pac::Error);
}

}  // namespace
}  // namespace pac::mp

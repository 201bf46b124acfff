// Direct tests of mp::wire, the blob gather the try-group merge rests on.
// Every case runs twice: on a 2-rank in-process world and on a
// 2-rank loopback socket world (threads standing in for processes, see
// transport_test_util.hpp).
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "mp/comm.hpp"
#include "mp/wire.hpp"
#include "transport_test_util.hpp"

namespace pac::mp {
namespace {

constexpr int kRanks = 2;

enum class Backend { kInProcess, kSocket };

void PrintTo(Backend backend, std::ostream* os) {
  *os << (backend == Backend::kSocket ? "Socket" : "InProcess");
}

class Wire : public ::testing::TestWithParam<Backend> {
 protected:
  /// Run `fn` on a 2-rank world of the parameter's backend.
  template <class Fn>
  void run(Fn fn) {
    if (GetParam() == Backend::kSocket) {
      testutil::run_socket_world(kRanks, fn);
      return;
    }
    World::Config cfg;
    cfg.num_ranks = kRanks;
    cfg.machine = net::ideal_machine();
    World world(cfg);
    world.run(fn);
  }
};

/// Deterministic payload with embedded NUL bytes.
std::string pattern(std::size_t n, int salt) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    s[i] = static_cast<char>((i * 131 + static_cast<std::size_t>(salt)) % 256);
  return s;
}

TEST_P(Wire, AllgatherBlobsOfUnevenSizesIncludingAnEmptyOne) {
  run([](Comm& comm) {
    const auto mine = [](int r) {
      return r == 0 ? std::string() : pattern(1000 * r + 3, r);
    };
    const std::vector<std::string> all =
        wire::allgather_blobs(comm, mine(comm.rank()));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r)
      EXPECT_TRUE(all[static_cast<std::size_t>(r)] == mine(r)) << "rank " << r;
    // Every contribution empty: no payload round, p empty blobs.
    const std::vector<std::string> none = wire::allgather_blobs(comm, "");
    ASSERT_EQ(none.size(), static_cast<std::size_t>(comm.size()));
    for (const std::string& s : none) EXPECT_TRUE(s.empty());
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, Wire,
                         ::testing::Values(Backend::kInProcess,
                                           Backend::kSocket));

}  // namespace
}  // namespace pac::mp

// Direct tests of mp::wire, the framed-blob layer the try-group exchange
// rests on.  Every case runs twice: on a 2-rank in-process world and on a
// 2-rank loopback socket world (threads standing in for processes, see
// transport_test_util.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "mp/comm.hpp"
#include "mp/wire.hpp"
#include "transport_test_util.hpp"
#include "util/error.hpp"

namespace pac::mp {
namespace {

constexpr std::uint32_t kKind = 7;
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

/// A raw blob frame: the 16-byte header (magic, kind, declared payload
/// size) followed by `actual_payload` bytes.
std::vector<char> raw_frame(std::uint32_t magic, std::uint32_t kind,
                            std::uint64_t declared_payload,
                            std::size_t actual_payload) {
  std::vector<char> frame(16 + actual_payload, 'x');
  std::memcpy(frame.data(), &magic, 4);
  std::memcpy(frame.data() + 4, &kind, 4);
  std::memcpy(frame.data() + 8, &declared_payload, 8);
  return frame;
}

constexpr std::uint32_t kBlobMagic = 0x70616342;  // "pacB", as in wire.cpp

TEST_P(Wire, SendRecvRoundTripsEmptyAndOneMebibyteBlobs) {
  const std::string big = pattern(std::size_t{1} << 20, 3);
  run([&](Comm& comm) {
    if (comm.rank() == 0) {
      wire::send_blob(comm, 1, 1, kKind, "");
      wire::send_blob(comm, 1, 2, kKind, big);
    } else {
      Status st;
      EXPECT_EQ(wire::recv_blob(comm, 0, 1, kKind, &st), "");
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 1);
      EXPECT_EQ(st.bytes, 16u);  // the header alone
      const std::string got = wire::recv_blob(comm, kAnySource, kAnyTag,
                                              kKind, &st);
      EXPECT_EQ(st.tag, 2);
      EXPECT_EQ(st.bytes, 16u + big.size());
      EXPECT_TRUE(got == big);
    }
  });
}

TEST_P(Wire, TryRecvBlobIsFalseOnAnEmptyMailboxThenTrueAfterASend) {
  run([](Comm& comm) {
    if (comm.rank() == 1) {
      std::string payload = "untouched";
      EXPECT_FALSE(wire::try_recv_blob(comm, 0, 5, kKind, payload));
      EXPECT_EQ(payload, "untouched");
    }
    comm.barrier();
    if (comm.rank() == 0) wire::send_blob(comm, 1, 5, kKind, "hello");
    // The blob leaves rank 0 before its barrier frame, and each peer's
    // stream is delivered in order, so it is queued once the barrier ends.
    comm.barrier();
    if (comm.rank() == 1) {
      std::string payload;
      Status st;
      EXPECT_TRUE(wire::try_recv_blob(comm, 0, 5, kKind, payload, &st));
      EXPECT_EQ(payload, "hello");
      EXPECT_EQ(st.source, 0);
      EXPECT_FALSE(wire::try_recv_blob(comm, 0, 5, kKind, payload));
    }
  });
}

TEST_P(Wire, BroadcastBlobFromANonZeroRoot) {
  const std::string blob = pattern(5000, 11);
  run([&](Comm& comm) {
    const int root = comm.size() - 1;
    std::string payload = comm.rank() == root ? blob : "stale bytes";
    wire::broadcast_blob(comm, payload, root);
    EXPECT_TRUE(payload == blob);
    // An empty blob from the root empties every other rank's buffer too.
    std::string empty = comm.rank() == root ? "" : "stale bytes";
    wire::broadcast_blob(comm, empty, root);
    EXPECT_TRUE(empty.empty());
  });
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

TEST_P(Wire, RecvBlobRejectsBadMagicWrongKindAndSizeMismatch) {
  run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<char>(1, 1, raw_frame(0xdeadbeef, kKind, 4, 4));
      comm.send<char>(1, 2, raw_frame(kBlobMagic, kKind + 1, 4, 4));
      comm.send<char>(1, 3, raw_frame(kBlobMagic, kKind, 10, 4));
    } else {
      EXPECT_THROW(wire::recv_blob(comm, 0, 1, kKind), pac::Error);
      EXPECT_THROW(wire::recv_blob(comm, 0, 2, kKind), pac::Error);
      EXPECT_THROW(wire::recv_blob(comm, 0, 3, kKind), pac::Error);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, Wire,
                         ::testing::Values(Backend::kInProcess,
                                           Backend::kSocket));

}  // namespace
}  // namespace pac::mp

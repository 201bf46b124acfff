#include "mp/wire.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pac::mp::wire {

std::vector<std::string> allgather_blobs(Comm& comm, std::string_view mine) {
  PAC_REQUIRE_MSG(mine.size() <= kMaxBlobBytes,
                  "wire: allgather blob exceeds the cap (" << mine.size()
                                                           << " bytes)");
  const int p = comm.size();
  const std::vector<std::uint64_t> sizes =
      comm.allgather_value<std::uint64_t>(mine.size());
  std::uint64_t widest = 0;
  for (const std::uint64_t s : sizes) {
    PAC_REQUIRE_MSG(s <= kMaxBlobBytes,
                    "wire: peer blob exceeds the cap (" << s << " bytes)");
    widest = std::max(widest, s);
  }
  std::vector<std::string> out(static_cast<std::size_t>(p));
  if (widest == 0) return out;
  // Blobs differ in size; pad to the widest and Allgather once.
  std::vector<char> padded(static_cast<std::size_t>(widest), '\0');
  std::copy(mine.begin(), mine.end(), padded.begin());
  std::vector<char> gathered(static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(widest));
  comm.allgather<char>(padded, std::span<char>(gathered));
  for (int r = 0; r < p; ++r) {
    const std::size_t n = static_cast<std::size_t>(sizes[static_cast<std::size_t>(r)]);
    out[static_cast<std::size_t>(r)].assign(
        gathered.data() +
            static_cast<std::size_t>(r) * static_cast<std::size_t>(widest),
        n);
  }
  return out;
}

}  // namespace pac::mp::wire

// Variable-size byte-blob gather on top of Comm: the small serialization
// helper try-parallel search uses to merge its groups' leaderboards, which
// travel as ASCII-encoded search results (the checkpoint codec).
//
// The payload is opaque here: pac_mp stays ignorant of what is inside
// (layering: the classification codec lives in autoclass, not in the
// runtime).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mp/comm.hpp"

namespace pac::mp::wire {

/// Hard cap on one blob's payload.  Blobs arrive from other ranks (on the
/// socket backend: other processes), so every declared size is bounded
/// before any allocation, like the checkpoint parser's caps.
inline constexpr std::size_t kMaxBlobBytes = std::size_t{1} << 26;  // 64 MiB

/// Allgather of variable-size blobs: every rank contributes one payload
/// (possibly empty) and receives all of them in rank order.  Internally
/// pads to the widest payload, like ParallelReducer::gather_weight_matrix.
std::vector<std::string> allgather_blobs(Comm& comm, std::string_view mine);

}  // namespace pac::mp::wire

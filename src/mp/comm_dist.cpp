// Distributed (socket-backend) engine for Comm: every collective is layered
// on point-to-point frames over the comm's private collective context, so
// the Transport interface is the only thing the backend needs.
//
// Only the collectives P-AutoClass runs live here (Barrier, Bcast,
// Allreduce, Allgather).  Algorithms are root-based and linear, mirroring
// the modeled backend's rank-ordered folds: Allreduce gathers every
// contribution at the group's rank 0 and folds r = 0, 1, ..., P-1 — which
// makes the floating-point result bit-identical to the in-process fold.
// Eager buffered sends plus a reader thread per peer make the symmetric
// exchanges deadlock-free.
//
// Time bookkeeping (wall-clock mode): the rank's `clock` is advanced to the
// wall time at every operation boundary; the gap since the previous boundary
// is compute time, the measured span of the operation is communication
// time.  Wall mode cannot split waiting from transfer, so idle_time stays 0
// and the per-kind wait histograms record 0.

#include <cstring>

#include "mp/comm.hpp"
#include "mp/transport/transport.hpp"

namespace pac::mp {

double Comm::dist_op_begin() {
  const double t = time_->now();
  if (t > state_->clock) {
    state_->compute_time += t - state_->clock;
    state_->clock = t;
  }
  return state_->clock;
}

void Comm::dist_op_end(double start) {
  const double end = time_->now();
  if (end > state_->clock) state_->clock = end;
  state_->comm_time += end - start;
}

void Comm::dist_coll_end(net::CollectiveKind kind, std::size_t bytes,
                         double start) {
  const double end = time_->now();
  const double elapsed = end > start ? end - start : 0.0;
  if (end > state_->clock) state_->clock = end;
  state_->comm_time += elapsed;
  ++state_->collectives;
  const auto kind_index = static_cast<std::size_t>(kind);
  ++state_->collective_calls[kind_index];
  state_->collective_seconds[kind_index] += elapsed;
  if constexpr (trace::compiled_in()) {
    if (trace::Recorder* rec = state_->recorder.get()) {
      const detail::MpMetricHandles::PerCollective& h =
          state_->mp.collective[kind_index];
      h.calls->add(1);
      h.bytes->add(bytes);
      h.seconds->observe(elapsed);
      h.wait_seconds->observe(0.0);
      rec->record_span("mp", net::to_string(kind), start, end);
    }
  }
}

void Comm::dist_send_raw(int dest_group_rank, int tag, const void* bytes,
                         std::size_t nbytes) {
  Message msg;
  msg.context = coll_context();
  msg.source = state_->world_rank;
  msg.tag = tag;
  msg.send_time = time_->now();
  msg.payload.resize(nbytes);
  if (nbytes > 0) std::memcpy(msg.payload.data(), bytes, nbytes);
  transport_->send(group_[dest_group_rank], std::move(msg));
}

void Comm::dist_recv_raw(int source_group_rank, int tag, void* buffer,
                         std::size_t nbytes) {
  Message msg =
      transport_->recv(coll_context(), group_[source_group_rank], tag);
  PAC_REQUIRE_MSG(msg.payload.size() == nbytes,
                  "collective frame from rank "
                      << group_[source_group_rank] << " (tag=" << tag
                      << ") carries " << msg.payload.size()
                      << " bytes, expected " << nbytes
                      << " — mismatched collective call across ranks?");
  if (nbytes > 0) std::memcpy(buffer, msg.payload.data(), nbytes);
}

Status Comm::dist_recv_bytes(int source, int tag, void* buffer,
                             std::size_t capacity) {
  const int world_source = source == kAnySource ? kAnySource : group_[source];
  const double start = dist_op_begin();
  Message msg = transport_->recv(context_, world_source, tag);
  PAC_REQUIRE_MSG(msg.payload.size() <= capacity,
                  "recv buffer too small: " << capacity
                                            << " bytes < message of "
                                            << msg.payload.size());
  if (!msg.payload.empty())
    std::memcpy(buffer, msg.payload.data(), msg.payload.size());
  dist_op_end(start);
  Status st;
  for (std::size_t r = 0; r < group_.size(); ++r)
    if (group_[r] == msg.source) st.source = static_cast<int>(r);
  st.tag = msg.tag;
  st.bytes = msg.payload.size();
  if constexpr (trace::compiled_in()) {
    if (trace::Recorder* rec = state_->recorder.get()) {
      state_->mp.recv_calls->add(1);
      state_->mp.recv_bytes->add(msg.payload.size());
      state_->mp.recv_seconds->observe(state_->clock - start);
      rec->record_span("mp", "recv", start, state_->clock);
    }
  }
  return st;
}

void Comm::dist_barrier() {
  const double start = dist_op_begin();
  const int tag = static_cast<int>(coll_seq_++);
  const int p = size();
  if (group_rank_ == 0) {
    for (int r = 1; r < p; ++r) dist_recv_raw(r, tag, nullptr, 0);
    for (int r = 1; r < p; ++r) dist_send_raw(r, tag, nullptr, 0);
  } else {
    dist_send_raw(0, tag, nullptr, 0);
    dist_recv_raw(0, tag, nullptr, 0);
  }
  dist_coll_end(net::CollectiveKind::kBarrier, 0, start);
}

void Comm::dist_broadcast(void* data, std::size_t nbytes, int root) {
  const double start = dist_op_begin();
  const int tag = static_cast<int>(coll_seq_++);
  const int p = size();
  if (group_rank_ == root) {
    for (int r = 0; r < p; ++r)
      if (r != root) dist_send_raw(r, tag, data, nbytes);
  } else {
    dist_recv_raw(root, tag, data, nbytes);
  }
  dist_coll_end(net::CollectiveKind::kBcast, nbytes, start);
}

void Comm::dist_allreduce(const void* in, void* out, std::size_t nbytes,
                          ReduceOp op, detail::CombineFn combine,
                          std::size_t elem_size) {
  const double start = dist_op_begin();
  const int tag = static_cast<int>(coll_seq_++);
  const int p = size();
  if (group_rank_ == 0) {
    std::byte* all =
        detail::scratch_buffer(nbytes * static_cast<std::size_t>(p));
    std::memcpy(all, in, nbytes);
    for (int r = 1; r < p; ++r)
      dist_recv_raw(r, tag, all + static_cast<std::size_t>(r) * nbytes,
                    nbytes);
    // Rank-ordered fold, the same association as the in-process engine.
    std::memcpy(out, all, nbytes);
    const std::size_t n = elem_size > 0 ? nbytes / elem_size : 0;
    for (int r = 1; r < p; ++r)
      combine(op, out, all + static_cast<std::size_t>(r) * nbytes, n);
    for (int r = 1; r < p; ++r) dist_send_raw(r, tag, out, nbytes);
  } else {
    dist_send_raw(0, tag, in, nbytes);
    dist_recv_raw(0, tag, out, nbytes);
  }
  dist_coll_end(net::CollectiveKind::kAllreduce, nbytes, start);
}

void Comm::dist_allgather(const void* in, void* out, std::size_t nbytes) {
  const double start = dist_op_begin();
  const int tag = static_cast<int>(coll_seq_++);
  const int p = size();
  std::byte* dst = static_cast<std::byte*>(out);
  const std::size_t total = nbytes * static_cast<std::size_t>(p);
  if (group_rank_ == 0) {
    if (nbytes > 0) std::memcpy(dst, in, nbytes);
    for (int r = 1; r < p; ++r)
      dist_recv_raw(r, tag, dst + static_cast<std::size_t>(r) * nbytes,
                    nbytes);
    for (int r = 1; r < p; ++r) dist_send_raw(r, tag, dst, total);
  } else {
    dist_send_raw(0, tag, in, nbytes);
    dist_recv_raw(0, tag, dst, total);
  }
  dist_coll_end(net::CollectiveKind::kAllgather, nbytes, start);
}

}  // namespace pac::mp

#include "mp/comm.hpp"

#include <algorithm>

#include "mp/transport/transport.hpp"

namespace pac::mp {

namespace detail {

void RankState::init_instrumentation(std::size_t ring_capacity) {
  recorder = std::make_unique<trace::Recorder>(world_rank, ring_capacity);
  // The rank's virtual clock is the trace time base (deterministic across
  // runs); `this` is stable for the run — RunContext::ranks never resizes.
  recorder->set_clock([this] { return clock; });
  metrics::Registry& reg = recorder->metrics();
  std::string name;
  for (std::size_t k = 0; k < kNumCollectiveKinds; ++k) {
    const char* kind = net::to_string(static_cast<net::CollectiveKind>(k));
    name.assign("mp.").append(kind);
    MpMetricHandles::PerCollective& h = mp.collective[k];
    h.calls = &reg.counter(name + ".calls");
    h.bytes = &reg.counter(name + ".bytes");
    h.seconds = &reg.histogram(name + ".seconds");
    h.wait_seconds = &reg.histogram(name + ".wait_seconds");
  }
  mp.send_calls = &reg.counter("mp.send.calls");
  mp.send_bytes = &reg.counter("mp.send.bytes");
  mp.send_seconds = &reg.histogram("mp.send.seconds");
  mp.recv_calls = &reg.counter("mp.recv.calls");
  mp.recv_bytes = &reg.counter("mp.recv.bytes");
  mp.recv_seconds = &reg.histogram("mp.recv.seconds");
}

RunContext::RunContext(int world_size)
    : world_engine(world_size), ranks(world_size) {
  for (int r = 0; r < world_size; ++r) ranks[r].world_rank = r;
}

std::pair<int, std::shared_ptr<CollectiveEngine>> RunContext::engine_for(
    int parent_context, int seq, int color, int group_size) {
  std::lock_guard<std::mutex> lock(registry_mutex);
  const auto key = std::make_tuple(parent_context, seq, color);
  auto it = registry.find(key);
  if (it == registry.end()) {
    const int context = next_context.fetch_add(1);
    it = registry
             .emplace(key, std::make_pair(
                               context,
                               std::make_shared<CollectiveEngine>(group_size)))
             .first;
  }
  PAC_CHECK(it->second.second->size() == group_size);
  return it->second;
}

void RunContext::abort_all() {
  world_engine.abort();
  std::lock_guard<std::mutex> lock(registry_mutex);
  for (auto& [key, entry] : registry) entry.second->abort();
}

std::byte* scratch_buffer(std::size_t bytes) {
  thread_local std::vector<std::byte> arena;
  if (arena.size() < bytes) arena.resize(bytes);
  return arena.data();
}

}  // namespace detail

double RunStats::max_compute() const {
  double m = 0.0;
  for (double v : rank_compute) m = std::max(m, v);
  return m;
}

double RunStats::max_comm() const {
  double m = 0.0;
  for (double v : rank_comm) m = std::max(m, v);
  return m;
}

void Comm::run_collective(net::CollectiveKind kind, std::size_t bytes,
                          const void* in, void* out, const FoldFn& fold) {
  const double cost =
      network_->collective_time(kind, bytes, static_cast<int>(group_.size()));
  const double arrival = state_->clock;
  const double done =
      engine_->run(group_rank_, in, out, arrival, cost, fold);
  state_->comm_time += cost;
  const double wait = done - arrival - cost;
  if (wait > 0.0) state_->idle_time += wait;
  state_->clock = done;
  ++state_->collectives;
  const auto kind_index = static_cast<std::size_t>(kind);
  ++state_->collective_calls[kind_index];
  state_->collective_seconds[kind_index] += cost;
  if constexpr (trace::compiled_in()) {
    if (trace::Recorder* rec = state_->recorder.get()) {
      const detail::MpMetricHandles::PerCollective& h =
          state_->mp.collective[kind_index];
      h.calls->add(1);
      h.bytes->add(bytes);
      h.seconds->observe(cost);
      h.wait_seconds->observe(wait > 0.0 ? wait : 0.0);
      rec->record_span("mp", net::to_string(kind), arrival, done);
    }
  }
}

const char* Comm::backend_name() const noexcept {
  return transport_ != nullptr ? transport_->name() : "in-process";
}

transport::TransportStats Comm::transport_stats() const noexcept {
  return transport_ != nullptr ? transport_->stats()
                               : transport::TransportStats{};
}

void Comm::deliver(int dest_group_rank, int tag, const void* bytes,
                   std::size_t nbytes) {
  if (distributed_) {
    const double start = dist_op_begin();
    Message msg;
    msg.context = context_;
    msg.source = state_->world_rank;
    msg.tag = tag;
    msg.send_time = start;
    msg.payload.resize(nbytes);
    if (nbytes > 0) std::memcpy(msg.payload.data(), bytes, nbytes);
    transport_->send(group_[dest_group_rank], std::move(msg));
    dist_op_end(start);
    ++state_->messages_sent;
    state_->bytes_sent += nbytes;
    if constexpr (trace::compiled_in()) {
      if (trace::Recorder* rec = state_->recorder.get()) {
        state_->mp.send_calls->add(1);
        state_->mp.send_bytes->add(nbytes);
        state_->mp.send_seconds->observe(state_->clock - start);
        rec->record_span("mp", "send", start, state_->clock);
      }
    }
    return;
  }
  // Charge the sender-side software overhead before the message departs.
  const double overhead = network_->send_overhead();
  state_->clock += overhead;
  state_->comm_time += overhead;
  Message msg;
  msg.context = context_;
  msg.source = state_->world_rank;
  msg.tag = tag;
  msg.send_time = state_->clock;
  msg.payload.resize(nbytes);
  if (nbytes > 0) std::memcpy(msg.payload.data(), bytes, nbytes);
  ++state_->messages_sent;
  state_->bytes_sent += nbytes;
  if constexpr (trace::compiled_in()) {
    if (trace::Recorder* rec = state_->recorder.get()) {
      state_->mp.send_calls->add(1);
      state_->mp.send_bytes->add(nbytes);
      state_->mp.send_seconds->observe(overhead);
      rec->record_span("mp", "send", state_->clock - overhead, state_->clock);
    }
  }
  transport_->send(group_[dest_group_rank], std::move(msg));
}

Status Comm::recv_bytes(int source, int tag, void* buffer,
                        std::size_t capacity) {
  if (distributed_) return dist_recv_bytes(source, tag, buffer, capacity);
  const int world_source = source == kAnySource ? kAnySource : group_[source];
  Message msg = transport_->recv(context_, world_source, tag);
  PAC_REQUIRE_MSG(msg.payload.size() <= capacity,
                  "recv buffer too small: " << capacity
                                            << " bytes < message of "
                                            << msg.payload.size());
  const double recv_start = state_->clock;
  if (!msg.payload.empty())
    std::memcpy(buffer, msg.payload.data(), msg.payload.size());
  // Advance virtual time: the message is available at send_time + transfer.
  int group_source = 0;
  for (std::size_t r = 0; r < group_.size(); ++r)
    if (group_[r] == msg.source) group_source = static_cast<int>(r);
  const double transfer = network_->pt2pt_time(
      msg.payload.size(), group_source, group_rank_, size());
  const double available = msg.send_time + transfer;
  if (available > state_->clock) {
    state_->idle_time += available - state_->clock;
    state_->clock = available;
  }
  state_->comm_time += transfer;
  if constexpr (trace::compiled_in()) {
    if (trace::Recorder* rec = state_->recorder.get()) {
      state_->mp.recv_calls->add(1);
      state_->mp.recv_bytes->add(msg.payload.size());
      state_->mp.recv_seconds->observe(state_->clock - recv_start);
      rec->record_span("mp", "recv", recv_start, state_->clock);
    }
  }
  Status st;
  st.source = group_source;
  st.tag = msg.tag;
  st.bytes = msg.payload.size();
  return st;
}

void Comm::barrier() {
  PAC_REQUIRE(valid());
  if (distributed_) {
    dist_barrier();
    return;
  }
  run_collective(net::CollectiveKind::kBarrier, 0, nullptr, nullptr, FoldFn{});
}

Comm Comm::split(int color, int key) {
  PAC_REQUIRE(valid());
  // Exchange (color, key) so every rank can compute every group.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  std::vector<Entry> all(group_.size());
  const Entry mine{color, key, group_rank_};
  allgather<Entry>(std::span<const Entry>(&mine, 1), std::span<Entry>(all));

  const int seq = split_seq_++;
  if (color < 0) return Comm{};  // this rank opts out

  std::vector<Entry> members;
  for (const Entry& e : all)
    if (e.color == color) members.push_back(e);
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });

  Comm sub;
  sub.run_ = run_;
  sub.state_ = state_;
  sub.network_ = network_;
  sub.costs_ = costs_;
  sub.transport_ = transport_;
  sub.time_ = time_;
  sub.distributed_ = distributed_;
  sub.group_.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    sub.group_.push_back(group_[members[i].rank]);
    if (members[i].rank == group_rank_)
      sub.group_rank_ = static_cast<int>(i);
  }
  if (distributed_) {
    // No cross-process registry exists, so every member derives the same
    // context deterministically from (parent context, split seq, color).
    // The result stays below 1 << 28: the collective plane (coll_context)
    // lives above that offset and must not collide with user contexts.
    std::uint32_t h = 0x9e3779b9u;
    for (std::uint32_t v : {static_cast<std::uint32_t>(context_),
                            static_cast<std::uint32_t>(seq),
                            static_cast<std::uint32_t>(color)})
      h ^= v + 0x9e3779b9u + (h << 6) + (h >> 2);
    int derived = static_cast<int>(h & ((1u << 28) - 1));
    if (derived == 0) derived = 1;  // 0 is the world context
    sub.context_ = derived;
    return sub;
  }
  auto [context, engine] = run_->engine_for(
      context_, seq, color, static_cast<int>(members.size()));
  sub.context_ = context;
  sub.engine_owner_ = engine;
  sub.engine_ = engine.get();
  return sub;
}

}  // namespace pac::mp

// minimpi: an MPI-flavoured message-passing runtime with ranks-as-threads
// and modeled (virtual) time.
//
// A World owns P ranks.  World::run(fn) executes fn(Comm&) on every rank
// concurrently — SPMD, exactly like `mpirun -np P`.  Ranks communicate only
// through their Comm:
//
//   * tagged point-to-point send/recv with MPI matching semantics,
//   * the deterministic collectives P-AutoClass runs (Barrier, Bcast,
//     Allreduce, Allgather), which combine contributions in rank order, and
//   * communicator splitting (Comm::split) for subgroup algorithms.
//
// Each rank carries a virtual clock.  Compute sections advance it through
// Comm::charge() using the Machine's cost book; communication advances it by
// the Machine's network model.  Collectives synchronize clocks the way a real
// blocking collective does: everyone leaves at max(arrivals) + network cost.
// RunStats reports per-rank compute/communication/idle breakdowns — that is
// the data from which the paper's Figures 6-8 are rebuilt.
//
// Thread-safety contract: a Comm belongs to its rank's thread.  A rank must
// never touch another rank's Comm or data; all sharing is via messages.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "mp/engine.hpp"
#include "mp/mailbox.hpp"
#include "mp/status.hpp"
#include "mp/transport/time_source.hpp"
#include "net/machine.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace pac::mp {

namespace transport {
class Transport;
class SocketTransport;
struct TransportStats;
}  // namespace transport

using net::kNumCollectiveKinds;

class World;
class Comm;

namespace detail {

/// Cached metric handles for the message-passing hot paths, resolved once
/// per rank when instrumentation is switched on so recording a collective
/// costs four pointer dereferences, not four map lookups.
struct MpMetricHandles {
  struct PerCollective {
    metrics::Counter* calls = nullptr;
    metrics::Counter* bytes = nullptr;
    metrics::Histogram* seconds = nullptr;       // modeled network cost
    metrics::Histogram* wait_seconds = nullptr;  // idle waiting on arrivals
  };
  std::array<PerCollective, kNumCollectiveKinds> collective{};
  metrics::Counter* send_calls = nullptr;
  metrics::Counter* send_bytes = nullptr;
  metrics::Histogram* send_seconds = nullptr;  // sender software overhead
  metrics::Counter* recv_calls = nullptr;
  metrics::Counter* recv_bytes = nullptr;
  metrics::Histogram* recv_seconds = nullptr;  // transfer + blocked time
};

/// Per-rank mutable state shared by all communicators of that rank.
struct RankState {
  int world_rank = 0;
  double clock = 0.0;         // virtual seconds
  double compute_time = 0.0;  // sum of charge() calls
  double comm_time = 0.0;     // modeled network time
  double idle_time = 0.0;     // waiting on slower ranks in collectives
  std::uint64_t collectives = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Per-CollectiveKind call counts and modeled time (indexed by the enum).
  std::array<std::uint64_t, kNumCollectiveKinds> collective_calls{};
  std::array<double, kNumCollectiveKinds> collective_seconds{};
  /// Instrumentation sink (null unless the World instruments this run).
  /// Owned by this rank's thread; merged by World::run after the join.
  std::unique_ptr<trace::Recorder> recorder;
  MpMetricHandles mp;

  /// Create the recorder and resolve the metric handles (comm.cpp).
  void init_instrumentation(std::size_t ring_capacity);
};

/// Per-run shared state: the collective-engine registry for split comms.
struct RunContext {
  explicit RunContext(int world_size);

  CollectiveEngine world_engine;
  std::vector<RankState> ranks;

  // Registry of engines for split communicators, keyed by
  // (parent context, split sequence, color).
  std::mutex registry_mutex;
  std::map<std::tuple<int, int, int>, std::pair<int, std::shared_ptr<CollectiveEngine>>>
      registry;
  std::atomic<int> next_context{1};

  std::pair<int, std::shared_ptr<CollectiveEngine>> engine_for(
      int parent_context, int seq, int color, int group_size);

  void abort_all();
};

template <class T>
T apply_op(ReduceOp op, T a, T b) noexcept {
  switch (op) {
    case ReduceOp::kSum: return static_cast<T>(a + b);
    case ReduceOp::kMin: return b < a ? b : a;
    case ReduceOp::kMax: return a < b ? b : a;
    case ReduceOp::kProd: return static_cast<T>(a * b);
  }
  return a;
}

/// Type-erased elementwise reduction used by the distributed (socket)
/// collectives: fold `n` elements of `src` into `acc` with `op`.  One
/// instantiation per element type, selected by the Comm templates.
using CombineFn = void (*)(ReduceOp, void* acc, const void* src,
                           std::size_t n);

template <class T>
void combine_elems(ReduceOp op, void* acc, const void* src,
                   std::size_t n) noexcept {
  T* a = static_cast<T*>(acc);
  const T* s = static_cast<const T*>(src);
  for (std::size_t i = 0; i < n; ++i) a[i] = apply_op(op, a[i], s[i]);
}

/// Thread-local grow-only scratch arena.  The EM hot path runs thousands
/// of small allreduces per search; the allreduce folds and the distributed
/// staging buffer borrow it instead of allocating per call.  Alignment is
/// operator-new's (sufficient for every trivially copyable element type
/// minimpi moves).
std::byte* scratch_buffer(std::size_t bytes);

}  // namespace detail

/// Per-run statistics, the raw material for speedup/scaleup tables.
struct RunStats {
  int num_ranks = 0;
  /// Virtual completion time of the run: max over ranks of the final clock.
  double virtual_time = 0.0;
  /// Host wall-clock seconds spent executing the run.
  double wall_seconds = 0.0;
  std::vector<double> rank_finish;
  std::vector<double> rank_compute;
  std::vector<double> rank_comm;
  std::vector<double> rank_idle;
  std::uint64_t total_collectives = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  /// Aggregate per-kind collective counts / modeled seconds across ranks
  /// (indexed by net::CollectiveKind).
  std::array<std::uint64_t, kNumCollectiveKinds> collective_calls{};
  std::array<double, kNumCollectiveKinds> collective_seconds{};
  /// True when the run was instrumented (Config::instrument and the layer
  /// compiled in): `metrics` holds the merged per-rank registries and
  /// `events` the merged per-rank ring buffers, sorted by (start, rank).
  bool instrumented = false;
  metrics::Registry metrics;
  std::vector<trace::Event> events;
  /// Events lost to ring overflow across all ranks (0 = complete trace).
  std::uint64_t events_dropped = 0;

  double max_compute() const;
  double max_comm() const;
};

/// The communicator handed to SPMD code.  Copyable handles share rank state.
class Comm {
 public:
  /// Rank within this communicator's group.
  int rank() const noexcept { return group_rank_; }
  /// Number of ranks in this communicator's group.
  int size() const noexcept { return static_cast<int>(group_.size()); }
  /// World rank of this rank (stable across splits).
  int world_rank() const noexcept { return state_->world_rank; }

  /// Current time of this rank (seconds): virtual on the modeled backend,
  /// wall-clock since world formation on the socket backend.
  double now() const noexcept {
    return distributed_ ? time_->now() : state_->clock;
  }
  /// Advance the virtual clock by a modeled compute duration.  On the
  /// distributed (wall-clock) backend this is a no-op: real time advances
  /// by itself, and compute time is measured as the gaps between
  /// communication operations instead.
  void charge(double seconds) {
    PAC_REQUIRE(seconds >= 0.0);
    if (distributed_) return;
    state_->clock += seconds;
    state_->compute_time += seconds;
  }

  /// True when this communicator runs on a multi-process transport (socket
  /// backend): every rank is an OS process and time is wall-clock.  False
  /// on the default modeled (in-process, virtual-time) backend.
  bool distributed() const noexcept { return distributed_; }

  /// Transport backend name ("in-process", "socket", "hybrid").
  const char* backend_name() const noexcept;

  /// Cumulative wire-traffic counters of the underlying transport since
  /// world formation (zeros on the modeled backend; the hybrid backend
  /// additionally fills the per-route shm_* breakdown).
  transport::TransportStats transport_stats() const noexcept;

  const net::NetworkModel& network() const noexcept { return *network_; }
  const net::CostBook& costs() const noexcept { return *costs_; }

  /// This rank's instrumentation sink, or nullptr when the run is not
  /// instrumented (shared by all communicators of the rank, split or not).
  trace::Recorder* recorder() const noexcept {
    return state_ == nullptr ? nullptr : state_->recorder.get();
  }

  // ---- point-to-point ----

  /// Send `data` to group rank `dest` under `tag`.  Blocking-buffered: the
  /// payload is copied out, so the call returns immediately.
  template <class T>
  void send(int dest, int tag, std::span<const T> data);

  /// Convenience: send one trivially-copyable value.
  template <class T>
  void send_value(int dest, int tag, const T& value) {
    send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  /// Receive into `buffer` from group rank `source` (or kAnySource) under
  /// `tag` (or kAnyTag).  The matched payload must fit in `buffer`.
  template <class T>
  Status recv(int source, int tag, std::span<T> buffer);

  /// Convenience: receive one value.
  template <class T>
  T recv_value(int source, int tag, Status* status = nullptr) {
    T v{};
    Status st = recv<T>(source, tag, std::span<T>(&v, 1));
    if (status) *status = st;
    return v;
  }

  // ---- collectives (must be called by every rank of the group, with
  //      matching arguments, in the same order) ----

  void barrier();

  /// Replicate `data` from `root` to all ranks (in place).
  template <class T>
  void broadcast(std::span<T> data, int root);

  /// Reduction delivered to every rank (the workhorse of P-AutoClass).
  template <class T>
  void allreduce(std::span<const T> in, std::span<T> out, ReduceOp op);

  /// In-place allreduce (input and output alias).
  template <class T>
  void allreduce_inplace(std::span<T> io, ReduceOp op) {
    allreduce<T>(std::span<const T>(io.data(), io.size()), io, op);
  }

  /// Scalar allreduce convenience.
  double allreduce_scalar(double value, ReduceOp op = ReduceOp::kSum) {
    double out = 0.0;
    allreduce<double>(std::span<const double>(&value, 1),
                      std::span<double>(&out, 1), op);
    return out;
  }

  /// Concatenate every rank's block on every rank.
  template <class T>
  void allgather(std::span<const T> in, std::span<T> out);

  /// Convenience: allgather a single value per rank.
  template <class T>
  std::vector<T> allgather_value(const T& value) {
    std::vector<T> out(group_.size());
    allgather<T>(std::span<const T>(&value, 1), std::span<T>(out));
    return out;
  }

  /// Partition the group by `color` (ranks with equal color form a new
  /// communicator, ordered by (key, rank)).  A negative color yields an
  /// invalid Comm (valid() == false) for that rank.
  Comm split(int color, int key);

  /// False for the result of split() with negative color.
  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class World;

  Comm() = default;

  /// Type-erased collective: charges time and runs the fold via the engine.
  void run_collective(net::CollectiveKind kind, std::size_t bytes,
                      const void* in, void* out, const FoldFn& fold);

  void deliver(int dest_group_rank, int tag, const void* bytes,
               std::size_t nbytes);

  /// Blocking type-erased receive core: copies the matched message into
  /// `buffer`, advances the clock by the modeled transfer and builds the
  /// Status.
  Status recv_bytes(int source, int tag, void* buffer, std::size_t capacity);

  // ---- distributed (socket-backend) engine: collectives layered on
  //      pt2pt frames over a private context (comm_dist.cpp) ----

  /// Context reserved for this comm's internal collective traffic, so user
  /// wildcard receives never observe collective frames.
  int coll_context() const noexcept { return context_ + (1 << 28); }

  /// Mark an operation boundary: credit the wall-clock gap since the last
  /// boundary as compute time and return the operation start time.
  double dist_op_begin();
  /// Close a pt2pt operation: elapsed wall time is communication time.
  void dist_op_end(double start);
  /// Close a collective: bookkeeping + metrics/trace for `kind`.
  void dist_coll_end(net::CollectiveKind kind, std::size_t bytes,
                     double start);

  /// Raw collective-plane frame helpers (no per-message metrics: the
  /// enclosing collective records itself, matching the modeled backend).
  void dist_send_raw(int dest_group_rank, int tag, const void* bytes,
                     std::size_t nbytes);
  void dist_recv_raw(int source_group_rank, int tag, void* buffer,
                     std::size_t nbytes);

  Status dist_recv_bytes(int source, int tag, void* buffer,
                         std::size_t capacity);

  void dist_barrier();
  void dist_broadcast(void* data, std::size_t nbytes, int root);
  void dist_allreduce(const void* in, void* out, std::size_t nbytes,
                      ReduceOp op, detail::CombineFn combine,
                      std::size_t elem_size);
  void dist_allgather(const void* in, void* out, std::size_t nbytes);

  detail::RunContext* run_ = nullptr;
  detail::RankState* state_ = nullptr;
  CollectiveEngine* engine_ = nullptr;
  std::shared_ptr<CollectiveEngine> engine_owner_;  // for split comms
  const net::NetworkModel* network_ = nullptr;
  const net::CostBook* costs_ = nullptr;
  transport::Transport* transport_ = nullptr;
  transport::TimeSource* time_ = nullptr;  // wall clock (socket backend)
  std::vector<int> group_;  // group rank -> world rank
  int group_rank_ = 0;
  int context_ = 0;
  int split_seq_ = 0;  // per-comm counter for deterministic split keys
  std::uint32_t coll_seq_ = 0;  // tag counter for distributed collectives
  bool distributed_ = false;
};

/// A modeled multicomputer running SPMD jobs.
class World {
 public:
  struct Config {
    /// Message-passing backend.  kInProcess is the default modeled runtime
    /// (ranks as threads, virtual time, deterministic); kSocket runs this
    /// process as ONE rank of a multi-process world over real sockets
    /// (wall-clock time); kHybrid is kSocket with same-host peers routed
    /// over shared-memory rings — see src/mp/transport/.
    enum class Backend { kInProcess, kSocket, kHybrid };

    int num_ranks = 1;
    net::Machine machine = net::ideal_machine();
    /// Build a per-rank trace::Recorder (metrics + event ring) and merge
    /// them into RunStats at finalize.  Defaults to the PAUTOCLASS_TRACE
    /// environment toggle; a no-op when the layer is compiled out
    /// (PAC_TRACE=OFF).
    bool instrument = trace::env_enabled();
    /// Per-rank event-ring capacity when instrumenting.
    std::size_t instrument_ring = trace::EventRing::kDefaultCapacity;

    Backend backend = Backend::kInProcess;
    /// Socket-backend parameters; normally filled from the pac_launch
    /// environment by transport::apply_env_backend().  With kSocket,
    /// num_ranks must equal socket.size (this process is rank socket.rank).
    struct Socket {
      std::string address;  // rendezvous: "unix:/path" or "host:port"
      int rank = -1;
      int size = 0;
      double connect_timeout = 30.0;  // seconds to retry the rendezvous
    } socket;
    /// Hybrid-backend parameters (ignored unless backend == kHybrid);
    /// normally filled from the pac_launch environment (PACNET_HOST_TOKEN,
    /// PACNET_SHM_FDS, PACNET_SHM_SPIN) by transport::apply_env_backend().
    struct Shm {
      /// Host identity advertised in the rendezvous (0 = socket-only).
      std::uint64_t host_token = 0;
      /// (peer world rank, inherited segment fd) pairs; ownership passes
      /// to the transport when the world forms.
      std::vector<std::pair<int, int>> fds;
      /// Ring-waiter spin iterations before parking (0 = default).
      std::uint32_t spin_iters = 0;
    } shm;
  };

  explicit World(Config config);
  ~World();

  /// Run `fn` as rank 0..P-1 concurrently; blocks until all finish.
  /// If any rank throws, the world is aborted and the first error rethrown.
  /// On the socket backend this process executes only its own rank, and the
  /// call blocks until every rank of the distributed world reaches the
  /// final stats exchange.
  RunStats run(const std::function<void(Comm&)>& fn);

  const Config& config() const noexcept { return config_; }
  int num_ranks() const noexcept { return config_.num_ranks; }

 private:
  RunStats run_modeled(const std::function<void(Comm&)>& fn);
  RunStats run_distributed(const std::function<void(Comm&)>& fn);

  Config config_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  /// Lazily-formed socket world, reused across run() calls (world formation
  /// is a heavyweight rendezvous; tests run several searches per process).
  std::unique_ptr<transport::SocketTransport> socket_transport_;
};

// ---- template implementations ----

template <class T>
void Comm::send(int dest, int tag, std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>,
                "minimpi transfers raw bytes; T must be trivially copyable");
  PAC_REQUIRE(valid());
  PAC_REQUIRE_MSG(dest >= 0 && dest < size(), "send dest out of range");
  PAC_REQUIRE(tag >= 0);
  deliver(dest, tag, data.data(), data.size_bytes());
}

template <class T>
Status Comm::recv(int source, int tag, std::span<T> buffer) {
  static_assert(std::is_trivially_copyable_v<T>,
                "minimpi transfers raw bytes; T must be trivially copyable");
  PAC_REQUIRE(valid());
  PAC_REQUIRE_MSG(source == kAnySource || (source >= 0 && source < size()),
                  "recv source out of range");
  return recv_bytes(source, tag, buffer.data(), buffer.size_bytes());
}

template <class T>
void Comm::broadcast(std::span<T> data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(root >= 0 && root < size());
  const std::size_t n = data.size();
  if (distributed_) {
    dist_broadcast(data.data(), n * sizeof(T), root);
    return;
  }
  const int p = size();
  auto fold = [n, root, p](std::span<const CollectiveSlot> slots) {
    const void* src = slots[root].in;
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      std::memcpy(slots[r].out, src, n * sizeof(T));
    }
  };
  run_collective(net::CollectiveKind::kBcast, n * sizeof(T), data.data(),
                 data.data(), fold);
}

template <class T>
void Comm::allreduce(std::span<const T> in, std::span<T> out, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(out.size() == in.size());
  const std::size_t n = in.size();
  const int p = size();
  if (distributed_) {
    dist_allreduce(in.data(), out.data(), n * sizeof(T), op,
                   &detail::combine_elems<T>, sizeof(T));
    return;
  }
  auto fold = [n, op, p](std::span<const CollectiveSlot> slots) {
    T* tmp = reinterpret_cast<T*>(detail::scratch_buffer(n * sizeof(T)));
    std::memcpy(tmp, slots[0].in, n * sizeof(T));
    for (int r = 1; r < p; ++r)
      detail::combine_elems<T>(op, tmp, slots[r].in, n);
    for (int r = 0; r < p; ++r)
      std::memcpy(slots[r].out, tmp, n * sizeof(T));
  };
  run_collective(net::CollectiveKind::kAllreduce, n * sizeof(T), in.data(),
                 out.data(), fold);
}

template <class T>
void Comm::allgather(std::span<const T> in, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  const std::size_t n = in.size();
  const int p = size();
  PAC_REQUIRE(out.size() == n * static_cast<std::size_t>(p));
  if (distributed_) {
    dist_allgather(in.data(), out.data(), n * sizeof(T));
    return;
  }
  auto fold = [n, p](std::span<const CollectiveSlot> slots) {
    for (int d = 0; d < p; ++d) {
      T* dst = static_cast<T*>(slots[d].out);
      for (int r = 0; r < p; ++r)
        std::memcpy(dst + static_cast<std::size_t>(r) * n, slots[r].in,
                    n * sizeof(T));
    }
  };
  run_collective(net::CollectiveKind::kAllgather, n * sizeof(T), in.data(),
                 out.data(), fold);
}

}  // namespace pac::mp

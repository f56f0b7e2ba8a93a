// The MAPS-Multi Scheduler (§4.3, Algorithm 1): the main component of the
// host-level infrastructure.
//
// The scheduler mediates between the framework and the devices: it
// constructs Tasks from typed function calls, determines the grid
// segmentation strategy from the access patterns, uses the Segmenters /
// Memory Analyzer / Segment Location Monitor to infer allocations and
// inter-GPU transfers, and queues copy and execution commands to each
// device's streams from the calling thread — managing streams and events so
// memory stays consistent.
//
// The Scheduler builds (Algorithm 1), replays and dispatches plans and owns
// the mechanism every decision acts through — streams, ordering maps,
// device-to-host copies. The decisions live in modules that own their state
// and exchange the typed plan values of plan_types.hpp (DESIGN.md §5.17):
// PlanCache (plan_cache.hpp), Residency (residency.hpp), Recovery
// (recovery.hpp) and strip planning (strips.cpp).
//
// Public API follows the paper's Table 2: AnalyzeCall, Invoke,
// InvokeUnmodified, Gather, GatherAsync, Wait, WaitAll.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/node.hpp"

#include "multi/datum.hpp"
#include "multi/fault_injector.hpp"
#include "multi/hash_util.hpp"
#include "multi/kernel_exec.hpp"
#include "multi/location_monitor.hpp"
#include "multi/memory_analyzer.hpp"
#include "multi/pattern_spec.hpp"
#include "multi/plan_cache.hpp"
#include "multi/plan_types.hpp"
#include "multi/recovery.hpp"
#include "multi/residency.hpp"
#include "multi/routine.hpp"
#include "multi/sanitizer.hpp"
#include "multi/segmenter.hpp"
#include "multi/task_cost.hpp"
#include "multi/transfer_planner.hpp"

namespace maps::multi {

namespace detail {

template <typename A>
concept PatternArg = requires(const A& a) {
  { a.spec() } -> std::convertible_to<PatternSpec>;
};

template <typename A> struct is_constant : std::false_type {};
template <typename T> struct is_constant<Constant<T>> : std::true_type {};
template <typename A>
inline constexpr bool is_constant_v = is_constant<std::decay_t<A>>::value;

// HasAppendCounter lives in kernel_exec.hpp (the chunked sweep needs it too);
// ExecBackend in thread_pool.hpp.

} // namespace detail

/// Host-side scheduler cost/health counters (introspection API). Times are
/// host wall-clock (std::chrono), NOT simulated time: the cache changes how
/// much work the host does per Invoke, never what the simulator computes.
struct SchedulerStats {
  /// Full Algorithm-1 planning passes, in-core and streamed alike (a
  /// streamed plan is cached and replayed like an in-core one).
  std::uint64_t plans_built = 0;
  std::uint64_t cache_hits = 0;     ///< Invokes served by replay.
  std::uint64_t cache_misses = 0;   ///< Cacheable Invokes that had to build.
  std::uint64_t cache_invalidations = 0; ///< Known shape, no variant matched
                                         ///< the current location state.
  std::uint64_t cache_evictions = 0;     ///< Shapes dropped by the LRU bound.
  std::uint64_t uncacheable_tasks = 0;   ///< e.g. CustomAligned row mappings.
  double plan_time_us = 0.0;   ///< Host time spent building plans.
  double replay_time_us = 0.0; ///< Host time spent replaying cached plans.
  /// Per-phase breakdown of plan_time_us (both are included in it): host
  /// time inside Algorithm 2 source scans vs. the transfer planner's
  /// earliest-finish routing. The cluster bench reports these per task to
  /// show planning stays sub-quadratic in device count.
  double monitor_plan_us = 0.0;
  double route_plan_us = 0.0;
  /// Compute–transfer overlap: interior/boundary strips of split (S >= 2)
  /// devices, summed over every dispatched task (builds and replays
  /// alike). Zero when overlap is off or no task was splittable.
  std::uint64_t interior_subkernels = 0;
  std::uint64_t boundary_subkernels = 0;
  /// Transfer accounting summed over every dispatched task (builds and
  /// replays alike — a replayed plan re-contributes the stats baked into its
  /// shape). Byte counters classify each task's planned input transfers by
  /// physical path; see TransferStats.
  TransferStats transfers;
  /// Parallel execution backend (DESIGN.md §5.12): shared worker-pool
  /// counters, refreshed on every stats() read.
  struct ExecStats {
    std::uint32_t threads = 0; ///< configured parallelism (0 = sequential)
    /// Pool jobs executed: block-row chunks plus deferred device sweeps.
    std::uint64_t chunks_executed = 0;
    std::uint64_t chunks_stolen = 0; ///< jobs taken from another queue
    std::uint64_t idle_waits = 0;    ///< times a pool thread went to sleep
  } exec;
  /// Device-loss recovery accounting (fault-tolerance mode only).
  using RecoveryStats = multi::RecoveryStats;
  RecoveryStats recovery;
  /// Topology-aware partition placement (set_placement_enabled): maps
  /// logical block-row segments onto physical devices so halo neighbours
  /// share a cluster node wherever possible.
  struct PlacementStats {
    std::uint64_t evaluations = 0; ///< tasks the placement pass examined
    std::uint64_t reorders = 0;    ///< tasks where it adopted a new order
    /// Provable node crossings between adjacent segments, before/after the
    /// last adopted reorder (equal when no reorder was ever needed).
    std::uint32_t crossings_before = 0;
    std::uint32_t crossings_after = 0;
  } placement;
  /// Out-of-core execution (set_device_memory_budget; DESIGN.md §5.16):
  /// eviction write-backs, refills of previously spilled rows, and streamed
  /// multi-pass tasks. All-zero under the default unlimited budget.
  SpillStats spill;
  /// Waits the issue loop left out because their event's first record was
  /// issued earlier on the waiting stream itself: stream order already
  /// implies them, and a zero-duration wait behind its own record moves no
  /// simulated time.
  std::uint64_t waits_elided = 0;
};

class Scheduler {
public:
  /// Schedules on the given sim devices (all of the node's by default).
  explicit Scheduler(sim::Node& node, std::vector<int> devices = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // --- Host-level API (Table 2) ---------------------------------------------

  /// Forward-declares a task so the Memory Analyzer can size per-device
  /// allocations (§4.2). Accepts the same arguments as Invoke; non-pattern
  /// arguments (the kernel, constants) are ignored.
  template <typename... Args> void AnalyzeCall(const Args&... args) {
    std::vector<PatternSpec> specs;
    std::optional<Work> work;
    std::vector<std::vector<std::byte>> consts;
    collect(specs, work, consts, args...);
    analyze_task(std::move(specs), work ? &*work : nullptr);
  }

  /// Schedules and runs a MAPS kernel across the devices. The kernel is any
  /// callable `kernel(const maps::ThreadContext&, Patterns&...)`.
  template <typename Kernel, detail::PatternArg... Patterns>
  TaskHandle Invoke(const Kernel& kernel, Patterns... pats) {
    return Invoke(CostHints{}, kernel, std::move(pats)...);
  }

  template <typename Kernel, detail::PatternArg... Patterns>
  TaskHandle Invoke(const CostHints& hints, const Kernel& kernel,
                    Patterns... pats) {
    std::vector<PatternSpec> specs{pats.spec()...};
    auto factory = [this, kernel, pats...](int slot,
                                           const maps::GridContext& grid,
                                           const std::vector<DeviceView>&
                                               views) -> std::function<void()> {
      auto tuple =
          std::make_shared<std::tuple<Patterns...>>(pats...);
      bind_tuple(*tuple, views, slot,
                 std::index_sequence_for<Patterns...>{});
      maps::GridContext gc = grid;
      return [this, tuple, gc, kernel] {
        // Parallel backend (DESIGN.md §5.12): fan the sweep out in
        // cache-sized block-row chunks. exec_pool() is stable while bodies
        // are in flight (set_exec_threads quiesces the node first).
        ThreadPool* pool = exec_pool();
        if (pool == nullptr) {
          run_device_grid(gc, kernel, *tuple);
          return;
        }
        const std::size_t bytes_per_block_row =
            tuple_bytes_per_block_row(*tuple, gc,
                                      std::index_sequence_for<Patterns...>{});
        run_device_grid_chunked(
            gc, kernel, *tuple, *pool,
            exec_chunk_block_rows(gc.block_rows, bytes_per_block_row,
                                  pool->parallelism()));
      };
    };
    return dispatch(plan_task(std::move(specs), nullptr, hints,
                              kernel_label<Kernel>(), /*splittable=*/true),
                    factory, nullptr, nullptr, {});
  }

  /// Runs an unmodified GPU routine on all devices (§4.6). `args` may mix
  /// pattern containers and Constant<T> values; `work` defines the
  /// partitioned work space (e.g. Work{n} for SAXPY over n elements).
  template <typename... Args>
  TaskHandle InvokeUnmodified(UnmodifiedRoutine routine, void* context,
                              Work work, const Args&... args) {
    std::vector<PatternSpec> specs;
    std::optional<Work> w = work;
    std::vector<std::vector<std::byte>> consts;
    collect(specs, w, consts, args...);
    // Routines run as one opaque launch per device, so they are never split
    // into strips; their copies still benefit from row-range chunking.
    return dispatch(plan_task(std::move(specs), &*w, CostHints{}, "routine",
                              /*splittable=*/false),
                    detail::BodyFactory{}, std::move(routine), context,
                    std::move(consts));
  }

  /// Gathers a datum's up-to-date contents back to its bound host buffer,
  /// applying the output pattern's aggregation (§3.2) when needed. Blocking.
  void Gather(Datum& datum);
  /// Asynchronous Gather; completes at the next Wait/WaitAll.
  void GatherAsync(Datum& datum);

  /// Declares that the bound host buffer was modified by host code (e.g. a
  /// host-side parameter update): device replicas become stale and the next
  /// task re-uploads what it needs.
  void MarkHostModified(Datum& datum);

  /// Device-side aggregation of a pending Reductive output (extension of the
  /// paper's §4.5.2 aggregators to the inter-GPU level): each device
  /// receives its aligned rows of every peer's partial copy over the
  /// peer-to-peer interconnect and sums them locally, leaving the datum
  /// partitioned exactly as a Structured Injective output of `work` would
  /// be — no host round trip. Used by the hybrid deep-learning trainer for
  /// the FC-layer deltas (§6.1: "exchanges less data, but more frequently,
  /// between the GPUs").
  void ReduceScatter(Datum& datum, Work work);

  /// Waits for a specific task (conservatively drains the node).
  void Wait(TaskHandle handle);
  /// Waits for all scheduled work.
  void WaitAll();

  // --- Introspection & tuning -----------------------------------------------
  sim::Node& node() { return node_; }
  const std::vector<int>& devices() const { return devices_; }
  int slots() const { return static_cast<int>(devices_.size()); }
  MemoryAnalyzer& analyzer() { return analyzer_; }
  SegmentLocationMonitor& monitor() { return monitor_; }

  /// Rows actually produced into a ReductiveDynamic/Irregular output by the
  /// last Gather of `datum`.
  std::size_t gathered_count(const Datum& datum) const;

  /// Parallel functional execution backend (DESIGN.md §5.12): number of
  /// host threads sweeping kernel bodies. 0 selects the sequential legacy
  /// path; n >= 1 installs a shared worker pool that overlaps device sweeps
  /// and splits each sweep into cache-sized block-row chunks. Results are
  /// bit-identical either way (deterministic chunk-ordered merges; see
  /// kernel_exec.hpp). Defaults to std::thread::hardware_concurrency(),
  /// overridable with the MAPS_EXEC_THREADS environment variable. Quiesces
  /// in-flight work before switching. TimingOnly nodes always execute
  /// sequentially (bodies are null there).
  void set_exec_threads(unsigned n);
  unsigned exec_threads() const { return exec_threads_; }

  /// Ablation knob: route every inferred device-to-device exchange through
  /// host RAM (the behaviour of the paper's MPI/host-based baselines)
  /// instead of direct peer-to-peer transfers. Functionally identical,
  /// used by bench/ablation_design_choices to quantify §6.2's argument.
  /// Forcing host staging also disables the transfer planner: every route is
  /// prescribed, so there is nothing left to plan.
  void set_force_host_staged(bool on) { settings_.force_host_staged = on; }

  /// Cost-based transfer routing (transfer_planner.hpp; on by default).
  /// When disabled, copies use Algorithm 2's positional source choice
  /// unrouted — simulated *results* are identical either way, only the
  /// simulated timeline changes. The setting is part of the plan-cache
  /// fingerprint, so toggling it mid-run never replays a plan routed under
  /// the other setting.
  void set_transfer_planner_enabled(bool on) {
    settings_.transfer_planner = on;
  }

  /// Compute–transfer overlap (on by default): splits each per-device MAPS
  /// kernel into an interior sub-kernel that never waits on halo traffic
  /// plus boundary strips gated only on their own halo copies, and chunks
  /// large inferred copies into row ranges so row-granular consumers start
  /// as soon as their chunk lands. Simulated *results* are bit-identical on
  /// or off — strips partition the block rows and write disjoint rows — only
  /// the simulated timeline changes. Part of the plan-cache fingerprint.
  void set_overlap_enabled(bool on) { settings_.overlap = on; }
  /// Topology-aware partition placement (off by default). When on, the
  /// segment -> device map is re-derived per task shape so adjacent logical
  /// segments land on the same cluster node wherever the inferred pattern
  /// set makes a node crossing provable (halo inputs): block-row neighbours
  /// exchange halos, so co-locating them converts NetworkStaged crossings
  /// into in-node peer transfers. The cost model is deterministic (counts
  /// provable crossings over sim::Topology node membership; ties keep the
  /// current order), a reorder is adopted only when strictly cheaper, and
  /// the chosen order is part of the plan-cache fingerprint. On single-node
  /// topologies and for the default node-contiguous device enumeration the
  /// canonical order equals the current one, so enabling placement is a
  /// no-op there — results are bit-identical on or off in all cases; only
  /// the simulated timeline changes.
  void set_placement_enabled(bool on) { settings_.placement = on; }
  /// Row-range chunking threshold for large inferred copies, in bytes
  /// (0 disables chunking; only applies while overlap is enabled).
  void set_copy_chunk_bytes(std::size_t bytes) {
    settings_.copy_chunk_bytes = bytes;
  }

  /// Out-of-core execution (DESIGN.md §5.16): per-device byte budget for
  /// analyzer-materialized buffers. 0 (the default) is the legacy unlimited
  /// in-core behaviour. Under a budget, plan builds evict least-recently-
  /// touched residents (dirty rows written back to the bound host buffers,
  /// the holding marked spilled) until the task fits, and a task whose own
  /// working set exceeds the budget runs as a streamed multi-pass sweep over
  /// resident row-windows. Results are bit-identical to the unlimited run.
  /// Changing the budget mid-chain quiesces in-flight work and clears the
  /// plan cache (cached plans point into buffers the new policy may evict);
  /// the budget is part of the plan-cache fingerprint. Throws OutOfCoreError
  /// when a budget cannot be honoured.
  void set_device_memory_budget(std::size_t bytes);
  std::size_t device_memory_budget() const { return residency_.budget(); }
  /// Streamed-pass prefetch (on by default): the refill of window p+1 is
  /// issued as soon as window p-1's drain frees its double buffer, so it
  /// overlaps window p's kernel. Off serializes each window's evict-then-
  /// refill (the naive baseline bench/out_of_core compares against).
  /// Results are bit-identical either way; only the timeline changes.
  void set_spill_prefetch_enabled(bool on) { residency_.set_prefetch(on); }

  std::uint64_t tasks_scheduled() const { return next_task_ - 1; }

  // --- Plan cache & stats ---------------------------------------------------

  /// Steady-state plan caching: LRU bound on distinct cached task shapes
  /// (64 by default). 0 disables caching, so every Invoke replans from
  /// scratch; simulated results are identical either way.
  void set_plan_cache_capacity(std::size_t n) {
    stats_.cache_evictions += cache_.set_capacity(n);
  }
  std::size_t plan_cache_capacity() const { return cache_.capacity(); }
  std::size_t plan_cache_size() const { return cache_.size(); }

  const SchedulerStats& stats() const {
    refresh_exec_stats();
    return stats_;
  }
  /// Resets ALL counters to a freshly-constructed state — scheduler stats
  /// (cache, transfers, overlap, recovery) and, when the sanitizer is
  /// enabled, its violation/check counters too.
  void reset_stats();

  // --- Access sanitizer & fault injection -----------------------------------

  /// Enables the runtime access sanitizer (sanitizer.hpp): a shadow
  /// write-version map advanced at dispatch time, asserting before each
  /// kernel that every input rectangle is read at its latest version. Must
  /// be enabled before any task is scheduled (the shadow map tracks state
  /// from the first task on). Off by default; when off the only cost is one
  /// pointer test per dispatch.
  void set_sanitizer_enabled(bool on);
  bool sanitizer_enabled() const { return sanitizer_ != nullptr; }
  /// Null when the sanitizer is disabled.
  AccessSanitizer* sanitizer() { return sanitizer_.get(); }

  /// Fault tolerance (host mirroring + device-loss recovery; §5.11 of
  /// DESIGN.md). When enabled, every task output's core rows are mirrored
  /// asynchronously to the bound host buffer after dispatch, so the host
  /// always holds a fresh copy of every non-pending datum. A device loss is
  /// then recoverable at depth 1: the victim's unfinished segments are
  /// re-partitioned across survivors and re-executed from the mirrors, and
  /// its pending aggregation partials are re-computed and folded in.
  /// Results after recovery are bit-identical to a fault-free run.
  /// Must be set before any task is scheduled; off by default.
  void set_fault_tolerance_enabled(bool on);
  /// Installs a device-loss injector (fault_injector.hpp), consulted per
  /// live slot at CopiesIssued/KernelIssued boundaries of every MAPS-kernel
  /// dispatch and at PreGather on Gather entry. At most one kill fires per
  /// dispatch. Install it after enabling fault tolerance (a non-null
  /// injector throws std::logic_error while it is off); pass nullptr to
  /// clear.
  void set_fault_injector(FaultInjector injector);
  /// Kills a device immediately (drain-completes model: enqueued work
  /// finishes first) and runs recovery. Requires fault tolerance enabled;
  /// throws std::logic_error otherwise or if the slot is already dead.
  void kill_device(int slot);
  /// Kills every live device of one cluster node (a whole-node loss: the
  /// machine and its NIC go away together) and recovers each in turn via the
  /// kill_device path — results stay bit-identical to a fault-free run.
  /// Throws std::invalid_argument for an out-of-range node, std::logic_error
  /// when the node has no live devices left (mirroring the already-dead slot
  /// check), and std::runtime_error if the loss would leave no live device.
  void kill_node(int cluster_node);
  /// Slots still alive, in segment order: ascending unless placement
  /// reordered them (all slots before any loss).
  const std::vector<int>& live_devices() const { return live_; }
  bool device_lost(int slot) const;

  /// One planned copy offered to the fault hook before dispatch.
  struct CopyFaultInfo {
    const Datum* datum = nullptr;
    int src_location = 0; ///< 0 = host, 1 + slot = device
    int dst_location = 0;
    RowInterval rows;     ///< GLOBAL rows (empty for zero fills)
    bool zero_fill = false;
    bool aligned = false; ///< rows land at their global position
    TaskHandle task = 0;
  };
  /// Test-only fault injection: the hook sees every copy instruction a
  /// dispatch (build or replay) issues and returns true to silently DROP
  /// it — the simulator never executes the transfer, while the location
  /// monitor and plan cache still believe it happened. This simulates a
  /// transfer-inference bug; with the sanitizer enabled the resulting stale
  /// read is reported with the exact rectangle.
  using CopyFaultHook = std::function<bool(const CopyFaultInfo&)>;
  void set_copy_fault_hook(CopyFaultHook hook) {
    copy_fault_hook_ = std::move(hook);
  }
  /// Live entries across all availability/access interval maps. Bounded in
  /// steady state (coalesced storage); unbounded growth here means a
  /// dependency-tracking leak.
  std::size_t live_dependency_intervals() const;

private:
  template <typename... Args>
  void collect(std::vector<PatternSpec>& specs, std::optional<Work>& work,
               std::vector<std::vector<std::byte>>& consts,
               const Args&... args) {
    auto one = [&](const auto& a) {
      using A = std::decay_t<decltype(a)>;
      if constexpr (detail::PatternArg<A>) {
        specs.push_back(a.spec());
      } else if constexpr (std::is_same_v<A, Work>) {
        work = a;
      } else if constexpr (detail::is_constant_v<A>) {
        const auto* p = reinterpret_cast<const std::byte*>(&a.value);
        consts.emplace_back(p, p + sizeof(a.value));
      } else {
        // Kernel functor or other non-pattern argument: ignored here.
      }
    };
    (one(args), ...);
  }

  template <typename Tuple, std::size_t... I>
  void bind_tuple(Tuple& tuple, const std::vector<DeviceView>& views, int slot,
                  std::index_sequence<I...>) {
    (std::get<I>(tuple).bind(views[I]), ...);
    auto counters = [&](auto& p) {
      using P = std::decay_t<decltype(p)>;
      if constexpr (detail::HasAppendCounter<P>) {
        p.bind_append_counter(append_counter(p.datum(), slot));
      }
    };
    (counters(std::get<I>(tuple)), ...);
  }

  /// Bytes one virtual block row touches across every bound view — the
  /// working-set estimate exec_chunk_block_rows caps chunk sizes with.
  template <typename Tuple, std::size_t... I>
  static std::size_t tuple_bytes_per_block_row(const Tuple& tuple,
                                               const maps::GridContext& gc,
                                               std::index_sequence<I...>) {
    std::size_t row_bytes = 0;
    ((row_bytes += std::get<I>(tuple).view().pitch), ...);
    return row_bytes * gc.block_dim.y * gc.ilp_y;
  }

  template <typename Kernel> static const char* kernel_label() {
    return "maps_kernel";
  }

  // Non-template heavy lifting (scheduler.cpp):
  void analyze_task(std::vector<PatternSpec> specs, const Work* work);
  /// Topology-aware partition placement: reorders live_ (the segment ->
  /// slot map) so adjacent halo-exchanging segments share a cluster node
  /// when that provably removes node crossings. Runs before fingerprinting
  /// and before any segment -> slot use; no-op unless placement is enabled,
  /// the topology is a cluster, and the pattern set has halo inputs.
  void apply_placement(const std::vector<PatternSpec>& specs);
  /// Records the task's requirement on every segment's slot with the Memory
  /// Analyzer (the lazy AnalyzeCall) and returns them, per segment.
  std::vector<std::vector<SegmentReq>>
  record_requirements(const std::vector<PatternSpec>& specs,
                      const TaskPartition& partition, int slots_eff);
  /// Segments a task spans: 1 for single-device work, else every live slot.
  int slots_for(const std::vector<PatternSpec>& specs, const Work* work) const;
  /// Plans one task from the plan cache or through build_plan; under a
  /// memory budget Residency first decides whether the task must stream,
  /// and the task's residency is prepared (enforce_budget or prepare_stream)
  /// before the lookup.
  detail::TaskPlan& plan_task(std::vector<PatternSpec> specs,
                              const Work* work, const CostHints& hints,
                              const char* label, bool splittable);
  /// One full Algorithm-1 planning pass, which lowers every active device
  /// to its command list and marks the monitor, then wires the plan;
  /// `streamed` plans every active device as W >= 1 row-window passes
  /// (Residency::plan_windows) after prepare_stream. `reqs`: the task's
  /// requirements when plan_task already recorded them (empty: record them
  /// here).
  detail::TaskPlan& build_plan(std::vector<PatternSpec> specs,
                               const Work* work, const CostHints& hints,
                               const char* label, bool splittable,
                               bool streamed,
                               std::vector<std::vector<SegmentReq>> reqs);
  /// The wiring pass every dispatch of a plan, build or replay, takes: one
  /// rebased block of plan events, every device's wait sets against the
  /// CURRENT ordering state (wire_commands), the launches' reads and writes
  /// registered in the ordering maps, the append counters reset and the
  /// shape's per-dispatch counters added to stats_.
  void wire(detail::TaskPlan& plan);
  /// Hands a planned MAPS kernel (`factory`) or unmodified routine to the
  /// devices; a streamed plan also drains the node before returning, which
  /// frees its pooled window temporaries for the next streamed task.
  TaskHandle dispatch(detail::TaskPlan& plan,
                      const detail::BodyFactory& factory,
                      UnmodifiedRoutine routine, void* context,
                      std::vector<std::vector<std::byte>> consts);
  /// The one issue loop: enqueues `slot`'s commands [0, end) — `end` is
  /// the list's cut for a CopiesIssued device loss. Copies go through the
  /// fault hook; a launch gets a body from `factory` on a functional node.
  void issue_commands(detail::TaskPlan& plan, int slot, std::size_t end,
                      const detail::BodyFactory& factory,
                      const UnmodifiedRoutine& routine, void* context,
                      const std::vector<std::vector<std::byte>>& consts);
  /// Enqueues `stream`'s wait on the first record of `event`, unless that
  /// record was issued by issue_commands on `stream` itself (recorded_on_).
  void wait_unless_ordered(sim::StreamId stream, sim::EventId event);
  /// Launches one binding on `stream` at cost `stats`: the kernel body, or
  /// the routine over parameters and segments filled into routine_args_
  /// from the binding's operands.
  void launch_binding(sim::StreamId stream, int slot,
                      const detail::LaunchBinding& b,
                      const sim::LaunchStats& stats,
                      const std::vector<std::vector<std::size_t>>& dims,
                      std::function<void()> body,
                      const UnmodifiedRoutine& routine, void* context,
                      const std::vector<std::vector<std::byte>>& consts);
  /// The one way commands reach a device: runs `enqueue` (which enqueues
  /// onto `slot`'s streams) on the caller's thread. Each stream belongs to
  /// one slot, so call order is stream order, and every command's issue
  /// floor is the node's host clock at the call. Like an asynchronous CUDA
  /// error, the first exception `enqueue` raises is kept for the next
  /// WaitAll and later issues still run. Issuing to a lost slot throws
  /// std::logic_error at once.
  template <typename Enqueue> void issue(int slot, Enqueue&& enqueue);
  /// Rethrows, and clears, the first error captured by issue().
  void rethrow_issue_error();
  /// Issues a d2h copy (after `waits`, then recording `done` unless it is
  /// negative) on `slot` and books it in `acct`.
  void submit_to_host(int slot, sim::StreamId stream,
                      std::vector<sim::EventId> waits, std::byte* dst,
                      sim::Buffer* src, std::size_t src_off, std::size_t bytes,
                      sim::EventId done, TransferStats& acct);
  /// The one device -> host copy of a datum's rows (write-backs, mirrors,
  /// gathers): d2h of `rows` from `slot`'s allocation to the bound host
  /// buffer, which becomes a holder of the rows in the monitor, the
  /// sanitizer and the recovery stamps.
  void copy_to_host(const Datum* datum, int slot, sim::StreamId stream,
                    const MemoryAnalyzer::Alloc& alloc, RowInterval rows,
                    TransferStats& acct, std::vector<sim::EventId> waits,
                    sim::EventId done);
  /// Spill-accounted d2h of `rows` of `datum` (out-of-core write-back).
  void write_back(const Datum* datum, int slot,
                  const MemoryAnalyzer::Alloc& alloc, RowInterval rows);
  /// copy_to_host ordered against the datum's dependency state: after
  /// `waits` and every prior access to the host rows, registered as a read
  /// of the device rows and as the host rows' producer. Returns its event.
  sim::EventId ordered_to_host(const Datum* datum, int slot,
                               sim::StreamId stream,
                               const MemoryAnalyzer::Alloc& alloc,
                               RowInterval rows,
                               std::vector<sim::EventId> waits);
  /// Enqueues async d2h mirrors of every active non-private output's core
  /// rows (fault-tolerance mode). `skip_slot` suppresses the mirror of a
  /// just-killed victim (-1 = none).
  void enqueue_host_mirrors(const detail::TaskPlan& plan, int skip_slot);
  /// Drain-completes device loss: drains, marks the slot dead, invalidates
  /// its holdings, ordering state, allocations and the plan cache, then has
  /// Recovery re-execute the victim's unfinished work on the survivors.
  void recover_device(int victim, KillStage stage);
  /// The bound host buffer of `datum` changed content (recovery stamp).
  void host_written(const Datum* datum) {
    if (recovery_ != nullptr) {
      recovery_->host_written(datum);
    }
  }
  int live_count() const { return static_cast<int>(live_.size()); }
  std::uint64_t* append_counter(const Datum* datum, int slot);
  TaskPartition derive_partition(const std::vector<PatternSpec>& specs,
                                 const Work* work, int slots_eff) const;
  void plan_copies_for(detail::PlanShape& shape, int slot, int pattern_index,
                       const SegmentReq& req,
                       const MemoryAnalyzer::Alloc& alloc);

  // --- Out-of-core mechanism (policy: residency.hpp) -------------------------
  /// Every residency change that frees a buffer invalidates in-flight
  /// commands and cached plans: drain the node and drop the plan cache.
  void invalidate_plans();
  /// Spills Residency's victims (pooled window temporaries first) on every
  /// segment's slot until the task's datums fit; throws OutOfCoreError when
  /// they cannot.
  void enforce_budget(const std::vector<PatternSpec>& specs, int slots_eff);
  /// The residency half of a streamed task, run before the cache lookup on
  /// builds and replays alike: drains the node, flushes the inputs' dirty
  /// rows to the host and evicts the stream victims (and pooled temporaries
  /// that no longer fit) on every segment's slot, recording each segment's
  /// pinned bytes in stream_pinned_.
  void prepare_stream(const std::vector<PatternSpec>& specs,
                      const std::vector<std::vector<SegmentReq>>& reqs,
                      const char* label);
  /// Writes one (datum, slot) allocation's dirty rows back to the bound host
  /// buffer, marks the holding spilled, resets the location's ordering maps
  /// and frees the buffer. Callers first quiesce in-flight work and drop the
  /// plan cache (invalidate_plans), once per wave of evictions.
  void spill_allocation(const Datum* datum, int slot);
  /// Makes the bound host buffer authoritative for every row of `datum`
  /// (d2h of whatever the monitor says the host is missing).
  void flush_datum_to_host(Datum* datum);

  /// True when plan builds should route copies through the transfer planner
  /// (forced host staging prescribes every route, leaving nothing to plan).
  bool planner_active() const {
    return settings_.transfer_planner && !settings_.force_host_staged;
  }

  /// Dependency state of a datum at one location (0 = host): which event
  /// made each row range available (GLOBAL rows, range-granular to keep
  /// boundary exchanges parallel) and reader/writer ordering (LOCAL buffer
  /// rows). Plans hold stable pointers into both, so resets happen in place.
  struct Ordering {
    IntervalEventMap avail;
    AccessIntervalMap access;
  };
  Ordering& ordering(const Datum* datum, int loc) {
    return ordering_[{datum->key(), loc}];
  }

  /// The execution backend's worker pool, or null on the sequential path.
  ThreadPool* exec_pool();
  /// Copies the pool counters into stats_.exec (no-op when sequential).
  void refresh_exec_stats() const;

  sim::Node& node_;
  std::vector<int> devices_;
  std::vector<detail::SlotStreams> streams_;
  MemoryAnalyzer analyzer_;
  SegmentLocationMonitor monitor_;
  TransferPlanner planner_;
  /// Slots still alive. All partitioning/segmentation indexes SEGMENTS
  /// [0, live_count()) which map to physical slots through this vector
  /// (ascending unless placement reordered it); per-device resources
  /// (streams, ordering maps, the location monitor) stay physically indexed.
  std::vector<int> live_;
  std::unordered_map<std::pair<const void*, int>, Ordering, PtrIntPairHash>
      ordering_;
  /// Dynamic (Append) outputs: per-slot append counters, and the rows the
  /// last Gather produced.
  struct AppendCounts {
    std::shared_ptr<std::vector<std::uint64_t>> per_slot;
    std::shared_ptr<std::size_t> gathered;
  };
  std::unordered_map<const void*, AppendCounts> append_counts_;
  /// ReduceScatter staging per (datum, target * slots + source): source ==
  /// target is the target's own sum staging, any other source the staging
  /// of the in-pair pre-combine on that combiner.
  std::unordered_map<std::pair<const void*, int>, sim::Buffer*, PtrIntPairHash>
      staging_;
  detail::PlanCache cache_;
  /// The fingerprint's settings words, refilled per lookup.
  std::vector<std::uint64_t> config_;
  /// Per segment of the streamed task being planned: bytes of residents its
  /// windows must fit beside (Residency::stream_victims).
  std::vector<std::size_t> stream_pinned_;
  /// The dispatch in flight: every build and replay wires it and dispatch
  /// consumes it, so its vectors keep their capacity from task to task.
  detail::TaskPlan plan_;
  /// Stream of each event's first record issued by issue_commands, indexed
  /// by event - recorded_base_ (-1: none). Cleared by WaitAll; a missing
  /// entry only keeps a wait.
  std::vector<sim::StreamId> recorded_on_;
  sim::EventId recorded_base_ = 0;
  /// The arguments of the routine launch in flight, refilled per launch (a
  /// routine's reference to them ends with its call).
  RoutineArgs routine_args_;
  /// mutable: stats() refreshes the exec-pool counters on read.
  mutable SchedulerStats stats_;
  /// First exception raised while issuing commands; WaitAll rethrows it.
  std::exception_ptr issue_error_;
  std::unique_ptr<AccessSanitizer> sanitizer_; ///< null = disabled
  CopyFaultHook copy_fault_hook_;
  std::unique_ptr<detail::Recovery> recovery_; ///< null = fault tolerance off
  detail::Residency residency_;
  /// Planning settings a plan bakes in, all part of its fingerprint
  /// (placement through the live_ order it picks).
  struct Settings {
    bool force_host_staged = false;
    bool transfer_planner = true;
    bool overlap = true;
    bool placement = false;
    /// 4 MiB: small enough that a GEMM stripe pipelines through a fan-out
    /// tree in ~16 pieces, large enough that per-copy latency stays
    /// negligible.
    std::size_t copy_chunk_bytes = 4u << 20;
  } settings_;
  TaskHandle next_task_ = 1;

  /// Parallel execution backend (declared last: the destructor body also
  /// tears it down explicitly after unhooking the node, so no deferred body
  /// can outlive the pool).
  unsigned exec_threads_ = 0;
  std::unique_ptr<detail::ExecBackend> exec_backend_;
};

} // namespace maps::multi

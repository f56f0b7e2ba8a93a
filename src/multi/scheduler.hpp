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
// Steady-state plan caching: the paper's loops (GoL steps, training epochs,
// NMF iterations) issue thousands of identically shaped tasks, and the
// sub-1% host overhead budget of §5.3 (Table 4) only holds if Invoke does
// not replan each of them from scratch. Tasks are fingerprinted by their
// pattern specs, Work and CostHints; a cached plan is replayed when every
// referenced datum's location state matches the state captured at plan time
// (see SegmentLocationMonitor::epoch / state_snapshot). A replay skips
// partitioning, requirement computation, allocation lookup and Algorithm-2
// copy planning, re-wiring only the per-task simulator events and the cheap
// post-task location updates. This is the command-graph-reuse idea of
// Celerity and Lightning's plan-once/execute-many, applied to Algorithm 1.
//
// Public API follows the paper's Table 2: AnalyzeCall, Invoke,
// InvokeUnmodified, Gather, GatherAsync, Wait, WaitAll.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
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
#include "multi/routine.hpp"
#include "multi/sanitizer.hpp"
#include "multi/segmenter.hpp"
#include "multi/task_cost.hpp"
#include "multi/transfer_planner.hpp"

namespace maps::multi {

using TaskHandle = std::uint64_t;

/// Thrown when the device-memory budget cannot be honoured: a task needs more
/// device memory than the budget even with every evictable resident spilled,
/// or its streamed form cannot fit a single window (budget smaller than one
/// segment's working set), or its shape cannot be streamed at all. The what()
/// string names the offending datum/slot and the relevant byte counts.
class OutOfCoreError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

namespace detail {

template <typename A>
concept PatternArg = requires(const A& a) {
  { a.spec() } -> std::convertible_to<PatternSpec>;
};

template <typename A> struct is_constant : std::false_type {};
template <typename T> struct is_constant<Constant<T>> : std::true_type {};
template <typename A>
inline constexpr bool is_constant_v = is_constant<std::decay_t<A>>::value;

// HasAppendCounter lives in kernel_exec.hpp (the chunked sweep needs it too).

/// Worker-pool-backed sim::FunctionalExecutor (scheduler.cpp): defers each
/// device's kernel body onto the shared ThreadPool so functional sweeps
/// overlap across devices while the event loop keeps scheduling.
class ExecBackend;

} // namespace detail

/// Host-side scheduler cost/health counters (introspection API). Times are
/// host wall-clock (std::chrono), NOT simulated time: the cache changes how
/// much work the host does per Invoke, never what the simulator computes.
struct SchedulerStats {
  /// Full Algorithm-1 planning passes of in-core tasks (streamed tasks are
  /// counted by spill.streamed_tasks).
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
  struct RecoveryStats {
    std::uint64_t devices_lost = 0;
    /// Victim segments (or segment chunks) re-executed on survivors:
    /// structured repairs count one per chunk, aggregation repairs one per
    /// re-executed partial.
    std::uint64_t segments_reexecuted = 0;
    /// Input fills of re-executed segments served from the host mirrors
    /// instead of the (dead) device the original plan used.
    std::uint64_t copies_rerouted = 0;
    /// Victim segments that needed no repair because the host already held
    /// their rows: one per datum the victim had spilled under the memory
    /// budget (the write-back precedes every eviction, so the rows are
    /// host-resident by construction), plus losses whose structured repair
    /// was skipped because the host covered every output row of the
    /// victim's segment — spilled segments are restored from the host,
    /// never re-executed.
    std::uint64_t segments_restored_from_host = 0;
    /// Simulated time spent draining + repairing, in simulated microseconds.
    double recovery_sim_us = 0.0;
  } recovery;
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
                    BodyFactory{}, std::move(routine), context,
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
  void set_force_host_staged(bool on) { force_host_staged_ = on; }

  /// Cost-based transfer routing (transfer_planner.hpp; on by default).
  /// When disabled, copies use Algorithm 2's positional source choice
  /// unrouted — simulated *results* are identical either way, only the
  /// simulated timeline changes. The setting is part of the plan-cache
  /// fingerprint, so toggling it mid-run never replays a plan routed under
  /// the other setting.
  void set_transfer_planner_enabled(bool on) {
    transfer_planner_enabled_ = on;
  }
  bool transfer_planner_enabled() const { return transfer_planner_enabled_; }

  /// Compute–transfer overlap (on by default): splits each per-device MAPS
  /// kernel into an interior sub-kernel that never waits on halo traffic
  /// plus boundary strips gated only on their own halo copies, and chunks
  /// large inferred copies into row ranges so row-granular consumers start
  /// as soon as their chunk lands. Simulated *results* are bit-identical on
  /// or off — strips partition the block rows and write disjoint rows — only
  /// the simulated timeline changes. Part of the plan-cache fingerprint.
  void set_overlap_enabled(bool on) { overlap_enabled_ = on; }
  bool overlap_enabled() const { return overlap_enabled_; }
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
  void set_placement_enabled(bool on) { placement_enabled_ = on; }
  bool placement_enabled() const { return placement_enabled_; }
  /// Row-range chunking threshold for large inferred copies, in bytes
  /// (0 disables chunking; only applies while overlap is enabled).
  void set_copy_chunk_bytes(std::size_t bytes) { copy_chunk_bytes_ = bytes; }
  std::size_t copy_chunk_bytes() const { return copy_chunk_bytes_; }

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
  std::size_t device_memory_budget() const { return device_memory_budget_; }
  /// Streamed-pass prefetch (on by default): the refill of window p+1 is
  /// issued as soon as window p-1's drain frees its double buffer, so it
  /// overlaps window p's kernel. Off serializes each window's evict-then-
  /// refill (the naive baseline bench/out_of_core compares against).
  /// Results are bit-identical either way; only the timeline changes.
  void set_spill_prefetch_enabled(bool on) { spill_prefetch_ = on; }
  bool spill_prefetch_enabled() const { return spill_prefetch_; }

  std::uint64_t tasks_scheduled() const { return next_task_ - 1; }

  // --- Plan cache & stats ---------------------------------------------------

  /// Steady-state plan caching: LRU bound on distinct cached task shapes
  /// (64 by default). 0 disables caching, so every Invoke replans from
  /// scratch; simulated results are identical either way.
  void set_plan_cache_capacity(std::size_t n);
  std::size_t plan_cache_capacity() const { return plan_cache_capacity_; }
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
  bool fault_tolerance_enabled() const { return fault_tolerance_; }
  /// Installs a device-loss injector (fault_injector.hpp), consulted per
  /// live slot at CopiesIssued/KernelIssued boundaries of every MAPS-kernel
  /// dispatch and at PreGather on Gather entry. At most one kill fires per
  /// dispatch. Requires fault tolerance to recover; pass nullptr to clear.
  void set_fault_injector(FaultInjector injector) {
    injector_ = std::move(injector);
  }
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
  /// Slots still alive, in ascending order (all slots before any loss).
  const std::vector<int>& live_devices() const { return live_; }
  bool device_lost(int slot) const {
    return dead_.at(static_cast<std::size_t>(slot));
  }

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
  /// Test-only fault injection: the hook sees every planned copy of every
  /// dispatch (build or replay) and returns true to silently DROP it — the
  /// simulator never executes the transfer, while the location monitor and
  /// plan cache still believe it happened. This simulates a transfer-
  /// inference bug; with the sanitizer enabled the resulting stale read is
  /// reported with the exact rectangle.
  using CopyFaultHook = std::function<bool(const CopyFaultInfo&)>;
  void set_copy_fault_hook(CopyFaultHook hook) {
    copy_fault_hook_ = std::move(hook);
  }
  /// Live entries across all availability/access interval maps. Bounded in
  /// steady state (coalesced storage); unbounded growth here means a
  /// dependency-tracking leak.
  std::size_t live_dependency_intervals() const;

private:
  /// One planned data movement. Everything here is STRUCTURAL — a function of
  /// the task shape and the location-monitor state at build time — so a
  /// cached plan shares it read-only across replays; the per-dispatch event
  /// wiring lives in the parallel CopyWiring. The interval-map pointers are
  /// resolved once at build time (unordered_map values are address-stable and
  /// never erased), saving a hash lookup per map per dispatch.
  struct PlannedCopy {
    int pattern_index = 0;
    bool zero_fill = false;
    bool whole_buffer = false; ///< zero fill of the entire allocation
    bool aligned = false; ///< rows land at their global position (see below)
    int src_location = 0;
    int dst_location = 0;
    /// Planner path override: bounce this in-node device->device copy
    /// through host RAM (see SegmentLocationMonitor::CopyOp::via_host).
    bool via_host = false;
    Datum* datum = nullptr;
    RowInterval rows;      ///< GLOBAL rows copied (empty for zero fills)
    RowInterval dst_local; ///< destination rows in LOCAL buffer coordinates
    RowInterval src_local; ///< source rows in the source's LOCAL coordinates
    // Resolved addresses:
    sim::Buffer* dst_buffer = nullptr;
    std::size_t dst_offset = 0;
    sim::Buffer* src_buffer = nullptr; ///< null when source is the host
    std::size_t src_offset = 0;
    const std::byte* src_host = nullptr;
    std::byte* dst_host = nullptr; ///< set for a streamed window's drain
    std::size_t bytes = 0;
    // Dependency-tracking maps this copy consults (null for zero fills
    // except dst_access, and for every copy of a streamed device — the node
    // is drained around those):
    IntervalEventMap* src_avail = nullptr;
    IntervalEventMap* dst_avail = nullptr;
    AccessIntervalMap* src_access = nullptr;
    AccessIntervalMap* dst_access = nullptr;
  };

  /// Fresh-per-dispatch event wiring of one PlannedCopy. The wait list is a
  /// range of the owning DeviceWiring's flat wait_pool — one allocation per
  /// device per dispatch instead of one per copy.
  struct CopyWiring {
    std::uint32_t wait_begin = 0;
    std::uint32_t wait_end = 0;
    sim::EventId done = 0;
    bool dropped = false; ///< Fault injection: copy suppressed this dispatch.
  };

  /// Post-task location/ordering effects of one pattern on one device,
  /// recorded at build time so a replay can re-apply them without recomputing
  /// segment requirements.
  struct PatternPost {
    bool active = false;
    bool is_input = true;
    bool private_copy = false;
    Datum* datum = nullptr;
    RowInterval core;       ///< GLOBAL rows this device owns for the pattern
    RowInterval core_local; ///< same, in LOCAL buffer rows
    RowInterval produced;   ///< GLOBAL rows the kernel makes up to date
    RowInterval local_span; ///< whole local buffer (what an input reads)
    IntervalEventMap* avail = nullptr;  ///< this device's availability map
    AccessIntervalMap* access = nullptr; ///< this device's ordering map
    // The kernel's input read rectangles in GLOBAL datum rows, split by
    // whether they land at their global position (see split_read_rows).
    // Structural (a function of the task shape), so cached plans carry them
    // through replays — which is exactly where the sanitizer needs them.
    std::vector<RowInterval> reads;
    std::vector<RowInterval> halo_reads;
  };

  /// Rows one strip touches for one pattern, precomputed at build time
  /// (structural, shared through replays). Empty intervals mean the pattern
  /// is inactive on the device or untouched by the strip.
  struct StripSpan {
    RowInterval read_local; ///< input rows read, LOCAL (alloc) coordinates
    /// Input rows read at their global position, GLOBAL datum rows: the
    /// rows whose availability the strip waits on.
    std::vector<RowInterval> read_global;
    RowInterval out_local;  ///< output rows written, LOCAL coordinates
    RowInterval out_global; ///< output rows made up to date, GLOBAL rows
  };

  /// One launch of an in-core device: the whole device grid (S = 1), or
  /// one interior or boundary strip of a split device (S >= 2) whose grid is
  /// narrowed to the strip's block rows, so the same body factory produces a
  /// bit-identical partial sweep, with the device launch stats scaled by the
  /// strip's block-row share.
  struct SubKernel {
    maps::GridContext grid;
    bool boundary = false;
    sim::LaunchStats stats;
    std::vector<StripSpan> spans;          ///< parallel to PlanShape::specs
    /// Indices into DevicePlan::copies whose destination rows overlap this
    /// strip's reads — the only transfers the strip waits for (ascending;
    /// every copy for S = 1).
    std::vector<std::uint32_t> copy_waits;
    std::uint32_t wait_hint = 0; ///< build-time wait count, replay reserve()
  };

  /// What one launch binds: its grid, cost and per-pattern operands — the
  /// kernel views and the buffers behind them (null = inactive), parallel to
  /// PlanShape::specs. Routine parameters and segments derive from them.
  struct LaunchBinding {
    maps::GridContext grid;
    sim::LaunchStats stats;
    std::vector<DeviceView> views;
    std::vector<sim::Buffer*> buffers;
  };

  /// One row-window pass of a streamed device (DESIGN.md §5.16): the device
  /// grid narrowed to the window's block rows, bound to the window's
  /// ping-pong temporaries and the persistent operands. Its host refills and
  /// drains are the ranges [refill_begin, drain_begin) and
  /// [drain_begin, drain_end) of DevicePlan::copies.
  struct WindowPass : LaunchBinding {
    std::uint32_t refill_begin = 0;
    std::uint32_t drain_begin = 0;
    std::uint32_t drain_end = 0;
  };

  /// A device's share of a task. The binding describes the whole segment;
  /// an in-core device launches it as S >= 1 strips, a streamed device as
  /// W >= 1 row-window passes.
  struct DevicePlan : LaunchBinding {
    bool active = false;
    std::vector<PlannedCopy> copies;
    std::vector<PatternPost> post;
    /// In-core strips (empty = streamed): one launch of the whole device
    /// grid, or interior/boundary strips in ascending block-row order with
    /// at most one interior strip.
    std::vector<SubKernel> sub;
    /// Row-window passes (empty = in-core). Copies before the first refill
    /// fill persistent operands; outputs rest on the host (`post` inactive).
    std::vector<WindowPass> windows;
    /// Build-time wait-pool size, used as a reserve() hint on replay.
    std::uint32_t wait_pool_hint = 0;
  };

  /// Per-dispatch event wiring of one strip.
  struct StripWiring {
    std::vector<sim::EventId> waits;
    sim::EventId done = 0;
  };

  /// Per-dispatch event wiring of one device: copy dependencies and the
  /// strip ordering events, all recreated for every Invoke.
  struct DeviceWiring {
    std::vector<sim::EventId> wait_pool; ///< flattened per-copy wait lists
    std::vector<CopyWiring> copies;      ///< parallel to DevicePlan::copies
    std::vector<StripWiring> strips;     ///< parallel to DevicePlan::sub
    /// Streamed device: 3 x W consecutive events — per window, inputs
    /// ready, kernel done and drain done.
    sim::EventId window_events = 0;
  };

  /// The immutable product of one full Algorithm-1 planning pass. Shared
  /// (read-only) between the plan cache and every replayed dispatch, so a
  /// cache hit never copies specs, views or copy lists.
  struct PlanShape {
    std::vector<PatternSpec> specs;
    /// Per-spec datum dimensions, captured at plan time so routine launches
    /// never read a Datum.
    std::vector<std::vector<std::size_t>> dims;
    TaskPartition partition;
    int active_slots = 0;
    std::vector<DevicePlan> devices;
    /// Transfer accounting of this task's planned copies (routing + byte
    /// attribution). Structural like everything else here: a replayed plan
    /// dispatches the same transfers, so it re-contributes the same stats.
    TransferStats transfers;
    /// Refills of previously spilled rows among this task's planned copies
    /// (their routing/byte attribution lands here instead of `transfers`).
    SpillStats spill;
    /// Strips of split (S >= 2) devices.
    std::uint32_t interior_launches = 0;
    std::uint32_t boundary_launches = 0;
    /// Out-of-core: the devices run row-window passes, dispatched
    /// synchronously and never cached, under the `prefetch` setting;
    /// the dispatch frees `window_temps` once the node drains.
    bool streamed = false;
    bool prefetch = false;
    std::vector<sim::Buffer*> window_temps;
  };

  struct TaskPlan {
    TaskHandle handle = 0;
    std::shared_ptr<const PlanShape> shape;
    std::vector<DeviceWiring> wiring; ///< parallel to shape->devices
  };

  // --- Plan cache -----------------------------------------------------------

  /// Canonical word encoding of everything the planning pass depends on
  /// besides location-monitor state: per-spec pattern descriptors and datum
  /// identity/shape, Work, CostHints and the cost label.
  struct PlanFingerprint {
    std::vector<std::uint64_t> words;
    std::uint64_t hash = 0;
    friend bool operator==(const PlanFingerprint& a, const PlanFingerprint& b) {
      return a.hash == b.hash && a.words == b.words;
    }
  };
  struct FingerprintHash {
    std::size_t operator()(const PlanFingerprint& fp) const {
      return static_cast<std::size_t>(fp.hash);
    }
  };

  /// Location-monitor state of one referenced datum, captured immediately
  /// before the build's own mutations. `epoch` equality is the O(1) fast
  /// path; steady-state loops cycle the monitor through a periodic state
  /// sequence, so on epoch mismatch the exact snapshot decides and, on
  /// match, re-arms the stored epoch.
  struct DatumCapture {
    const Datum* datum = nullptr;
    const void* host_ptr = nullptr; ///< bound buffer; re-Bind invalidates
    mutable std::uint64_t epoch = 0;
    std::vector<std::uint64_t> snapshot;
  };

  /// Post-build location state of one referenced datum. Replay restores it
  /// wholesale: the hit proved the pre-states equal, so the post-state is
  /// the same deterministic function of (plan, pre-state) — recomputing it
  /// through mark_copied / mark_written per replay would be pure waste.
  struct DatumPostState {
    const Datum* datum = nullptr;
    SegmentLocationMonitor::StateCopy state;
  };

  /// One cached plan shape together with the monitor state it was built
  /// under (`captures`, the validity oracle) and the state it left behind
  /// (`post_state`, applied on replay).
  struct CacheEntry {
    std::shared_ptr<const PlanShape> shape;
    std::vector<DatumCapture> captures;
    std::vector<DatumPostState> post_state;
  };

  /// All cached variants of one fingerprint. A task shape that is invoked
  /// from several points of a loop body sees a different (but per-site
  /// periodic) monitor state at each site — e.g. NMF calls the same V-tilde
  /// task before and after MarkHostModified(H). A single entry would
  /// ping-pong between the sites and never hit, so each fingerprint keeps a
  /// small MRU-ordered set of state variants.
  struct CacheSlot {
    std::vector<CacheEntry> variants; ///< front = most recently used
    std::list<PlanFingerprint>::iterator lru_it;
  };
  static constexpr std::size_t kVariantsPerFingerprint = 4;

  using BodyFactory = std::function<std::function<void()>(
      int slot, const maps::GridContext&, const std::vector<DeviceView>&)>;

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
  /// Segments a task spans: 1 for single-device work, else every live slot.
  int slots_for(const std::vector<PatternSpec>& specs, const Work* work) const;
  /// Plans one task from the plan cache or through build_plan; under a
  /// memory budget it first decides whether the task must stream.
  std::shared_ptr<TaskPlan> plan_task(std::vector<PatternSpec> specs,
                                      const Work* work, const CostHints& hints,
                                      const char* label, bool splittable);
  /// One full Algorithm-1 planning pass; `streamed` plans every active
  /// device as W >= 1 row-window passes (plan_windows).
  std::shared_ptr<TaskPlan> build_plan(std::vector<PatternSpec> specs,
                                       const Work* work,
                                       const CostHints& hints,
                                       const char* label, bool splittable,
                                       bool streamed);
  std::shared_ptr<TaskPlan> replay_plan(const CacheEntry& entry);
  /// Hands out a TaskPlan for replay, recycling retired ones: the custom
  /// deleter returns the object to `plan_free_` when dispatch drops the last
  /// reference, so steady-state replays reuse wiring vectors at full
  /// capacity instead of allocating. Only replay plans carry the deleter;
  /// build_plan's plans are freed normally.
  std::shared_ptr<TaskPlan> acquire_replay_plan();
  static bool cacheable(const std::vector<PatternSpec>& specs);
  PlanFingerprint fingerprint(const std::vector<PatternSpec>& specs,
                              const Work* work, const CostHints& hints,
                              const char* label, bool splittable) const;
  std::vector<DatumCapture>
  capture_datums(const std::vector<PatternSpec>& specs) const;
  std::vector<DatumPostState>
  capture_post_states(const std::vector<PatternSpec>& specs,
                      const std::vector<DatumCapture>& pre) const;
  bool captures_valid(const std::vector<DatumCapture>& captures) const;
  void cache_insert(PlanFingerprint fp, std::shared_ptr<const PlanShape> shape,
                    std::vector<DatumCapture> captures,
                    std::vector<DatumPostState> post_state);
  /// (Re)wires one planned copy against the CURRENT dependency state: fresh
  /// waits, the given done event, and the availability side effects of
  /// issuing it. Shared verbatim by build and replay so both produce the
  /// same command sequence; only the build updates the location monitor
  /// (replay restores the captured post-state in one step instead).
  void wire_copy(const PlannedCopy& c, DeviceWiring& dw, CopyWiring& w,
                 sim::EventId done, bool update_monitor);
  /// Applies the post-task ordering state for one device from the plan's
  /// PatternPost records (kernel reads/writes); the build also applies the
  /// monitor marks.
  void commit_post_state(const DevicePlan& dp, const DeviceWiring& dw,
                         int slot, bool update_monitor);
  /// Structural eligibility for interior/boundary splitting: every pattern
  /// PartitionAligned (1/1 row scale) or a replicated input, no aggregating
  /// outputs, and at least one windowed (radius > 0) partitioned input to
  /// overlap against.
  static bool overlap_eligible(const std::vector<PatternSpec>& specs);
  /// Cost gate: a split pays off only when the estimated halo-exchange
  /// chain outlasts the launch overhead of two extra strips.
  bool overlap_profitable(const std::vector<PatternSpec>& specs) const;
  /// Build-side strip construction for one in-core device. Fewer than two
  /// `ranges` give the S = 1 strip: the device grid and stats, gated on
  /// every copy, with spans taken from the PatternPost records. Otherwise
  /// one strip per range: narrowed grids, per-pattern read/write spans,
  /// copy gating and scaled launch stats.
  void build_strips(PlanShape& shape, DevicePlan& dp, int seg,
                    const std::vector<SegmentReq>& reqs,
                    const std::vector<const MemoryAnalyzer::Alloc*>& allocs,
                    const std::vector<StripRange>& ranges);
  /// (Re)wires an in-core device's strips against the CURRENT dependency
  /// state: copy-done gates, availability of aligned reads, WAR on written
  /// rows. Shared verbatim by build and replay; strips consume consecutive
  /// event ids starting at `first`.
  void wire_strips(const DevicePlan& dp, DeviceWiring& dw, sim::EventId first);
  /// Accumulates a dispatched plan's per-shape counters into stats_ (shared
  /// by the build, cache-hit and cache-miss paths of plan_task).
  void account_dispatch(const PlanShape& shape);
  /// Registers pending aggregations for Reductive/Unstructured outputs
  /// (build only) and resets append counters.
  void commit_aggregations(const PlanShape& shape, bool update_monitor);
  /// Offers every planned copy to the fault hook (sets CopyWiring::dropped).
  void apply_copy_faults(TaskPlan& plan);
  /// Advances the sanitizer's shadow version map by this dispatch's copies,
  /// reads, writes and aggregations, in program order. Runs before the
  /// plan's commands are issued, for builds and replays alike.
  void sanitize_dispatch(const TaskPlan& plan);
  /// The task's cost label, for diagnostics.
  static const char* task_label(const PlanShape& shape);
  /// Hands a planned MAPS kernel (`factory`) or unmodified routine to the
  /// devices; a streamed plan also drains the node before returning.
  TaskHandle dispatch(std::shared_ptr<TaskPlan> plan,
                      const BodyFactory& factory, UnmodifiedRoutine routine,
                      void* context,
                      std::vector<std::vector<std::byte>> consts);
  /// `bodies`: one kernel body per launch (none for routines).
  /// `copies_only` truncates the device's commands after its inferred input
  /// copies (a streamed device's persistent fills): no strips or windows,
  /// no strip-done records. Used to model a CopiesIssued device loss
  /// (the victim received its inputs but never computed); safe because
  /// recovery resets the victim's ordering maps before any survivor could
  /// wait on the unrecorded events.
  void enqueue_device_commands(
      const TaskPlan& plan, int slot,
      std::vector<std::function<void()>> bodies,
      const UnmodifiedRoutine& routine, void* context,
      const std::vector<std::vector<std::byte>>& consts,
      bool copies_only = false);
  /// Appends operand `core` of `datum`, held in `buffer` as virtual rows
  /// [origin, origin + rows), to the binding; a null `buffer` appends an
  /// inactive operand.
  static void bind_operand(LaunchBinding& b, const Datum* datum,
                           RowInterval core, sim::Buffer* buffer, long origin,
                           std::size_t rows);
  /// Issues one planned copy (or zero fill) on `stream`.
  void issue_copy(sim::StreamId stream, const PlannedCopy& c);
  /// Launches one binding on `stream` at cost `stats`: the kernel body, or
  /// the routine over parameters and segments built from the binding's
  /// operands.
  void launch_binding(sim::StreamId stream, int slot, const LaunchBinding& b,
                      const sim::LaunchStats& stats,
                      const std::vector<std::vector<std::size_t>>& dims,
                      std::function<void()> body,
                      const UnmodifiedRoutine& routine, void* context,
                      const std::vector<std::vector<std::byte>>& consts);
  // --- Fault tolerance (scheduler_recovery in scheduler.cpp) ---------------
  /// Records last_task_ and the per-datum aggregation logs for one dispatch
  /// (factory is null for unmodified routines — they cannot be re-executed
  /// per segment, so a mid-routine loss is unrecoverable).
  void record_task_logs(const std::shared_ptr<TaskPlan>& plan,
                        const BodyFactory& factory);
  /// Enqueues async d2h mirrors of every active non-private output's core
  /// rows to the bound host buffers (fault-tolerance mode). `skip_slot`
  /// suppresses the mirror of a just-killed victim (-1 = none).
  void enqueue_host_mirrors(const TaskPlan& plan, int skip_slot);
  /// Mirrors `rows` of (datum, slot) to the bound host buffer once `waits`
  /// fire, making the host a holder of the rows.
  void mirror_to_host(const Datum* datum, int slot,
                      const MemoryAnalyzer::Alloc& alloc, RowInterval rows,
                      std::vector<sim::EventId> waits);
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
  /// Issues a d2h copy (after `waits`, recording `done`) on `slot` and
  /// accounts it in the run's transfer totals.
  void submit_to_host(int slot, sim::StreamId stream,
                      std::vector<sim::EventId> waits, std::byte* dst,
                      sim::Buffer* src, std::size_t src_off, std::size_t bytes,
                      sim::EventId done);
  /// Drain-completes device loss: flushes + synchronizes, marks the slot
  /// dead, invalidates its holdings/plans/ordering state, clears the plan
  /// cache, then re-executes the victim's unfinished work on survivors.
  void recover_device(int victim, KillStage stage);
  /// Re-runs the victim's lost segment of the last dispatched task, chunked
  /// across survivors, from the host mirrors; writes results to the host.
  void repair_structured(int victim, KillStage stage,
                         std::vector<sim::Buffer*>& temps);
  /// Re-computes the victim's pending aggregation partials (Reductive Sum)
  /// on a surviving writer and folds them into that survivor's partial.
  void repair_aggregations(int victim, std::vector<sim::Buffer*>& temps);
  /// A repair temporary on `slot` holding `req`'s rows of `spec`, filled from
  /// the host mirrors. `pre_task_core`: the lost task wrote the datum in
  /// place, so its host rows are usable only inside the victim's core.
  sim::Buffer* stage_from_host(const PatternSpec& spec, const SegmentReq& req,
                               int slot, sim::StreamId stream,
                               std::vector<sim::Buffer*>& temps,
                               bool pre_task_core);
  int live_count() const { return static_cast<int>(live_.size()); }
  std::uint64_t* append_counter(const Datum* datum, int slot);
  TaskPartition derive_partition(const std::vector<PatternSpec>& specs,
                                 const Work* work, int slots_eff) const;
  void plan_copies_for(PlanShape& shape, DeviceWiring& dw, int slot,
                       int pattern_index, const SegmentReq& req,
                       const MemoryAnalyzer::Alloc& alloc);

  // --- Out-of-core execution (DESIGN.md §5.16) ------------------------------
  /// Every residency change invalidates in-flight commands and cached plans:
  /// drain the node and drop the plan cache.
  void invalidate_plans();
  /// Budget enforcement for in-core builds (called from build_plan before
  /// allocations materialize): evicts least-recently-touched residents the
  /// task does not reference, per active slot, until the task's datums fit.
  /// Throws OutOfCoreError when they cannot.
  void enforce_budget(const std::vector<PatternSpec>& specs, int slots_eff);
  /// Writes one (datum, slot) allocation's dirty rows back to the bound host
  /// buffer, marks the holding spilled, resets the location's ordering maps
  /// and frees the buffer. The first eviction of a wave quiesces in-flight
  /// work and drops the plan cache (`quiesced`); later ones reuse the drain.
  void spill_allocation(const Datum* datum, int slot, bool& quiesced);
  /// Makes the bound host buffer authoritative for every row of `datum`
  /// (d2h of whatever the monitor says the host is missing).
  /// Streamed plans flush their inputs through this before windowing.
  void flush_datum_to_host(Datum* datum);
  /// Spill-accounted d2h of `rows` of `datum` from `slot`'s allocation to
  /// the bound host buffer; the host becomes a holder of the rows.
  void write_back(const Datum* datum, int slot,
                  const MemoryAnalyzer::Alloc& alloc, RowInterval rows);
  /// Forgets the ordering state of (datum, location) after its buffer is
  /// dropped (plans hold stable pointers into the maps, so reset in place).
  void reset_ordering(const Datum* datum, int loc);
  /// Throws OutOfCoreError, naming the cause, for task shapes the window
  /// decomposition cannot stream.
  void check_streamable(const PlanShape& shape,
                        const std::vector<std::vector<SegmentReq>>& reqs,
                        const char* label) const;
  /// Plans one streamed device: persistent-operand fills, window size (two
  /// windows fit beside `persistent_bytes` of residents) and every
  /// window's refills, binding and drains.
  void plan_windows(PlanShape& shape, DevicePlan& dp, DeviceWiring& dw,
                    int seg, const std::vector<SegmentReq>& reqs,
                    std::size_t persistent_bytes, const char* label);

  /// True when plan builds should route copies through the transfer planner
  /// (forced host staging prescribes every route, leaving nothing to plan).
  bool planner_active() const {
    return transfer_planner_enabled_ && !force_host_staged_;
  }

  /// The execution backend's worker pool, or null on the sequential path.
  ThreadPool* exec_pool();
  /// Copies the pool counters into stats_.exec (no-op when sequential).
  void refresh_exec_stats() const;

  sim::Node& node_;
  std::vector<int> devices_;
  std::vector<sim::StreamId> compute_streams_, copy_streams_, copy_streams2_;
  /// Dedicated per-device stream for reduce-scatter sum/combine kernels, so
  /// they wait only on their event dependencies (and the compute engine),
  /// not on stream order behind the device's whole kernel backlog.
  std::vector<sim::StreamId> reduce_streams_;
  /// Per-device stream for boundary strip sub-kernels: boundary strips wait
  /// on their halo copies without blocking the interior strip's launch on
  /// the main compute stream (they still share the compute engine).
  std::vector<sim::StreamId> boundary_streams_;
  MemoryAnalyzer analyzer_;
  SegmentLocationMonitor monitor_;
  TransferPlanner planner_;

  /// Which event made each row range of a datum available at a location
  /// (0=host); GLOBAL rows, range-granular to keep boundary exchanges
  /// parallel.
  std::unordered_map<std::pair<const void*, int>, IntervalEventMap,
                     PtrIntPairHash>
      avail_;
  /// Reader/writer ordering per (datum, location), in LOCAL buffer rows.
  std::unordered_map<std::pair<const void*, int>, AccessIntervalMap,
                     PtrIntPairHash>
      access_;
  /// Per-device append counters for dynamic outputs.
  std::unordered_map<const void*,
                     std::shared_ptr<std::vector<std::uint64_t>>>
      append_counts_;
  std::unordered_map<const void*, std::shared_ptr<std::size_t>>
      gathered_counts_;

  /// Staging buffers owned by ReduceScatter, cached per (datum, slot).
  std::unordered_map<std::pair<const void*, int>, sim::Buffer*, PtrIntPairHash>
      reduce_staging_;
  /// Staging for the in-pair pre-combine of the hierarchical reduce-scatter,
  /// cached per (datum, target * slots + combiner).
  std::unordered_map<std::pair<const void*, int>, sim::Buffer*, PtrIntPairHash>
      combine_staging_;

  /// Steady-state plan cache: fingerprint → state variants of (immutable
  /// plan, captured location state), LRU-bounded by fingerprint.
  std::unordered_map<PlanFingerprint, CacheSlot, FingerprintHash> cache_;
  std::list<PlanFingerprint> lru_; ///< front = most recently used
  std::size_t plan_cache_capacity_ = 64;
  /// mutable: stats() refreshes the exec-pool counters on read.
  mutable SchedulerStats stats_;

  /// Plan recycling: retired replay plans, returned by their deleter on the
  /// caller's thread. Reused plans keep their wiring vectors' capacity, so
  /// steady-state replays allocate nothing.
  std::vector<std::unique_ptr<TaskPlan>> plan_free_;
  /// First exception raised while issuing commands; WaitAll rethrows it.
  std::exception_ptr issue_error_;

  std::unique_ptr<AccessSanitizer> sanitizer_; ///< null = disabled
  CopyFaultHook copy_fault_hook_;

  // --- Fault tolerance state ------------------------------------------------
  bool fault_tolerance_ = false;
  FaultInjector injector_;
  /// Slots still alive, ascending. All partitioning/segmentation indexes
  /// SEGMENTS [0, live_count()) which map to physical slots through this
  /// vector; per-device resources (streams, ordering maps, the
  /// location monitor) stay physically indexed.
  std::vector<int> live_;
  std::vector<bool> dead_;
  /// The last dispatched MAPS-kernel task, kept so a mid-task loss can
  /// re-execute the victim's segment. Depth 1 suffices: host mirrors make
  /// every older result host-resident already.
  struct TaskLog {
    bool valid = false;
    std::shared_ptr<const PlanShape> shape;
    BodyFactory factory;
    std::vector<int> live; ///< live_ at dispatch (seg → slot map)
  };
  TaskLog last_task_;
  /// Per-datum log of the task that produced a still-pending aggregation,
  /// so a loss can re-run the victim's partial. Entries persist after the
  /// aggregation resolves (guarded by the monitor's pending record) and are
  /// overwritten by the next aggregating task on the datum.
  struct AggLog {
    const Datum* datum = nullptr;
    std::shared_ptr<const PlanShape> shape;
    BodyFactory factory; ///< null for routines (unrecoverable)
    std::vector<int> live;
    /// Host-content stamps of every input at dispatch: a repair is only
    /// sound while the mirrors still hold the values the task consumed.
    std::vector<std::pair<const void*, std::uint64_t>> input_stamps;
  };
  std::unordered_map<const void*, AggLog> agg_log_;
  /// Monotonic per-datum stamp of host-buffer content changes (mirrors,
  /// gathers, MarkHostModified, repairs). Cheap staleness guard for AggLog.
  std::unordered_map<const void*, std::uint64_t> host_content_stamp_;

  // --- Out-of-core state ----------------------------------------------------
  std::size_t device_memory_budget_ = 0; ///< bytes per device; 0 = unlimited
  bool spill_prefetch_ = true;
  /// LRU recency per (datum key, slot): bumped once per task reference on
  /// every live slot, read by enforce_budget's eviction ordering. Keys of
  /// destroyed datums linger harmlessly (never dereferenced).
  std::uint64_t touch_counter_ = 0;
  std::unordered_map<std::pair<const void*, int>, std::uint64_t,
                     PtrIntPairHash>
      last_touch_;

  bool force_host_staged_ = false;
  bool transfer_planner_enabled_ = true;
  bool overlap_enabled_ = true;
  bool placement_enabled_ = false;
  /// 4 MiB: small enough that a GEMM stripe pipelines through a fan-out tree
  /// in ~16 pieces, large enough that per-copy latency stays negligible.
  std::size_t copy_chunk_bytes_ = 4u << 20;
  TaskHandle next_task_ = 1;

  /// Parallel execution backend (declared last: the destructor body also
  /// tears it down explicitly after unhooking the node, so no deferred body
  /// can outlive the pool).
  unsigned exec_threads_ = 0;
  std::unique_ptr<detail::ExecBackend> exec_backend_;
};

} // namespace maps::multi

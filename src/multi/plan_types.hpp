// Plan types shared by the scheduler's modules (detail API; DESIGN.md
// §5.17): the immutable PlanShape one Algorithm-1 build produces and every
// replay shares, each active device lowered to one command list, and the
// per-dispatch wiring around it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/node.hpp"

#include "multi/interval_set.hpp"
#include "multi/memory_analyzer.hpp"
#include "multi/pattern_spec.hpp"
#include "multi/segmenter.hpp"
#include "multi/transfer_planner.hpp"

namespace maps::multi {

using TaskHandle = std::uint64_t;

namespace detail {

/// The streams a scheduler slot issues on.
struct SlotStreams {
  sim::StreamId compute = 0;
  sim::StreamId copy = 0;
  sim::StreamId copy2 = 0;
  /// Reduce-scatter sum/combine kernels: they wait only on their event
  /// dependencies (and the compute engine), not on stream order behind the
  /// device's whole kernel backlog.
  sim::StreamId reduce = 0;
  /// Boundary strip sub-kernels: they wait on their halo copies without
  /// blocking the interior strip's launch on the compute stream (they still
  /// share the compute engine).
  sim::StreamId boundary = 0;
};

/// One typed instruction of a device's command list (DESIGN.md §5.17). A build
/// lowers every active device once; its stream is fixed there and its
/// operand is plan-relative, so every dispatch of the plan, build or replay,
/// issues the same list against a freshly wired event block.
struct Command {
  enum Op : std::uint8_t {
    Copy,    ///< issue DevicePlan::copies[arg]
    Launch,  ///< launch DevicePlan::sub[arg]
    Record,  ///< record plan event `arg`
    Wait,    ///< wait on plan event `arg`
    /// Wait on the dispatch's wait set `arg`: what the next copy or launch
    /// needs from the ordering state (earlier tasks, other devices).
    WaitSet,
  };
  Op op = Copy;
  std::uint32_t arg = 0;
  sim::StreamId SlotStreams::*stream = &SlotStreams::compute;
};

/// Produces a MAPS kernel's body for one launch on `slot`.
using BodyFactory = std::function<std::function<void()>(
    int slot, const maps::GridContext&, const std::vector<DeviceView>&)>;

/// One planned data movement. Everything here is STRUCTURAL — a function of
/// the task shape and the location-monitor state at build time — so a
/// cached plan shares it read-only across replays; the per-dispatch event
/// wiring lives in TaskPlan. The interval-map pointers are resolved once at
/// build time (unordered_map values are address-stable and never erased),
/// saving a hash lookup per map per dispatch.
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
  std::uint32_t done = 0; ///< plan event recorded after an in-core copy
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

/// One kernel launch: the whole grid of an in-core device (S = 1), one
/// interior or boundary strip of a split device (S >= 2), or one row-window
/// pass of a streamed device. A strip's or window's grid is narrowed to its
/// block rows, so the same body factory produces a bit-identical partial
/// sweep, with the device launch stats scaled by its block-row share.
struct SubKernel {
  maps::GridContext grid;
  bool boundary = false;
  sim::LaunchStats stats;
  /// Parallel to PlanShape::specs. A window pass fills only read_global:
  /// the rows its refills bring into the window temporaries.
  std::vector<StripSpan> spans;
  std::uint32_t done = 0; ///< plan event recorded after the launch
};

/// The operands one launch binds: the kernel views and the buffers behind
/// them (null = inactive), parallel to PlanShape::specs. Routine parameters
/// and segments derive from them.
struct LaunchBinding {
  std::vector<DeviceView> views;
  std::vector<sim::Buffer*> buffers;
};

/// The operands of one row-window pass of a streamed device (DESIGN.md
/// §5.16): the window's ping-pong temporaries and the persistent operands.
/// Its host refills and drains are the ranges [refill_begin, drain_begin)
/// and [drain_begin, drain_end) of DevicePlan::copies.
struct WindowPass : LaunchBinding {
  std::uint32_t refill_begin = 0;
  std::uint32_t drain_begin = 0;
  std::uint32_t drain_end = 0;
};

/// A device's share of a task. The binding describes the whole segment;
/// an in-core device launches it as S >= 1 strips, a streamed device as
/// W >= 1 row-window passes, and `commands` says how.
struct DevicePlan : LaunchBinding {
  bool active = false;
  maps::GridContext grid;
  sim::LaunchStats stats;
  std::vector<PlannedCopy> copies;
  std::vector<PatternPost> post;
  /// Every launch, in issue order. In-core: the whole device grid, or
  /// interior/boundary strips in ascending block-row order with at most one
  /// interior strip. Streamed: one per window.
  std::vector<SubKernel> sub;
  /// Streamed: each window's operands (empty = in-core). Copies before the
  /// first refill fill persistent operands; outputs rest on the host
  /// (`post` inactive).
  std::vector<WindowPass> windows;
  /// The lowered command list, and where a CopiesIssued device loss cuts
  /// it: after the in-core copies and their records, or after a streamed
  /// device's persistent fills.
  std::vector<Command> commands;
  std::size_t cut = 0;

  /// Launch k's operands: its window's, else the device binding.
  const LaunchBinding& operands(std::size_t k) const {
    if (k < windows.size()) {
      return windows[k];
    }
    return *this;
  }
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
  /// Out-of-core: the devices run row-window passes through pooled window
  /// temporaries (Residency), and each dispatch ends by draining the node.
  /// Cached and replayed like an in-core plan.
  bool streamed = false;
  /// Plan events and wait sets the command lists name.
  std::uint32_t events = 0;
  std::uint32_t wait_sets = 0;
};

/// One dispatch of a shape: its wiring against the ordering state at
/// dispatch time.
struct TaskPlan {
  TaskHandle handle = 0;
  std::shared_ptr<const PlanShape> shape;
  sim::EventId events = 0; ///< node event of plan event 0
  std::vector<sim::EventId> waits; ///< every wait set, flattened
  std::vector<std::uint32_t> wait_sets; ///< end of set j in `waits`
  /// Copies the fault hook dropped: (slot, index into its copies).
  std::vector<std::pair<int, std::uint32_t>> dropped;

  sim::EventId event(std::uint32_t e) const {
    return events + static_cast<sim::EventId>(e);
  }
};

/// The task's cost label, for diagnostics.
inline const char* task_label(const PlanShape& shape) {
  for (const DevicePlan& dp : shape.devices) {
    if (dp.active && !dp.stats.label.empty()) {
      return dp.stats.label.c_str();
    }
  }
  return "task";
}

/// Appends operand `core` of `datum`, held in `buffer` as virtual rows
/// [origin, origin + rows), to the binding; a null `buffer` appends an
/// inactive operand.
void bind_operand(LaunchBinding& b, const Datum* datum, RowInterval core,
                  sim::Buffer* buffer, long origin, std::size_t rows);

/// One partial segment a SumFold pulls into its staging buffer.
struct SumPull {
  sim::Buffer* src = nullptr;
  std::size_t src_off = 0;
  std::vector<sim::EventId> waits; ///< producers of the pulled rows
  sim::EventId done = 0;
  /// Piece size for a network crossing (0 = one copy): the pieces pipeline
  /// their D2H / NIC / H2D legs chunk by chunk.
  std::size_t chunk_bytes = 0;
};

/// A device-side Sum (ReduceScatter, aggregation repair): dst += each of
/// the first `staged` segments of `staging`, `pulls` filling them first.
struct SumFold {
  const char* label = "";
  sim::StreamId stream = 0; ///< where the fold kernel runs
  std::vector<SumPull> pulls;
  std::size_t staged = 0;
  sim::Buffer* staging = nullptr;
  sim::Buffer* dst = nullptr;
  std::size_t dst_off = 0;
  std::size_t elems = 0; ///< elements per segment
  std::size_t elem_size = 0;
  std::vector<sim::EventId> waits; ///< extra waits of the fold kernel
  sim::EventId done = -1;          ///< recorded after the fold (< 0: none)
  std::function<void(void*, const void*, std::size_t)> op;
};

/// Enqueues `f`: the pulls alternate between the device's two copy streams,
/// then the fold kernel runs after every pull and `f.waits`.
void pull_and_sum(sim::Node& node, const SlotStreams& streams,
                  const SumFold& f);

// --- Strip planning (strips.cpp) ---------------------------------------------

/// Structural eligibility for interior/boundary splitting: every pattern
/// PartitionAligned (1/1 row scale) or a replicated input, no aggregating
/// outputs, and at least one windowed (radius > 0) partitioned input to
/// overlap against.
bool overlap_eligible(const std::vector<PatternSpec>& specs);
/// Cost gate: a split pays off only when the estimated halo-exchange chain
/// outlasts the launch overhead of two extra strips.
bool overlap_profitable(const std::vector<PatternSpec>& specs,
                        const sim::Node& node,
                        const std::vector<int>& devices);
/// Launch stats of a strip covering `frac` of the device's block rows: the
/// work totals scale proportionally, per-launch fixed costs stay.
sim::LaunchStats scale_launch_stats(const sim::LaunchStats& st, double frac);
/// Build-side strip construction for one in-core device. Fewer than two
/// `ranges` give the S = 1 strip: the device grid and stats, with spans
/// taken from the PatternPost records. Otherwise one strip per range:
/// narrowed grids, per-pattern read/write spans and scaled launch stats.
void build_strips(PlanShape& shape, DevicePlan& dp, int seg,
                  const std::vector<SegmentReq>& reqs,
                  const std::vector<const MemoryAnalyzer::Alloc*>& allocs,
                  const std::vector<StripRange>& ranges);

// --- Command lists (strips.cpp) ----------------------------------------------

/// Lowers an in-core device: each copy on the less-loaded copy stream
/// behind its wait set, then each strip on the compute (interior) or
/// boundary stream, waiting on the copies whose destination rows meet its
/// reads (every copy for S = 1) and on its wait set.
void lower_strips(PlanShape& shape, DevicePlan& dp);
/// Lowers a streamed device: persistent fills, then per window its
/// refills (copy stream), launch (compute) and drains (copy2), chained by
/// three events. A refill waits for its double buffer: on window p - 2
/// with `prefetch`, else on the previous window's drain.
void lower_windows(PlanShape& shape, DevicePlan& dp, bool prefetch);
/// Fills the wait sets of one device's list, in list order, against the
/// CURRENT ordering state, and registers each copy's accesses as it goes:
/// the dependency half of a dispatch, shared by build and replay.
void wire_commands(const DevicePlan& dp, TaskPlan& plan);

} // namespace detail
} // namespace maps::multi

// Grid partitioning and per-pattern segment requirements (Algorithm 1,
// lines 2-5 of the paper).
//
// Task partitioning distributes thread-blocks evenly among the devices
// (§2.1): the virtual grid's block rows are split into contiguous spans. A
// Segmenter then derives, for every (pattern, device) pair, which datum rows
// the device must hold locally — the aligned band plus halos for Window
// patterns (with Wrap/Clamp/Zero boundary materialization at the global
// edges), the whole datum for replicated patterns, or a private full copy
// for duplicated reductive outputs.
#pragma once

#include <vector>

#include "maps/common.hpp"
#include "multi/interval_set.hpp"
#include "multi/pattern_spec.hpp"

namespace maps::multi {

/// How a task's virtual grid is split across device slots.
struct TaskPartition {
  std::size_t work_rows = 0; ///< Work-space height (partition dimension).
  std::size_t work_cols = 1; ///< Work-space width.
  maps::Dim3 block_dim;
  unsigned ilp_x = 1, ilp_y = 1;
  std::size_t blocks_x = 1, blocks_y = 1;
  /// Per slot: the block rows it executes.
  std::vector<RowInterval> block_rows;
  /// Per slot: the work (element) rows those blocks cover.
  std::vector<RowInterval> work_row_ranges;

  std::size_t rows_per_block_row() const {
    return static_cast<std::size_t>(block_dim.y) * ilp_y;
  }
};

/// Splits `work_rows` x `work_cols` work into thread-blocks and distributes
/// contiguous block-row spans over `slots` devices.
TaskPartition make_partition(std::size_t work_rows, std::size_t work_cols,
                             maps::Dim3 block_dim, unsigned ilp_x,
                             unsigned ilp_y, int slots);

/// The single-segment partition covering `block_rows` of `partition`: what
/// the segmenters see when one device runs just those block rows (a
/// streamed row-window, a probe for its size, or a recovery chunk).
TaskPartition narrow_partition(const TaskPartition& partition,
                               RowInterval block_rows);

/// One region of a device-local buffer and how to fill it: either a copy of
/// global datum rows or a zero fill (Boundary::Zero halos at global edges).
struct CopyRegion {
  RowInterval global;  ///< Source rows in the datum (unused for zero fill).
  long local_row = 0;  ///< Destination row in the local buffer.
  bool zero_fill = false;
};

/// A device's requirement on one datum for one task.
struct SegmentReq {
  bool active = false;       ///< Device participates in this task.
  long origin = 0;           ///< Virtual global row at local row 0.
  std::size_t local_rows = 0;
  RowInterval core;          ///< Aligned rows (owned rows for outputs).
  bool whole = false;        ///< Entire datum resident (replicate/duplicate).
  bool private_copy = false; ///< Duplicate that is NOT a valid global copy
                             ///< (reductive partials) — excluded from the
                             ///< location monitor's up-to-date tracking.
  /// Regions that must be valid before the kernel runs (inputs only).
  std::vector<CopyRegion> input_regions;
};

/// Segmenter: infers the memory segmentation of one pattern for one device
/// slot (Algorithm 1 line 4).
SegmentReq compute_requirement(const PatternSpec& spec,
                               const TaskPartition& partition, int slot);

/// Splits a requirement's input regions into the GLOBAL datum rows the
/// kernel reads at their global position (`aligned`: core band + interior
/// halos, whose local row equals global row - origin) and the rows it reads
/// through Wrap/Clamp halo slots at non-global positions (`halo`, refilled
/// by a boundary copy every task). Zero-fill regions carry no datum rows and
/// are skipped. Used by the access sanitizer to check each read rectangle
/// against the shadow version map.
void split_read_rows(const SegmentReq& req, std::vector<RowInterval>& aligned,
                     std::vector<RowInterval>& halo);

/// One contiguous run of a slot's virtual block rows, classified by whether
/// its reads stay inside the slot's aligned bands (interior) or reach into
/// halo rows (boundary). Used by the scheduler's compute–transfer overlap:
/// interior strips launch without waiting for halo traffic, boundary strips
/// are gated only on their own halo copies.
struct StripRange {
  RowInterval block_rows; ///< GLOBAL virtual block rows (like TaskPartition).
  bool boundary = false;
};

/// Interior/boundary decomposition of one slot's block-row span. A block row
/// is *interior* when, for every active PartitionAligned input, the rows it
/// reads (aligned band rows +/- the window radius) lie entirely inside the
/// slot's own core band — i.e. it never touches a halo row another device or
/// the host must supply. Returns at most three strips (leading boundary run,
/// interior, trailing boundary run) in ascending block-row order, or an
/// empty vector when splitting is pointless: fewer than two block rows, no
/// interior left (segment thinner than its halo), or no boundary at all.
/// Callers must only pass tasks whose PartitionAligned patterns use a 1/1
/// row scale (otherwise adjacent strips could share datum rows).
std::vector<StripRange> compute_strips(const std::vector<PatternSpec>& specs,
                                       const TaskPartition& partition, int slot,
                                       const std::vector<SegmentReq>& reqs);

/// Closed-form width of the boundary strips compute_strips produces, in
/// block rows: `lead` leading and `trail` trailing block rows of every slot
/// are boundary because a windowed input's reads leave the core band there;
/// everything between is interior. This is the per-block-row scan of
/// compute_strips solved symbolically (valid wherever no block row is
/// clamped by a ragged work height — the symbolic verifier proves the strip
/// theorems over whole partition families with it, and the concretization
/// tests pin it against the scan). `any` is false when no input is windowed
/// (compute_strips never splits then).
struct StripShape {
  std::size_t lead = 0;
  std::size_t trail = 0;
  bool any = false;
};
StripShape strip_halo_blocks(const std::vector<PatternSpec>& specs,
                             std::size_t rows_per_block_row);

/// Window size (in block rows) for the scheduler's out-of-core multi-pass
/// execution (DESIGN.md §5.16): the largest W such that two W-block-row
/// windows — the resident pass plus the prefetched next pass (double
/// buffering is what lets the refill of window p+1 overlap the kernel of
/// window p) — fit in `budget_bytes` alongside the task's window-invariant
/// residents (`persistent_bytes`: replicated inputs and whole-datum
/// reductive partials). Capped at `total_block_rows`; returns 0 when even a
/// single-block-row window does not fit, the condition the scheduler turns
/// into its budget-smaller-than-one-segment diagnostic. Windows are spans of
/// the partition's block rows, so every pass is a pure function of the
/// partition — the bit-identity contract of the differential tests.
std::size_t streaming_window_block_rows(std::size_t bytes_per_block_row,
                                        std::size_t persistent_bytes,
                                        std::size_t budget_bytes,
                                        std::size_t total_block_rows);

/// Chunk size (in block rows) for the parallel execution backend's
/// block-row fan-out (kernel_exec.hpp). Balances two pressures:
/// enough chunks that `parallelism` threads load-balance across uneven
/// chunk costs (~4 chunks per thread), but each chunk's working set
/// (`bytes_per_block_row` across all bound views) capped near the
/// per-core cache budget so concurrent chunks do not thrash each other's
/// cache lines. Returns at least 1; `block_rows` when parallelism <= 1.
unsigned exec_chunk_block_rows(unsigned block_rows,
                               std::size_t bytes_per_block_row,
                               unsigned parallelism);

} // namespace maps::multi

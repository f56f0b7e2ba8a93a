// Type-erased description of a task argument's memory access pattern.
//
// Typed pattern templates (input_patterns.hpp / output_patterns.hpp) reduce
// to a PatternSpec; everything the host-level framework does — grid
// segmentation (segmenter.hpp), allocation sizing (memory_analyzer.hpp),
// transfer inference (location_monitor.hpp) and cost derivation
// (task_cost.hpp) — consumes this struct, keeping the scheduler free of
// template machinery. This mirrors the paper's architecture where Segmenter
// classes are "implemented for each access pattern" (§4, Algorithm 1).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "maps/common.hpp"
#include "multi/datum.hpp"

namespace maps::multi {

/// The paper's input patterns (Table 1) and output patterns (§3.2).
enum class PatternKind {
  // Inputs
  Block1D,
  Block2D,
  Block2DTransposed,
  Window,
  Adjacency,
  Permutation,
  Traversal,
  IrregularInput,
  // Outputs
  StructuredInjective,
  UnstructuredInjective,
  ReductiveStatic,
  ReductiveDynamic,
  IrregularOutput,
};

const char* to_string(PatternKind kind);

/// How a pattern's datum is distributed across the devices (§2.1, §3.2).
enum class Segmentation {
  /// Datum rows map to work rows; each device holds its aligned band plus a
  /// halo of `radius` rows (Window, Block2D, StructuredInjective).
  PartitionAligned,
  /// Every device needs the entire datum (Block1D, Block2DT, Adjacency).
  Replicate,
  /// Every device holds a full-size private copy that must be aggregated on
  /// gather (Reductive Static, Unstructured Injective).
  DuplicateFull,
  /// Each device appends a runtime-determined number of rows; gather
  /// concatenates (Reductive Dynamic).
  DynamicAppend,
  /// Pattern cannot be partitioned; the task runs on a single device
  /// (Traversal, Irregular input — as in the paper, which never partitions
  /// these).
  SingleDevice,
  /// Datum rows derive from the work range through a pattern-supplied
  /// mapping (variable-size segments, e.g. the col/val arrays of a CSR
  /// sparse structure whose extents follow row_ptr).
  CustomAligned,
};

/// Host-side post-processing applied when gathering an output datum (§3.2).
enum class AggregationKind {
  None,        ///< Structured Injective: segments copy back disjointly.
  Sum,         ///< Reductive Static: element-wise combine of device copies.
  Append,      ///< Reductive Dynamic: concatenate device results.
  MaskedMerge, ///< Unstructured Injective: merge elements each device wrote.
};

/// The read-span formula of one input pattern: the datum rows a device's
/// sweep over work rows [w0, w1) reads, expressed as affine offsets of the
/// scaled work-row bounds. This is the *symbolic* side of the pattern's
/// concrete sweep — the same formula evaluates over concrete rows
/// (read_spans.hpp: compute_strips, build_strips, the sanitizer's read
/// rectangles) and over symbolic segment boundaries (symbolic_verifier.hpp),
/// so the dynamic checks and the static proofs can never drift apart.
struct ReadSpanFormula {
  bool reads = false;       ///< Pattern reads the datum at all (inputs only).
  bool whole_datum = false; ///< Reads every row regardless of the partition
                            ///< (Replicate / DuplicateFull / SingleDevice).
  /// Rows read below scale_rows_begin(w0) / above scale_rows_end(w1); rows
  /// outside [0, datum_rows) resolve through `boundary`.
  long lo_offset = 0, hi_offset = 0;
  maps::Boundary boundary = maps::Boundary::Clamp;
};

struct PatternSpec {
  PatternKind kind = PatternKind::Block1D;
  bool is_input = true;
  Datum* datum = nullptr;

  Segmentation seg = Segmentation::Replicate;
  AggregationKind agg = AggregationKind::None;

  /// Halo rows below/above the aligned band (Window patterns).
  int radius_low = 0, radius_high = 0;
  maps::Boundary boundary = maps::Boundary::Clamp;

  /// Elements processed per thread (ILP template parameters, §4.5.1).
  int ilp_x = 1, ilp_y = 1;

  /// Datum rows per work row as a rational (num/den). 1/1 for element-wise
  /// kernels; e.g. 2/1 for the input of a stride-2 pooling routine.
  std::size_t row_scale_num = 1, row_scale_den = 1;

  /// Element-wise combiner for AggregationKind::Sum:
  /// acc[i] op= part[i] for `elems` elements.
  std::function<void(void* acc, const void* part, std::size_t elems)> agg_op;
  /// Whether agg_op is exact under reassociation (integral element types).
  /// The parallel execution backend merges such Sum outputs with plain
  /// per-chunk partials under any chunking; inexact (floating-point) sums
  /// instead use agg_op_comp below (kernel_exec.hpp).
  bool agg_exact = false;

  /// Compensated (Neumaier) merge step for inexact Sum element types:
  /// acc[i] += part[i] with the rounding error of each addition banked into
  /// carry[i]; the backend finalizes by folding the carry back via agg_op.
  /// Merged in ascending chunk order over parallelism-independent chunk
  /// boundaries, this makes float sums bit-identical across thread counts
  /// (and bounds drift against the unchunked sweep). Null when agg_exact
  /// holds or the type has no compensated form.
  std::function<void(void* acc, const void* part, void* carry,
                     std::size_t elems)>
      agg_op_comp;

  /// For Segmentation::CustomAligned: maps a work-row range to the datum
  /// rows the device must hold.
  std::function<std::pair<std::size_t, std::size_t>(std::size_t, std::size_t)>
      custom_rows;

  /// A partitioned input read through a window (radius > 0): neighbouring
  /// segments exchange its halo rows every task.
  bool halo_input() const {
    return is_input && seg == Segmentation::PartitionAligned &&
           (radius_low > 0 || radius_high > 0);
  }

  /// Datum rows corresponding to work rows [w0, w1), before halo.
  std::size_t scale_rows_begin(std::size_t w0) const {
    return w0 * row_scale_num / row_scale_den;
  }
  std::size_t scale_rows_end(std::size_t w1) const {
    return (w1 * row_scale_num + row_scale_den - 1) / row_scale_den;
  }

  /// The pattern's read-span formula (see ReadSpanFormula). Derived from the
  /// declaration only — kind, segmentation, radii, boundary — never from a
  /// concrete partition, which is what lets the symbolic verifier evaluate
  /// it over whole partition families at once.
  ReadSpanFormula read_span_formula() const {
    ReadSpanFormula f;
    f.boundary = boundary;
    if (!is_input) {
      return f; // outputs read nothing through their pattern
    }
    f.reads = true;
    switch (seg) {
    case Segmentation::PartitionAligned:
    case Segmentation::CustomAligned:
      f.lo_offset = -static_cast<long>(radius_low);
      f.hi_offset = static_cast<long>(radius_high);
      break;
    case Segmentation::Replicate:
    case Segmentation::DuplicateFull:
    case Segmentation::SingleDevice:
      f.whole_datum = true;
      break;
    case Segmentation::DynamicAppend:
      f.reads = false; // append outputs only; no input uses this
      break;
    }
    return f;
  }
};

/// Geometry of one device's slice of a datum, handed to device-level
/// container facets and unmodified routines.
struct DeviceView {
  std::byte* base = nullptr; ///< Local row 0 (nullptr in TimingOnly mode).
  std::size_t pitch = 0;     ///< Bytes per row.
  /// Virtual global row stored at local row 0. Negative when a Wrap halo
  /// precedes row 0 (virtual row -1 holds global row H-1).
  long origin = 0;
  std::size_t rows = 0;       ///< Local rows (core + halos).
  std::size_t row_elems = 0;  ///< Elements per row.
  std::size_t datum_rows = 0; ///< Global row count of the datum.
  /// This device's owned (core) rows in global coordinates.
  std::size_t core_begin = 0, core_end = 0;
};

} // namespace maps::multi

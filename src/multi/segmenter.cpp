#include "multi/segmenter.hpp"

#include <algorithm>
#include <stdexcept>

#include "multi/read_spans.hpp"

namespace maps::multi {

const char* to_string(PatternKind kind) {
  switch (kind) {
  case PatternKind::Block1D: return "Block(1D)";
  case PatternKind::Block2D: return "Block(2D)";
  case PatternKind::Block2DTransposed: return "Block(2D-Transposed)";
  case PatternKind::Window: return "Window(ND)";
  case PatternKind::Adjacency: return "Adjacency";
  case PatternKind::Permutation: return "Permutation";
  case PatternKind::Traversal: return "Traversal";
  case PatternKind::IrregularInput: return "Irregular(input)";
  case PatternKind::StructuredInjective: return "StructuredInjective";
  case PatternKind::UnstructuredInjective: return "UnstructuredInjective";
  case PatternKind::ReductiveStatic: return "Reductive(Static)";
  case PatternKind::ReductiveDynamic: return "Reductive(Dynamic)";
  case PatternKind::IrregularOutput: return "Irregular(output)";
  }
  return "?";
}

TaskPartition make_partition(std::size_t work_rows, std::size_t work_cols,
                             maps::Dim3 block_dim, unsigned ilp_x,
                             unsigned ilp_y, int slots) {
  if (work_rows == 0 || work_cols == 0) {
    throw std::invalid_argument("make_partition: empty work dimensions");
  }
  TaskPartition p;
  p.work_rows = work_rows;
  p.work_cols = work_cols;
  p.block_dim = block_dim;
  p.ilp_x = ilp_x;
  p.ilp_y = ilp_y;
  const std::size_t span_x = static_cast<std::size_t>(block_dim.x) * ilp_x;
  const std::size_t span_y = static_cast<std::size_t>(block_dim.y) * ilp_y;
  p.blocks_x = (work_cols + span_x - 1) / span_x;
  p.blocks_y = (work_rows + span_y - 1) / span_y;

  // Distribute thread-block rows evenly among the devices (§2.1).
  for (int s = 0; s < slots; ++s) {
    const std::size_t b0 = p.blocks_y * static_cast<std::size_t>(s) /
                           static_cast<std::size_t>(slots);
    const std::size_t b1 = p.blocks_y * static_cast<std::size_t>(s + 1) /
                           static_cast<std::size_t>(slots);
    p.block_rows.push_back(RowInterval{b0, b1});
    const std::size_t w0 = std::min(b0 * span_y, work_rows);
    const std::size_t w1 = std::min(b1 * span_y, work_rows);
    p.work_row_ranges.push_back(RowInterval{w0, w1});
  }
  return p;
}

TaskPartition narrow_partition(const TaskPartition& partition,
                               RowInterval block_rows) {
  TaskPartition p = partition;
  const std::size_t span = p.rows_per_block_row();
  p.block_rows = {block_rows};
  p.work_row_ranges = {
      RowInterval{std::min(block_rows.begin * span, p.work_rows),
                  std::min(block_rows.end * span, p.work_rows)}};
  return p;
}

namespace {

/// Emits the copy regions filling halo rows [virtual_begin, virtual_end)
/// (rows outside [0, datum_rows) resolve per the boundary mode).
void emit_halo(const PatternSpec& spec, long virtual_begin, long virtual_end,
               long origin, std::size_t datum_rows,
               std::vector<CopyRegion>& out) {
  const long R = static_cast<long>(datum_rows);
  long v = virtual_begin;
  while (v < virtual_end) {
    const long local = v - origin;
    if (v >= 0 && v < R) {
      // In-range rows: one contiguous copy up to the range end.
      const long run_end = std::min(virtual_end, R);
      out.push_back(CopyRegion{RowInterval{static_cast<std::size_t>(v),
                                           static_cast<std::size_t>(run_end)},
                               local, false});
      v = run_end;
      continue;
    }
    switch (spec.boundary) {
    case maps::Boundary::Wrap: {
      // Contiguous run of wrapped rows.
      const long wrapped = ((v % R) + R) % R;
      long run = std::min(virtual_end - v, R - wrapped);
      if (v < 0) {
        run = std::min(run, -v); // don't run past virtual row 0
      }
      out.push_back(CopyRegion{
          RowInterval{static_cast<std::size_t>(wrapped),
                      static_cast<std::size_t>(wrapped + run)},
          local, false});
      v += run;
      break;
    }
    case maps::Boundary::Clamp: {
      const std::size_t edge = v < 0 ? 0 : datum_rows - 1;
      out.push_back(
          CopyRegion{RowInterval{edge, edge + 1}, local, false});
      ++v;
      break;
    }
    case maps::Boundary::Zero:
      out.push_back(CopyRegion{RowInterval{0, 0}, local, true});
      ++v;
      break;
    case maps::Boundary::NoChecks:
      ++v; // caller guarantees these rows are never read
      break;
    }
  }
}

SegmentReq partition_aligned(const PatternSpec& spec,
                             const TaskPartition& partition, int slot) {
  SegmentReq req;
  const RowInterval work = partition.work_row_ranges[static_cast<std::size_t>(slot)];
  if (work.empty()) {
    return req; // more devices than block rows: this slot idles
  }
  const std::size_t datum_rows = spec.datum->rows();
  std::size_t c0 = spec.scale_rows_begin(work.begin);
  std::size_t c1 = std::min(spec.scale_rows_end(work.end), datum_rows);
  if (c0 >= c1) {
    return req;
  }
  req.active = true;
  req.core = RowInterval{c0, c1};
  req.origin = static_cast<long>(c0) - spec.radius_low;
  req.local_rows = (c1 - c0) + static_cast<std::size_t>(spec.radius_low) +
                   static_cast<std::size_t>(spec.radius_high);

  if (spec.is_input) {
    // Core band.
    req.input_regions.push_back(
        CopyRegion{req.core, spec.radius_low, false});
    // Halos (boundary exchanges / global-edge materialization).
    emit_halo(spec, req.origin, static_cast<long>(c0), req.origin, datum_rows,
              req.input_regions);
    emit_halo(spec, static_cast<long>(c1),
              static_cast<long>(c1) + spec.radius_high, req.origin, datum_rows,
              req.input_regions);
  }
  return req;
}

} // namespace

SegmentReq compute_requirement(const PatternSpec& spec,
                               const TaskPartition& partition, int slot) {
  if (spec.datum == nullptr) {
    throw std::invalid_argument("pattern has no datum");
  }
  switch (spec.seg) {
  case Segmentation::PartitionAligned:
    return partition_aligned(spec, partition, slot);

  case Segmentation::Replicate: {
    SegmentReq req;
    req.active = !partition.work_row_ranges[static_cast<std::size_t>(slot)]
                      .empty();
    if (!req.active) {
      return req;
    }
    req.whole = true;
    req.origin = 0;
    req.local_rows = spec.datum->rows();
    req.core = RowInterval{0, spec.datum->rows()};
    if (spec.is_input) {
      req.input_regions.push_back(CopyRegion{req.core, 0, false});
    }
    return req;
  }

  case Segmentation::DuplicateFull: {
    SegmentReq req;
    req.active = !partition.work_row_ranges[static_cast<std::size_t>(slot)]
                      .empty();
    if (!req.active) {
      return req;
    }
    req.whole = true;
    req.private_copy = true;
    req.origin = 0;
    req.local_rows = spec.datum->rows();
    req.core = RowInterval{0, spec.datum->rows()};
    // Reductive/unstructured partials accumulate from zero (§3.2: data
    // duplication and aggregation).
    req.input_regions.push_back(
        CopyRegion{RowInterval{0, req.local_rows}, 0, true});
    return req;
  }

  case Segmentation::DynamicAppend: {
    SegmentReq req;
    const RowInterval work =
        partition.work_row_ranges[static_cast<std::size_t>(slot)];
    if (work.empty()) {
      return req;
    }
    req.active = true;
    req.private_copy = true;
    req.origin = 0;
    // Capacity: Reductive (Dynamic) emits at most one output per local work
    // row; Irregular outputs have unknown per-thread counts (§3.2), so each
    // device gets the full datum capacity.
    req.local_rows =
        spec.kind == PatternKind::IrregularOutput
            ? spec.datum->rows()
            : std::min(spec.scale_rows_end(work.end) -
                           spec.scale_rows_begin(work.begin),
                       spec.datum->rows());
    req.core = RowInterval{0, req.local_rows};
    return req;
  }

  case Segmentation::CustomAligned: {
    SegmentReq req;
    const RowInterval work =
        partition.work_row_ranges[static_cast<std::size_t>(slot)];
    if (work.empty() || !spec.custom_rows) {
      return req;
    }
    const auto [r0, r1] = spec.custom_rows(work.begin, work.end);
    if (r0 >= r1) {
      return req;
    }
    req.active = true;
    req.core = RowInterval{r0, r1};
    req.origin = static_cast<long>(r0);
    req.local_rows = r1 - r0;
    if (spec.is_input) {
      req.input_regions.push_back(CopyRegion{req.core, 0, false});
    }
    return req;
  }

  case Segmentation::SingleDevice: {
    SegmentReq req;
    if (slot != 0) {
      return req;
    }
    req.active = true;
    req.whole = true;
    req.origin = 0;
    req.local_rows = spec.datum->rows();
    req.core = RowInterval{0, spec.datum->rows()};
    if (spec.is_input) {
      req.input_regions.push_back(CopyRegion{req.core, 0, false});
    }
    return req;
  }
  }
  throw std::logic_error("unknown segmentation kind");
}

void split_read_rows(const SegmentReq& req, std::vector<RowInterval>& aligned,
                     std::vector<RowInterval>& halo) {
  for (const CopyRegion& region : req.input_regions) {
    if (region.zero_fill || region.global.empty()) {
      continue;
    }
    // Same alignment test the scheduler uses to decide whether a region's
    // rows land at their global position (plan_copies_for).
    (region_lands_aligned(region, req.origin) ? aligned : halo)
        .push_back(region.global);
  }
}

std::vector<StripRange> compute_strips(const std::vector<PatternSpec>& specs,
                                       const TaskPartition& partition, int slot,
                                       const std::vector<SegmentReq>& reqs) {
  const RowInterval br = partition.block_rows[static_cast<std::size_t>(slot)];
  if (br.size() < 2) {
    return {};
  }
  const std::size_t span = partition.rows_per_block_row();

  // A block row is boundary when any windowed input's read range leaves the
  // slot's core band — reads served through halo rows (interior halos copied
  // from peers, or Wrap/Clamp/Zero slots refilled each task).
  const auto is_boundary = [&](std::size_t y) {
    const std::size_t w0 = y * span;
    const std::size_t w1 = std::min((y + 1) * span, partition.work_rows);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const PatternSpec& s = specs[i];
      const SegmentReq& req = reqs[i];
      if (!s.halo_input() || !req.active) {
        continue;
      }
      const long lo = read_span_lo(s, w0);
      const long hi = read_span_hi(s, w1);
      if (lo < static_cast<long>(req.core.begin) ||
          hi > static_cast<long>(req.core.end)) {
        return true;
      }
    }
    return false;
  };

  std::size_t top = 0;
  while (top < br.size() && is_boundary(br.begin + top)) {
    ++top;
  }
  if (top == br.size()) {
    return {}; // no interior: the segment is thinner than its halo reach
  }
  std::size_t bottom = 0;
  while (bottom < br.size() - top && is_boundary(br.end - 1 - bottom)) {
    ++bottom;
  }
  if (top == 0 && bottom == 0) {
    return {}; // nothing waits on halo traffic; a single launch is optimal
  }

  std::vector<StripRange> strips;
  if (top > 0) {
    strips.push_back(StripRange{RowInterval{br.begin, br.begin + top}, true});
  }
  strips.push_back(
      StripRange{RowInterval{br.begin + top, br.end - bottom}, false});
  if (bottom > 0) {
    strips.push_back(StripRange{RowInterval{br.end - bottom, br.end}, true});
  }
  return strips;
}

StripShape strip_halo_blocks(const std::vector<PatternSpec>& specs,
                             std::size_t rows_per_block_row) {
  StripShape shape;
  const std::size_t span = rows_per_block_row == 0 ? 1 : rows_per_block_row;
  for (const PatternSpec& s : specs) {
    if (!s.halo_input()) {
      continue;
    }
    shape.any = true;
    // Block row k of a slot is boundary below iff k·span < radius_low, i.e.
    // for the first ceil(radius_low / span) rows; symmetrically above.
    shape.lead = std::max(
        shape.lead, (static_cast<std::size_t>(s.radius_low) + span - 1) / span);
    shape.trail = std::max(
        shape.trail,
        (static_cast<std::size_t>(s.radius_high) + span - 1) / span);
  }
  return shape;
}

unsigned exec_chunk_block_rows(unsigned block_rows,
                               std::size_t bytes_per_block_row,
                               unsigned parallelism) {
  if (block_rows <= 1 || parallelism <= 1) {
    return block_rows == 0 ? 1 : block_rows;
  }
  // ~4 chunks per thread for load balancing under stealing.
  const unsigned target_chunks = 4 * parallelism;
  unsigned chunk = (block_rows + target_chunks - 1) / target_chunks;
  // Cache-interference cap: keep one chunk's touched bytes near a per-core
  // L2 budget so concurrently sweeping chunks stay cache-resident.
  constexpr std::size_t kChunkCacheBytes = 1u << 20;
  if (bytes_per_block_row > 0) {
    const std::size_t cap =
        std::max<std::size_t>(1, kChunkCacheBytes / bytes_per_block_row);
    chunk = static_cast<unsigned>(
        std::min<std::size_t>(chunk, cap));
  }
  return std::max(1u, std::min(chunk, block_rows));
}

std::size_t streaming_window_block_rows(std::size_t bytes_per_block_row,
                                        std::size_t persistent_bytes,
                                        std::size_t budget_bytes,
                                        std::size_t total_block_rows) {
  if (budget_bytes <= persistent_bytes || bytes_per_block_row == 0) {
    return 0;
  }
  const std::size_t windowed = budget_bytes - persistent_bytes;
  // Two windows must fit: the executing pass and the prefetched next pass.
  const std::size_t w = windowed / (2 * bytes_per_block_row);
  return std::min(w, total_block_rows);
}

} // namespace maps::multi

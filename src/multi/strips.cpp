// Strip planning: compute-transfer overlap splits each in-core device's
// launch into an interior strip that never waits on halo traffic plus
// boundary strips gated only on their own halo copies (DESIGN.md §5).
#include <algorithm>
#include <cmath>
#include <numeric>

#include "multi/plan_types.hpp"
#include "multi/read_spans.hpp"

namespace maps::multi::detail {

bool overlap_eligible(const std::vector<PatternSpec>& specs) {
  bool halo_input = false;
  for (const auto& s : specs) {
    if (s.seg == Segmentation::PartitionAligned) {
      // Non-unit row scales can map adjacent work strips onto a shared datum
      // row (ceil/floor rounding), so strips would no longer write disjoint
      // rows.
      if (s.row_scale_num != 1 || s.row_scale_den != 1) {
        return false;
      }
    } else if (!(s.is_input && s.seg == Segmentation::Replicate)) {
      return false; // duplicated/custom/single-device segmentation
    }
    if (!s.is_input && s.agg != AggregationKind::None) {
      return false; // aggregating outputs are combined as whole buffers
    }
    halo_input = halo_input || s.halo_input();
  }
  // Without a windowed input there is no halo traffic to overlap against.
  return halo_input;
}

bool overlap_profitable(const std::vector<PatternSpec>& specs,
                        const sim::Node& node,
                        const std::vector<int>& devices) {
  // Estimate the halo chain a boundary strip would hide: link latency plus
  // the widest halo over the cheapest inter-device link (conservative — the
  // contended cross-bus path only makes the chain longer). Splitting adds up
  // to two extra kernel launches per device, each paying the launch cost on
  // the compute engine.
  const sim::Topology& topo = node.topology();
  const sim::Endpoint a = sim::Endpoint::dev(devices[0]);
  const sim::Endpoint b = devices.size() > 1 ? sim::Endpoint::dev(devices[1])
                                              : sim::Endpoint::host();
  double chain_us = 0.0;
  for (const auto& s : specs) {
    if (!s.halo_input()) {
      continue;
    }
    const std::size_t halo_rows = static_cast<std::size_t>(
        std::max(s.radius_low, s.radius_high));
    const std::size_t bytes =
        halo_rows * s.datum->row_elems() * s.datum->elem_size();
    chain_us = std::max(chain_us, topo.transfer_seconds(a, b, bytes) * 1e6);
  }
  const double extra_launch_us =
      2.0 * node.spec(devices[0]).kernel_launch_us;
  return chain_us > extra_launch_us;
}

sim::LaunchStats scale_launch_stats(const sim::LaunchStats& st, double frac) {
  const auto part = [frac](std::uint64_t v) {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(v) * frac));
  };
  sim::LaunchStats out = st;
  out.blocks = std::max<std::uint64_t>(1, part(st.blocks));
  out.flops = part(st.flops);
  out.global_bytes_read = part(st.global_bytes_read);
  out.global_bytes_written = part(st.global_bytes_written);
  out.shared_ops = part(st.shared_ops);
  out.global_atomics = part(st.global_atomics);
  out.shared_atomics = part(st.shared_atomics);
  out.instr_overhead = part(st.instr_overhead);
  return out;
}

void build_strips(
    PlanShape& shape, DevicePlan& dp, int seg,
    const std::vector<SegmentReq>& reqs,
    const std::vector<const MemoryAnalyzer::Alloc*>& allocs,
    const std::vector<StripRange>& ranges) {
  if (ranges.size() < 2) {
    // S = 1: the whole device grid at the device's cost. It reads every
    // local buffer (core + halos), gates on every copy and zero fill, and
    // waits on the availability of the rows it reads at their global
    // position — whatever stream or engine produced them.
    SubKernel sub;
    sub.grid = dp.grid;
    sub.stats = dp.stats;
    sub.spans.resize(dp.post.size());
    for (std::size_t i = 0; i < dp.post.size(); ++i) {
      const PatternPost& post = dp.post[i];
      StripSpan& sp = sub.spans[i];
      if (!post.active) {
        continue;
      }
      if (post.is_input) {
        sp.read_local = post.local_span;
        sp.read_global = post.reads;
      } else {
        // Private (duplicated) partials span the whole datum; aligned
        // outputs produce exactly their core rows.
        sp.out_local = post.core_local;
        sp.out_global = post.produced;
      }
    }
    sub.copy_waits.resize(dp.copies.size());
    std::iota(sub.copy_waits.begin(), sub.copy_waits.end(), 0u);
    dp.sub.push_back(std::move(sub));
    return;
  }
  const std::size_t span = shape.partition.rows_per_block_row();
  const std::size_t total =
      shape.partition.block_rows[static_cast<std::size_t>(seg)].size();
  dp.sub.reserve(ranges.size());
  for (const StripRange& r : ranges) {
    SubKernel sub;
    sub.boundary = r.boundary;
    sub.grid = dp.grid;
    sub.grid.block_row_offset = static_cast<unsigned>(r.block_rows.begin);
    sub.grid.block_rows = static_cast<unsigned>(r.block_rows.size());
    const std::size_t w0 = r.block_rows.begin * span;
    const std::size_t w1 =
        std::min(r.block_rows.end * span, shape.partition.work_rows);
    sub.spans.resize(shape.specs.size());
    for (std::size_t i = 0; i < shape.specs.size(); ++i) {
      const PatternSpec& s = shape.specs[i];
      const SegmentReq& req = reqs[i];
      if (!req.active || allocs[i] == nullptr) {
        continue;
      }
      const MemoryAnalyzer::Alloc& alloc = *allocs[i];
      StripSpan& sp = sub.spans[i];
      const long rows = static_cast<long>(s.datum->rows());
      if (s.is_input) {
        if (req.whole || s.seg != Segmentation::PartitionAligned) {
          // Replicated input: every strip reads the whole datum.
          sp.read_local = RowInterval{0, alloc.rows};
          sp.read_global.push_back(
              RowInterval{0, static_cast<std::size_t>(rows)});
          continue;
        }
        // Virtual rows the strip reads (1/1 row scale — enforced by
        // overlap_eligible): its work rows widened by the window radius.
        const long lo = read_span_lo(s, w0);
        const long hi = read_span_hi(s, w1);
        const long l0 = std::max(lo - alloc.origin, 0L);
        const long l1 =
            std::min(hi - alloc.origin, static_cast<long>(alloc.rows));
        sp.read_local = RowInterval{static_cast<std::size_t>(l0),
                                    static_cast<std::size_t>(
                                        std::max(l1, l0))};
        // Rows read at their global position gate on availability; rows read
        // through Wrap/Clamp/Zero halo slots gate on their refill copies
        // (below), which is why clipping to the datum is enough here.
        const long g0 = std::clamp(lo, 0L, rows);
        const long g1 = std::clamp(hi, g0, rows);
        if (g1 > g0) {
          sp.read_global.push_back(RowInterval{
              static_cast<std::size_t>(g0), static_cast<std::size_t>(g1)});
        }
      } else {
        const RowInterval out = intersect(
            RowInterval{w0, std::min(w1, static_cast<std::size_t>(rows))},
            req.core);
        if (out.empty()) {
          continue;
        }
        sp.out_global = out;
        sp.out_local = alloc.local(out);
      }
    }
    // Copy gating: the strip waits exactly for the inferred copies (and zero
    // fills) whose destination rows it reads. Chunked copies gate at chunk
    // granularity, so the interior's first rows never wait for a whole
    // segment upload.
    for (std::size_t ci = 0; ci < dp.copies.size(); ++ci) {
      const PlannedCopy& c = dp.copies[ci];
      const StripSpan& sp =
          sub.spans[static_cast<std::size_t>(c.pattern_index)];
      if (!intersect(c.dst_local, sp.read_local).empty()) {
        sub.copy_waits.push_back(static_cast<std::uint32_t>(ci));
      }
    }
    const double frac =
        total == 0 ? 1.0
                   : static_cast<double>(r.block_rows.size()) /
                         static_cast<double>(total);
    sub.stats = scale_launch_stats(dp.stats, frac);
    ++(r.boundary ? shape.boundary_launches : shape.interior_launches);
    dp.sub.push_back(std::move(sub));
  }
}

void wire_strips(const DevicePlan& dp, DeviceWiring& dw, sim::EventId first) {
  dw.strips.resize(dp.sub.size());
  for (std::size_t k = 0; k < dp.sub.size(); ++k) {
    const SubKernel& sub = dp.sub[k];
    StripWiring& sw = dw.strips[k];
    sw.waits.clear();
    sw.waits.reserve(sub.wait_hint);
    // 1. This task's own copies into the strip's read rows (every copy has
    //    its own done event, so the list needs no dedup).
    for (std::uint32_t ci : sub.copy_waits) {
      sw.waits.push_back(dw.copies[ci].done);
    }
    // 2. Availability of the aligned rows the strip reads (earlier kernels,
    //    strips and device-side reductions on this device — which may have
    //    run on another stream — and earlier tasks' copies) plus WAR/WAW on
    //    the rows it writes.
    for (std::size_t i = 0; i < dp.post.size(); ++i) {
      const PatternPost& post = dp.post[i];
      if (!post.active) {
        continue;
      }
      const StripSpan& sp = sub.spans[i];
      if (post.is_input) {
        for (const RowInterval& iv : sp.read_global) {
          post.avail->collect(iv, sw.waits);
        }
      } else if (!sp.out_local.empty()) {
        post.access->collect(sp.out_local, sw.waits);
      }
    }
    sw.done = first + static_cast<sim::EventId>(k);
  }
}

} // namespace maps::multi::detail

// Strip planning: compute-transfer overlap splits each in-core device's
// launch into an interior strip that never waits on halo traffic plus
// boundary strips gated only on their own halo copies (DESIGN.md §5). Then
// every device's lowering to one command list, and its per-dispatch wiring
// (DESIGN.md §3).
#include <algorithm>
#include <cmath>

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
    // local buffer (core + halos) and waits on the availability of the rows
    // it reads at their global position — whatever stream or engine
    // produced them.
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
        // (lower_strips), which is why clipping to the datum is enough here.
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
    const double frac =
        total == 0 ? 1.0
                   : static_cast<double>(r.block_rows.size()) /
                         static_cast<double>(total);
    sub.stats = scale_launch_stats(dp.stats, frac);
    ++(r.boundary ? shape.boundary_launches : shape.interior_launches);
    dp.sub.push_back(std::move(sub));
  }
}

namespace {
using StreamOf = sim::StreamId SlotStreams::*;

void emit(DevicePlan& dp, Command::Op op, StreamOf stream, std::uint32_t arg) {
  dp.commands.push_back(Command{op, arg, stream});
}
} // namespace

void lower_strips(PlanShape& shape, DevicePlan& dp) {
  // Copies spread over the device's two copy streams so independent
  // transfers exploit both copy engines (§2: "multiple memory copy engines
  // that allow simultaneous two-way memory transfer"). Balancing by bytes
  // rather than alternating by index keeps the engines evenly loaded when
  // coalescing leaves transfers of very different sizes.
  dp.commands.reserve(3 * dp.copies.size() +
                      dp.sub.size() * (dp.copies.size() + 3));
  std::uint64_t stream_bytes[2] = {0, 0};
  for (std::uint32_t ci = 0; ci < dp.copies.size(); ++ci) {
    PlannedCopy& c = dp.copies[ci];
    const int si = stream_bytes[0] <= stream_bytes[1] ? 0 : 1;
    stream_bytes[si] += c.bytes;
    const StreamOf stream = si == 0 ? &SlotStreams::copy : &SlotStreams::copy2;
    c.done = shape.events++;
    emit(dp, Command::WaitSet, stream, shape.wait_sets++);
    emit(dp, Command::Copy, stream, ci);
    emit(dp, Command::Record, stream, c.done);
  }
  // CopiesIssued device loss: the victim received its inferred inputs but
  // never launched. Its strip events stay unrecorded — recovery resets the
  // victim's ordering maps before any survivor could collect them.
  dp.cut = dp.commands.size();
  // The whole grid and interior strips launch on the compute stream the
  // moment their dependencies clear; boundary strips go to the dedicated
  // boundary stream so their halo-copy waits never block the interior's
  // launch. All strips share the device's compute engine, so the simulator
  // serializes the actual execution.
  for (std::uint32_t k = 0; k < dp.sub.size(); ++k) {
    SubKernel& sub = dp.sub[k];
    const StreamOf stream =
        sub.boundary ? &SlotStreams::boundary : &SlotStreams::compute;
    // Copy gating: a strip waits exactly for the copies (and zero fills)
    // whose destination rows it reads; the S = 1 launch for every copy.
    // Chunked copies gate at chunk granularity, so the interior's first
    // rows never wait for a whole segment upload.
    for (const PlannedCopy& c : dp.copies) {
      if (dp.sub.size() == 1 ||
          !intersect(c.dst_local,
                     sub.spans[static_cast<std::size_t>(c.pattern_index)]
                         .read_local)
               .empty()) {
        emit(dp, Command::Wait, stream, c.done);
      }
    }
    emit(dp, Command::WaitSet, stream, shape.wait_sets++);
    emit(dp, Command::Launch, stream, k);
    sub.done = shape.events++;
    emit(dp, Command::Record, stream, sub.done);
  }
}

void lower_windows(PlanShape& shape, DevicePlan& dp, bool prefetch) {
  // prepare_stream drains the node before every dispatch of a streamed
  // plan, built or replayed, so nothing outside the plan needs waiting on:
  // persistent fills go first on the copy stream, then every window
  // refills on the copy stream, computes on the compute stream and drains
  // on the second copy stream, chained by its inputs-ready, kernel-done and
  // drain-done events.
  const auto copies = [&](std::uint32_t begin, std::uint32_t end,
                          StreamOf stream) {
    for (std::uint32_t i = begin; i < end; ++i) {
      emit(dp, Command::Copy, stream, i);
    }
  };
  const auto n = static_cast<std::uint32_t>(dp.windows.size());
  dp.commands.reserve(dp.copies.size() + 9 * n);
  copies(0, dp.windows.front().refill_begin, &SlotStreams::copy);
  dp.cut = dp.commands.size();
  const std::uint32_t inputs_ready = shape.events;
  const std::uint32_t compute_done = inputs_ready + n;
  const std::uint32_t drain_done = compute_done + n;
  shape.events += 3 * n;
  for (std::uint32_t p = 0; p < n; ++p) {
    const WindowPass& win = dp.windows[p];
    // Double-buffer gating. Prefetch on: window p's refill may start as
    // soon as its buffer set is free — kernel p-2 released the input temps,
    // drain p-2 released the output temps — so it overlaps window p-1's
    // kernel. Prefetch off: the naive evict-then-refill baseline
    // serializes on the PREVIOUS window's drain.
    if (prefetch && p >= 2) {
      emit(dp, Command::Wait, &SlotStreams::copy, compute_done + p - 2);
      emit(dp, Command::Wait, &SlotStreams::copy, drain_done + p - 2);
    } else if (!prefetch && p >= 1) {
      emit(dp, Command::Wait, &SlotStreams::copy, drain_done + p - 1);
    }
    copies(win.refill_begin, win.drain_begin, &SlotStreams::copy);
    emit(dp, Command::Record, &SlotStreams::copy, inputs_ready + p);
    emit(dp, Command::Wait, &SlotStreams::compute, inputs_ready + p);
    emit(dp, Command::Launch, &SlotStreams::compute, p);
    dp.sub[p].done = compute_done + p;
    emit(dp, Command::Record, &SlotStreams::compute, compute_done + p);
    emit(dp, Command::Wait, &SlotStreams::copy2, compute_done + p);
    copies(win.drain_begin, win.drain_end, &SlotStreams::copy2);
    emit(dp, Command::Record, &SlotStreams::copy2, drain_done + p);
  }
}

void wire_commands(const DevicePlan& dp, TaskPlan& plan) {
  const std::vector<Command>& cmds = dp.commands;
  std::vector<sim::EventId>& waits = plan.waits;
  for (std::size_t n = 0; n < cmds.size(); ++n) {
    if (cmds[n].op != Command::WaitSet) {
      continue;
    }
    // A wait set gates the next instruction, a copy or a launch, whose
    // Record follows it.
    const std::size_t begin = waits.size();
    const Command& gated = cmds[n + 1];
    const sim::EventId done = plan.event(cmds[n + 2].arg);
    if (gated.op == Command::Copy) {
      const PlannedCopy& c = dp.copies[gated.arg];
      // Producer availability of exactly the copied rows at the source
      // (GLOBAL rows), plus WAR against prior readers/writers of the
      // destination slot (LOCAL rows); a zero fill has only the latter.
      if (!c.zero_fill) {
        c.src_avail->collect(c.rows, waits, begin);
      }
      c.dst_access->collect(c.dst_local, waits, begin);
      c.dst_access->write(c.dst_local, done);
      if (!c.zero_fill) {
        // Register the read on the source (LOCAL rows there). Only rows
        // whose virtual position equals their global position can later
        // serve as copy sources (wrapped/clamped halo slots cannot), and
        // only then does the replica register as available data that
        // later tasks may chain on.
        c.src_access->add_reader(c.src_local, done);
        if (c.aligned) {
          c.dst_avail->update(c.rows, done);
        }
      }
    } else {
      // The launch's Wait instructions, right before its set, name this
      // task's copies into its reads: seed them so the set skips them.
      std::size_t w = n;
      while (w > 0 && cmds[w - 1].op == Command::Wait) {
        --w;
      }
      for (; w < n; ++w) {
        waits.push_back(plan.event(cmds[w].arg));
      }
      const std::size_t seeded = waits.size() - begin;
      // Availability of the aligned rows the strip reads (earlier kernels,
      // strips and device-side reductions on this device — which may have
      // run on another stream — and earlier tasks' copies) plus WAR/WAW on
      // the rows it writes.
      const SubKernel& sub = dp.sub[gated.arg];
      for (std::size_t i = 0; i < dp.post.size(); ++i) {
        const PatternPost& post = dp.post[i];
        if (!post.active) {
          continue;
        }
        const StripSpan& sp = sub.spans[i];
        if (post.is_input) {
          for (const RowInterval& iv : sp.read_global) {
            post.avail->collect(iv, waits, begin);
          }
        } else if (!sp.out_local.empty()) {
          post.access->collect(sp.out_local, waits, begin);
        }
      }
      const auto first = waits.begin() + static_cast<std::ptrdiff_t>(begin);
      waits.erase(first, first + static_cast<std::ptrdiff_t>(seeded));
    }
    plan.wait_sets.push_back(static_cast<std::uint32_t>(waits.size()));
  }
}

} // namespace maps::multi::detail

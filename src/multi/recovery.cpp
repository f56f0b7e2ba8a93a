#include "multi/recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace maps::multi::detail {

int Recovery::choose_victim(const PlanShape& shape, TaskHandle task,
                            const std::vector<int>& live,
                            KillStage& stage) const {
  if (!injector_) {
    return -1;
  }
  const char* label = task_label(shape);
  for (int s : live) {
    if (!shape.devices[static_cast<std::size_t>(s)].active) {
      continue;
    }
    for (KillStage k : {KillStage::CopiesIssued, KillStage::KernelIssued}) {
      if (injector_(FaultPoint{s, k, task, label})) {
        stage = k;
        return s;
      }
    }
  }
  return -1;
}

int Recovery::pre_gather_victim(const std::vector<int>& live) const {
  if (injector_) {
    for (int s : live) {
      if (injector_(FaultPoint{s, KillStage::PreGather, 0, "gather"})) {
        return s;
      }
    }
  }
  return -1;
}

std::vector<int> Recovery::lose(int victim) {
  dead_[static_cast<std::size_t>(victim)] = true;
  std::vector<int> live;
  for (std::size_t s = 0; s < dead_.size(); ++s) {
    if (!dead_[s]) {
      live.push_back(static_cast<int>(s));
    }
  }
  if (live.empty()) {
    throw std::runtime_error("device-loss recovery: all devices lost");
  }
  return live;
}

void Recovery::record_task(const std::shared_ptr<const PlanShape>& shape,
                           const BodyFactory& factory,
                           const std::vector<int>& live) {
  last_task_ = factory ? TaskLog{shape, factory, live} : TaskLog{};
  for (const PatternSpec& s : shape->specs) {
    if (s.is_input || s.agg == AggregationKind::None) {
      continue;
    }
    AggLog log{TaskLog{shape, factory, live}, s.datum, {}};
    for (const PatternSpec& in : shape->specs) {
      if (in.is_input) {
        log.input_stamps.emplace_back(in.datum->key(),
                                      host_stamp(in.datum->key()));
      }
    }
    agg_log_[s.datum->key()] = std::move(log);
  }
}

void Recovery::repair(int victim, KillStage stage,
                      const std::vector<int>& live,
                      AccessSanitizer* sanitizer) {
  // Repairs run synchronously on the caller's thread, directly on the
  // node's streams: recovery ends with a synchronize, so no event wiring
  // against later tasks is needed.
  std::vector<sim::Buffer*> temps;
  if (stage != KillStage::PreGather && last_task_.shape != nullptr) {
    repair_structured(victim, stage, live, temps, sanitizer);
  }
  repair_aggregations(victim, live, temps);
  node_.synchronize();
  for (sim::Buffer* b : temps) {
    node_.free_device(b);
  }
  last_task_ = TaskLog{};
}

void Recovery::repair_structured(int victim, KillStage stage,
                                 const std::vector<int>& live,
                                 std::vector<sim::Buffer*>& temps,
                                 AccessSanitizer* sanitizer) {
  const PlanShape& sh = *last_task_.shape;
  const int victim_seg = last_task_.segment_of(victim);
  const DevicePlan& vdp = sh.devices[static_cast<std::size_t>(victim)];
  if (victim_seg < 0 || !vdp.active) {
    return; // the victim held no segment of the last task
  }
  bool any_agg = false, any_plain = false;
  for (const PatternSpec& s : sh.specs) {
    if (s.is_input) {
      continue;
    }
    (s.agg == AggregationKind::None ? any_plain : any_agg) = true;
  }
  if (any_agg && any_plain) {
    throw std::runtime_error(
        "device-loss recovery: the interrupted task mixes aggregated and "
        "plain outputs — unrecoverable");
  }
  if (any_agg) {
    return; // nothing mirrored was lost; repair_aggregations covers it
  }
  // Out-of-core interplay (DESIGN.md §5.16): when the host already covers
  // every output row of the victim's segment, the mirrors ARE the result and
  // nothing needs re-execution — spilled segments are restored from the host
  // for free. In-core mid-task kills leave the victim's freshly written rows
  // host-stale (its mirror is suppressed), so this triggers only when
  // something else made them host-resident: an eviction write-back, or the
  // drains of a streamed victim killed after its windows ran. A streamed
  // victim killed at CopiesIssued never drained, although its plan already
  // recorded the host as the rows' resting place.
  bool host_covers = !sh.streamed || stage != KillStage::CopiesIssued;
  for (std::size_t i = 0; host_covers && i < sh.specs.size(); ++i) {
    const PatternSpec& s = sh.specs[i];
    if (s.is_input) {
      continue;
    }
    const SegmentReq req = compute_requirement(s, sh.partition, victim_seg);
    if (!req.active || req.core.empty()) {
      continue;
    }
    if (!monitor_.up_to_date(s.datum, SegmentLocationMonitor::kHost)
             .covers(req.core)) {
      host_covers = false;
      break;
    }
  }
  if (host_covers) {
    ++stats_.segments_restored_from_host;
    return;
  }
  // Which datums the task writes in place (input == output): their host
  // rows still hold pre-task values at the victim's core — exactly what the
  // lost kernel read, provided it only read its own core (radius 0).
  std::vector<const void*> inplace;
  for (const PatternSpec& s : sh.specs) {
    if (!s.is_input) {
      inplace.push_back(s.datum->key());
    }
  }

  const RowInterval vblocks =
      sh.partition.block_rows[static_cast<std::size_t>(victim_seg)];
  const std::size_t nblocks = vblocks.size();
  if (nblocks == 0) {
    return;
  }
  const std::size_t nchunks = std::min(live.size(), nblocks);

  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t b0 = vblocks.begin + c * nblocks / nchunks;
    const std::size_t b1 = vblocks.begin + (c + 1) * nblocks / nchunks;
    const int s = live[c % live.size()];
    const sim::StreamId stream = streams_[static_cast<std::size_t>(s)].compute;

    // Re-derive the chunk's requirements as a single-segment partition so
    // the segmenters emit exactly the rows (core + halos) the chunk needs.
    const TaskPartition cp = narrow_partition(sh.partition, {b0, b1});

    LaunchBinding chunk;
    std::vector<SegmentReq> reqs;
    for (const PatternSpec& spec : sh.specs) {
      reqs.push_back(compute_requirement(spec, cp, 0));
      const SegmentReq& req = reqs.back();
      const bool in_place =
          spec.is_input && std::find(inplace.begin(), inplace.end(),
                                     spec.datum->key()) != inplace.end();
      bind_operand(chunk, spec.datum, req.core,
                   req.active ? stage_from_host(spec, req, s, temps,
                                                in_place)
                              : nullptr,
                   req.origin, req.local_rows);
    }

    // The grid narrows to the chunk's block rows; device/device_count stay
    // the victim's, so the kernel's index sweep is bit-identical to the lost
    // launch's.
    maps::GridContext gc = vdp.grid;
    gc.block_row_offset = static_cast<unsigned>(b0);
    gc.block_rows = static_cast<unsigned>(b1 - b0);
    const double frac =
        static_cast<double>(b1 - b0) / static_cast<double>(nblocks);
    node_.launch(stream, scale_launch_stats(vdp.stats, frac),
                 last_task_.factory(s, gc, chunk.views));

    // Results land on the host (the recovery target): core rows of every
    // output, d2h'd from the temp buffer.
    for (std::size_t i = 0; i < sh.specs.size(); ++i) {
      const Datum* d = sh.specs[i].datum;
      const SegmentReq& req = reqs[i];
      if (sh.specs[i].is_input || !req.active || req.core.empty()) {
        continue;
      }
      node_.memcpy_d2h(
          stream, d->host_row(req.core.begin), chunk.buffers[i],
          static_cast<std::size_t>(static_cast<long>(req.core.begin) -
                                   req.origin) *
              d->row_bytes(),
          req.core.size() * d->row_bytes());
      monitor_.mark_written(d, SegmentLocationMonitor::kHost, req.core);
      if (sanitizer != nullptr) {
        sanitizer->on_write(d, SegmentLocationMonitor::kHost, req.core);
      }
      host_written(d);
    }
    ++stats_.segments_reexecuted;
  }
}

sim::Buffer* Recovery::stage_from_host(const PatternSpec& spec,
                                       const SegmentReq& req, int slot,
                                       std::vector<sim::Buffer*>& temps,
                                       bool pre_task_core) {
  const sim::StreamId stream = streams_[static_cast<std::size_t>(slot)].compute;
  const Datum* d = spec.datum;
  const std::size_t row_bytes = d->row_bytes();
  sim::Buffer* buf = node_.malloc_device(
      devices_[static_cast<std::size_t>(slot)], req.local_rows * row_bytes);
  temps.push_back(buf);
  for (const CopyRegion& region : req.input_regions) {
    if (region.zero_fill) {
      node_.memset_device(
          stream, buf,
          req.whole ? 0
                    : static_cast<std::size_t>(region.local_row) * row_bytes,
          0, req.whole ? buf->size() : row_bytes);
      continue;
    }
    if (pre_task_core) {
      // Host rows at the victim's core are PRE-task values — the right
      // input only when the lost kernel read nothing but its own core.
      if (!(region.global.begin >= req.core.begin &&
            region.global.end <= req.core.end)) {
        throw std::runtime_error(
            "device-loss recovery: in-place task reads beyond its own "
            "segment (radius > 0) — unrecoverable");
      }
    } else if (!monitor_.up_to_date(d, SegmentLocationMonitor::kHost)
                    .covers(region.global)) {
      throw std::runtime_error("device-loss recovery: host mirror of datum '" +
                               d->name() +
                               "' does not cover the lost segment's inputs");
    }
    node_.memcpy_h2d(stream, buf,
                     static_cast<std::size_t>(region.local_row) * row_bytes,
                     d->host_row(region.global.begin),
                     region.global.size() * row_bytes);
    ++stats_.copies_rerouted;
  }
  return buf;
}

void Recovery::repair_aggregations(int victim, const std::vector<int>& live,
                                   std::vector<sim::Buffer*>& temps) {
  for (auto& [key, log] : agg_log_) {
    const Datum* d = log.datum;
    const auto* pending = monitor_.pending_aggregation(d);
    if (pending == nullptr) {
      continue; // already resolved (gathered / scattered); nothing pending
    }
    if (std::find(pending->writer_slots.begin(), pending->writer_slots.end(),
                  victim) == pending->writer_slots.end()) {
      continue; // the victim held no partial of this datum
    }
    if (pending->kind != AggregationKind::Sum || !pending->op) {
      throw std::runtime_error(
          "device-loss recovery: only Sum-aggregated pending outputs are "
          "recoverable (datum '" +
          d->name() + "')");
    }
    if (!log.factory) {
      throw std::runtime_error(
          "device-loss recovery: the pending partial of datum '" + d->name() +
          "' was produced by an unmodified routine — unrecoverable; Gather "
          "before killing");
    }
    for (const auto& [ikey, stamp] : log.input_stamps) {
      if (host_stamp(ikey) != stamp) {
        throw std::runtime_error(
            "device-loss recovery: host inputs of the pending aggregation on "
            "datum '" +
            d->name() + "' were overwritten since dispatch — unrecoverable");
      }
    }
    const PlanShape& sh = *log.shape;
    const int victim_seg = log.segment_of(victim);
    const DevicePlan& vdp = sh.devices[static_cast<std::size_t>(victim)];
    if (victim_seg < 0 || !vdp.active) {
      continue;
    }
    // Survivor: a live writer still holding its own partial of this datum.
    const auto& writers = pending->writer_slots;
    const auto survivor = std::find_if(live.begin(), live.end(), [&](int c) {
      return std::find(writers.begin(), writers.end(), c) != writers.end() &&
             analyzer_.find(d, c) != nullptr;
    });
    if (survivor == live.end()) {
      throw std::runtime_error(
          "device-loss recovery: no surviving holder of the pending partial "
          "of datum '" +
          d->name() + "'");
    }
    const int s = *survivor;
    const sim::StreamId stream = streams_[static_cast<std::size_t>(s)].compute;

    // Re-execute the victim's whole segment of the logged task into temps.
    LaunchBinding segment;
    sim::Buffer* out_temp = nullptr;
    for (const PatternSpec& spec : sh.specs) {
      const SegmentReq req =
          compute_requirement(spec, sh.partition, victim_seg);
      sim::Buffer* buf =
          req.active ? stage_from_host(spec, req, s, temps, false)
                     : nullptr;
      if (buf != nullptr && !spec.is_input && spec.datum == d) {
        if (!req.whole) {
          throw std::runtime_error(
              "device-loss recovery: pending partial of datum '" + d->name() +
              "' is not a whole-datum duplicate — unrecoverable");
        }
        out_temp = buf;
      }
      bind_operand(segment, spec.datum, req.core, buf, req.origin,
                   req.local_rows);
    }
    if (out_temp == nullptr) {
      continue; // the logged task no longer writes this datum
    }
    node_.launch(stream, vdp.stats, log.factory(s, vdp.grid, segment.views));

    // Fold the re-executed partial into the survivor's: int Sum is
    // commutative and associative, so the later Gather/ReduceScatter sums
    // the same multiset of partials and stays bit-identical.
    const auto* s_alloc = analyzer_.find(d, s);
    SumFold fold;
    fold.label = "fault_recovery_combine";
    fold.stream = stream;
    fold.staged = 1;
    fold.staging = out_temp;
    fold.dst = s_alloc->buffer;
    fold.dst_off = s_alloc->row_offset(0);
    fold.elems = d->rows() * d->row_elems();
    fold.elem_size = d->elem_size();
    fold.op = pending->op;
    pull_and_sum(node_, streams_[static_cast<std::size_t>(s)], fold);
    monitor_.remove_pending_writer(d, victim);
    ++stats_.segments_reexecuted;
  }
}

} // namespace maps::multi::detail

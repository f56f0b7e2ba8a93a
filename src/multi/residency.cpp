#include "multi/residency.hpp"

#include <algorithm>
#include <numeric>
#include <string>

namespace maps::multi::detail {

void Residency::touch(const std::vector<PatternSpec>& specs,
                      const std::vector<int>& live) {
  const std::uint64_t stamp = ++touch_counter_;
  for (const auto& s : specs) {
    for (int slot : live) {
      last_touch_[{s.datum->key(), slot}] = stamp;
    }
  }
}

bool Residency::must_stream(const std::vector<PatternSpec>& specs,
                            const std::vector<std::vector<SegmentReq>>& reqs,
                            const std::vector<int>& live) const {
  for (std::size_t seg = 0; seg < reqs.size(); ++seg) {
    std::vector<const void*> touched;
    std::size_t working = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Datum* d = specs[i].datum;
      if (reqs[seg][i].active &&
          std::find(touched.begin(), touched.end(), d->key()) ==
              touched.end()) {
        touched.push_back(d->key());
        working += analyzer_.planned_bytes(d, live[seg]);
      }
    }
    if (working > budget_) {
      return true;
    }
  }
  return false;
}

std::vector<const Datum*>
Residency::victims(int slot, const std::vector<PatternSpec>& specs,
                   std::size_t& after) const {
  // Bytes on this slot once the task's datums materialize: current residents
  // plus the planned size of every referenced datum that has no buffer yet
  // (the build recorded the requirements just above).
  std::vector<const void*> task_keys;
  after = 0;
  for (const auto& s : specs) {
    if (std::find(task_keys.begin(), task_keys.end(), s.datum->key()) !=
        task_keys.end()) {
      continue;
    }
    task_keys.push_back(s.datum->key());
    if (analyzer_.find(s.datum, slot) == nullptr) {
      after += analyzer_.planned_bytes(s.datum, slot);
    }
  }
  const auto residents = analyzer_.resident(slot);
  for (const auto& r : residents) {
    after += r.alloc->buffer->size();
  }
  if (after <= budget_) {
    return {};
  }
  // LRU eviction over residents the task does not reference. Pending
  // aggregation partials are pinned (their rows are valid nowhere else, and
  // written back as global rows they would corrupt the datum), as are
  // unbound datums (no host buffer to spill into). resident() is
  // name-sorted, so the stable_sort's tie-break is deterministic — the
  // pinned eviction counters in the tests rely on that.
  struct Cand {
    const Datum* datum;
    std::size_t bytes;
    std::uint64_t touch;
  };
  std::vector<Cand> cands;
  for (const auto& r : residents) {
    if (std::find(task_keys.begin(), task_keys.end(), r.datum->key()) !=
            task_keys.end() ||
        pinned(r.datum)) {
      continue;
    }
    const auto t = last_touch_.find({r.datum->key(), slot});
    cands.push_back({r.datum, r.alloc->buffer->size(),
                     t == last_touch_.end() ? 0 : t->second});
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) {
                     return a.touch < b.touch;
                   });
  std::vector<const Datum*> out;
  for (const Cand& c : cands) {
    if (after <= budget_) {
      break;
    }
    out.push_back(c.datum);
    after -= c.bytes;
  }
  return out;
}

void Residency::require_fit(int slot, std::size_t after) const {
  if (after > budget_) {
    throw OutOfCoreError(
        "out-of-core: slot " + std::to_string(slot) + " needs " +
        std::to_string(after) + " bytes against a device memory budget of " +
        std::to_string(budget_) +
        " bytes and nothing more can be evicted (the remaining residents "
        "are the task's own datums, pending aggregation partials, or "
        "unbound data) — raise the budget or Gather pending partials first");
  }
}

std::vector<const Datum*>
Residency::stream_victims(int slot, const std::vector<PatternSpec>& specs,
                          const std::vector<SegmentReq>& reqs,
                          std::size_t& pinned_bytes, bool& drop_pool) const {
  std::vector<const void*> keep;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (reqs[i].active && reqs[i].whole &&
        !analyzer_.needs_grow(specs[i].datum, slot)) {
      keep.push_back(specs[i].datum->key());
    }
  }
  std::vector<const Datum*> out;
  std::size_t staying = 0;
  for (const auto& r : analyzer_.resident(slot)) {
    const std::size_t bytes = r.alloc->buffer->size();
    if (std::find(keep.begin(), keep.end(), r.datum->key()) != keep.end()) {
      staying += bytes;
      continue;
    }
    if (pinned(r.datum)) {
      pinned_bytes += bytes;
      staying += bytes;
      continue;
    }
    out.push_back(r.datum);
  }
  // A replay allocates nothing, so the pool must fit beside what stays.
  drop_pool = !pool_fits(slot, staying);
  return out;
}

void Residency::check_streamable(
    const std::vector<PatternSpec>& specs,
    const std::vector<std::vector<SegmentReq>>& reqs,
    const char* label) const {
  for (const auto& s : specs) {
    if (s.custom_rows) {
      throw OutOfCoreError(
          "out-of-core: task '" + std::string(label) +
          "' uses a CustomAligned row mapping — windows must be a pure "
          "function of the partition, so it cannot be streamed; raise the "
          "device memory budget");
    }
    if (!s.datum->bound()) {
      throw OutOfCoreError("out-of-core: datum '" + s.datum->name() +
                           "' needs a bound host buffer to stream through");
    }
    if (!s.is_input && s.agg != AggregationKind::None &&
        s.agg != AggregationKind::Sum) {
      throw OutOfCoreError(
          "out-of-core: task '" + std::string(label) +
          "' has a dynamic (Append/MaskedMerge) output — its size is not a "
          "function of the partition, so it cannot be streamed; raise the "
          "device memory budget");
    }
    if (s.is_input && monitor_.pending_aggregation(s.datum) != nullptr) {
      throw OutOfCoreError("out-of-core: input datum '" + s.datum->name() +
                           "' has a pending aggregation — Gather it before a "
                           "streamed task can read it");
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const PatternSpec& out = specs[i];
    if (out.is_input) {
      continue;
    }
    if (out.agg == AggregationKind::None &&
        (out.row_scale_num != 1 || out.row_scale_den != 1)) {
      throw OutOfCoreError(
          "out-of-core: task '" + std::string(label) +
          "' writes through a non-unit row scale — window drains would not "
          "tile the output; raise the device memory budget");
    }
    for (const auto& in : specs) {
      if (in.is_input && in.datum->key() == out.datum->key() &&
          (in.radius_low > 0 || in.radius_high > 0)) {
        throw OutOfCoreError(
            "out-of-core: task '" + std::string(label) +
            "' updates datum '" + out.datum->name() +
            "' in place with a window radius — a later window would read "
            "host rows an earlier window already overwrote; raise the "
            "device memory budget");
      }
    }
    // Sum outputs must be whole-datum duplicates (the same invariant the
    // in-core reductive path relies on): each slot then accumulates its
    // private partial across its windows in ascending block-row order — the
    // same sweep order as the unsplit kernel, which is what keeps float
    // partials bit-identical.
    if (out.agg != AggregationKind::Sum) {
      continue;
    }
    for (const auto& seg_reqs : reqs) {
      if (seg_reqs[i].active && !seg_reqs[i].whole) {
        throw OutOfCoreError(
            "out-of-core: Sum output datum '" + out.datum->name() +
            "' is not duplicated whole — partitioned reductive outputs "
            "cannot be streamed");
      }
    }
  }
}

std::size_t Residency::window_block_rows(const PlanShape& shape,
                                         const std::vector<SegmentReq>& reqs,
                                         int seg, int slot,
                                         std::size_t persistent_bytes,
                                         const char* label) const {
  const auto& specs = shape.specs;
  const RowInterval sblocks =
      shape.partition.block_rows[static_cast<std::size_t>(seg)];
  const std::size_t nblocks = sblocks.size();
  // Window size from the linear local-rows model of each streamed pattern:
  // probing 1- and 2-block-row windows gives the per-block-row slope and the
  // fixed overhead (halo rows), which streaming_window_block_rows turns into
  // the largest double-bufferable window. The doubled fixed bytes ride in
  // the persistent term — both ping-pong buffer sets carry them.
  std::size_t slope_bytes = 0;
  std::size_t fixed_bytes = 0;
  bool any_windowed = false;
  const TaskPartition p1 = narrow_partition(
      shape.partition, RowInterval{sblocks.begin, sblocks.begin + 1});
  const TaskPartition p2 = narrow_partition(
      shape.partition,
      RowInterval{sblocks.begin, sblocks.begin + std::min<std::size_t>(
                                                     2, nblocks)});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!reqs[i].active || reqs[i].whole) {
      continue;
    }
    any_windowed = true;
    const std::size_t l1 = compute_requirement(specs[i], p1, 0).local_rows;
    std::size_t slope = l1;
    std::size_t fixed = 0;
    if (nblocks >= 2) {
      const std::size_t l2 = compute_requirement(specs[i], p2, 0).local_rows;
      slope = l2 - l1;
      fixed = l1 > slope ? l1 - slope : 0;
    }
    slope_bytes += slope * specs[i].datum->row_bytes();
    fixed_bytes += fixed * specs[i].datum->row_bytes();
  }
  std::size_t W = nblocks;
  if (any_windowed) {
    W = streaming_window_block_rows(slope_bytes,
                                    persistent_bytes + 2 * fixed_bytes,
                                    budget_, nblocks);
    if (W == 0) {
      throw OutOfCoreError(
          "out-of-core: device memory budget of " +
          std::to_string(budget_) +
          " bytes cannot hold a single streaming window of task '" +
          std::string(label) + "' on slot " + std::to_string(slot) +
          " (window-invariant residents need " +
          std::to_string(persistent_bytes + 2 * fixed_bytes) +
          " bytes, one window block-row streams " +
          std::to_string(slope_bytes) +
          " bytes, double-buffered) — the budget is smaller than one "
          "segment");
    }
  } else if (persistent_bytes > budget_) {
    throw OutOfCoreError(
        "out-of-core: the whole-datum residents of task '" +
        std::string(label) + "' alone need " +
        std::to_string(persistent_bytes) + " bytes on slot " +
        std::to_string(slot) + ", exceeding the device memory budget of " +
        std::to_string(budget_) +
        " bytes — the budget is smaller than one segment");
  }
  return W;
}

bool Residency::plan_windows(PlanShape& shape, DevicePlan& dp, int seg,
                             int slot, const std::vector<SegmentReq>& reqs,
                             std::size_t persistent_bytes,
                             const char* label) {
  const auto& specs = shape.specs;
  const int loc = SegmentLocationMonitor::loc(slot);
  const sim::Endpoint host = sim::Endpoint::host();
  const sim::Endpoint dev =
      sim::Endpoint::dev(devices_[static_cast<std::size_t>(slot)]);
  const RowInterval sblocks =
      shape.partition.block_rows[static_cast<std::size_t>(seg)];
  const std::size_t nblocks = sblocks.size();
  dp.post.resize(specs.size());
  // Every streamed copy is residency traffic: host-sourced fills and
  // refills, host-bound drains.
  const auto add_copy = [&](const PlannedCopy& c) {
    if (!c.zero_fill) {
      ++shape.spill.transfers.copies_issued;
      const bool drain = c.dst_host != nullptr;
      TransferPlanner::account(shape.spill.transfers, node_.topology(),
                               drain ? dev : host, drain ? host : dev, false,
                               c.bytes);
      (drain ? shape.spill.bytes_spilled : shape.spill.bytes_refilled) +=
          c.bytes;
    }
    dp.copies.push_back(c);
  };

  // Persistent (window-invariant) operands: replicated inputs and
  // whole-datum reductive partials.
  std::vector<const MemoryAnalyzer::Alloc*> allocs(specs.size(), nullptr);
  std::vector<const void*> filled;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SegmentReq& req = reqs[i];
    if (!req.active || !req.whole) {
      continue;
    }
    Datum* d = specs[i].datum;
    const auto& alloc = analyzer_.ensure(d, slot);
    allocs[i] = &alloc;
    if (std::find(filled.begin(), filled.end(), d->key()) != filled.end()) {
      continue;
    }
    filled.push_back(d->key());
    persistent_bytes += alloc.buffer->size();
    for (const CopyRegion& region : req.input_regions) {
      PlannedCopy c;
      c.pattern_index = static_cast<int>(i);
      c.datum = d;
      c.dst_location = loc;
      c.dst_buffer = alloc.buffer;
      if (region.zero_fill) {
        // Reductive partial: fresh zeros every task, like the in-core
        // zero-fill copy.
        c.zero_fill = true;
        c.whole_buffer = true;
        c.bytes = alloc.buffer->size();
        add_copy(c);
        continue;
      }
      // Upload only what the device does not already hold — kept residents
      // stay warm across a task chain.
      c.aligned = true;
      for (const RowInterval& miss :
           monitor_.up_to_date(d, loc).missing_from(region.global)) {
        const long local = region.local_row + static_cast<long>(miss.begin) -
                           static_cast<long>(region.global.begin) +
                           (req.origin - alloc.origin);
        c.rows = miss;
        c.dst_offset = static_cast<std::size_t>(local) * alloc.row_bytes;
        c.src_host = d->host_row(miss.begin);
        c.bytes = miss.size() * alloc.row_bytes;
        add_copy(c);
        monitor_.mark_copied(d, loc, miss);
      }
    }
  }

  const std::size_t W =
      window_block_rows(shape, reqs, seg, slot, persistent_bytes, label);
  const std::size_t nwindows = (nblocks + W - 1) / W;
  shape.spill.pass_count += nwindows;

  // Window requirements — windows are spans of the segment's block rows, a
  // pure function of the partition.
  std::vector<std::vector<SegmentReq>> wreqs(nwindows);
  std::vector<RowInterval> wblocks(nwindows);
  std::vector<std::size_t> max_rows(specs.size(), 0);
  for (std::size_t p = 0; p < nwindows; ++p) {
    const std::size_t b0 = sblocks.begin + p * W;
    wblocks[p] = RowInterval{b0, std::min(b0 + W, sblocks.end)};
    const TaskPartition wp = narrow_partition(shape.partition, wblocks[p]);
    wreqs[p].reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      wreqs[p].push_back(compute_requirement(specs[i], wp, 0));
      if (!reqs[i].whole && wreqs[p].back().active) {
        max_rows[i] = std::max(max_rows[i], wreqs[p].back().local_rows);
      }
    }
  }

  // In-place updates: an output spec whose datum this task also reads must
  // stream through the SAME window temporary as the input spec — the
  // in-core path aliases their device allocation, and routines
  // read-modify-write through the output parameter (W *= ... in NMF's
  // wupdate). check_streamable's radius guard makes the two window
  // geometries identical (radius 0, unit row scale).
  std::vector<std::size_t> alias(specs.size());
  std::iota(alias.begin(), alias.end(), std::size_t{0});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].is_input || reqs[i].whole) {
      continue;
    }
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (!specs[j].is_input || reqs[j].whole ||
          specs[j].datum->key() != specs[i].datum->key()) {
        continue;
      }
      alias[i] = j;
      max_rows[j] = std::max(max_rows[j], max_rows[i]);
      max_rows[i] = 0; // shares j's temporary
      break;
    }
  }
  for (std::size_t p = 0; p < nwindows; ++p) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (alias[i] != i && wreqs[p][i].active &&
          wreqs[p][i].origin != wreqs[p][alias[i]].origin) {
        throw OutOfCoreError(
            "out-of-core: task '" + std::string(label) + "' updates datum '" +
            specs[i].datum->name() +
            "' in place but its input and output window geometries "
            "disagree — it cannot be streamed; raise the device memory "
            "budget");
      }
    }
  }

  // Ping-pong temporaries: window p streams through set p % 2, so the
  // refill of window p can overlap the kernel of window p - 1 under
  // prefetch. Their residency is deliberately NOT recorded in the location
  // monitor: every window refills what it reads, so no row outlives it.
  std::vector<sim::Buffer*> wbufs[2] = {
      std::vector<sim::Buffer*>(specs.size(), nullptr),
      std::vector<sim::Buffer*>(specs.size(), nullptr)};
  const int sets = nwindows < 2 ? 1 : 2;
  std::vector<std::size_t> temp_bytes;
  for (int set = 0; set < sets; ++set) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (max_rows[i] != 0) {
        temp_bytes.push_back(max_rows[i] * specs[i].datum->row_bytes());
      }
    }
  }
  std::vector<sim::Buffer*> temps;
  const bool released = bind_temps(slot, temp_bytes, temps);
  std::size_t next = 0;
  for (int set = 0; set < sets; ++set) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (max_rows[i] != 0) {
        wbufs[set][i] = temps[next++];
      }
    }
  }
  if (nwindows < 2) {
    wbufs[1] = wbufs[0];
  }
  for (auto& set : wbufs) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      set[i] = set[alias[i]];
    }
  }

  dp.windows.resize(nwindows);
  dp.sub.resize(nwindows);
  // Per window: one refill per input region and one drain per output.
  dp.copies.reserve(dp.copies.size() + nwindows * specs.size());
  for (std::size_t p = 0; p < nwindows; ++p) {
    WindowPass& win = dp.windows[p];
    win.views.reserve(specs.size());
    win.buffers.reserve(specs.size());
    const RowInterval wb = wblocks[p];
    const auto& wr = wreqs[p];
    const auto& bufs = wbufs[p % 2];
    SubKernel& pass = dp.sub[p];
    pass.grid = dp.grid;
    pass.grid.block_row_offset = static_cast<unsigned>(wb.begin);
    pass.grid.block_rows = static_cast<unsigned>(wb.size());
    pass.stats = scale_launch_stats(dp.stats, static_cast<double>(wb.size()) /
                                                  static_cast<double>(nblocks));

    // Refills: window inputs straight from the flushed host rows. The
    // pass's spans record the rows each windowed input reads.
    win.refill_begin = static_cast<std::uint32_t>(dp.copies.size());
    pass.spans.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (reqs[i].whole || !wr[i].active) {
        continue;
      }
      Datum* d = specs[i].datum;
      const std::size_t row_bytes = d->row_bytes();
      for (const CopyRegion& region : wr[i].input_regions) {
        PlannedCopy c;
        c.pattern_index = static_cast<int>(i);
        c.datum = d;
        c.dst_location = loc;
        c.dst_buffer = bufs[i];
        c.dst_offset = static_cast<std::size_t>(region.local_row) * row_bytes;
        c.zero_fill = region.zero_fill;
        c.bytes = row_bytes;
        if (!region.zero_fill) {
          c.rows = region.global;
          c.src_host = d->host_row(region.global.begin);
          c.bytes = region.global.size() * row_bytes;
          pass.spans[i].read_global.push_back(region.global);
        }
        add_copy(c);
      }
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!wr[i].active) {
        bind_operand(win, specs[i].datum, wr[i].core, nullptr, 0, 0);
      } else if (reqs[i].whole) {
        bind_operand(win, specs[i].datum, wr[i].core, allocs[i]->buffer,
                     allocs[i]->origin, allocs[i]->rows);
      } else {
        bind_operand(win, specs[i].datum, wr[i].core, bufs[i], wr[i].origin,
                     wr[i].local_rows);
      }
    }

    // Drains: each plain output's core rows go straight to the host — the
    // host is the streamed output's resting place, which is exactly what
    // makes the next task's uploads classify as refills.
    win.drain_begin = static_cast<std::uint32_t>(dp.copies.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].is_input || reqs[i].whole || !wr[i].active ||
          wr[i].core.empty()) {
        continue;
      }
      Datum* d = specs[i].datum;
      PlannedCopy c;
      c.pattern_index = static_cast<int>(i);
      c.aligned = true;
      c.datum = d;
      c.src_location = loc;
      c.rows = wr[i].core;
      c.src_buffer = bufs[i];
      c.src_offset =
          static_cast<std::size_t>(static_cast<long>(wr[i].core.begin) -
                                   wr[i].origin) *
          d->row_bytes();
      c.dst_host = d->host_row(wr[i].core.begin);
      c.bytes = wr[i].core.size() * d->row_bytes();
      add_copy(c);
      monitor_.mark_written(d, SegmentLocationMonitor::kHost, wr[i].core);
    }
    win.drain_end = static_cast<std::uint32_t>(dp.copies.size());
  }
  return released;
}

std::size_t Residency::pool_bytes(int slot) const {
  std::size_t bytes = 0;
  for (const PooledTemp& t : pool_) {
    bytes += t.slot == slot ? t.bytes : 0;
  }
  return bytes;
}

bool Residency::bind_temps(int slot, const std::vector<std::size_t>& bytes,
                           std::vector<sim::Buffer*>& out) {
  out.assign(bytes.size(), nullptr);
  std::size_t fresh = 0;
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    const auto it = std::find_if(pool_.begin(), pool_.end(), [&](const auto& t) {
      return t.slot == slot && t.bytes == bytes[k] && !t.taken;
    });
    if (it == pool_.end()) {
      fresh += bytes[k];
    } else {
      it->taken = true;
      out[k] = it->buffer;
    }
  }
  // window_block_rows sized the windows so the residents and this plan's
  // temporaries fit; other plans' pooled buffers stay only beside them.
  std::size_t used = fresh + pool_bytes(slot);
  for (const auto& r : analyzer_.resident(slot)) {
    used += r.alloc->buffer->size();
  }
  const std::size_t before = pool_.size();
  if (used > budget_) {
    std::erase_if(pool_, [&](const PooledTemp& t) {
      if (t.slot != slot || t.taken) {
        return false;
      }
      node_.free_device(t.buffer);
      return true;
    });
  }
  const bool released = pool_.size() != before;
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    if (out[k] == nullptr) {
      out[k] = node_.malloc_device(devices_[static_cast<std::size_t>(slot)],
                                   bytes[k]);
      pool_.push_back({slot, bytes[k], out[k], false});
    }
  }
  for (PooledTemp& t : pool_) {
    t.taken = false;
  }
  return released;
}

void Residency::release_pool(int slot) {
  std::erase_if(pool_, [&](const PooledTemp& t) {
    if (slot >= 0 && t.slot != slot) {
      return false;
    }
    node_.free_device(t.buffer);
    return true;
  });
}

} // namespace maps::multi::detail

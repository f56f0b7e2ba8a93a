#include "multi/sanitizer.hpp"

#include <algorithm>

#include "multi/plan_types.hpp"

namespace maps::multi {

// --- VersionMap --------------------------------------------------------------

void VersionMap::assign(const RowInterval& rows, std::uint64_t version) {
  if (rows.empty()) {
    return;
  }
  std::vector<VersionedRange> out;
  out.reserve(entries_.size() + 2);
  for (const VersionedRange& e : entries_) {
    if (e.rows.end <= rows.begin || e.rows.begin >= rows.end) {
      out.push_back(e);
      continue;
    }
    if (e.rows.begin < rows.begin) {
      out.push_back({RowInterval{e.rows.begin, rows.begin}, e.version});
    }
    if (e.rows.end > rows.end) {
      out.push_back({RowInterval{rows.end, e.rows.end}, e.version});
    }
  }
  if (version != 0) {
    out.push_back({rows, version});
  }
  std::sort(out.begin(), out.end(),
            [](const VersionedRange& a, const VersionedRange& b) {
              return a.rows.begin < b.rows.begin;
            });
  // Coalesce adjacent ranges at the same version.
  entries_.clear();
  for (const VersionedRange& e : out) {
    if (!entries_.empty() && entries_.back().version == e.version &&
        entries_.back().rows.end == e.rows.begin) {
      entries_.back().rows.end = e.rows.end;
    } else {
      entries_.push_back(e);
    }
  }
}

void VersionMap::assign_from(const VersionMap& src, const RowInterval& rows) {
  if (rows.empty()) {
    return;
  }
  std::vector<VersionedRange> pieces;
  src.query(rows, pieces);
  for (const VersionedRange& p : pieces) {
    assign(p.rows, p.version);
  }
}

void VersionMap::query(const RowInterval& rows,
                       std::vector<VersionedRange>& out) const {
  if (rows.empty()) {
    return;
  }
  std::size_t cursor = rows.begin;
  for (const VersionedRange& e : entries_) {
    if (e.rows.end <= cursor) {
      continue;
    }
    if (e.rows.begin >= rows.end) {
      break;
    }
    const std::size_t lo = std::max(e.rows.begin, cursor);
    if (lo > cursor) {
      out.push_back({RowInterval{cursor, lo}, 0});
    }
    const std::size_t hi = std::min(e.rows.end, rows.end);
    out.push_back({RowInterval{lo, hi}, e.version});
    cursor = hi;
    if (cursor >= rows.end) {
      break;
    }
  }
  if (cursor < rows.end) {
    out.push_back({RowInterval{cursor, rows.end}, 0});
  }
}

std::uint64_t VersionMap::at(std::size_t row) const {
  for (const VersionedRange& e : entries_) {
    if (row >= e.rows.begin && row < e.rows.end) {
      return e.version;
    }
  }
  return 0;
}

// --- AccessSanitizer ---------------------------------------------------------

namespace {
std::string rows_str(const RowInterval& iv) {
  return "[" + std::to_string(iv.begin) + ", " + std::to_string(iv.end) + ")";
}
} // namespace

AccessSanitizer::AccessSanitizer(int slots) : locations_(slots + 1) {}

void AccessSanitizer::begin_context(std::uint64_t task,
                                    const std::string& label) {
  task_ = task;
  label_ = label;
  ++stats_.tasks_checked;
}

AccessSanitizer::ShadowState& AccessSanitizer::ensure(const Datum* datum) {
  auto it = states_.find(datum->key());
  if (it != states_.end()) {
    return it->second;
  }
  ShadowState s;
  s.held.resize(static_cast<std::size_t>(locations_));
  if (datum->bound()) {
    // The bound host buffer is the initial authoritative copy (mirrors
    // SegmentLocationMonitor::register_datum).
    const RowInterval whole{0, datum->rows()};
    s.latest.assign(whole, 1);
    s.held[kHost].assign(whole, 1);
    s.next_version = 2;
  }
  return states_.emplace(datum->key(), std::move(s)).first->second;
}

std::string AccessSanitizer::location_name(int location) const {
  return location == kHost ? std::string("host")
                           : "device " + std::to_string(location - 1);
}

std::string AccessSanitizer::context() const {
  return "task #" + std::to_string(task_) + " (" + label_ + ")";
}

int AccessSanitizer::find_holder(const ShadowState& s, const RowInterval& rows,
                                 std::uint64_t version) const {
  for (int l = 0; l < locations_; ++l) {
    std::vector<VersionedRange> pieces;
    s.held[static_cast<std::size_t>(l)].query(rows, pieces);
    if (!pieces.empty() &&
        std::all_of(pieces.begin(), pieces.end(),
                    [&](const VersionedRange& p) {
                      return p.version == version;
                    })) {
      return l;
    }
  }
  return -1;
}

void AccessSanitizer::fail_stale(const Datum* datum, int location,
                                 const VersionedRange& held_piece,
                                 std::uint64_t latest_version,
                                 const char* role) {
  ShadowState& s = ensure(datum);
  const int holder = find_holder(s, held_piece.rows, latest_version);
  std::string msg = "access sanitizer: " + context() + ": " +
                    location_name(location) + " " + role + " datum '" +
                    datum->name() + "' rows " + rows_str(held_piece.rows);
  if (held_piece.version == 0) {
    msg += " which it does not hold at all";
  } else {
    msg += " at stale version " + std::to_string(held_piece.version);
  }
  msg += "; the latest is version " + std::to_string(latest_version);
  if (holder >= 0) {
    msg += " (held at " + location_name(holder) + ")";
    msg += ". The location monitor should have scheduled a copy " +
           location_name(holder) + " -> " + location_name(location) +
           " of rows " + rows_str(held_piece.rows) + " before this task";
  } else {
    msg += ", which no location currently holds (lost update or unresolved "
           "aggregation)";
  }
  throw SanitizerError(msg);
}

void AccessSanitizer::check_fresh(const Datum* datum, int location,
                                  const RowInterval& rows, const char* role) {
  ShadowState& s = ensure(datum);
  if (s.pending_aggregation) {
    throw SanitizerError(
        "access sanitizer: " + context() + ": datum '" + datum->name() +
        "' rows " + rows_str(rows) + " are unaggregated partial copies (" +
        location_name(location) + " " + role +
        " them); Gather or ReduceScatter must resolve the datum first");
  }
  scratch_held_.clear();
  scratch_latest_.clear();
  s.held[static_cast<std::size_t>(location)].query(rows, scratch_held_);
  s.latest.query(rows, scratch_latest_);
  // Both piece lists partition `rows`; merge-walk their boundaries.
  std::size_t hi = 0, li = 0;
  std::size_t cursor = rows.begin;
  while (cursor < rows.end) {
    while (scratch_held_[hi].rows.end <= cursor) {
      ++hi;
    }
    while (scratch_latest_[li].rows.end <= cursor) {
      ++li;
    }
    const std::size_t piece_end =
        std::min(scratch_held_[hi].rows.end, scratch_latest_[li].rows.end);
    if (scratch_held_[hi].version != scratch_latest_[li].version) {
      fail_stale(datum, location,
                 VersionedRange{RowInterval{cursor, piece_end},
                                scratch_held_[hi].version},
                 scratch_latest_[li].version, role);
    }
    cursor = piece_end;
  }
}

void AccessSanitizer::on_copy(const Datum* datum, int src_location,
                              int dst_location, const RowInterval& rows) {
  ++stats_.copies_checked;
  check_fresh(datum, src_location, rows, "sources a copy from");
  ShadowState& s = ensure(datum);
  s.held[static_cast<std::size_t>(dst_location)].assign_from(s.latest, rows);
}

void AccessSanitizer::on_halo_source(const Datum* datum, int src_location,
                                     const RowInterval& rows) {
  ++stats_.copies_checked;
  check_fresh(datum, src_location, rows, "sources a halo copy from");
}

void AccessSanitizer::on_read(const Datum* datum, int location,
                              const RowInterval& rows) {
  ++stats_.rects_checked;
  check_fresh(datum, location, rows, "reads");
}

void AccessSanitizer::report_missing_halo(const Datum* datum, int location,
                                          const RowInterval& rows) {
  throw SanitizerError(
      "access sanitizer: " + context() + ": " + location_name(location) +
      " reads datum '" + datum->name() + "' rows " + rows_str(rows) +
      " through a boundary halo slot that was not refilled by this task (the "
      "planned Wrap/Clamp boundary copy is missing or was dropped)");
}

void AccessSanitizer::report_unrefilled_window(const Datum* datum,
                                               int location,
                                               std::size_t window,
                                               const RowInterval& rows) {
  throw SanitizerError(
      "access sanitizer: " + context() + ": " + location_name(location) +
      " window pass " + std::to_string(window) + " reads datum '" +
      datum->name() + "' rows " + rows_str(rows) +
      " that none of its refills brought in (a planned window refill is "
      "missing or was dropped)");
}

void AccessSanitizer::report_ungated_strip(const Datum* datum, int location,
                                           const RowInterval& strip_rows,
                                           const RowInterval& copy_rows) {
  throw SanitizerError(
      "access sanitizer: " + context() + ": " + location_name(location) +
      " sub-kernel strip reads datum '" + datum->name() + "' local rows " +
      rows_str(strip_rows) + " overlapping an inferred copy into local rows " +
      rows_str(copy_rows) +
      " that does not gate the strip (compute-transfer overlap would race "
      "the halo/chunk transfer)");
}

void AccessSanitizer::on_write(const Datum* datum, int writer,
                               const RowInterval& rows) {
  ++stats_.writes_recorded;
  ShadowState& s = ensure(datum);
  const std::uint64_t v = s.next_version++;
  s.latest.assign(rows, v);
  // Peers' replicas of `rows` now differ from `latest` and are implicitly
  // stale; only the writer advances.
  s.held[static_cast<std::size_t>(writer)].assign(rows, v);
}

void AccessSanitizer::on_pending_aggregation(const Datum* datum) {
  ShadowState& s = ensure(datum);
  const std::uint64_t v = s.next_version++;
  s.latest.assign(RowInterval{0, datum->rows()}, v);
  for (VersionMap& h : s.held) {
    h.clear(); // every replica is a partial copy, valid nowhere
  }
  s.pending_aggregation = true;
}

void AccessSanitizer::on_aggregation_resolved_host(const Datum* datum) {
  ShadowState& s = ensure(datum);
  s.pending_aggregation = false;
  const std::uint64_t v = s.next_version++;
  const RowInterval whole{0, datum->rows()};
  s.latest.assign(whole, v);
  s.held[kHost].assign(whole, v);
}

void AccessSanitizer::on_aggregation_scattered(const Datum* datum) {
  ensure(datum).pending_aggregation = false;
}

void AccessSanitizer::on_host_write(const Datum* datum) {
  // Deliberately leaves pending_aggregation untouched: the monitor keeps its
  // pending flag through MarkHostModified too, and the next read reports it.
  ShadowState& s = ensure(datum);
  const std::uint64_t v = s.next_version++;
  const RowInterval whole{0, datum->rows()};
  s.latest.assign(whole, v);
  for (VersionMap& h : s.held) {
    h.assign(whole, 0); // erase every device replica
  }
  s.held[kHost].assign(whole, v);
}

void AccessSanitizer::on_device_lost(int location) {
  for (auto& [key, s] : states_) {
    s.held[static_cast<std::size_t>(location)].clear();
    if (s.pending_aggregation) {
      // The whole-datum bump stays: partials are valid nowhere by definition,
      // and the recovery's fold repair resolves the datum like a Gather would.
      continue;
    }
    // Rewind `latest` to the pointwise maximum any survivor still holds.
    // Invariant for non-pending datums: latest == pointwise-max over held —
    // every mint (on_write / on_host_write / resolved_host) stamps its holder,
    // and with host mirroring the host tracks every committed write. Applying
    // all surviving pieces in ascending version order rebuilds that maximum.
    std::vector<VersionedRange> pieces;
    for (const VersionMap& h : s.held) {
      const auto& es = h.entries();
      pieces.insert(pieces.end(), es.begin(), es.end());
    }
    std::sort(pieces.begin(), pieces.end(),
              [](const VersionedRange& a, const VersionedRange& b) {
                return a.version < b.version;
              });
    VersionMap rebuilt;
    for (const VersionedRange& p : pieces) {
      rebuilt.assign(p.rows, p.version);
    }
    s.latest = std::move(rebuilt);
    // next_version is NOT rewound: re-executed repair writes mint versions
    // strictly above anything any replica carries.
  }
}

void AccessSanitizer::on_holdings_dropped(const Datum* datum, int location) {
  ensure(datum).held[static_cast<std::size_t>(location)].clear();
}

const VersionMap& AccessSanitizer::latest(const Datum* datum) {
  return ensure(datum).latest;
}

const VersionMap& AccessSanitizer::held(const Datum* datum, int location) {
  return ensure(datum).held[static_cast<std::size_t>(location)];
}

void AccessSanitizer::on_dispatch(const detail::TaskPlan& plan) {
  using namespace detail;
  const PlanShape& sh = *plan.shape;
  begin_context(plan.handle, task_label(sh));

  // 1. Copies, in plan order (slot-major, pattern order within a slot) —
  // the same program order Algorithm 2 planned them in, so intra-task copy
  // chains (a later slot sourcing from an earlier slot's fresh replica)
  // validate correctly. While walking, record which global rows each
  // pattern's Wrap/Clamp halo slots were refilled with this dispatch.
  std::vector<std::vector<IntervalSet>> halo_cover(sh.devices.size());
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    halo_cover[slot].resize(sh.specs.size());
    for (std::size_t i = 0; i < dp.copies.size(); ++i) {
      const PlannedCopy& c = dp.copies[i];
      if (c.zero_fill ||
          std::find(plan.dropped.begin(), plan.dropped.end(),
                    std::pair(static_cast<int>(slot),
                              static_cast<std::uint32_t>(i))) !=
              plan.dropped.end()) {
        continue;
      }
      if (c.dst_host != nullptr) {
        // A streamed window's drain: its rows rest on the host, fresh.
        on_write(c.datum, c.dst_location, c.rows);
      } else if (c.aligned) {
        on_copy(c.datum, c.src_location, c.dst_location, c.rows);
      } else {
        on_halo_source(c.datum, c.src_location, c.rows);
        halo_cover[slot][static_cast<std::size_t>(c.pattern_index)].add(
            c.rows);
      }
    }
  }

  // 1b. Every inferred copy landing inside a strip's read span must be
  // waited on by one of the Wait instructions lowered between the previous
  // launch and the strip's — otherwise the strip could launch before its
  // halo/chunk arrives. Purely structural, so it catches a broken build and
  // a broken replay identically.
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active || !dp.windows.empty()) {
      continue;
    }
    const int loc = static_cast<int>(slot) + 1;
    auto gate = dp.commands.begin(); // instructions since the last launch
    for (auto cmd = gate; cmd != dp.commands.end(); ++cmd) {
      if (cmd->op != Command::Launch) {
        continue;
      }
      const SubKernel& sub = dp.sub[cmd->arg];
      for (std::size_t ci = 0; ci < dp.copies.size() && !sub.spans.empty();
           ++ci) {
        const PlannedCopy& c = dp.copies[ci];
        if (c.zero_fill) {
          continue; // ordered through the access map, not the copy gates
        }
        const StripSpan& sp =
            sub.spans[static_cast<std::size_t>(c.pattern_index)];
        if (intersect(c.dst_local, sp.read_local).empty()) {
          continue;
        }
        if (std::none_of(gate, cmd, [&](const Command& w) {
              return w.op == Command::Wait && w.arg == c.done;
            })) {
          report_ungated_strip(c.datum, loc, sp.read_local, c.dst_local);
        }
      }
      gate = cmd + 1;
    }
  }

  // 1c. A streamed window pass reads its windowed inputs from pooled
  // temporaries that still hold whatever an earlier window or task left
  // there, so each row it reads must come from one of its own refills.
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    for (std::size_t p = 0; dp.active && p < dp.windows.size(); ++p) {
      const WindowPass& win = dp.windows[p];
      for (std::size_t i = 0; i < dp.sub[p].spans.size(); ++i) {
        IntervalSet refilled;
        for (std::uint32_t ci = win.refill_begin; ci < win.drain_begin; ++ci) {
          const PlannedCopy& c = dp.copies[ci];
          if (static_cast<std::size_t>(c.pattern_index) == i &&
              !c.zero_fill &&
              std::find(plan.dropped.begin(), plan.dropped.end(),
                        std::pair(static_cast<int>(slot), ci)) ==
                  plan.dropped.end()) {
            refilled.add(c.rows);
          }
        }
        for (const RowInterval& iv : dp.sub[p].spans[i].read_global) {
          for (const RowInterval& miss : refilled.missing_from(iv)) {
            report_unrefilled_window(sh.specs[i].datum,
                                     static_cast<int>(slot) + 1, p, miss);
          }
        }
      }
    }
  }

  // 2. "Before each kernel executes": every input rectangle must be at the
  // latest version — aligned rectangles against the shadow map, halo-slot
  // rectangles against this dispatch's boundary refills.
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    const int loc = static_cast<int>(slot) + 1;
    for (std::size_t i = 0; i < dp.post.size(); ++i) {
      const PatternPost& post = dp.post[i];
      if (!post.active || !post.is_input) {
        continue;
      }
      for (const RowInterval& iv : post.reads) {
        on_read(post.datum, loc, iv);
      }
      for (const RowInterval& iv : post.halo_reads) {
        if (!halo_cover[slot][i].covers(iv)) {
          report_missing_halo(post.datum, loc, iv);
        }
      }
    }
  }

  // 3. Kernel outputs: aligned outputs advance their core rows to a fresh
  // version; private (duplicated) partials are handled by the aggregation
  // state below.
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    const int loc = static_cast<int>(slot) + 1;
    for (const PatternPost& post : dp.post) {
      if (post.active && !post.is_input && !post.private_copy) {
        on_write(post.datum, loc, post.core);
      }
    }
  }

  // 4. Reductive/unstructured outputs leave partial copies everywhere.
  for (const PatternSpec& s : sh.specs) {
    if (!s.is_input && s.agg != AggregationKind::None) {
      on_pending_aggregation(s.datum);
    }
  }
}

} // namespace maps::multi

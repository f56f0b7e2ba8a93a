// Runtime access sanitizer: a shadow write-version map over the multi-GPU
// pipeline.
//
// The whole value of MAPS-Multi is that every inter-GPU transfer is
// *inferred* from access-pattern hints (Algorithm 2). The failure mode of a
// bug in that inference — a missed halo exchange, a wrong bounding box, a
// plan-cache replay restoring the wrong location state — is not a crash but
// a silently-stale read that corrupts results. The sanitizer turns that
// class of bug into an immediate diagnostic.
//
// Model: every datum carries a monotonically increasing write-version. A
// `latest` interval map records, per global row range, the version the data
// *should* be at; a per-location `held` map records the version each
// location (host + device slots) actually holds. The scheduler advances the
// maps in program order at dispatch time — kernel outputs bump versions,
// inferred copies propagate them, gathers/aggregations resolve them — and,
// before each kernel executes, intersects the kernel's *input* pattern
// rectangles against the shadow map, asserting every row read is at the
// latest version. Because the hooks run on the plan the scheduler is about
// to execute (not on the monitor state it planned from), the build path and
// the plan-cache replay path are checked identically — replay is exactly the
// path that skips the monitor's per-copy marks.
//
// A violation throws SanitizerError naming the datum, device, stale
// rectangle, held vs latest version, and the transfer the Segment Location
// Monitor should have scheduled.
//
// The sanitizer is pure metadata: it never touches functional data, works in
// both Functional and TimingOnly modes, and costs one pointer test per
// dispatch when disabled (Scheduler::set_sanitizer_enabled).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "multi/datum.hpp"
#include "multi/interval_set.hpp"

namespace maps::multi {

namespace detail {
struct TaskPlan;
} // namespace detail

/// Thrown on a stale read / stale copy source / unresolved aggregation.
class SanitizerError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// One row range at one write-version. Version 0 means "never written /
/// not held".
struct VersionedRange {
  RowInterval rows;
  std::uint64_t version = 0;
};

/// Piecewise-constant map from global datum rows to write-versions: sorted,
/// disjoint, coalesced when adjacent ranges carry the same version. Rows
/// absent from the map are at version 0.
class VersionMap {
public:
  /// Overwrites the range with one version (version 0 erases).
  void assign(const RowInterval& rows, std::uint64_t version);
  /// Overwrites this map's `rows` with `src`'s piecewise versions of the
  /// same rows (used to propagate `latest` into a copy destination).
  void assign_from(const VersionMap& src, const RowInterval& rows);
  /// Appends the piecewise versions of `rows` to `out`, including version-0
  /// pieces for uncovered gaps; the pieces partition `rows` exactly.
  void query(const RowInterval& rows, std::vector<VersionedRange>& out) const;
  /// Version at a single row (0 when absent).
  std::uint64_t at(std::size_t row) const;

  void clear() { entries_.clear(); }
  bool empty() const { return entries_.empty(); }
  std::size_t entry_count() const { return entries_.size(); }
  const std::vector<VersionedRange>& entries() const { return entries_; }

private:
  std::vector<VersionedRange> entries_;
};

class AccessSanitizer {
public:
  /// Location convention follows SegmentLocationMonitor: 0 = host,
  /// 1 + slot = device slot.
  static constexpr int kHost = 0;

  explicit AccessSanitizer(int slots);

  /// Names the task whose effects the following hooks describe (diagnostics
  /// context only).
  void begin_context(std::uint64_t task, const std::string& label);

  /// Advances the shadow version map by one dispatch's copies, reads,
  /// writes and aggregations, in program order, checking each read. Runs
  /// before the plan's commands are issued, for builds and replays alike.
  void on_dispatch(const detail::TaskPlan& plan);

  // --- Program-order hooks (called by the Scheduler at dispatch time) -------

  /// An inferred copy landing at its global position: verifies the SOURCE
  /// holds the latest version of `rows` (a stale source means Algorithm 2
  /// chose a location that should have been invalidated), then stamps the
  /// destination with the propagated versions.
  void on_copy(const Datum* datum, int src_location, int dst_location,
               const RowInterval& rows);
  /// A boundary copy into a Wrap/Clamp halo slot (rows do NOT land at their
  /// global position): the source freshness check only.
  void on_halo_source(const Datum* datum, int src_location,
                      const RowInterval& rows);
  /// Kernel input check: every row of `rows` must be held at `location` at
  /// its latest version. Throws SanitizerError otherwise.
  void on_read(const Datum* datum, int location, const RowInterval& rows);
  /// Reports a halo-slot read whose refill copy never ran this task.
  [[noreturn]] void report_missing_halo(const Datum* datum, int location,
                                        const RowInterval& rows);
  /// Reports an interior/boundary sub-kernel whose read span overlaps an
  /// inferred copy that does not gate it — the strip could launch before its
  /// halo (or chunk) lands. Caught structurally at dispatch time, for builds
  /// and plan-cache replays alike.
  [[noreturn]] void report_ungated_strip(const Datum* datum, int location,
                                         const RowInterval& strip_rows,
                                         const RowInterval& copy_rows);
  /// Reports a streamed window pass reading rows that none of its own
  /// refills brought into its (pooled, reused) window temporaries.
  [[noreturn]] void report_unrefilled_window(const Datum* datum, int location,
                                             std::size_t window,
                                             const RowInterval& rows);
  /// Kernel output: `rows` advance to a fresh version held only by `writer`.
  void on_write(const Datum* datum, int writer, const RowInterval& rows);
  /// Reductive/unstructured output: every replica becomes a partial copy; the
  /// datum is unreadable until an aggregation resolves it.
  void on_pending_aggregation(const Datum* datum);
  /// Gather aggregated the partials: the host holds the (fresh) result.
  void on_aggregation_resolved_host(const Datum* datum);
  /// ReduceScatter is resolving the partials device-side; the per-slot
  /// results are recorded through on_write.
  void on_aggregation_scattered(const Datum* datum);
  /// Out-of-band host write (MarkHostModified / re-Bind): the host buffer
  /// becomes the sole holder of a fresh version of every row.
  void on_host_write(const Datum* datum);
  /// Device-loss recovery: the location's replicas are gone. Clears its held
  /// maps and rewinds `latest` to the pointwise maximum version any surviving
  /// location still holds — minted writes the dead device never exchanged are
  /// rolled back so the re-executed repair writes can mint fresh versions
  /// that the survivors can actually reach. Pending-aggregation datums keep
  /// their whole-datum bump (partials are valid nowhere by definition).
  void on_device_lost(int location);
  /// One datum's replicas at one location were discarded without the device
  /// dying (buffer reallocated after a post-loss repartition): clear the held
  /// map only — `latest` stays reachable through the host mirror.
  void on_holdings_dropped(const Datum* datum, int location);
  /// Zeroes the check/write counters (shadow state is untouched).
  void reset_stats() { stats_ = Stats{}; }

  // --- Introspection ---------------------------------------------------------
  struct Stats {
    std::uint64_t tasks_checked = 0;  ///< begin_context calls
    std::uint64_t copies_checked = 0; ///< on_copy + on_halo_source
    std::uint64_t rects_checked = 0;  ///< on_read rectangles
    std::uint64_t writes_recorded = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Version each row range of the datum should be at (testing aid).
  const VersionMap& latest(const Datum* datum);
  /// Versions a location actually holds (testing aid).
  const VersionMap& held(const Datum* datum, int location);

private:
  struct ShadowState {
    std::uint64_t next_version = 1;
    bool pending_aggregation = false;
    VersionMap latest;
    std::vector<VersionMap> held; ///< per location
  };
  ShadowState& ensure(const Datum* datum);
  void check_fresh(const Datum* datum, int location, const RowInterval& rows,
                   const char* role);
  [[noreturn]] void fail_stale(const Datum* datum, int location,
                               const VersionedRange& held_piece,
                               std::uint64_t latest_version, const char* role);
  std::string location_name(int location) const;
  std::string context() const;
  /// A location currently holding `rows` at version `version`, or -1.
  int find_holder(const ShadowState& s, const RowInterval& rows,
                  std::uint64_t version) const;

  int locations_;
  std::uint64_t task_ = 0;
  std::string label_;
  Stats stats_;
  std::unordered_map<const void*, ShadowState> states_;
  std::vector<VersionedRange> scratch_held_, scratch_latest_;
};

} // namespace maps::multi

// Out-of-core residency policy (DESIGN.md §5.16, §5.17): which allocations
// stay resident under a per-device memory budget, which get evicted, and how
// a task too large for the budget streams as row-window passes through
// pooled window temporaries. Residency decides; the scheduler keeps the
// mechanism (write back, free the buffer, reset the location's ordering
// state, drop the cached plans).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "multi/hash_util.hpp"
#include "multi/location_monitor.hpp"
#include "multi/memory_analyzer.hpp"
#include "multi/plan_types.hpp"

namespace maps::multi {

/// Thrown when the device-memory budget cannot be honoured: a task needs more
/// device memory than the budget even with every evictable resident spilled,
/// or its streamed form cannot fit a single window (budget smaller than one
/// segment's working set), or its shape cannot be streamed at all. The what()
/// string names the offending datum/slot and the relevant byte counts.
class OutOfCoreError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

namespace detail {

class Residency {
public:
  /// `devices`: sim device id per scheduler slot.
  Residency(sim::Node& node, const std::vector<int>& devices,
            MemoryAnalyzer& analyzer, SegmentLocationMonitor& monitor)
      : node_(node), devices_(devices), analyzer_(analyzer),
        monitor_(monitor) {}

  /// Bytes per device; 0 (the default) is the unlimited in-core behaviour.
  std::size_t budget() const { return budget_; }
  void set_budget(std::size_t bytes) { budget_ = bytes; }
  bool prefetch() const { return prefetch_; }
  void set_prefetch(bool on) { prefetch_ = on; }

  /// LRU recency: every datum `specs` references counts as touched on every
  /// `live` slot, for cache hits and builds alike — a replayed plan keeps
  /// its buffers exactly as warm as a rebuilt one would.
  void touch(const std::vector<PatternSpec>& specs,
             const std::vector<int>& live);
  /// The stream-or-evict decision: a task streams when its own working set
  /// — the planned bytes of every datum it touches, per its recorded
  /// requirements `reqs` (per segment) — exceeds the budget on some slot.
  bool must_stream(const std::vector<PatternSpec>& specs,
                   const std::vector<std::vector<SegmentReq>>& reqs,
                   const std::vector<int>& live) const;
  /// Residents to evict from `slot`, coldest first (stable on ties), so the
  /// task's datums fit; `after` receives the slot's projected bytes once
  /// they are gone. Never the task's own datums, pending aggregation
  /// partials (valid nowhere else) or unbound datums (nowhere to spill).
  /// Pooled window temporaries are not counted: they are the first victims,
  /// released whenever there are resident victims or !pool_fits(slot, after).
  std::vector<const Datum*> victims(int slot,
                                    const std::vector<PatternSpec>& specs,
                                    std::size_t& after) const;
  /// Whether `slot`'s pooled window temporaries, if any, fit beside
  /// `resident_bytes`.
  bool pool_fits(int slot, std::size_t resident_bytes) const {
    const std::size_t pooled = pool_bytes(slot);
    return pooled == 0 || resident_bytes + pooled <= budget_;
  }
  /// Throws OutOfCoreError when `after` bytes still exceed the budget.
  void require_fit(int slot, std::size_t after) const;
  /// Residents a streamed task clears from `slot`: all but its
  /// whole-requirement datums that still fit their buffers. `pinned`
  /// accumulates the bytes of the residents that cannot go; `drop_pool` is
  /// set when the slot's pooled window temporaries no longer fit beside the
  /// residents that stay.
  std::vector<const Datum*>
  stream_victims(int slot, const std::vector<PatternSpec>& specs,
                 const std::vector<SegmentReq>& reqs, std::size_t& pinned,
                 bool& drop_pool) const;
  /// Throws OutOfCoreError, naming the cause, for task shapes the window
  /// decomposition cannot stream.
  void check_streamable(const std::vector<PatternSpec>& specs,
                        const std::vector<std::vector<SegmentReq>>& reqs,
                        const char* label) const;
  /// Window size in block rows: the largest window two of which fit beside
  /// `persistent_bytes` of residents. Throws OutOfCoreError when not even
  /// one block row does.
  std::size_t window_block_rows(const PlanShape& shape,
                                const std::vector<SegmentReq>& reqs, int seg,
                                int slot, std::size_t persistent_bytes,
                                const char* label) const;
  /// Plans segment `seg` on `slot` as W >= 1 row-window passes:
  /// persistent-operand fills, window size and every window's refills,
  /// binding and drains, as `dp.windows` and one launch each in `dp.sub`
  /// (lower_windows orders them into commands). The ping-pong window
  /// temporaries come from the slot's pool (bind_temps). Runs on a drained
  /// node (the scheduler's prepare_stream); returns true when it released
  /// pooled buffers, which cached plans may still bind.
  bool plan_windows(PlanShape& shape, DevicePlan& dp, int seg, int slot,
                    const std::vector<SegmentReq>& reqs,
                    std::size_t persistent_bytes, const char* label);

  /// Frees `slot`'s pooled window temporaries (every slot's for -1). The
  /// caller drains the node first and drops the cached plans that bind
  /// them.
  void release_pool(int slot = -1);

private:
  bool pinned(const Datum* datum) const {
    return monitor_.pending_aggregation(datum) != nullptr || !datum->bound();
  }
  std::size_t pool_bytes(int slot) const;
  /// One buffer per entry of `bytes` from `slot`'s pool: a pooled buffer of
  /// that size where one is free, else a new allocation. Pooled buffers no
  /// entry took are released first when they would not fit beside the slot's
  /// residents and the new allocations; returns true when any were.
  bool bind_temps(int slot, const std::vector<std::size_t>& bytes,
                  std::vector<sim::Buffer*>& out);

  /// One window temporary. A streamed plan binds it for as long as the plan
  /// is cached; every streamed dispatch ends with the node drained, so the
  /// plans that share it never overlap in flight.
  struct PooledTemp {
    int slot = 0;
    std::size_t bytes = 0;
    sim::Buffer* buffer = nullptr;
    bool taken = false; ///< bound by the bind_temps call in progress
  };

  sim::Node& node_;
  const std::vector<int>& devices_;
  MemoryAnalyzer& analyzer_;
  SegmentLocationMonitor& monitor_;
  std::size_t budget_ = 0;
  bool prefetch_ = true;
  /// Recency per (datum key, slot). Keys of destroyed datums linger
  /// harmlessly (never dereferenced).
  std::uint64_t touch_counter_ = 0;
  std::unordered_map<std::pair<const void*, int>, std::uint64_t,
                     PtrIntPairHash>
      last_touch_;
  std::vector<PooledTemp> pool_;
};

} // namespace detail
} // namespace maps::multi

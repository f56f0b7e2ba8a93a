// The Memory Analyzer (§4.2 of the paper).
//
// Per-device buffers can be (a) whole-datum preallocations, (b) fragmented
// runtime allocations, or (c) exact preallocations from the access-pattern
// specification. MAPS-Multi — and this reproduction — implements (c): the
// analyzer tracks, per (datum, device), the bounding box of every segment
// requirement seen so far (AnalyzeCall), then materializes one contiguous
// device buffer covering it.
//
// As in the paper, requirements discovered only after allocation are a
// programmer error: if a later task needs a larger box than what was
// allocated, ensure() throws with guidance to AnalyzeCall all tasks first
// (§4.2: "a framework runtime error could occur when insufficient memory is
// allocated").
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/node.hpp"

#include "multi/datum.hpp"
#include "multi/hash_util.hpp"
#include "multi/segmenter.hpp"

namespace maps::multi {

class MemoryAnalyzer {
public:
  /// `devices`: sim device id per scheduler slot.
  MemoryAnalyzer(sim::Node& node, std::vector<int> devices);
  ~MemoryAnalyzer();
  MemoryAnalyzer(const MemoryAnalyzer&) = delete;
  MemoryAnalyzer& operator=(const MemoryAnalyzer&) = delete;

  /// Bounding box of all requirements recorded for (datum, slot), in virtual
  /// global rows [origin, end).
  struct Plan {
    long origin = 0;
    long end = 0;
    std::size_t extra_tail_bytes = 0; ///< e.g. write masks (MaskedMerge)
    std::size_t rows() const { return static_cast<std::size_t>(end - origin); }
  };

  /// Materialized device buffer for (datum, slot).
  struct Alloc {
    sim::Buffer* buffer = nullptr;
    long origin = 0;
    std::size_t rows = 0;
    std::size_t row_bytes = 0;

    /// Byte offset of a virtual global row inside the buffer.
    std::size_t row_offset(long virtual_row) const {
      return static_cast<std::size_t>(virtual_row - origin) * row_bytes;
    }
    /// Global datum rows `rows` in this buffer's local row coordinates.
    RowInterval local(RowInterval rows) const {
      return RowInterval{
          static_cast<std::size_t>(static_cast<long>(rows.begin) - origin),
          static_cast<std::size_t>(static_cast<long>(rows.end) - origin)};
    }
  };

  /// Records one requirement (AnalyzeCall path; also called lazily from
  /// Invoke for unanalyzed tasks).
  void record(const PatternSpec& spec, const SegmentReq& req, int slot);

  /// Returns the allocation for (datum, slot), materializing it on first
  /// use. Throws if the recorded plan outgrew an existing allocation.
  const Alloc& ensure(const Datum* datum, int slot);

  /// Allocation lookup without materialization (nullptr if none).
  const Alloc* find(const Datum* datum, int slot) const;
  /// Plan lookup (nullptr if the datum was never analyzed for this slot).
  const Plan* plan(const Datum* datum, int slot) const;

  /// Total bytes currently allocated on a slot by the analyzer.
  std::size_t allocated_bytes(int slot) const;

  // --- Device-loss recovery -------------------------------------------------

  /// Frees and forgets every plan/allocation on a lost slot. The slot can be
  /// analyzed again later, but the scheduler never does — it is dead.
  void drop_slot(int slot);
  /// True when the recorded plan outgrew an existing allocation — the
  /// condition under which ensure() would throw. The fault-tolerant scheduler
  /// probes this after a post-loss repartition to reallocate instead.
  bool needs_grow(const Datum* datum, int slot) const;
  /// Discards the (datum, slot) allocation so the next ensure() materializes
  /// a buffer sized to the grown plan. Contents are NOT migrated; the caller
  /// must invalidate the location's holdings.
  void grow(const Datum* datum, int slot);

  // --- Out-of-core eviction -------------------------------------------------

  /// Evicts the (datum, slot) allocation under the device-memory budget:
  /// the buffer is freed but the plan survives, so the next ensure()
  /// rematerializes a buffer of the same bounding box — that
  /// rematerialization (plus the monitor-planned copies into it) is the
  /// refill. Mechanically identical to grow(); a separate entry point so
  /// call sites read as residency policy, not as repartition recovery.
  /// Contents are NOT migrated; the caller must write back dirty rows and
  /// mark the holding spilled first.
  void evict(const Datum* datum, int slot) { grow(datum, slot); }

  /// Bytes ensure() would materialize for (datum, slot) given the recorded
  /// plan — the working-set contribution used by the scheduler's budget
  /// check. Zero when the datum was never analyzed for the slot.
  std::size_t planned_bytes(const Datum* datum, int slot) const;

  /// One materialized allocation on a slot, for eviction-policy scans.
  struct Resident {
    const Datum* datum = nullptr;
    const Alloc* alloc = nullptr;
  };
  /// Every allocation currently materialized on `slot`, sorted by datum name
  /// (hash-map iteration order must not leak into eviction decisions — the
  /// LRU tie-break has to be deterministic for the pinned-counter tests).
  std::vector<Resident> resident(int slot) const;

  /// Releases all device buffers (also done by the destructor).
  void release_all();

private:
  using Key = std::pair<const void*, int>;
  sim::Node& node_;
  std::vector<int> devices_;
  std::unordered_map<Key, Plan, PtrIntPairHash> plans_;
  std::unordered_map<Key, Alloc, PtrIntPairHash> allocs_;
  std::unordered_map<Key, const Datum*, PtrIntPairHash> datum_of_;
};

} // namespace maps::multi

// Half-open row-interval arithmetic used by the Segment Location Monitor and
// the Scheduler's dependency tracking.
//
// All MAPS-Multi transfers in this reproduction are bands of whole rows along
// the partition dimension (DESIGN.md §5), so the N-dimensional rectangle
// intersections of the paper's Algorithm 2 reduce to 1-D interval algebra on
// row ranges. The operations here are exactly the primitives that algorithm
// needs: intersection, subtraction and coverage tests over sorted disjoint
// interval sets.
//
// IntervalEventMap / AccessIntervalMap track which simulated event produced
// (or last accessed) each row range of a buffer. Both keep their entries
// sorted and disjoint, so lookups binary-search to the affected range and
// updates splice it in place — O(log n + k) instead of the linear scans a
// flat (interval, event) list needs. Adjacent ranges carrying the same
// event(s) are merged on insert, so steady-state loops that repeatedly touch
// the same bands keep the maps at their natural, bounded size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace maps::multi {

/// Half-open interval of global datum rows: [begin, end).
struct RowInterval {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
  bool empty() const { return end <= begin; }
  friend bool operator==(const RowInterval&, const RowInterval&) = default;
};

/// Intersection of two intervals (empty interval when disjoint).
RowInterval intersect(const RowInterval& a, const RowInterval& b);

/// A set of disjoint, sorted intervals.
class IntervalSet {
public:
  IntervalSet() = default;
  explicit IntervalSet(std::vector<RowInterval> intervals);

  void add(RowInterval iv);    ///< Union with one interval (merges).
  void remove(RowInterval iv); ///< Set difference with one interval.
  void clear() { intervals_.clear(); }

  bool covers(const RowInterval& iv) const;
  bool empty() const { return intervals_.empty(); }
  std::size_t total_rows() const;

  /// Portions of `iv` contained in this set.
  std::vector<RowInterval> intersection_with(const RowInterval& iv) const;
  /// Portions of `iv` NOT contained in this set.
  std::vector<RowInterval> missing_from(const RowInterval& iv) const;

  const std::vector<RowInterval>& intervals() const { return intervals_; }

private:
  void normalize();
  std::vector<RowInterval> intervals_;
};

/// Tracks which simulated event made each row range of a buffer available at
/// one location. Availability must be range-granular: a halo fill into a
/// device must not serialize peers that read the device's core rows (coarse
/// per-location events recreate the very exchange-ring serialization the
/// framework exists to avoid). Entries are sorted, disjoint, and coalesced
/// when adjacent ranges share a producing event.
class IntervalEventMap {
public:
  /// Overwrites the range with a new producing event.
  void update(const RowInterval& rows, int event);
  /// Events producing any part of the range, appended to `out` and
  /// deduplicated against out[dedup_from..] (callers packing several wait
  /// lists into one flat pool dedup only within their own range).
  void collect(const RowInterval& rows, std::vector<int>& out,
               std::size_t dedup_from = 0) const;

  std::size_t entry_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

private:
  struct Entry {
    RowInterval iv;
    int event = 0;
  };
  void coalesce_around(std::size_t lo, std::size_t hi);
  std::vector<Entry> entries_; ///< sorted by iv.begin, disjoint
};

/// Range-granular access ordering for one buffer at one location, in LOCAL
/// buffer rows. Writers must wait for every prior reader/writer of the rows
/// they touch (WAR/WAW); readers accumulate per range and are compacted by
/// the next write of those rows (the write already waited on them, so any
/// later writer is ordered transitively). Readers are stored as a sorted
/// disjoint interval map onto event sets: registering the same (range,
/// event) twice is a no-op, so reader lists stay bounded across steady-state
/// loops instead of growing with every task.
class AccessIntervalMap {
public:
  void add_reader(const RowInterval& rows, int event);
  /// Registers a write: waits-for semantics are obtained by calling
  /// collect() first; write() then supersedes all overlapped entries.
  void write(const RowInterval& rows, int event);
  /// Events of every reader/writer overlapping the range, appended to `out`
  /// and deduplicated against out[dedup_from..].
  void collect(const RowInterval& rows, std::vector<int>& out,
               std::size_t dedup_from = 0) const;

  std::size_t entry_count() const {
    return writers_.size() + readers_.size();
  }
  std::size_t reader_entry_count() const { return readers_.size(); }
  void clear() {
    writers_.clear();
    readers_.clear();
  }

private:
  struct Writer {
    RowInterval iv;
    int event = 0;
  };
  /// A reader entry's distinct events, in insertion order. Almost every
  /// entry holds one or two (a strip's launch, a neighbour's halo pull), so
  /// those live inline and only a larger set spills to the heap.
  class EventSet {
  public:
    EventSet() = default;
    explicit EventSet(int event) { insert(event); }
    const int* begin() const {
      return size_ <= kInline ? inline_ : overflow_.data();
    }
    const int* end() const { return begin() + size_; }
    /// Adds `event` unless the set holds it already.
    void insert(int event) {
      if (std::find(begin(), end(), event) != end()) {
        return;
      }
      if (size_ < kInline) {
        inline_[size_] = event;
      } else {
        if (size_ == kInline) {
          overflow_.assign(inline_, inline_ + kInline);
        }
        overflow_.push_back(event);
      }
      ++size_;
    }
    friend bool operator==(const EventSet& a, const EventSet& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    static constexpr std::uint32_t kInline = 2;
    std::uint32_t size_ = 0;
    int inline_[kInline] = {};
    std::vector<int> overflow_; ///< every event, once there are > kInline
  };
  struct Readers {
    RowInterval iv;
    EventSet events;
  };
  void coalesce_writers_around(std::size_t lo, std::size_t hi);
  void coalesce_readers_around(std::size_t lo, std::size_t hi);
  std::vector<Writer> writers_;   ///< sorted, disjoint
  std::vector<Readers> readers_;  ///< sorted, disjoint
  std::vector<Readers> repl_scratch_; ///< add_reader splice staging, reused
};

} // namespace maps::multi

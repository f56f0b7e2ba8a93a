// Steady-state plan cache (DESIGN.md §5.17): the paper's loops issue
// thousands of identically shaped tasks, and the sub-1% host overhead of
// §5.3 (Table 4) only holds if Invoke does not replan each from scratch.
// A task is fingerprinted by its pattern specs, Work, CostHints and the
// scheduler settings a plan bakes in; a cached plan replays when every
// referenced datum's location state matches the state captured at plan time
// — Celerity's command-graph reuse and Lightning's plan-once/execute-many
// applied to Algorithm 1. The cache only remembers; it never touches the
// simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "multi/location_monitor.hpp"
#include "multi/plan_types.hpp"
#include "multi/routine.hpp"
#include "multi/task_cost.hpp"

namespace maps::multi::detail {

class PlanCache {
public:
  /// Canonical word encoding of everything the planning pass depends on
  /// besides location-monitor state.
  struct Fingerprint {
    std::vector<std::uint64_t> words;
    std::uint64_t hash = 0;
    friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
      return a.hash == b.hash && a.words == b.words;
    }
  };

  /// Location-monitor state of one referenced datum, captured immediately
  /// before the build's own mutations. `epoch` equality is the O(1) fast
  /// path; steady-state loops cycle the monitor through a periodic state
  /// sequence, so on epoch mismatch the exact snapshot decides and, on
  /// match, re-arms the stored epoch.
  struct DatumCapture {
    const Datum* datum = nullptr;
    const void* host_ptr = nullptr; ///< bound buffer; re-Bind invalidates
    mutable std::uint64_t epoch = 0;
    std::vector<std::uint64_t> snapshot;
  };

  /// Post-build location state of one referenced datum. Replay restores it
  /// wholesale: the hit proved the pre-states equal, so the post-state is
  /// the same deterministic function of (plan, pre-state).
  struct DatumPostState {
    const Datum* datum = nullptr;
    SegmentLocationMonitor::StateCopy state;
  };

  /// One cached plan shape together with the monitor state it was built
  /// under (`captures`, the validity oracle) and the state it left behind
  /// (`post_state`, applied on replay).
  struct Entry {
    std::shared_ptr<const PlanShape> shape;
    std::vector<DatumCapture> captures;
    std::vector<DatumPostState> post_state;
  };

  /// A task shape invoked from several points of a loop body sees a
  /// different (but per-site periodic) monitor state at each site — e.g.
  /// NMF calls the same V-tilde task before and after MarkHostModified(H) —
  /// so each fingerprint keeps a small MRU-ordered set of state variants.
  static constexpr std::size_t kVariantsPerFingerprint = 4;

  explicit PlanCache(std::size_t capacity = 64) : capacity_(capacity) {}

  /// CustomAligned row mappings are opaque host functions: two Invokes with
  /// equal fingerprints could still need different rows.
  static bool cacheable(const std::vector<PatternSpec>& specs);
  /// `settings`: the scheduler configuration words the plan bakes in;
  /// `live`: the segment -> slot map, encoded exactly (size, then slots).
  static Fingerprint fingerprint(std::span<const std::uint64_t> settings,
                                 const std::vector<int>& live,
                                 const std::vector<PatternSpec>& specs,
                                 const Work* work, const CostHints& hints,
                                 const char* label);
  /// Pre-build state of every distinct datum `specs` references.
  static std::vector<DatumCapture>
  capture(const std::vector<PatternSpec>& specs,
          const SegmentLocationMonitor& monitor);
  /// Post-build state of every captured datum the build changed.
  static std::vector<DatumPostState>
  capture_post(const std::vector<DatumCapture>& pre,
               const SegmentLocationMonitor& monitor);

  /// The variant of `fp` valid under the monitor's current state, promoted
  /// to most recently used; null when none is. `known` reports whether the
  /// fingerprint had any variant at all.
  const Entry* lookup(const Fingerprint& fp,
                      const SegmentLocationMonitor& monitor, bool& known);
  /// Adds a variant (the oldest beyond kVariantsPerFingerprint is dropped).
  /// Returns the shapes evicted by the LRU bound; capacity 0 stores nothing.
  std::size_t insert(Fingerprint fp, Entry entry);
  /// Returns the shapes evicted to fit the new bound.
  std::size_t set_capacity(std::size_t n);
  /// Drops every shape; returns how many there were.
  std::size_t clear() { return evict_to(0); }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return slots_.size(); }

private:
  struct FingerprintHash {
    std::size_t operator()(const Fingerprint& fp) const {
      return static_cast<std::size_t>(fp.hash);
    }
  };
  struct Slot {
    std::vector<Entry> variants; ///< front = most recently used
    std::list<Fingerprint>::iterator lru_it;
  };
  static bool valid(const std::vector<DatumCapture>& captures,
                    const SegmentLocationMonitor& monitor);
  /// The one eviction loop: drops least recently used shapes until at most
  /// `n` remain; returns how many it dropped.
  std::size_t evict_to(std::size_t n);

  std::unordered_map<Fingerprint, Slot, FingerprintHash> slots_;
  std::list<Fingerprint> lru_; ///< front = most recently used
  std::size_t capacity_;
};

} // namespace maps::multi::detail

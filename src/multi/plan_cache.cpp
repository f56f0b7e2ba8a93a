#include "multi/plan_cache.hpp"

#include <algorithm>
#include <bit>

#include "multi/hash_util.hpp"

namespace maps::multi::detail {

bool PlanCache::cacheable(const std::vector<PatternSpec>& specs) {
  return std::none_of(specs.begin(), specs.end(),
                      [](const PatternSpec& s) { return bool(s.custom_rows); });
}

PlanCache::Fingerprint
PlanCache::fingerprint(std::span<const std::uint64_t> settings,
                       const std::vector<int>& live,
                       const std::vector<PatternSpec>& specs, const Work* work,
                       const CostHints& hints, const char* label) {
  Fingerprint fp;
  auto& w = fp.words;
  w.reserve(specs.size() * 12 + settings.size() + live.size() + 9);
  w.push_back(0x4d415053'46503107ull); // "MAPS" fingerprint, version 7
  w.insert(w.end(), settings.begin(), settings.end());
  // The live order is the segment -> slot map itself: device losses shrink
  // it and topology-aware placement permutes it, and a plan built under one
  // map must never replay under another.
  w.push_back(live.size());
  for (int s : live) {
    w.push_back(static_cast<std::uint64_t>(s));
  }
  w.push_back(specs.size());
  for (const auto& s : specs) {
    w.push_back(reinterpret_cast<std::uintptr_t>(s.datum->key()));
    // Shape guards the (unlikely) reuse of a datum address by a new datum.
    w.push_back(s.datum->rows());
    w.push_back(s.datum->row_elems());
    w.push_back(s.datum->elem_size());
    w.push_back((static_cast<std::uint64_t>(s.kind) << 32) |
                (static_cast<std::uint64_t>(s.seg) << 16) |
                (static_cast<std::uint64_t>(s.agg) << 8) |
                (s.is_input ? 1u : 0u));
    w.push_back(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(s.radius_low)));
    w.push_back(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(s.radius_high)));
    w.push_back((static_cast<std::uint64_t>(s.boundary) << 32) |
                (static_cast<std::uint64_t>(s.ilp_x) << 16) |
                static_cast<std::uint64_t>(s.ilp_y));
    w.push_back(s.row_scale_num);
    w.push_back(s.row_scale_den);
  }
  if (work != nullptr) {
    w.push_back(1);
    w.push_back(work->rows);
    w.push_back(work->cols);
    w.push_back(work->single_device ? 1 : 0);
  } else {
    w.push_back(0);
  }
  w.push_back(std::bit_cast<std::uint64_t>(hints.flops_per_elem));
  w.push_back(std::bit_cast<std::uint64_t>(hints.instr_per_thread));
  w.push_back(std::bit_cast<std::uint64_t>(hints.flop_efficiency));
  // Cost label (kernel/routine family) feeds the launch-stats label.
  std::uint64_t lh = 0xcbf29ce484222325ull;
  for (const char* p = label; *p != '\0'; ++p) {
    lh = (lh ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
  }
  w.push_back(lh);
  fp.hash = hash_words(w.data(), w.size());
  return fp;
}

std::vector<PlanCache::DatumCapture>
PlanCache::capture(const std::vector<PatternSpec>& specs,
                   const SegmentLocationMonitor& monitor) {
  std::vector<DatumCapture> caps;
  caps.reserve(specs.size());
  for (const auto& s : specs) {
    const Datum* d = s.datum;
    if (std::any_of(caps.begin(), caps.end(), [&](const DatumCapture& c) {
          return c.datum->key() == d->key();
        })) {
      continue;
    }
    DatumCapture cap;
    cap.datum = d;
    cap.host_ptr = d->bound() ? d->host_raw() : nullptr;
    cap.epoch = monitor.epoch(d);
    monitor.state_snapshot(d, cap.snapshot);
    caps.push_back(std::move(cap));
  }
  return caps;
}

std::vector<PlanCache::DatumPostState>
PlanCache::capture_post(const std::vector<DatumCapture>& pre,
                        const SegmentLocationMonitor& monitor) {
  std::vector<DatumPostState> post;
  for (const DatumCapture& c : pre) {
    // A datum the build left untouched (typically an input already resident
    // everywhere it is needed) keeps the pre-state the hit will have
    // re-proved, so replay has nothing to restore for it.
    if (c.epoch != monitor.epoch(c.datum)) {
      post.emplace_back().datum = c.datum;
      monitor.capture_state(c.datum, post.back().state);
    }
  }
  return post;
}

bool PlanCache::valid(const std::vector<DatumCapture>& captures,
                      const SegmentLocationMonitor& monitor) {
  std::vector<std::uint64_t> cur;
  for (const auto& cap : captures) {
    const void* host = cap.datum->bound() ? cap.datum->host_raw() : nullptr;
    if (host != cap.host_ptr) {
      return false; // re-Bind: cached host source addresses are stale
    }
    const std::uint64_t e = monitor.epoch(cap.datum);
    if (e == cap.epoch) {
      continue;
    }
    cur.clear();
    monitor.state_snapshot(cap.datum, cur);
    if (cur != cap.snapshot) {
      return false;
    }
    // Periodic steady state (e.g. double buffering) came back around to the
    // captured state under a different epoch; re-arm the fast path.
    cap.epoch = e;
  }
  return true;
}

const PlanCache::Entry* PlanCache::lookup(const Fingerprint& fp,
                                          const SegmentLocationMonitor& monitor,
                                          bool& known) {
  auto it = slots_.find(fp);
  known = it != slots_.end();
  if (!known) {
    return nullptr;
  }
  auto& vars = it->second.variants;
  for (std::size_t vi = 0; vi < vars.size(); ++vi) {
    if (valid(vars[vi].captures, monitor)) {
      std::rotate(vars.begin(), vars.begin() + vi, vars.begin() + vi + 1);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return &vars.front();
    }
  }
  return nullptr;
}

std::size_t PlanCache::insert(Fingerprint fp, Entry entry) {
  auto it = slots_.find(fp);
  if (it != slots_.end()) { // new state variant of an already-cached shape
    auto& vars = it->second.variants;
    vars.insert(vars.begin(), std::move(entry));
    if (vars.size() > kVariantsPerFingerprint) {
      vars.pop_back();
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return 0;
  }
  if (capacity_ == 0) {
    return 0;
  }
  const std::size_t evicted = evict_to(capacity_ - 1);
  lru_.push_front(fp);
  Slot slot;
  slot.variants.push_back(std::move(entry));
  slot.lru_it = lru_.begin();
  slots_[std::move(fp)] = std::move(slot);
  return evicted;
}

std::size_t PlanCache::set_capacity(std::size_t n) {
  capacity_ = n;
  return evict_to(n);
}

std::size_t PlanCache::evict_to(std::size_t n) {
  std::size_t evicted = 0;
  while (slots_.size() > n) {
    slots_.erase(lru_.back());
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

} // namespace maps::multi::detail

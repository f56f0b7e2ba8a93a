#include "multi/interval_set.hpp"

#include <algorithm>

namespace maps::multi {

RowInterval intersect(const RowInterval& a, const RowInterval& b) {
  RowInterval r{std::max(a.begin, b.begin), std::min(a.end, b.end)};
  if (r.empty()) {
    return RowInterval{0, 0};
  }
  return r;
}

IntervalSet::IntervalSet(std::vector<RowInterval> intervals)
    : intervals_(std::move(intervals)) {
  normalize();
}

void IntervalSet::normalize() {
  std::erase_if(intervals_, [](const RowInterval& iv) { return iv.empty(); });
  std::sort(intervals_.begin(), intervals_.end(),
            [](const RowInterval& a, const RowInterval& b) {
              return a.begin < b.begin;
            });
  std::vector<RowInterval> merged;
  for (const auto& iv : intervals_) {
    if (!merged.empty() && iv.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  intervals_ = std::move(merged);
}

void IntervalSet::add(RowInterval iv) {
  if (iv.empty()) {
    return;
  }
  // Entries are sorted and disjoint, so begins and ends are both increasing:
  // binary-search the affected window and splice instead of re-sorting.
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv.begin,
      [](const RowInterval& e, std::size_t v) { return e.end < v; });
  auto last = first;
  while (last != intervals_.end() && last->begin <= iv.end) {
    iv.begin = std::min(iv.begin, last->begin);
    iv.end = std::max(iv.end, last->end);
    ++last;
  }
  auto pos = intervals_.erase(first, last);
  intervals_.insert(pos, iv);
}

void IntervalSet::remove(RowInterval iv) {
  if (iv.empty()) {
    return;
  }
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv.begin,
      [](const RowInterval& e, std::size_t v) { return e.end <= v; });
  auto last = first;
  RowInterval left{0, 0}, right{0, 0};
  while (last != intervals_.end() && last->begin < iv.end) {
    if (last->begin < iv.begin) {
      left = RowInterval{last->begin, iv.begin};
    }
    if (last->end > iv.end) {
      right = RowInterval{iv.end, last->end};
    }
    ++last;
  }
  auto pos = intervals_.erase(first, last);
  if (!right.empty()) {
    pos = intervals_.insert(pos, right);
  }
  if (!left.empty()) {
    intervals_.insert(pos, left);
  }
}

bool IntervalSet::covers(const RowInterval& iv) const {
  if (iv.empty()) {
    return true;
  }
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv.begin,
      [](const RowInterval& e, std::size_t v) { return e.end <= v; });
  return it != intervals_.end() && it->begin <= iv.begin && it->end >= iv.end;
}

std::size_t IntervalSet::total_rows() const {
  std::size_t n = 0;
  for (const auto& iv : intervals_) {
    n += iv.size();
  }
  return n;
}

std::vector<RowInterval>
IntervalSet::intersection_with(const RowInterval& iv) const {
  std::vector<RowInterval> result;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv.begin,
      [](const RowInterval& e, std::size_t v) { return e.end <= v; });
  for (; it != intervals_.end() && it->begin < iv.end; ++it) {
    RowInterval x = intersect(*it, iv);
    if (!x.empty()) {
      result.push_back(x);
    }
  }
  return result;
}

std::vector<RowInterval>
IntervalSet::missing_from(const RowInterval& iv) const {
  std::vector<RowInterval> result;
  std::size_t pos = iv.begin;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv.begin,
      [](const RowInterval& e, std::size_t v) { return e.end <= v; });
  for (; it != intervals_.end() && it->begin < iv.end; ++it) {
    if (it->begin > pos) {
      result.push_back(RowInterval{pos, it->begin});
    }
    pos = std::max(pos, it->end);
  }
  if (pos < iv.end) {
    result.push_back(RowInterval{pos, iv.end});
  }
  return result;
}

// --- IntervalEventMap --------------------------------------------------------

void IntervalEventMap::coalesce_around(std::size_t lo, std::size_t hi) {
  std::size_t i = std::max<std::size_t>(lo, 1);
  while (i < entries_.size() && i <= hi) {
    if (entries_[i - 1].iv.end == entries_[i].iv.begin &&
        entries_[i - 1].event == entries_[i].event) {
      entries_[i - 1].iv.end = entries_[i].iv.end;
      entries_.erase(entries_.begin() + static_cast<long>(i));
      --hi;
    } else {
      ++i;
    }
  }
}

void IntervalEventMap::update(const RowInterval& rows, int event) {
  if (rows.empty()) {
    return;
  }
  auto first = std::lower_bound(
      entries_.begin(), entries_.end(), rows.begin,
      [](const Entry& e, std::size_t v) { return e.iv.end <= v; });
  // Fast path: the range IS an existing entry (the steady-state repeat) —
  // swap the event in place, no splice.
  if (first != entries_.end() && first->iv == rows &&
      (std::next(first) == entries_.end() ||
       std::next(first)->iv.begin >= rows.end)) {
    first->event = event;
    const std::size_t at = static_cast<std::size_t>(first - entries_.begin());
    coalesce_around(at == 0 ? 0 : at - 1, at + 1);
    return;
  }
  auto last = first;
  while (last != entries_.end() && last->iv.begin < rows.end) {
    ++last;
  }
  Entry repl[3];
  std::size_t n = 0;
  if (first != last && first->iv.begin < rows.begin) {
    repl[n++] = Entry{RowInterval{first->iv.begin, rows.begin}, first->event};
  }
  repl[n++] = Entry{rows, event};
  if (first != last) {
    const Entry& back = *std::prev(last);
    if (back.iv.end > rows.end) {
      repl[n++] = Entry{RowInterval{rows.end, back.iv.end}, back.event};
    }
  }
  auto pos = entries_.erase(first, last);
  const std::size_t at = static_cast<std::size_t>(pos - entries_.begin());
  entries_.insert(pos, repl, repl + n);
  coalesce_around(at == 0 ? 0 : at - 1, at + n);
}

void IntervalEventMap::collect(const RowInterval& rows, std::vector<int>& out,
                               std::size_t dedup_from) const {
  if (rows.empty()) {
    return;
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), rows.begin,
      [](const Entry& e, std::size_t v) { return e.iv.end <= v; });
  for (; it != entries_.end() && it->iv.begin < rows.end; ++it) {
    if (std::find(out.begin() + static_cast<long>(dedup_from), out.end(),
                  it->event) == out.end()) {
      out.push_back(it->event);
    }
  }
}

// --- AccessIntervalMap -------------------------------------------------------

void AccessIntervalMap::coalesce_writers_around(std::size_t lo,
                                                std::size_t hi) {
  std::size_t i = std::max<std::size_t>(lo, 1);
  while (i < writers_.size() && i <= hi) {
    if (writers_[i - 1].iv.end == writers_[i].iv.begin &&
        writers_[i - 1].event == writers_[i].event) {
      writers_[i - 1].iv.end = writers_[i].iv.end;
      writers_.erase(writers_.begin() + static_cast<long>(i));
      --hi;
    } else {
      ++i;
    }
  }
}

void AccessIntervalMap::coalesce_readers_around(std::size_t lo,
                                                std::size_t hi) {
  std::size_t i = std::max<std::size_t>(lo, 1);
  while (i < readers_.size() && i <= hi) {
    if (readers_[i - 1].iv.end == readers_[i].iv.begin &&
        readers_[i - 1].events == readers_[i].events) {
      readers_[i - 1].iv.end = readers_[i].iv.end;
      readers_.erase(readers_.begin() + static_cast<long>(i));
      --hi;
    } else {
      ++i;
    }
  }
}

void AccessIntervalMap::add_reader(const RowInterval& rows, int event) {
  if (rows.empty()) {
    return;
  }
  auto first = std::lower_bound(
      readers_.begin(), readers_.end(), rows.begin,
      [](const Readers& e, std::size_t v) { return e.iv.end <= v; });
  const std::size_t at = static_cast<std::size_t>(first - readers_.begin());
  // Fast path: nothing overlaps — a plain insert of a fresh range.
  if (first == readers_.end() || first->iv.begin >= rows.end) {
    readers_.insert(first, Readers{rows, EventSet(event)});
    coalesce_readers_around(at == 0 ? 0 : at - 1, at + 1);
    return;
  }
  // Fast path: the range IS an existing entry (the steady-state repeat) —
  // append or no-op in place, no splice.
  if (first->iv == rows && (std::next(first) == readers_.end() ||
                            std::next(first)->iv.begin >= rows.end)) {
    if (std::find(first->events.begin(), first->events.end(), event) ==
        first->events.end()) {
      first->events.insert(event);
      coalesce_readers_around(at == 0 ? 0 : at - 1, at + 1);
    }
    return;
  }
  // General splice. The staging run is built in reused scratch storage, and
  // event lists are moved (not copied) whenever an entry is consumed whole.
  repl_scratch_.clear();
  std::vector<Readers>& repl = repl_scratch_;
  auto last = first;
  std::size_t pos = rows.begin;
  while (last != readers_.end() && last->iv.begin < rows.end) {
    if (pos < last->iv.begin) {
      repl.push_back(
          Readers{RowInterval{pos, last->iv.begin}, EventSet(event)});
    }
    const RowInterval ov = intersect(last->iv, rows);
    if (last->iv.begin < ov.begin) {
      repl.push_back(
          Readers{RowInterval{last->iv.begin, ov.begin}, last->events});
    }
    const bool split_right = last->iv.end > ov.end;
    Readers mid;
    mid.iv = ov;
    if (split_right) {
      mid.events = last->events; // the tail below still needs the originals
    } else {
      mid.events = std::move(last->events);
    }
    mid.events.insert(event);
    repl.push_back(std::move(mid));
    if (split_right) {
      repl.push_back(
          Readers{RowInterval{ov.end, last->iv.end}, std::move(last->events)});
    }
    pos = ov.end;
    ++last;
  }
  if (pos < rows.end) {
    repl.push_back(Readers{RowInterval{pos, rows.end}, EventSet(event)});
  }
  auto at_it = readers_.erase(first, last);
  readers_.insert(at_it, std::make_move_iterator(repl.begin()),
                  std::make_move_iterator(repl.end()));
  coalesce_readers_around(at == 0 ? 0 : at - 1, at + repl.size());
}

void AccessIntervalMap::write(const RowInterval& rows, int event) {
  if (rows.empty()) {
    return;
  }
  // Supersede overlapped writers with this one.
  {
    auto first = std::lower_bound(
        writers_.begin(), writers_.end(), rows.begin,
        [](const Writer& e, std::size_t v) { return e.iv.end <= v; });
    // Fast path: exact-entry repeat — swap the event in place, no splice.
    if (first != writers_.end() && first->iv == rows &&
        (std::next(first) == writers_.end() ||
         std::next(first)->iv.begin >= rows.end)) {
      first->event = event;
      const std::size_t at = static_cast<std::size_t>(first - writers_.begin());
      coalesce_writers_around(at == 0 ? 0 : at - 1, at + 1);
    } else {
    auto last = first;
    while (last != writers_.end() && last->iv.begin < rows.end) {
      ++last;
    }
    Writer repl[3];
    std::size_t n = 0;
    if (first != last && first->iv.begin < rows.begin) {
      repl[n++] =
          Writer{RowInterval{first->iv.begin, rows.begin}, first->event};
    }
    repl[n++] = Writer{rows, event};
    if (first != last) {
      const Writer& back = *std::prev(last);
      if (back.iv.end > rows.end) {
        repl[n++] = Writer{RowInterval{rows.end, back.iv.end}, back.event};
      }
    }
    auto pos = writers_.erase(first, last);
    const std::size_t at = static_cast<std::size_t>(pos - writers_.begin());
    writers_.insert(pos, repl, repl + n);
    coalesce_writers_around(at == 0 ? 0 : at - 1, at + n);
    }
  }
  // Compact readers the write covers: the write waited on them, so future
  // writers of these rows are ordered transitively through `event`.
  {
    auto first = std::lower_bound(
        readers_.begin(), readers_.end(), rows.begin,
        [](const Readers& e, std::size_t v) { return e.iv.end <= v; });
    auto last = first;
    Readers left, right;
    while (last != readers_.end() && last->iv.begin < rows.end) {
      if (last->iv.begin < rows.begin) {
        left = Readers{RowInterval{last->iv.begin, rows.begin}, last->events};
      }
      if (last->iv.end > rows.end) {
        right = Readers{RowInterval{rows.end, last->iv.end}, last->events};
      }
      ++last;
    }
    auto pos = readers_.erase(first, last);
    if (!right.iv.empty()) {
      pos = readers_.insert(pos, std::move(right));
    }
    if (!left.iv.empty()) {
      readers_.insert(pos, std::move(left));
    }
  }
}

void AccessIntervalMap::collect(const RowInterval& rows, std::vector<int>& out,
                                std::size_t dedup_from) const {
  if (rows.empty()) {
    return;
  }
  auto w = std::lower_bound(
      writers_.begin(), writers_.end(), rows.begin,
      [](const Writer& e, std::size_t v) { return e.iv.end <= v; });
  for (; w != writers_.end() && w->iv.begin < rows.end; ++w) {
    if (std::find(out.begin() + static_cast<long>(dedup_from), out.end(),
                  w->event) == out.end()) {
      out.push_back(w->event);
    }
  }
  auto r = std::lower_bound(
      readers_.begin(), readers_.end(), rows.begin,
      [](const Readers& e, std::size_t v) { return e.iv.end <= v; });
  for (; r != readers_.end() && r->iv.begin < rows.end; ++r) {
    for (int ev : r->events) {
      if (std::find(out.begin() + static_cast<long>(dedup_from), out.end(),
                    ev) == out.end()) {
        out.push_back(ev);
      }
    }
  }
}

} // namespace maps::multi

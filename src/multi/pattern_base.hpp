// Shared plumbing for the dual-facet pattern containers.
//
// Every MAPS-Multi container template plays two roles, exactly as in the
// paper's code samples (Fig 2): on the host it wraps a Datum and describes
// its access pattern (the `Win2D(A)` argument objects); on the device it is
// the index-free, thread-level interface the kernel body uses. The framework
// fills the device facet (bind) and advances the per-thread context
// (set_thread) while sweeping the virtual grid.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "maps/common.hpp"
#include "multi/pattern_spec.hpp"

namespace maps::multi {

namespace detail {

class PatternBase {
public:
  /// Framework hook: installs this device's buffer geometry.
  void bind(const DeviceView& view) { view_ = view; }
  /// Framework hook: installs the current thread's context.
  void set_thread(const maps::ThreadContext* tc) { tc_ = tc; }

  const DeviceView& view() const { return view_; }
  const maps::ThreadContext& tc() const {
    assert(tc_ != nullptr);
    return *tc_;
  }
  Datum* datum() const { return datum_; }

protected:
  explicit PatternBase(Datum* datum = nullptr) : datum_(datum) {}
  Datum* datum_ = nullptr;
  DeviceView view_{};
  const maps::ThreadContext* tc_ = nullptr;
};

/// Enumerates the ILP elements assigned to the current thread in work space,
/// row major, skipping coordinates outside the task's work dimensions (edge
/// blocks). The ILP extents come from the GridContext at run time: the
/// planner normalizes the output container's template parameters onto the
/// grid (e.g. folding ILP into the partition dimension for 1-D work). The
/// in-range tile is clipped once on construction, so stepping is a counter
/// increment rather than a divide per element.
class IlpCursor {
public:
  explicit IlpCursor(const maps::ThreadContext& tc)
      : x0_(tc.work_x0()), x_(x0_), y_(tc.work_y0()),
        x_end_(std::min(x0_ + tc.grid->ilp_x, tc.grid->work_width)),
        y_end_(std::min(y_ + tc.grid->ilp_y, tc.grid->work_height)) {
    if (x0_ >= x_end_) {
      y_ = y_end_; // no in-range column: nothing to enumerate
    }
  }

  unsigned work_x() const { return x_; }
  unsigned work_y() const { return y_; }
  bool done() const { return y_ >= y_end_; }

  void advance() {
    if (++x_ == x_end_) {
      x_ = x0_;
      ++y_;
    }
  }

private:
  unsigned x0_, x_, y_, x_end_, y_end_;
};

} // namespace detail

/// End-of-iteration sentinel shared by all container iterators.
struct IterEnd {};

} // namespace maps::multi

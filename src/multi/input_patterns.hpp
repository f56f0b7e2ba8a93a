// Input memory access pattern containers (Table 1 of the paper).
//
// Each container classifies how threads read a datum and, through its
// spec(), tells the framework how to segment it: Window patterns carry a
// halo and partition with boundary exchanges; Block(2D) aligns rows with the
// output partition; Block(1D), Block(2D-Transposed) and Adjacency replicate;
// Traversal and Irregular cannot be partitioned and force single-device
// execution (the paper never partitions them either).
//
// Functionally, Window reads resolve through the device-local buffer whose
// halo rows were materialized by the inferred boundary exchanges, so kernels
// never see a device edge in the partitioned dimension; lateral (X)
// boundaries are resolved in-place per the Boundary mode.
#pragma once

#include <cstddef>

#include "multi/pattern_base.hpp"

namespace maps::multi {

namespace detail {

/// Shared implementation of windowed reads with halo-in-Y, boundary-in-X.
template <typename T> class WindowAccess {
public:
  static T load(const DeviceView& v, maps::Boundary boundary, long wx,
                long wy) {
    const long width = static_cast<long>(v.row_elems);
    switch (boundary) {
    case maps::Boundary::Wrap:
      // Divide only off the row; the remainder also covers radii >= width.
      if (wx < 0 || wx >= width) {
        wx %= width;
        wx += wx < 0 ? width : 0;
      }
      break;
    case maps::Boundary::Clamp:
      wx = wx < 0 ? 0 : (wx >= width ? width - 1 : wx);
      break;
    case maps::Boundary::Zero:
      if (wx < 0 || wx >= width) {
        return T{};
      }
      break;
    case maps::Boundary::NoChecks:
      break;
    }
    const long ly = wy - v.origin; // halo rows make this in-range
    assert(ly >= 0 && static_cast<std::size_t>(ly) < v.rows);
    return *reinterpret_cast<const T*>(
        v.base + static_cast<std::size_t>(ly) * v.pitch +
        static_cast<std::size_t>(wx) * sizeof(T));
  }
};

} // namespace detail

// ---------------------------------------------------------------------------
// Window (2D)
// ---------------------------------------------------------------------------

/// Spatially-local 2D window with information overlap between threads
/// (stencils, Game of Life). Paper type: Window2D<T, RADIUS, BOUNDARY,
/// ILPX, ILPY> (Fig 2).
template <typename T, int Radius, maps::Boundary B = maps::CLAMP, int ILPX = 1,
          int ILPY = 1>
class Window2D : public detail::PatternBase {
public:
  static constexpr int kRadius = Radius;
  static constexpr maps::Boundary kBoundary = B;

  Window2D() = default;
  explicit Window2D(Matrix<T>& m) : PatternBase(&m) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Window;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::PartitionAligned;
    s.radius_low = Radius;
    s.radius_high = Radius;
    s.boundary = B;
    s.ilp_x = ILPX;
    s.ilp_y = ILPY;
    return s;
  }

  struct SharedData {}; // stands in for the CUDA shared-memory tile
  void init() {}
  void init(SharedData&) {}

  /// Window value at relative offset (dx, dy) from an output iterator's
  /// work position.
  template <typename OutIter>
  T at(const OutIter& out, int dx, int dy) const {
    return detail::WindowAccess<T>::load(
        view(), B, static_cast<long>(out.work_x()) + dx,
        static_cast<long>(out.work_y()) + dy);
  }

  /// Iterator over the (2R+1)^2 neighborhood of one output element, row
  /// major from (-R,-R); used by MAPS_FOREACH_ALIGNED (Fig 2b). The
  /// neighborhood is resolved once, on construction — the functional
  /// analogue of staging the shared-memory tile: the center row pointer,
  /// one bounds check covering all 2R+1 rows, and whether all 2R+1 columns
  /// lie inside the row. Interior reads are then plain pointer offsets;
  /// only elements within R of a lateral edge go through the Boundary mode.
  class aligned_iterator {
  public:
    static constexpr int kSide = 2 * Radius + 1;

    aligned_iterator(const Window2D* c, long wx, long wy)
        : c_(c), wx_(wx), wy_(wy) {
      const DeviceView& v = c->view();
      const long ly = wy - v.origin; // halo rows make all 2R+1 in-range
      assert(ly >= Radius && static_cast<std::size_t>(ly + Radius) < v.rows);
      center_ = v.base + static_cast<std::size_t>(ly) * v.pitch;
      pitch_ = static_cast<std::ptrdiff_t>(v.pitch);
      interior_ =
          wx >= Radius && wx + Radius < static_cast<long>(v.row_elems);
    }
    T operator*() const {
      if (interior_) {
        return *reinterpret_cast<const T*>(
            center_ + dy() * pitch_ +
            static_cast<std::ptrdiff_t>(wx_ + dx()) *
                static_cast<std::ptrdiff_t>(sizeof(T)));
      }
      return detail::WindowAccess<T>::load(c_->view(), B, wx_ + dx(),
                                           wy_ + dy());
    }
    int dx() const { return i_ % kSide - Radius; }
    int dy() const { return i_ / kSide - Radius; }
    /// True at the window's center element.
    bool is_center() const { return dx() == 0 && dy() == 0; }
    aligned_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(IterEnd) const { return i_ != kSide * kSide; }

  private:
    const Window2D* c_;
    long wx_, wy_;
    const std::byte* center_ = nullptr;
    std::ptrdiff_t pitch_ = 0;
    bool interior_ = false;
    int i_ = 0;
  };

  template <typename OutIter>
  aligned_iterator aligned_begin(const OutIter& out) const {
    return aligned_iterator(this, static_cast<long>(out.work_x()),
                            static_cast<long>(out.work_y()));
  }
  template <typename OutIter> IterEnd aligned_end(const OutIter&) const {
    return IterEnd{};
  }

  /// Input iterator aligned with the output's current element — the window
  /// center (Fig 4 line 14: `image.align(hist_iter)`).
  template <typename OutIter> class aligned_ref {
  public:
    aligned_ref(const Window2D* c, const OutIter& out) : c_(c), out_(&out) {}
    T operator*() const { return c_->at(*out_, 0, 0); }

  private:
    const Window2D* c_;
    const OutIter* out_;
  };
  template <typename OutIter>
  aligned_ref<OutIter> align(const OutIter& out) const {
    return aligned_ref<OutIter>(this, out);
  }
};

// ---------------------------------------------------------------------------
// Window (1D) and Window (ND)
// ---------------------------------------------------------------------------

/// 1D window over a vector (convolution, finite differences).
template <typename T, int Radius, maps::Boundary B = maps::CLAMP, int ILP = 1>
class Window1D : public detail::PatternBase {
public:
  static constexpr int kRadius = Radius;

  Window1D() = default;
  explicit Window1D(Vector<T>& v) : PatternBase(&v) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Window;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::PartitionAligned;
    s.radius_low = Radius;
    s.radius_high = Radius;
    s.boundary = B;
    s.ilp_y = ILP; // 1-D work iterates along rows (dimension 0)
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  /// Element at relative offset d from the output's work position. 1-D data
  /// is partitioned along its only dimension, so boundary handling in that
  /// dimension is served by halo rows; global edges were materialized by the
  /// segmenter per the Boundary mode.
  template <typename OutIter> T at(const OutIter& out, int d) const {
    const DeviceView& v = view();
    const long wy = static_cast<long>(out.work_y()) + d;
    const long ly = wy - v.origin;
    assert(ly >= 0 && static_cast<std::size_t>(ly) < v.rows);
    return *reinterpret_cast<const T*>(v.base +
                                       static_cast<std::size_t>(ly) * v.pitch);
  }

  template <typename OutIter> class aligned_iterator {
  public:
    aligned_iterator(const Window1D* c, const OutIter& out, int i)
        : c_(c), out_(&out), i_(i) {}
    T operator*() const { return c_->at(*out_, i_ - Radius); }
    int offset() const { return i_ - Radius; }
    aligned_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const aligned_iterator& o) const { return i_ != o.i_; }

  private:
    const Window1D* c_;
    const OutIter* out_;
    int i_;
  };
  template <typename OutIter>
  aligned_iterator<OutIter> aligned_begin(const OutIter& out) const {
    return aligned_iterator<OutIter>(this, out, 0);
  }
  template <typename OutIter>
  aligned_iterator<OutIter> aligned_end(const OutIter& out) const {
    return aligned_iterator<OutIter>(this, out, 2 * Radius + 1);
  }
};

/// ND window over an NDArray, with the halo along dimension 0 (the partition
/// dimension) — the shape used by the deep-learning application's
/// Window (3D) multi-convolutions (§6.1).
template <typename T, std::size_t N, int Radius,
          maps::Boundary B = maps::CLAMP>
class WindowND : public detail::PatternBase {
public:
  WindowND() = default;
  explicit WindowND(NDArray<T, N>& a) : PatternBase(&a) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Window;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::PartitionAligned;
    s.radius_low = Radius;
    s.radius_high = Radius;
    s.boundary = B;
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  /// Element at (dim-0 slice `row` + d0, linear inner index `inner`).
  T at(long row, int d0, std::size_t inner) const {
    const DeviceView& v = view();
    const long ly = row + d0 - v.origin;
    assert(ly >= 0 && static_cast<std::size_t>(ly) < v.rows);
    assert(inner < v.row_elems);
    return *reinterpret_cast<const T*>(
        v.base + static_cast<std::size_t>(ly) * v.pitch + inner * sizeof(T));
  }
};

// ---------------------------------------------------------------------------
// Block patterns
// ---------------------------------------------------------------------------

/// Each thread requires the entire buffer (all-pairs N-body): replicated on
/// every device, iterated in chunks.
template <typename T> class Block1D : public detail::PatternBase {
public:
  Block1D() = default;
  explicit Block1D(Vector<T>& v) : PatternBase(&v) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Block1D;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::Replicate;
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  std::size_t size() const { return view().datum_rows * view().row_elems; }
  T operator[](std::size_t i) const {
    assert(i < size());
    return reinterpret_cast<const T*>(view().base)[i];
  }

  class iterator {
  public:
    iterator(const T* p, const T* e) : p_(p), e_(e) {}
    T operator*() const { return *p_; }
    iterator& operator++() {
      ++p_;
      return *this;
    }
    bool operator!=(IterEnd) const { return p_ != e_; }

  private:
    const T* p_;
    const T* e_;
  };
  iterator begin() const {
    const T* p = reinterpret_cast<const T*>(view().base);
    return iterator(p, p + size());
  }
  IterEnd end() const { return IterEnd{}; }
};

/// Each thread-block requires multiple rows of the buffer (matrix
/// multiplication, first operand): rows align with the output partition.
template <typename T> class Block2D : public detail::PatternBase {
public:
  Block2D() = default;
  explicit Block2D(Matrix<T>& m) : PatternBase(&m) {}
  /// Any datum can be consumed row-aligned (e.g. a Vector whose elements
  /// align 1:1 with the partitioned work of an unmodified routine).
  explicit Block2D(Datum& d) : PatternBase(&d) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Block2D;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::PartitionAligned;
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  std::size_t width() const { return view().row_elems; }

  /// Row of the datum aligned with the output iterator's work row.
  template <typename OutIter> class row_view {
  public:
    row_view(const T* row, std::size_t n) : row_(row), n_(n) {}
    T operator[](std::size_t i) const {
      assert(i < n_);
      return row_[i];
    }
    const T* begin() const { return row_; }
    const T* end() const { return row_ + n_; }
    std::size_t size() const { return n_; }

  private:
    const T* row_;
    std::size_t n_;
  };

  template <typename OutIter>
  row_view<OutIter> aligned_row(const OutIter& out) const {
    const DeviceView& v = view();
    const long ly = static_cast<long>(out.work_y()) - v.origin;
    assert(ly >= 0 && static_cast<std::size_t>(ly) < v.rows);
    return row_view<OutIter>(
        reinterpret_cast<const T*>(v.base +
                                   static_cast<std::size_t>(ly) * v.pitch),
        v.row_elems);
  }
};

/// Each thread-block requires multiple columns (matrix multiplication,
/// second operand): the full matrix is replicated on every device and
/// accessed by column.
template <typename T> class Block2DTransposed : public detail::PatternBase {
public:
  Block2DTransposed() = default;
  explicit Block2DTransposed(Matrix<T>& m) : PatternBase(&m) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Block2DTransposed;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::Replicate;
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  std::size_t height() const { return view().datum_rows; }
  std::size_t width() const { return view().row_elems; }

  /// Column of the datum aligned with the output iterator's work column.
  class col_view {
  public:
    col_view(const std::byte* base, std::size_t pitch, std::size_t rows)
        : base_(base), pitch_(pitch), rows_(rows) {}
    T operator[](std::size_t r) const {
      assert(r < rows_);
      return *reinterpret_cast<const T*>(base_ + r * pitch_);
    }
    std::size_t size() const { return rows_; }

  private:
    const std::byte* base_;
    std::size_t pitch_;
    std::size_t rows_;
  };

  template <typename OutIter> col_view aligned_col(const OutIter& out) const {
    const DeviceView& v = view();
    assert(out.work_x() < v.row_elems);
    return col_view(v.base + out.work_x() * sizeof(T), v.pitch, v.datum_rows);
  }
};

// ---------------------------------------------------------------------------
// Adjacency / Permutation / Traversal / Irregular
// ---------------------------------------------------------------------------

/// Sporadic access of a dense structure with a fixed pattern (the dense
/// vector of SpMV, cloth simulation): replicated on every device.
template <typename T> class Adjacency : public detail::PatternBase {
public:
  Adjacency() = default;
  explicit Adjacency(Vector<T>& v) : PatternBase(&v) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Adjacency;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::Replicate;
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  T operator[](std::size_t i) const {
    assert(i < view().datum_rows * view().row_elems);
    return reinterpret_cast<const T*>(view().base)[i];
  }
};

/// Each thread-block loads a contiguous chunk and distributes it to threads
/// in a permutation (FFT butterflies). The chunk is the block's aligned work
/// rows, so the pattern partitions cleanly.
template <typename T> class Permutation : public detail::PatternBase {
public:
  Permutation() = default;
  explicit Permutation(Vector<T>& v) : PatternBase(&v) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Permutation;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::PartitionAligned;
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  /// Size of the current block's contiguous chunk.
  std::size_t chunk_size() const {
    const auto& g = *tc().grid;
    const std::size_t span =
        static_cast<std::size_t>(g.block_dim.y) * g.ilp_y;
    const std::size_t begin = tc().block.y * span;
    return std::min(span, static_cast<std::size_t>(g.work_height) - begin);
  }

  /// Element j of the current block's chunk (j already permuted by caller).
  T chunk_at(std::size_t j) const {
    const auto& g = *tc().grid;
    const DeviceView& v = view();
    const std::size_t span =
        static_cast<std::size_t>(g.block_dim.y) * g.ilp_y;
    const std::size_t begin = tc().block.y * span;
    assert(j < chunk_size());
    const long ly = static_cast<long>(begin + j) - v.origin;
    assert(ly >= 0 && static_cast<std::size_t>(ly) < v.rows);
    return *reinterpret_cast<const T*>(v.base +
                                       static_cast<std::size_t>(ly) * v.pitch);
  }
};

/// Variable-size aligned segment of a CSR structure array (column indices
/// or values): device d holds exactly the edges of its work rows,
/// [row_ptr[w0], row_ptr[w1]) — the Adjacency pattern's "fixed pattern"
/// made explicit so the sparse structure partitions instead of replicating.
/// The host row_ptr array must stay valid while tasks are planned.
template <typename T> class CsrArray : public detail::PatternBase {
public:
  CsrArray() = default;
  CsrArray(Vector<T>& data, const int* host_row_ptr)
      : PatternBase(&data), row_ptr_(host_row_ptr) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Adjacency;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::CustomAligned;
    const int* rp = row_ptr_;
    s.custom_rows = [rp](std::size_t w0, std::size_t w1) {
      return std::pair<std::size_t, std::size_t>(
          static_cast<std::size_t>(rp[w0]), static_cast<std::size_t>(rp[w1]));
    };
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  /// Element at GLOBAL edge index `e` (the kernel keeps using the CSR's
  /// global indices; the facet maps them into the local slice).
  T operator[](std::size_t e) const {
    const DeviceView& v = view();
    const long local = static_cast<long>(e) - v.origin;
    assert(local >= 0 && static_cast<std::size_t>(local) < v.rows);
    return *reinterpret_cast<const T*>(v.base +
                                       static_cast<std::size_t>(local) *
                                           v.pitch);
  }

private:
  const int* row_ptr_ = nullptr;
};

/// Graph traversal (DFS/BFS) access. As in the paper, this pattern is not
/// partitioned: the task falls back to a single device.
template <typename T> class Traversal : public detail::PatternBase {
public:
  Traversal() = default;
  explicit Traversal(Vector<T>& v) : PatternBase(&v) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::Traversal;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::SingleDevice;
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  T operator[](std::size_t i) const {
    assert(i < view().datum_rows * view().row_elems);
    return reinterpret_cast<const T*>(view().base)[i];
  }
};

/// Patterns that cannot be determined in advance (finite state machines).
/// Single-device fallback, like Traversal.
template <typename T> class IrregularInput : public detail::PatternBase {
public:
  IrregularInput() = default;
  explicit IrregularInput(Vector<T>& v) : PatternBase(&v) {}

  PatternSpec spec() const {
    PatternSpec s;
    s.kind = PatternKind::IrregularInput;
    s.is_input = true;
    s.datum = datum_;
    s.seg = Segmentation::SingleDevice;
    return s;
  }

  struct SharedData {};
  void init() {}
  void init(SharedData&) {}

  T operator[](std::size_t i) const {
    assert(i < view().datum_rows * view().row_elems);
    return reinterpret_cast<const T*>(view().base)[i];
  }
};

} // namespace maps::multi

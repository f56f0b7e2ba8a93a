// Coverage of every input pattern of Table 1 and every output pattern of
// §3.2 through the full Invoke path, each verified against a sequential CPU
// reference on 1-4 devices.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "multi/maps_multi.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

sim::Node make_node(int devices) {
  return sim::Node(sim::homogeneous_node(sim::gtx780(), devices));
}

std::vector<float> random_floats(std::size_t n, unsigned seed, float lo = -1,
                                 float hi = 1) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (auto& e : v) {
    e = dist(rng);
  }
  return v;
}

// --- Block(2D) x Block(2D-Transposed): matrix multiplication as a MAPS
// kernel (Table 1's canonical example) -----------------------------------------

struct MatMulKernel {
  template <typename A, typename B, typename C>
  void operator()(const maps::ThreadContext&, A& a, B& b, C& c) const {
    MAPS_FOREACH(it, c) {
      const auto row = a.aligned_row(it);
      const auto col = b.aligned_col(it);
      float acc = 0.0f;
      for (std::size_t p = 0; p < col.size(); ++p) {
        acc += row[p] * col[p];
      }
      *it = acc;
    }
    c.commit();
  }
};

class MatMulDevicesTest : public ::testing::TestWithParam<int> {};

TEST_P(MatMulDevicesTest, BlockPatternsMatchReference) {
  const int devices = GetParam();
  const std::size_t m = 60, n = 44, k = 36;
  auto a = random_floats(m * k, 1);
  auto b = random_floats(k * n, 2);
  std::vector<float> c(m * n, 0.0f);

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  Matrix<float> A(k, m), B(n, k), C(n, m);
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());
  sched.Invoke(MatMulKernel{}, Block2D<float>(A), Block2DTransposed<float>(B),
               StructuredInjective<float, 2>(C));
  sched.Gather(C);

  for (std::size_t i = 0; i < m; i += 7) {
    for (std::size_t j = 0; j < n; j += 5) {
      float ref = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        ref += a[i * k + p] * b[p * n + j];
      }
      ASSERT_NEAR(c[i * n + j], ref, 1e-4f) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MatMulDevicesTest,
                         ::testing::Values(1, 2, 4));

// --- Block(1D): all-pairs interaction ------------------------------------------

struct AllPairsKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& xs, Out& forces) const {
    MAPS_FOREACH(it, forces) {
      float acc = 0.0f;
      const float xi = xs[it.work_y()];
      MAPS_FOREACH(x, xs) { // whole buffer, as in N-body
        acc += xi - *x;
      }
      *it = acc;
    }
  }
};

// Give Block1D's plain begin/end a FOREACH-compatible face.
TEST(PatternsTest, Block1DAllPairs) {
  const std::size_t n = 300;
  auto xs = random_floats(n, 3);
  std::vector<float> out(n, 0.0f);
  const float sum = std::accumulate(xs.begin(), xs.end(), 0.0f);

  sim::Node node = make_node(3);
  Scheduler sched(node);
  Vector<float> X(n), F(n);
  X.Bind(xs.data());
  F.Bind(out.data());
  sched.Invoke(AllPairsKernel{}, Block1D<float>(X),
               StructuredInjective<float, 1>(F));
  sched.Gather(F);
  for (std::size_t i = 0; i < n; i += 13) {
    EXPECT_NEAR(out[i], xs[i] * static_cast<float>(n) - sum, 1e-2f) << i;
  }
}

// --- Window(1D): convolution ----------------------------------------------------

struct Conv1DKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      float acc = 0.0f;
      MAPS_FOREACH_ALIGNED(w, x, it) {
        acc += *w * (w.offset() == 0 ? 2.0f : 0.5f);
      }
      *it = acc;
    }
  }
};

class Window1DTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Window1DTest, ConvolutionMatchesReferenceUnderAllBoundaries) {
  const int devices = std::get<0>(GetParam());
  const int boundary = std::get<1>(GetParam());
  const std::size_t n = 501;
  auto x = random_floats(n, 4);
  std::vector<float> y(n, 0.0f);

  auto at = [&](long i) -> float {
    switch (boundary) {
    case 0: // Wrap
      return x[static_cast<std::size_t>((i % static_cast<long>(n) +
                                         static_cast<long>(n)) %
                                        static_cast<long>(n))];
    case 1: // Clamp
      return x[static_cast<std::size_t>(
          std::clamp<long>(i, 0, static_cast<long>(n) - 1))];
    default: // Zero
      return (i < 0 || i >= static_cast<long>(n))
                 ? 0.0f
                 : x[static_cast<std::size_t>(i)];
    }
  };

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  Vector<float> X(n), Y(n);
  X.Bind(x.data());
  Y.Bind(y.data());
  switch (boundary) {
  case 0:
    sched.Invoke(Conv1DKernel{}, Window1D<float, 1, maps::WRAP>(X),
                 StructuredInjective<float, 1>(Y));
    break;
  case 1:
    sched.Invoke(Conv1DKernel{}, Window1D<float, 1, maps::CLAMP>(X),
                 StructuredInjective<float, 1>(Y));
    break;
  default:
    sched.Invoke(Conv1DKernel{}, Window1D<float, 1, maps::ZERO>(X),
                 StructuredInjective<float, 1>(Y));
    break;
  }
  sched.Gather(Y);
  for (std::size_t i = 0; i < n; ++i) {
    const float ref = 0.5f * at(static_cast<long>(i) - 1) + 2.0f * x[i] +
                      0.5f * at(static_cast<long>(i) + 1);
    ASSERT_NEAR(y[i], ref, 1e-4f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(DevicesByBoundary, Window1DTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(0, 1, 2)));

// --- Window(2D) per-element fast path -------------------------------------------

/// Stand-in for an output iterator: a fixed work position.
struct WorkPos {
  unsigned x, y;
  unsigned work_x() const { return x; }
  unsigned work_y() const { return y; }
};

/// Every value the row-resolved neighborhood iterator, at() and align()
/// yield must equal the per-read reference WindowAccess::load, on interior
/// and edge columns alike, including radii at or beyond the row width
/// (where Wrap goes around more than once).
template <maps::Boundary B, int R> void check_window_reads() {
  const std::size_t height = 4;
  for (std::size_t width : {1, 2, 3, 5, 8, 33}) {
    const std::size_t rows = height + 2 * R; // core rows plus both halos
    std::vector<int> buf(rows * width);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<int>(i) + 1; // distinct from Zero's T{}
    }
    DeviceView v;
    v.base = reinterpret_cast<std::byte*>(buf.data());
    v.pitch = width * sizeof(int);
    v.origin = -R;
    v.rows = rows;
    v.row_elems = width;
    v.datum_rows = height;
    Window2D<int, R, B> win;
    win.bind(v);

    for (unsigned y = 0; y < height; ++y) {
      for (unsigned x = 0; x < width; ++x) {
        const WorkPos out{x, y};
        const auto ref = [&](int dx, int dy) {
          return detail::WindowAccess<int>::load(v, B, long{x} + dx,
                                                 long{y} + dy);
        };
        int visited = 0;
        MAPS_FOREACH_ALIGNED(it, win, out) {
          // Row major from (-R, -R).
          ASSERT_EQ(it.dx(), visited % (2 * R + 1) - R);
          ASSERT_EQ(it.dy(), visited / (2 * R + 1) - R);
          ASSERT_EQ(it.is_center(), it.dx() == 0 && it.dy() == 0);
          ASSERT_EQ(*it, ref(it.dx(), it.dy()))
              << "width=" << width << " x=" << x << " y=" << y
              << " dx=" << it.dx() << " dy=" << it.dy();
          ++visited;
        }
        ASSERT_EQ(visited, (2 * R + 1) * (2 * R + 1));
        for (int dy = -R; dy <= R; ++dy) {
          for (int dx = -R; dx <= R; ++dx) {
            ASSERT_EQ(win.at(out, dx, dy), ref(dx, dy));
          }
        }
        ASSERT_EQ(*win.align(out), ref(0, 0));
      }
    }
  }
}

template <maps::Boundary B> void check_window_reads_all_radii() {
  check_window_reads<B, 0>();
  check_window_reads<B, 1>();
  check_window_reads<B, 2>();
  check_window_reads<B, 3>();
}

TEST(WindowFastPathTest, WrapReadsMatchPerReadLoad) {
  check_window_reads_all_radii<maps::WRAP>();
}

TEST(WindowFastPathTest, ClampReadsMatchPerReadLoad) {
  check_window_reads_all_radii<maps::CLAMP>();
}

TEST(WindowFastPathTest, ZeroReadsMatchPerReadLoad) {
  check_window_reads_all_radii<maps::ZERO>();
}

/// The ILP cursor enumerates exactly the in-range elements of the
/// divide-based formula x = x0 + i % ilp_x, y = y0 + i / ilp_x, in the same
/// order, including edge blocks of work sizes that are not multiples of the
/// block × ILP footprint.
TEST(WindowFastPathTest, IlpCursorMatchesDivideFormula) {
  struct Shape {
    unsigned ilp_x, ilp_y, width, height;
  };
  for (const Shape s : {Shape{1, 1, 37, 29}, Shape{4, 2, 37, 29},
                        Shape{8, 1, 37, 29}, Shape{4, 2, 50, 3},
                        Shape{8, 1, 5, 11}}) {
    maps::GridContext gc;
    gc.block_dim = maps::Dim3{8, 4, 1};
    gc.ilp_x = s.ilp_x;
    gc.ilp_y = s.ilp_y;
    gc.work_width = s.width;
    gc.work_height = s.height;
    const unsigned span_x = gc.block_dim.x * s.ilp_x;
    const unsigned span_y = gc.block_dim.y * s.ilp_y;
    gc.grid_dim = maps::Dim3{(s.width + span_x - 1) / span_x,
                             (s.height + span_y - 1) / span_y, 1};
    gc.block_rows = gc.grid_dim.y;

    std::vector<std::pair<unsigned, unsigned>> expected, visited;
    maps::ThreadContext tc;
    tc.grid = &gc;
    for (unsigned by = 0; by < gc.grid_dim.y; ++by) {
      for (unsigned bx = 0; bx < gc.grid_dim.x; ++bx) {
        tc.block = maps::Dim3{bx, by, 0};
        for (unsigned ty = 0; ty < gc.block_dim.y; ++ty) {
          for (unsigned tx = 0; tx < gc.block_dim.x; ++tx) {
            tc.thread = maps::Dim3{tx, ty, 0};
            for (unsigned i = 0; i < s.ilp_x * s.ilp_y; ++i) {
              const unsigned x = tc.work_x0() + i % s.ilp_x;
              const unsigned y = tc.work_y0() + i / s.ilp_x;
              if (x < s.width && y < s.height) {
                expected.emplace_back(x, y);
              }
            }
            for (detail::IlpCursor c(tc); !c.done(); c.advance()) {
              visited.emplace_back(c.work_x(), c.work_y());
            }
          }
        }
      }
    }
    EXPECT_EQ(visited, expected) << "ilp " << s.ilp_x << "x" << s.ilp_y
                                 << " on " << s.width << "x" << s.height;
    EXPECT_EQ(visited.size(), std::size_t{s.width} * s.height);
  }
}

// --- Window(2D) with a radius wider than the row, end to end --------------------

struct WeightedWindowSum {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& in, Out& out) const {
    MAPS_FOREACH(it, out) {
      int acc = 0;
      MAPS_FOREACH_ALIGNED(n, in, it) {
        acc += *n * ((n.dx() + 3) * 7 + (n.dy() + 3)); // order-sensitive
      }
      *it = acc;
    }
  }
};

TEST(WindowFastPathTest, WrapRadiusTwoOnWidthThreeMatchesReference) {
  const long W = 3, H = 40, R = 2;
  std::vector<int> in(static_cast<std::size_t>(W * H)),
      out(static_cast<std::size_t>(W * H), -1);
  std::mt19937 rng(15);
  for (auto& v : in) {
    v = static_cast<int>(rng() % 100);
  }

  sim::Node node = make_node(2);
  Scheduler sched(node);
  Matrix<int> In(W, H, "in"), Out(W, H, "out");
  In.Bind(in.data());
  Out.Bind(out.data());
  sched.Invoke(WeightedWindowSum{}, Window2D<int, 2, maps::WRAP>(In),
               StructuredInjective<int, 2>(Out));
  sched.Gather(Out);
  for (double s : node.stats().device_compute_seconds) {
    EXPECT_GT(s, 0.0); // both devices swept a share, across a halo seam
  }

  const auto wrap =[](long i, long n) { return ((i % n) + n) % n; };
  for (long y = 0; y < H; ++y) {
    for (long x = 0; x < W; ++x) {
      int ref = 0;
      for (long dy = -R; dy <= R; ++dy) {
        for (long dx = -R; dx <= R; ++dx) {
          const int weight = static_cast<int>((dx + 3) * 7 + (dy + 3));
          ref += in[static_cast<std::size_t>(wrap(y + dy, H) * W +
                                             wrap(x + dx, W))] *
                 weight;
        }
      }
      ASSERT_EQ(out[static_cast<std::size_t>(y * W + x)], ref)
          << "x=" << x << " y=" << y;
    }
  }
}

// --- Permutation: block-local reversal (FFT-style distribution) ----------------

struct BlockReverseKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext& tc, In& chunk, Out& y) const {
    MAPS_FOREACH(it, y) {
      const auto& g = *tc.grid;
      const std::size_t span = static_cast<std::size_t>(g.block_dim.y) *
                               g.ilp_y;
      const std::size_t local = it.work_y() - tc.block.y * span;
      *it = chunk.chunk_at(chunk.chunk_size() - 1 - local);
    }
  }
};

TEST(PatternsTest, PermutationBlockReversal) {
  const std::size_t n = 4096; // multiple of the 1-D block span (128)
  auto x = random_floats(n, 5);
  std::vector<float> y(n, 0.0f);
  sim::Node node = make_node(4);
  Scheduler sched(node);
  Vector<float> X(n), Y(n);
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(BlockReverseKernel{}, Permutation<float>(X),
               StructuredInjective<float, 1>(Y));
  sched.Gather(Y);
  for (std::size_t i = 0; i < n; i += 37) {
    const std::size_t block = i / 128, local = i % 128;
    EXPECT_EQ(y[i], x[block * 128 + 127 - local]) << i;
  }
}

// --- Unstructured Injective: scattered writes (FFT-style) -----------------------

struct BitShuffleScatter {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& out) const {
    MAPS_FOREACH(it, out) {
      const std::size_t i = it.global_work_index();
      const std::size_t n = 1 << 12;
      const std::size_t dst = (i * 2654435761u) % n; // uncorrelated target
      out.write(dst, x.at(it, 0) + 1.0f);
    }
  }
};

TEST(PatternsTest, UnstructuredInjectiveScatterMergesAcrossDevices) {
  const std::size_t n = 1 << 12;
  auto x = random_floats(n, 6);
  std::vector<float> y(n, -5.0f);
  sim::Node node = make_node(4);
  Scheduler sched(node);
  Vector<float> X(n), Y(n);
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(BitShuffleScatter{}, Window1D<float, 0, maps::NO_CHECKS>(X),
               UnstructuredInjective<float>(Y));
  sched.Gather(Y);
  // The multiplier is odd and n a power of two => the map is a bijection.
  std::vector<float> ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref[(i * 2654435761u) % n] = x[i] + 1.0f;
  }
  EXPECT_EQ(y, ref);
}

// --- Reductive (Dynamic): predicate filter --------------------------------------

struct PositiveFilter {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& out) const {
    MAPS_FOREACH(it, out) {
      const float v = x.at(it, 0);
      if (v > 0.0f) {
        out.append(v);
      }
    }
  }
};

class FilterDevicesTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterDevicesTest, AppendAggregationKeepsAllMatches) {
  const int devices = GetParam();
  const std::size_t n = 5000;
  auto x = random_floats(n, 7);
  std::vector<float> out(n, 0.0f);
  sim::Node node = make_node(devices);
  Scheduler sched(node);
  Vector<float> X(n), Out(n);
  X.Bind(x.data());
  Out.Bind(out.data());
  sched.Invoke(PositiveFilter{}, Window1D<float, 0, maps::NO_CHECKS>(X),
               ReductiveDynamic<float>(Out));
  sched.Gather(Out);

  std::vector<float> kept(out.begin(),
                          out.begin() + static_cast<long>(
                                            sched.gathered_count(Out)));
  std::vector<float> expected;
  for (float v : x) {
    if (v > 0.0f) {
      expected.push_back(v);
    }
  }
  EXPECT_EQ(kept.size(), expected.size());
  // Device-order concatenation preserves per-device order; globally the
  // multiset must match.
  std::sort(kept.begin(), kept.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(kept, expected);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, FilterDevicesTest,
                         ::testing::Values(1, 2, 3, 4));

// --- Irregular output: unknown per-thread output counts -------------------------

struct EmitDivisors {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& out) const {
    MAPS_FOREACH(it, out) {
      const int v = static_cast<int>(x.at(it, 0));
      for (int d = 1; d <= v; ++d) { // v outputs for value v
        out.append(static_cast<float>(d));
      }
    }
  }
};

TEST(PatternsTest, IrregularOutputVariableCounts) {
  const std::size_t n = 600;
  std::vector<float> x(n), out(4 * n, 0.0f);
  std::mt19937 rng(8);
  std::size_t expected = 0;
  for (auto& v : x) {
    v = static_cast<float>(rng() % 4); // 0..3 outputs per element
    expected += static_cast<std::size_t>(v);
  }
  sim::Node node = make_node(2);
  Scheduler sched(node);
  Vector<float> X(n), Out(4 * n);
  X.Bind(x.data());
  Out.Bind(out.data());
  // Capacity: up to 4 outputs per element — declare via a larger datum.
  sched.Invoke(EmitDivisors{}, Window1D<float, 0, maps::NO_CHECKS>(X),
               IrregularOutput<float>(Out));
  sched.Gather(Out);
  EXPECT_EQ(sched.gathered_count(Out), expected);
}

// --- Traversal: single-device fallback ------------------------------------------

struct ChaseKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& next, Out& out) const {
    MAPS_FOREACH(it, out) {
      // Three pointer-chasing hops: unpartitionable without replication.
      std::size_t p = it.work_y();
      for (int hop = 0; hop < 3; ++hop) {
        p = static_cast<std::size_t>(next[p]);
      }
      *it = static_cast<int>(p);
    }
  }
};

TEST(PatternsTest, TraversalFallsBackToSingleDevice) {
  const std::size_t n = 2048;
  std::vector<int> next(n), out(n, -1);
  std::mt19937 rng(9);
  for (auto& v : next) {
    v = static_cast<int>(rng() % n);
  }
  sim::Node node = make_node(4);
  Scheduler sched(node);
  Vector<int> NextD(n), OutD(n);
  NextD.Bind(next.data());
  OutD.Bind(out.data());
  sched.Invoke(ChaseKernel{}, Traversal<int>(NextD),
               StructuredInjective<int, 1>(OutD));
  sched.WaitAll();
  // Only device 0 computed (§3.1: Traversal is not partitioned).
  EXPECT_GT(node.stats().device_compute_seconds[0], 0.0);
  for (int d = 1; d < 4; ++d) {
    EXPECT_EQ(node.stats().device_compute_seconds[static_cast<std::size_t>(d)],
              0.0);
  }
  sched.Gather(OutD);
  for (std::size_t i = 0; i < n; i += 101) {
    std::size_t p = i;
    for (int hop = 0; hop < 3; ++hop) {
      p = static_cast<std::size_t>(next[p]);
    }
    EXPECT_EQ(out[i], static_cast<int>(p));
  }
}

// --- CSR variable-size segmentation -----------------------------------------------

struct CsrSpmvKernel {
  template <typename RowPtr, typename Cols, typename Vals, typename X,
            typename Out>
  void operator()(const maps::ThreadContext&, RowPtr& row_ptr, Cols& cols,
                  Vals& vals, X& x, Out& y) const {
    MAPS_FOREACH(row, y) {
      const auto begin = static_cast<std::size_t>(row_ptr.at(row, 0));
      const auto end = static_cast<std::size_t>(row_ptr.at(row, 1));
      float acc = 0.0f;
      for (std::size_t e = begin; e < end; ++e) {
        acc += vals[e] * x[static_cast<std::size_t>(cols[e])];
      }
      *row = acc;
    }
  }
};

TEST(CsrTest, VariableSegmentsPartitionTheSparseStructure) {
  // Random CSR matrix with highly skewed row lengths: each device receives
  // exactly the edges of its rows, not the whole structure.
  const std::size_t n = 2000;
  std::mt19937 rng(12);
  std::vector<int> row_ptr(n + 1);
  std::vector<int> cols;
  std::vector<float> vals;
  for (std::size_t i = 0; i < n; ++i) {
    row_ptr[i] = static_cast<int>(cols.size());
    const std::size_t deg = rng() % 8;
    for (std::size_t e = 0; e < deg; ++e) {
      cols.push_back(static_cast<int>(rng() % n));
      vals.push_back(static_cast<float>(rng() % 5));
    }
  }
  row_ptr[n] = static_cast<int>(cols.size());
  std::vector<float> x(n), y(n, 0.0f);
  for (auto& v : x) {
    v = static_cast<float>(rng() % 7);
  }

  sim::Node node = make_node(4);
  Scheduler sched(node);
  Vector<int> RowPtr(n + 1, "row_ptr"), Cols(cols.size(), "cols");
  Vector<float> Vals(vals.size(), "vals"), X(n, "x"), Y(n, "y");
  RowPtr.Bind(row_ptr.data());
  Cols.Bind(cols.data());
  Vals.Bind(vals.data());
  X.Bind(x.data());
  Y.Bind(y.data());

  sched.Invoke(CsrSpmvKernel{}, Window1D<int, 1, maps::CLAMP>(RowPtr),
               CsrArray<int>(Cols, row_ptr.data()),
               CsrArray<float>(Vals, row_ptr.data()), Adjacency<float>(X),
               StructuredInjective<float, 1>(Y));
  sched.Gather(Y);

  // Correctness.
  for (std::size_t i = 0; i < n; i += 17) {
    float ref = 0.0f;
    for (int e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      ref += vals[static_cast<std::size_t>(e)] *
             x[static_cast<std::size_t>(cols[static_cast<std::size_t>(e)])];
    }
    ASSERT_FLOAT_EQ(y[i], ref) << i;
  }
  // Traffic: cols+vals were PARTITIONED, not replicated — total upload of
  // the structure arrays is ~1x their size, not 4x. (x is replicated,
  // row_ptr partitioned with halo; allow slack for those.)
  const std::uint64_t structure_bytes = cols.size() * 4 + vals.size() * 4;
  const std::uint64_t replicated_everything =
      4 * (structure_bytes + n * 4) + (n + 1) * 4;
  EXPECT_LT(node.stats().bytes_h2d, replicated_everything - structure_bytes);
}

// --- ReduceScatter (framework extension) ----------------------------------------

/// Routine adding slot + 1 to every element of its private Sum partial
/// (parameter 1), so the partials of 4 devices sum to 10.
UnmodifiedRoutine slot_partials(std::size_t n) {
  return [n](RoutineArgs& a) {
    float* acc = a.parameters[1].as<float>();
    const int slot = a.device_idx;
    sim::LaunchStats st;
    st.label = "partial";
    st.blocks = 4;
    a.node->launch(a.stream, st, [acc, n, slot] {
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] += static_cast<float>(slot + 1); // distinct partials
      }
    });
    return true;
  };
}

TEST(ReduceScatterTest, DeviceSideAggregationMatchesHostGather) {
  const std::size_t n = 1024;
  std::vector<float> host_in(n, 1.0f), via_gather(n, 0.0f),
      via_rs(n, 0.0f);
  const UnmodifiedRoutine routine = slot_partials(n);

  for (bool use_rs : {false, true}) {
    sim::Node node = make_node(4);
    Scheduler sched(node);
    Vector<float> In(n, "in"), Acc(n, "acc");
    In.Bind(host_in.data());
    std::vector<float>& result = use_rs ? via_rs : via_gather;
    Acc.Bind(result.data());
    sched.InvokeUnmodified(routine, nullptr, Work{n},
                           Block2D<float>(static_cast<Datum&>(In)),
                           SumReduced<float>(Acc));
    if (use_rs) {
      sched.ReduceScatter(Acc, Work{n});
      sched.WaitAll();
      node.reset_stats();
      sched.Gather(Acc); // plain segment gather: already aggregated
      EXPECT_EQ(node.stats().bytes_d2h, n * sizeof(float));
    } else {
      sched.Gather(Acc);
    }
  }
  // 1+2+3+4 everywhere, both ways.
  EXPECT_EQ(via_gather, std::vector<float>(n, 10.0f));
  EXPECT_EQ(via_rs, via_gather);
}

struct CopyKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      MAPS_FOREACH_ALIGNED(w, x, it) {
        *it = *w;
      }
    }
  }
};

TEST(ReduceScatterTest, LaterKernelReadsTheScatteredSums) {
  // The reduce-scatter sums run on their own stream, so a kernel reading the
  // scattered rows right after must wait on their availability — with
  // overlap off too, where the device launches its whole grid at once. At
  // this size a kernel that relied on compute-stream order alone would read
  // one device's raw partial instead of the sum.
  const std::size_t n = std::size_t{1} << 20;
  const UnmodifiedRoutine routine = slot_partials(n);
  for (bool overlap : {true, false}) {
    sim::Node node = make_node(4);
    Scheduler sched(node);
    sched.set_overlap_enabled(overlap);
    std::vector<float> in(n, 1.0f), acc(n, 0.0f), out(n, 0.0f);
    Vector<float> In(n, "in"), Acc(n, "acc"), Out(n, "out");
    In.Bind(in.data());
    Acc.Bind(acc.data());
    Out.Bind(out.data());
    sched.InvokeUnmodified(routine, nullptr, Work{n},
                           Block2D<float>(static_cast<Datum&>(In)),
                           SumReduced<float>(Acc));
    sched.ReduceScatter(Acc, Work{n});
    sched.Invoke(CopyKernel{}, Window1D<float, 0>(Acc),
                 StructuredInjective<float, 1>(Out));
    sched.Gather(Out);
    ASSERT_EQ(out, std::vector<float>(n, 10.0f))
        << "overlap " << (overlap ? "on" : "off") << ": out[0] = " << out[0]
        << ", out[n-1] = " << out[n - 1];
  }
}

} // namespace

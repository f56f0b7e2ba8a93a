// Scheduler edge cases: device subsets, async gathers, error propagation,
// out-of-memory behaviour, host-modification semantics, Window2D boundary
// sweeps on awkward sizes, and NDArray/WindowND tasks.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/game_of_life.hpp"
#include "multi/maps_multi.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

struct AddOneKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& in, Out& out) const {
    MAPS_FOREACH(it, out) {
      *it = in.at(it, 0) + 1.0f;
    }
  }
};

struct Copy1DKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& in, Out& out) const {
    MAPS_FOREACH(it, out) {
      *it = in.at(it, 0);
    }
  }
};

struct NoopKernel {
  template <typename A, typename B>
  void operator()(const maps::ThreadContext&, A&, B&) const {}
};

struct ScaleKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      *it = 3 * x.at(it, 0, 0);
    }
  }
};

TEST(SchedulerEdgeTest, DeviceSubsetUsesOnlyListedDevices) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 4));
  Scheduler sched(node, {1, 3}); // two of the four devices
  const std::size_t W = 64, H = 64;
  std::vector<int> a(W * H, 2), b(W * H, 0);
  Matrix<int> A(W, H), B(W, H);
  A.Bind(a.data());
  B.Bind(b.data());
  sched.Invoke(ScaleKernel{}, Window2D<int, 0, maps::NO_CHECKS>(A),
               StructuredInjective<int, 2>(B));
  sched.Gather(B);
  EXPECT_EQ(b[0], 6);
  EXPECT_EQ(b[W * H - 1], 6);
  EXPECT_GT(node.stats().device_compute_seconds[1], 0.0);
  EXPECT_GT(node.stats().device_compute_seconds[3], 0.0);
  EXPECT_EQ(node.stats().device_compute_seconds[0], 0.0);
  EXPECT_EQ(node.stats().device_compute_seconds[2], 0.0);
}

TEST(SchedulerEdgeTest, GatherAsyncCompletesAtWaitAll) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  Scheduler sched(node);
  const std::size_t n = 256;
  std::vector<float> x(n, 1.0f), y(n, 0.0f);
  Vector<float> X(n), Y(n);
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(AddOneKernel{}, Window1D<float, 0, maps::NO_CHECKS>(X),
               StructuredInjective<float, 1>(Y));
  sched.GatherAsync(Y);
  sched.WaitAll();
  EXPECT_EQ(y[100], 2.0f);
}

TEST(SchedulerEdgeTest, FailingRoutineSurfacesAtWaitAll) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  Scheduler sched(node);
  std::vector<float> x(64, 0.0f);
  Vector<float> X(64);
  X.Bind(x.data());
  auto bad = [](RoutineArgs&) { return false; };
  sched.InvokeUnmodified(bad, nullptr, Work{64},
                         Block2D<float>(static_cast<Datum&>(X)),
                         StructuredInjective<float, 1>(X));
  EXPECT_THROW(sched.WaitAll(), std::runtime_error);
}

TEST(SchedulerEdgeTest, CommandsKeepSubmissionOrderPerDevice) {
  // Each task's routine enqueues a host function logging the task index on
  // its device's stream: every device must run them in submission order.
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  Scheduler sched(node);
  std::vector<float> x(64, 0.0f);
  Vector<float> X(64);
  X.Bind(x.data());
  std::vector<std::vector<int>> order(2);
  for (int i = 0; i < 100; ++i) {
    auto log = [&order, i](RoutineArgs& a) {
      auto& device_order = order[static_cast<std::size_t>(a.device_idx)];
      a.node->host_func(a.stream, [&device_order, i] {
        device_order.push_back(i);
      });
      return true;
    };
    sched.InvokeUnmodified(log, nullptr, Work{64},
                           Block2D<float>(static_cast<Datum&>(X)),
                           StructuredInjective<float, 1>(X));
  }
  sched.WaitAll();
  for (const std::vector<int>& device_order : order) {
    ASSERT_EQ(device_order.size(), 100u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(device_order[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(SchedulerEdgeTest, FirstIssueErrorWinsAndIsConsumedAtWaitAll) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  Scheduler sched(node);
  std::vector<float> a(64), b(64), c(64);
  Vector<float> A(64), B(64), C(64);
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());
  const auto invoke = [&](const UnmodifiedRoutine& routine, Vector<float>& v) {
    sched.InvokeUnmodified(routine, nullptr, Work{64},
                           Block2D<float>(static_cast<Datum&>(v)),
                           StructuredInjective<float, 1>(v));
  };
  int later_issues = 0;
  invoke([](RoutineArgs&) -> bool { throw std::runtime_error("first"); }, A);
  invoke([](RoutineArgs&) -> bool { throw std::logic_error("second"); }, B);
  invoke(
      [&later_issues](RoutineArgs&) {
        ++later_issues;
        return true;
      },
      C);
  // Issues after a failure still run, on every device.
  EXPECT_EQ(later_issues, 2);
  try {
    sched.WaitAll();
    FAIL() << "expected the first issue error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The error was consumed: the next drain is clean.
  EXPECT_NO_THROW(sched.WaitAll());
}

TEST(SchedulerEdgeTest, TimingOnlySchedulerAddsNoHostThreads) {
  // Commands are issued from the caller's thread: a scheduler that needs no
  // execution pool (TimingOnly) must not start a single host thread.
  const std::filesystem::path tasks = "/proc/self/task";
  std::error_code ec;
  if (!std::filesystem::is_directory(tasks, ec)) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  const auto host_threads = [&] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(tasks)) {
      ++n;
    }
    return n;
  };
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 4),
                 sim::ExecMode::TimingOnly);
  const std::size_t before = host_threads();
  Scheduler sched(node);
  std::vector<float> x(1024), y(1024);
  Vector<float> X(1024), Y(1024);
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(Copy1DKernel{}, Window1D<float, 0, maps::NO_CHECKS>(X),
               StructuredInjective<float, 1>(Y));
  EXPECT_EQ(host_threads(), before);
  sched.WaitAll();
}

TEST(SchedulerEdgeTest, DeviceOutOfMemoryPropagates) {
  // A GTX 780 holds 3 GiB; a replicated 4 GiB datum cannot fit.
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  const std::size_t n = (4ull << 30) / sizeof(float);
  std::vector<float> tiny(1);
  Vector<float> X(n, "huge"), Y(1 << 10, "out");
  X.Bind(tiny.data());
  Y.Bind(tiny.data());
  EXPECT_THROW(sched.Invoke(NoopKernel{}, Block1D<float>(X),
                            StructuredInjective<float, 1>(Y)),
               sim::OutOfDeviceMemory);
}

TEST(SchedulerEdgeTest, MarkHostModifiedForcesReupload) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  Scheduler sched(node);
  const std::size_t n = 512;
  std::vector<float> x(n, 1.0f), y(n, 0.0f);
  Vector<float> X(n), Y(n);
  X.Bind(x.data());
  Y.Bind(y.data());
  using In = Window1D<float, 0, maps::NO_CHECKS>;
  sched.Invoke(Copy1DKernel{}, In(X), StructuredInjective<float, 1>(Y));
  sched.WaitAll();
  // Host rewrites x; without notification the cached replicas would win.
  std::fill(x.begin(), x.end(), 7.0f);
  sched.MarkHostModified(X);
  sched.Invoke(Copy1DKernel{}, In(X), StructuredInjective<float, 1>(Y));
  sched.Gather(Y);
  EXPECT_EQ(y[10], 7.0f);
}

TEST(SchedulerEdgeTest, GatherOfUntouchedDatumIsANoOp) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 2));
  Scheduler sched(node);
  std::vector<float> x(16, 3.0f);
  Vector<float> X(16);
  X.Bind(x.data());
  sched.Gather(X); // never used by a task: host copy is authoritative
  EXPECT_EQ(x[5], 3.0f);
  EXPECT_EQ(node.stats().bytes_d2h, 0u);
}

TEST(SchedulerEdgeTest, UnboundGatherThrows) {
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 1));
  Scheduler sched(node);
  Vector<float> X(16);
  EXPECT_THROW(sched.Gather(X), std::runtime_error);
}

// --- Window2D boundary sweep on awkward sizes ----------------------------------

struct SumNeighborhood {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      int acc = 0;
      MAPS_FOREACH_ALIGNED(n, x, it) {
        acc += *n;
      }
      *it = acc;
    }
  }
};

class Window2DBoundaryTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Window2DBoundaryTest, NeighborhoodSumsMatchReference) {
  const int devices = std::get<0>(GetParam());
  const int boundary = std::get<1>(GetParam());
  const std::size_t H = static_cast<std::size_t>(std::get<2>(GetParam()));
  const std::size_t W = 37; // deliberately awkward width
  std::mt19937 rng(H * 131u);
  std::vector<int> x(W * H), y(W * H, -1);
  for (auto& v : x) {
    v = static_cast<int>(rng() % 9);
  }
  auto at = [&](long i, long j) -> int {
    switch (boundary) {
    case 0: // Wrap
      i = (i % static_cast<long>(H) + static_cast<long>(H)) %
          static_cast<long>(H);
      j = (j % static_cast<long>(W) + static_cast<long>(W)) %
          static_cast<long>(W);
      break;
    case 1: // Clamp
      i = std::clamp<long>(i, 0, static_cast<long>(H) - 1);
      j = std::clamp<long>(j, 0, static_cast<long>(W) - 1);
      break;
    default: // Zero
      if (i < 0 || j < 0 || i >= static_cast<long>(H) ||
          j >= static_cast<long>(W)) {
        return 0;
      }
      break;
    }
    return x[static_cast<std::size_t>(i) * W + static_cast<std::size_t>(j)];
  };

  sim::Node node(sim::homogeneous_node(sim::gtx980(), devices));
  Scheduler sched(node);
  Matrix<int> X(W, H), Y(W, H);
  X.Bind(x.data());
  Y.Bind(y.data());
  switch (boundary) {
  case 0:
    sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::WRAP>(X),
                 StructuredInjective<int, 2>(Y));
    break;
  case 1:
    sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::CLAMP>(X),
                 StructuredInjective<int, 2>(Y));
    break;
  default:
    sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::ZERO>(X),
                 StructuredInjective<int, 2>(Y));
    break;
  }
  sched.Gather(Y);
  for (std::size_t i = 0; i < H; ++i) {
    for (std::size_t j = 0; j < W; ++j) {
      int ref = 0;
      for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
          ref += at(static_cast<long>(i) + di, static_cast<long>(j) + dj);
        }
      }
      ASSERT_EQ(y[i * W + j], ref) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DevicesBoundarySize, Window2DBoundaryTest,
    ::testing::Combine(::testing::Values(1, 3, 4), ::testing::Values(0, 1, 2),
                       ::testing::Values(29, 64, 101)));

// --- NDArray + WindowND: batched 1-slice blur ------------------------------------

struct SliceBlur {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      // dim0 = slice index (work row); inner = flattened (h, w).
      const long slice = it.work_y();
      const std::size_t inner = it.work_x();
      *it = 0.25f * x.at(slice, -1, inner) + 0.5f * x.at(slice, 0, inner) +
            0.25f * x.at(slice, +1, inner);
    }
  }
};

TEST(SchedulerEdgeTest, NDArrayWindowNDBlursAcrossSlices) {
  const std::size_t slices = 48, h = 6, w = 5;
  std::vector<float> x(slices * h * w), y(slices * h * w, 0.0f);
  std::mt19937 rng(77);
  std::uniform_real_distribution<float> dist(0, 1);
  for (auto& v : x) {
    v = dist(rng);
  }
  sim::Node node(sim::homogeneous_node(sim::titan_black(), 4));
  Scheduler sched(node);
  NDArray<float, 3> X({slices, h, w}, "x"), Y({slices, h, w}, "y");
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(SliceBlur{}, WindowND<float, 3, 1, maps::CLAMP>(X),
               StructuredInjective<float, 2>(Y));
  sched.Gather(Y);
  const std::size_t inner = h * w;
  for (std::size_t s = 0; s < slices; s += 5) {
    for (std::size_t i = 0; i < inner; i += 3) {
      const std::size_t sm = s == 0 ? 0 : s - 1;
      const std::size_t sp = s == slices - 1 ? s : s + 1;
      const float ref = 0.25f * x[sm * inner + i] + 0.5f * x[s * inner + i] +
                        0.25f * x[sp * inner + i];
      ASSERT_NEAR(y[s * inner + i], ref, 1e-5f) << s << "," << i;
    }
  }
}

/// SumNeighborhood with bounded values: iterating the unbounded sum from
/// all-ones grows 9x per step and overflows int within the loop below.
struct BoundedSumNeighborhood {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      int acc = 0;
      MAPS_FOREACH_ALIGNED(n, x, it) {
        acc += *n % 1000;
      }
      *it = acc % 1000;
    }
  }
};

// --- Interior/boundary splitting (compute-transfer overlap) ---------------------

/// A GTX 980 with no kernel launch latency: the overlap cost gate (halo
/// chain vs. the launch cost of two extra strips) then passes for every
/// structurally splittable task.
sim::DeviceSpec launch_free_gtx980() {
  sim::DeviceSpec spec = sim::gtx980();
  spec.kernel_launch_us = 0.0;
  return spec;
}

/// Reference sum-neighborhood run: overlap disabled, same seed/shape and
/// device spec as the overlap-on runs it is compared with.
std::vector<int> overlap_reference(int devices, std::size_t W, std::size_t H,
                                   const std::vector<int>& x) {
  sim::Node node(sim::homogeneous_node(launch_free_gtx980(), devices));
  Scheduler sched(node);
  sched.set_overlap_enabled(false);
  std::vector<int> y(W * H, -1);
  std::vector<int> xm = x;
  Matrix<int> X(W, H), Y(W, H);
  X.Bind(xm.data());
  Y.Bind(y.data());
  sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::WRAP>(X),
               StructuredInjective<int, 2>(Y));
  sched.Gather(Y);
  return y;
}

TEST(SchedulerEdgeTest, OverlapSplitsIntoInteriorAndBoundaryStrips) {
  const std::size_t W = 37, H = 256; // 8 block rows per device at span 8
  std::mt19937 rng(123);
  std::vector<int> x(W * H);
  for (auto& v : x) {
    v = static_cast<int>(rng() % 9);
  }
  const std::vector<int> ref = overlap_reference(4, W, H, x);

  sim::Node node(sim::homogeneous_node(launch_free_gtx980(), 4));
  Scheduler sched(node);
  std::vector<int> y(W * H, -1);
  std::vector<int> xm = x;
  Matrix<int> X(W, H), Y(W, H);
  X.Bind(xm.data());
  Y.Bind(y.data());
  sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::WRAP>(X),
               StructuredInjective<int, 2>(Y));
  sched.Gather(Y);

  // Every device splits into top boundary + interior + bottom boundary (the
  // global edges also read Wrap halo slots, so they are boundary too).
  EXPECT_EQ(sched.stats().interior_subkernels, 4u);
  EXPECT_EQ(sched.stats().boundary_subkernels, 8u);
  EXPECT_EQ(y, ref); // bit-identical to the unsplit run
}

TEST(SchedulerEdgeTest, OverlapDeclinesSegmentThinnerThanHalo) {
  // 64 rows over 4 devices = 2 block rows each (span 8): both are boundary,
  // so there is no interior strip and the device stays unsplit.
  const std::size_t W = 37, H = 64;
  std::mt19937 rng(321);
  std::vector<int> x(W * H);
  for (auto& v : x) {
    v = static_cast<int>(rng() % 9);
  }
  const std::vector<int> ref = overlap_reference(4, W, H, x);

  sim::Node node(sim::homogeneous_node(launch_free_gtx980(), 4));
  Scheduler sched(node);
  std::vector<int> y(W * H, -1);
  std::vector<int> xm = x;
  Matrix<int> X(W, H), Y(W, H);
  X.Bind(xm.data());
  Y.Bind(y.data());
  sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::WRAP>(X),
               StructuredInjective<int, 2>(Y));
  sched.Gather(Y);

  EXPECT_EQ(sched.stats().interior_subkernels, 0u);
  EXPECT_EQ(sched.stats().boundary_subkernels, 0u);
  EXPECT_EQ(y, ref);
}

TEST(SchedulerEdgeTest, OverlapIsANoOpOnOneDevice) {
  const std::size_t W = 37, H = 256;
  std::mt19937 rng(55);
  std::vector<int> x(W * H);
  for (auto& v : x) {
    v = static_cast<int>(rng() % 9);
  }
  const std::vector<int> ref = overlap_reference(1, W, H, x);

  sim::Node node(sim::homogeneous_node(launch_free_gtx980(), 1));
  Scheduler sched(node);
  std::vector<int> y(W * H, -1);
  std::vector<int> xm = x;
  Matrix<int> X(W, H), Y(W, H);
  X.Bind(xm.data());
  Y.Bind(y.data());
  sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::WRAP>(X),
               StructuredInjective<int, 2>(Y));
  sched.Gather(Y);

  EXPECT_EQ(sched.stats().interior_subkernels, 0u);
  EXPECT_EQ(sched.stats().boundary_subkernels, 0u);
  EXPECT_EQ(y, ref);
}

TEST(SchedulerEdgeTest, OverlapSplitsZeroBoundaryWithoutCopyDependency) {
  // Boundary::Zero global edges: the edge strips' halo slots are zero-filled
  // locally (no peer copy to wait on), and the results still match.
  const std::size_t W = 37, H = 192;
  std::mt19937 rng(99);
  std::vector<int> x(W * H);
  for (auto& v : x) {
    v = static_cast<int>(rng() % 9);
  }
  auto run = [&](bool overlap) {
    sim::Node node(sim::homogeneous_node(launch_free_gtx980(), 3));
    Scheduler sched(node);
    sched.set_overlap_enabled(overlap);
      std::vector<int> y(W * H, -1);
    std::vector<int> xm = x;
    Matrix<int> X(W, H), Y(W, H);
    X.Bind(xm.data());
    Y.Bind(y.data());
    sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::ZERO>(X),
                 StructuredInjective<int, 2>(Y));
    sched.Gather(Y);
    if (overlap) {
      EXPECT_GT(sched.stats().boundary_subkernels, 0u);
    }
    return y;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(SchedulerEdgeTest, ChunkedCopiesPreserveResultsAndBytes) {
  // A replicated input forces whole-segment uploads; a 1 KiB chunk threshold
  // splits them into many row-range pieces. Byte totals and results must not
  // change, only the piece count.
  const std::size_t W = 64, H = 128;
  std::mt19937 rng(7);
  std::vector<int> x(W * H);
  for (auto& v : x) {
    v = static_cast<int>(rng() % 100);
  }
  auto run = [&](std::size_t chunk_bytes, std::uint64_t* bytes_total,
                 std::uint32_t* chunked) {
    sim::Node node(sim::homogeneous_node(sim::gtx980(), 4));
    Scheduler sched(node);
    sched.set_copy_chunk_bytes(chunk_bytes);
    std::vector<int> y(W * H, -1);
    std::vector<int> xm = x;
    Matrix<int> X(W, H), Y(W, H);
    X.Bind(xm.data());
    Y.Bind(y.data());
    sched.Invoke(SumNeighborhood{}, Window2D<int, 1, maps::CLAMP>(X),
                 StructuredInjective<int, 2>(Y));
    sched.Gather(Y);
    *bytes_total = sched.stats().transfers.bytes_total();
    *chunked = sched.stats().transfers.copies_chunked;
    return y;
  };
  std::uint64_t bytes_plain = 0, bytes_chunked = 0;
  std::uint32_t n_plain = 0, n_chunked = 0;
  const auto plain = run(0, &bytes_plain, &n_plain);
  const auto chunked = run(1 << 10, &bytes_chunked, &n_chunked);
  EXPECT_EQ(plain, chunked);
  EXPECT_EQ(bytes_plain, bytes_chunked);
  EXPECT_EQ(n_plain, 0u);
  EXPECT_GT(n_chunked, 0u);
}

TEST(SchedulerEdgeTest, AllocationsHappenOnceAcrossIterations) {
  // §4.2: the memory analyzer "allocates the necessary memory once,
  // creating contiguous buffers" — iterating a task chain must not allocate
  // again.
  sim::Node node(sim::homogeneous_node(sim::gtx780(), 4));
  Scheduler sched(node);
  const std::size_t W = 64, H = 64;
  std::vector<int> a(W * H, 1), b(W * H, 0);
  Matrix<int> A(W, H), B(W, H);
  A.Bind(a.data());
  B.Bind(b.data());
  using Win = Window2D<int, 1, maps::WRAP>;
  using Out = StructuredInjective<int, 2>;
  sched.AnalyzeCall(Win(A), Out(B));
  sched.AnalyzeCall(Win(B), Out(A));
  sched.Invoke(BoundedSumNeighborhood{}, Win(A), Out(B));
  sched.Invoke(BoundedSumNeighborhood{}, Win(B), Out(A));
  sched.WaitAll();
  const std::size_t used_after_two = node.device_mem_used(0);
  const std::size_t analyzer_bytes = sched.analyzer().allocated_bytes(0);
  for (int i = 0; i < 10; ++i) {
    sched.Invoke(BoundedSumNeighborhood{}, Win(A), Out(B));
    sched.Invoke(BoundedSumNeighborhood{}, Win(B), Out(A));
  }
  sched.WaitAll();
  EXPECT_EQ(node.device_mem_used(0), used_after_two);
  EXPECT_EQ(sched.analyzer().allocated_bytes(0), analyzer_bytes);
}

// --- Same-stream wait elision -------------------------------------------------
// A warm TimingOnly Game of Life on 4 Titan Black, as in bench/sched_overhead:
// 200 warm-up ticks, then `ticks` traced ones (a GatherAsync of the current
// generation after every tenth when `gather`). Intermediate drains go to the
// node directly, so the scheduler's record table survives them.
struct GolWaits {
  std::size_t waits = 0; ///< 'W' rows in the traced window
  /// 'W' rows whose event's first record ran on the waiting stream itself
  /// (the rest name a record on another stream).
  std::size_t same_stream_waits = 0;
  std::uint64_t elided = 0; ///< waits_elided over the traced window
  double now_ms = 0;        ///< after the closing WaitAll
};

GolWaits run_gol_waits(int ticks, bool gather) {
  sim::Node node(sim::homogeneous_node(sim::titan_black(), 4),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  std::vector<int> dummy(1); // TimingOnly: backing never touched
  Matrix<int> a(2048, 2048, "A"), b(2048, 2048, "B");
  a.Bind(dummy.data());
  b.Bind(dummy.data());
  using Tick = apps::gol::MapsTick<1, 1>;
  sched.AnalyzeCall(Tick::Win(a), Tick::Out(b));
  sched.AnalyzeCall(Tick::Win(b), Tick::Out(a));
  int i = 0;
  const auto step = [&] {
    if (i++ % 2 == 0) {
      sched.Invoke(Tick{}, Tick::Win(a), Tick::Out(b));
    } else {
      sched.Invoke(Tick{}, Tick::Win(b), Tick::Out(a));
    }
  };
  while (i < 200) {
    step();
  }
  node.synchronize();
  node.enable_trace(true);
  sched.reset_stats();
  for (int t = 0; t < ticks; ++t) {
    step();
    if (gather && t % 10 == 5) {
      sched.GatherAsync(i % 2 == 0 ? a : b);
    }
  }
  node.synchronize();

  GolWaits r;
  r.elided = sched.stats().waits_elided;
  std::map<std::string, int> recorded_on; // event label -> first record's stream
  for (const sim::TraceEvent& te : node.trace()) {
    if (te.kind == 'R') {
      recorded_on.emplace(te.label, te.stream);
    }
  }
  for (const sim::TraceEvent& te : node.trace()) {
    if (te.kind == 'W') {
      ++r.waits;
      const auto it = recorded_on.find(te.label);
      r.same_stream_waits += it != recorded_on.end() && it->second == te.stream;
    }
  }
  sched.WaitAll();
  r.now_ms = node.now_ms();
  return r;
}

TEST(SchedulerEdgeTest, WaitsTheStreamOrderImpliesAreElided) {
  // Each warm tick issued 48 waits before elision: 16 name an event the
  // issue loop recorded earlier on the waiting stream, 32 one recorded on
  // another stream. Only the 16 go, and the simulated clock is the one
  // measured with all 48 enqueued.
  constexpr int kTicks = 100;
  const GolWaits r = run_gol_waits(kTicks, false);
  EXPECT_EQ(r.waits, 32u * kTicks);
  EXPECT_EQ(r.same_stream_waits, 0u);
  EXPECT_EQ(r.elided, 16u * kTicks);
  EXPECT_EQ(r.now_ms, 42.251963504762124);
}

TEST(SchedulerEdgeTest, WaitOnARecordMadeOutsideTheIssueLoopIsKept) {
  // A gather's device-to-host copy records its event on a copy stream
  // outside the issue loop; the next tick's copies on that stream wait on
  // it, and those waits stay although stream order implies them.
  const GolWaits r = run_gol_waits(100, true);
  EXPECT_EQ(r.same_stream_waits, 56u);
  EXPECT_EQ(r.elided, 1600u);
  EXPECT_EQ(r.now_ms, 47.575251580952425);
}

} // namespace

// Steady-state plan cache: replayed plans must be indistinguishable — in
// gathered data AND in simulated time — from freshly built ones, and every
// location-state change (host writes, gathers, aggregations, interleaved
// writers) must invalidate exactly the plans it affects.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "multi/maps_multi.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

struct GameOfLifeTick {
  template <typename Win, typename Out>
  void operator()(const maps::ThreadContext&, Win& current, Out& next) const {
    MAPS_FOREACH(cell, next) {
      int live = 0;
      MAPS_FOREACH_ALIGNED(n, current, cell) {
        if (!n.is_center()) {
          live += *n;
        }
      }
      const int alive = current.at(cell, 0, 0);
      *cell = (live == 3 || (alive && live == 2)) ? 1 : 0;
    }
    next.commit();
  }
};

void gol_reference(std::vector<int>& grid, std::size_t w, std::size_t h) {
  std::vector<int> next(grid.size());
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      int live = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) {
            continue;
          }
          const std::size_t yy = (y + h + static_cast<std::size_t>(dy)) % h;
          const std::size_t xx = (x + w + static_cast<std::size_t>(dx)) % w;
          live += grid[yy * w + xx];
        }
      }
      const int alive = grid[y * w + x];
      next[y * w + x] = (live == 3 || (alive && live == 2)) ? 1 : 0;
    }
  }
  grid = std::move(next);
}

std::vector<int> random_grid(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<int> g(n);
  for (auto& v : g) {
    v = static_cast<int>(rng() & 1u);
  }
  return g;
}

sim::Node make_node(int devices,
                    sim::ExecMode mode = sim::ExecMode::Functional) {
  return sim::Node(sim::homogeneous_node(sim::titan_black(), devices), mode);
}

struct AddOneKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& in, Out& out) const {
    MAPS_FOREACH(it, out) {
      *it = in.at(it, 0) + 1;
    }
    out.commit();
  }
};

struct HistogramKernel {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& image, Out& hist) const {
    MAPS_FOREACH(h, hist) {
      auto pixel = image.align(h);
      h[static_cast<std::size_t>(*pixel)] += 1;
    }
    hist.commit();
  }
};

// Runs a GoL double-buffered loop and returns the final grid.
std::vector<int> run_gol(Scheduler& sched, std::size_t W, std::size_t H,
                         int iterations, unsigned seed) {
  std::vector<int> host_a = random_grid(W * H, seed);
  std::vector<int> host_b(W * H, 0);
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(host_a.data());
  B.Bind(host_b.data());
  using Win = Window2D<int, 1, maps::WRAP>;
  using Out = StructuredInjective<int, 2>;
  sched.AnalyzeCall(Win(A), Out(B));
  sched.AnalyzeCall(Win(B), Out(A));
  for (int i = 0; i < iterations; ++i) {
    if (i % 2 == 0) {
      sched.Invoke(GameOfLifeTick{}, Win(A), Out(B));
    } else {
      sched.Invoke(GameOfLifeTick{}, Win(B), Out(A));
    }
  }
  if (iterations % 2 == 0) {
    sched.Gather(A);
    return host_a;
  }
  sched.Gather(B);
  return host_b;
}

// --- Cache hits on steady-state loops ---------------------------------------

class PlanCacheDevicesTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanCacheDevicesTest, SteadyStateLoopHitsAndMatchesReference) {
  const int devices = GetParam();
  const std::size_t W = 96, H = 128;
  const int iterations = 16;

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  ASSERT_GT(sched.plan_cache_capacity(), 0u);

  std::vector<int> reference = random_grid(W * H, 42);
  const std::vector<int> result = run_gol(sched, W, H, iterations, 42);
  for (int i = 0; i < iterations; ++i) {
    gol_reference(reference, W, H);
  }
  EXPECT_EQ(result, reference);

  // Two task shapes (A->B, B->A). Each sees a fresh monitor state on its
  // first two occurrences (cold, then post-first-round state), after which
  // the double-buffered loop is periodic and every Invoke replays.
  const SchedulerStats& st = sched.stats();
  EXPECT_EQ(st.cache_hits + st.cache_misses,
            static_cast<std::uint64_t>(iterations));
  EXPECT_GE(st.cache_hits, static_cast<std::uint64_t>(iterations - 4));
  EXPECT_EQ(st.plans_built, st.cache_misses);
  EXPECT_EQ(st.uncacheable_tasks, 0u);
  EXPECT_LE(sched.plan_cache_size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, PlanCacheDevicesTest,
                         ::testing::Values(1, 2, 3, 4));

// The fingerprint encodes the live segment -> slot map exactly (its length,
// then every slot), so a node wider than one 64-bit slot mask replays like
// any other — with defined behaviour (the ASan/UBSan lane runs this).
TEST(PlanCacheWideNodeTest, SixtySixDevicesReplay) {
  const int devices = 66, iterations = 8;
  sim::Node node = make_node(devices, sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  (void)run_gol(sched, 32, 16 * devices, iterations, 3);
  const SchedulerStats& st = sched.stats();
  EXPECT_EQ(st.cache_hits + st.cache_misses,
            static_cast<std::uint64_t>(iterations));
  EXPECT_GE(st.cache_hits, static_cast<std::uint64_t>(iterations - 4));
}

// --- Replay is bit-identical with the cache force-disabled ------------------

TEST(PlanCacheTest, SimulatedTimelineAndResultsIdenticalCacheOnVsOff) {
  const std::size_t W = 192, H = 256;
  const int iterations = 10;
  for (const int devices : {1, 2, 4}) {
    sim::Node node_on = make_node(devices);
    sim::Node node_off = make_node(devices);
    Scheduler sched_on(node_on);
    Scheduler sched_off(node_off);
    sched_off.set_plan_cache_capacity(0);

    const auto grid_on = run_gol(sched_on, W, H, iterations, 7);
    const auto grid_off = run_gol(sched_off, W, H, iterations, 7);

    EXPECT_GT(sched_on.stats().cache_hits, 0u);
    EXPECT_EQ(sched_off.stats().cache_hits, 0u);
    EXPECT_EQ(sched_off.stats().plans_built,
              static_cast<std::uint64_t>(iterations));

    // Bit-identical gathered results and identical simulated clocks: the
    // cache may only change host-side planning work, never the simulation.
    EXPECT_EQ(grid_on, grid_off) << devices << " devices";
    EXPECT_DOUBLE_EQ(node_on.now_ms(), node_off.now_ms())
        << devices << " devices";
    EXPECT_EQ(node_on.stats().bytes_p2p, node_off.stats().bytes_p2p);
    EXPECT_EQ(node_on.stats().bytes_h2d, node_off.stats().bytes_h2d);
  }
}

// --- Invalidation ------------------------------------------------------------

TEST(PlanCacheTest, MarkHostModifiedInvalidatesAndReuploads) {
  const std::size_t n = 4096;
  sim::Node node = make_node(2);
  Scheduler sched(node);

  std::vector<int> in(n, 1), out(n, 0);
  Vector<int> A(n, "A"), B(n, "B");
  A.Bind(in.data());
  B.Bind(out.data());
  using In = Window1D<int, 0, maps::NO_CHECKS>;
  using Out = StructuredInjective<int, 1>;
  sched.AnalyzeCall(In(A), Out(B));

  // Warm the cache until the same Invoke replays.
  sched.Invoke(AddOneKernel{}, In(A), Out(B));
  sched.Invoke(AddOneKernel{}, In(A), Out(B));
  sched.Invoke(AddOneKernel{}, In(A), Out(B));
  sched.WaitAll();
  ASSERT_GT(sched.stats().cache_hits, 0u);
  node.reset_stats();

  // Host writes new input values: the cached plan (which plans NO h2d copy,
  // the data is device-resident) must not replay.
  for (auto& v : in) {
    v = 10;
  }
  sched.MarkHostModified(A);
  const auto inval_before = sched.stats().cache_invalidations;
  sched.Invoke(AddOneKernel{}, In(A), Out(B));
  sched.Gather(B);

  EXPECT_GT(sched.stats().cache_invalidations, inval_before);
  EXPECT_GT(node.stats().bytes_h2d, 0u) << "input was not re-uploaded";
  EXPECT_EQ(out, std::vector<int>(n, 11));
}

TEST(PlanCacheTest, GatherChangesStateWithoutBreakingLoop) {
  const std::size_t W = 64, H = 96;
  const int iterations = 10; // even: the final tick writes A, gathered below
  sim::Node node = make_node(3);
  Scheduler sched(node);

  std::vector<int> host_a = random_grid(W * H, 3);
  std::vector<int> host_b(W * H, 0);
  std::vector<int> reference = host_a;
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(host_a.data());
  B.Bind(host_b.data());
  using Win = Window2D<int, 1, maps::WRAP>;
  using Out = StructuredInjective<int, 2>;
  sched.AnalyzeCall(Win(A), Out(B));
  sched.AnalyzeCall(Win(B), Out(A));

  for (int i = 0; i < iterations; ++i) {
    if (i % 2 == 0) {
      sched.Invoke(GameOfLifeTick{}, Win(A), Out(B));
      sched.Gather(B); // changes B's location state mid-loop
      gol_reference(reference, W, H);
      EXPECT_EQ(host_b, reference) << "iteration " << i;
    } else {
      sched.Invoke(GameOfLifeTick{}, Win(B), Out(A));
      gol_reference(reference, W, H);
    }
  }
  sched.Gather(A);
  EXPECT_EQ(host_a, reference);
}

TEST(PlanCacheTest, InterleavedWriterOfSharedDatumInvalidates) {
  const std::size_t n = 1024;
  sim::Node node = make_node(2);
  Scheduler sched(node);

  std::vector<int> a(n, 0), b(n, 0), c(n, 0);
  Vector<int> A(n, "A"), B(n, "B"), C(n, "C");
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());
  using In = Window1D<int, 0, maps::NO_CHECKS>;
  using Out = StructuredInjective<int, 1>;
  sched.AnalyzeCall(In(A), Out(B));
  sched.AnalyzeCall(In(B), Out(A));
  sched.AnalyzeCall(In(A), Out(C));

  // Warm A->C, then interleave tasks that rewrite A; every later A->C sees
  // a different producer for A yet must stay correct.
  sched.Invoke(AddOneKernel{}, In(A), Out(C)); // c = a+1 = 1
  sched.Invoke(AddOneKernel{}, In(A), Out(B)); // b = a+1 = 1
  sched.Invoke(AddOneKernel{}, In(B), Out(A)); // a = b+1 = 2
  sched.Invoke(AddOneKernel{}, In(A), Out(C)); // c = a+1 = 3
  sched.Invoke(AddOneKernel{}, In(B), Out(A)); // a = b+1 = 2 (again)
  sched.Invoke(AddOneKernel{}, In(A), Out(C)); // c = a+1 = 3
  sched.Gather(C);
  EXPECT_EQ(c, std::vector<int>(n, 3));
  sched.Gather(A);
  EXPECT_EQ(a, std::vector<int>(n, 2));
}

TEST(PlanCacheTest, ReductiveLoopWithGatherStaysCorrect) {
  const std::size_t W = 200, H = 160;
  sim::Node node = make_node(4);
  Scheduler sched(node);

  std::mt19937 rng(7);
  std::vector<int> image(W * H);
  for (auto& p : image) {
    p = static_cast<int>(rng() % 256);
  }
  std::vector<int> expected(256, 0);
  for (int p : image) {
    expected[static_cast<std::size_t>(p)]++;
  }
  std::vector<int> hist(256, 0);
  Matrix<int> img(W, H, "image");
  Vector<int> h(256, "hist");
  img.Bind(image.data());
  h.Bind(hist.data());
  using In = Window2D<int, 0, maps::NO_CHECKS>;
  using Out = ReductiveStatic<int, 256>;
  sched.AnalyzeCall(In(img), Out(h));

  // Each round schedules partial writes (pending aggregation) and gathers;
  // the Gather must invalidate/refresh the cached plan state every time.
  for (int round = 0; round < 5; ++round) {
    sched.Invoke(HistogramKernel{}, In(img), Out(h));
    sched.Gather(h);
    EXPECT_EQ(hist, expected) << "round " << round;
  }
}

// --- Cache management --------------------------------------------------------

TEST(PlanCacheTest, DisabledCacheBuildsEveryPlan) {
  sim::Node node = make_node(2);
  Scheduler sched(node);
  sched.set_plan_cache_capacity(0);
  (void)run_gol(sched, 64, 64, 8, 1);
  EXPECT_EQ(sched.stats().cache_hits, 0u);
  EXPECT_EQ(sched.stats().plans_built, 8u);
  EXPECT_EQ(sched.plan_cache_size(), 0u);
}

TEST(PlanCacheTest, LruCapacityOneThrashesButStaysCorrect) {
  const std::size_t W = 64, H = 64;
  const int iterations = 8;
  sim::Node node = make_node(2);
  Scheduler sched(node);
  sched.set_plan_cache_capacity(1); // alternating shapes evict each other

  std::vector<int> reference = random_grid(W * H, 9);
  const auto result = run_gol(sched, W, H, iterations, 9);
  for (int i = 0; i < iterations; ++i) {
    gol_reference(reference, W, H);
  }
  EXPECT_EQ(result, reference);
  EXPECT_GT(sched.stats().cache_evictions, 0u);
  EXPECT_LE(sched.plan_cache_size(), 1u);
}

TEST(PlanCacheTest, LiveIntervalsStayBoundedAcrossLongLoop) {
  sim::Node node = make_node(4);
  Scheduler sched(node);
  (void)run_gol(sched, 64, 128, 64, 5);
  // 2 datums x 5 locations x a handful of bands each; a linear-growth bug
  // here would show hundreds of entries after 64 iterations.
  EXPECT_LE(sched.live_dependency_intervals(), 200u);
}

} // namespace

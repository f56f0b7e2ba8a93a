// Property-style tests: randomized task chains and configuration sweeps
// asserting the framework's central invariant — any sequence of pattern
// tasks on any device count produces exactly the sequential result.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "multi/maps_multi.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

// --- Randomized stencil/elementwise chains --------------------------------------

/// Stencil parameterized by weights; doubles as the CPU reference.
struct WeightedStencil {
  int center = 2, cross = 1;
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      *it = center * x.at(it, 0, 0) + cross * (x.at(it, -1, 0) +
                                               x.at(it, 1, 0) +
                                               x.at(it, 0, -1) +
                                               x.at(it, 0, 1));
      *it %= 1000; // keep values bounded across long chains
    }
  }
};

struct ElementwiseMix {
  template <typename A, typename B, typename Out>
  void operator()(const maps::ThreadContext&, A& a, B& b, Out& y) const {
    MAPS_FOREACH(it, y) {
      *it = (a.at(it, 0, 0) + 3 * b.at(it, 0, 0)) % 1000;
    }
  }
};

void reference_stencil(std::vector<int>& grid, std::size_t w, std::size_t h,
                       int center, int cross) {
  auto wrap = [&](long v, std::size_t m) {
    return static_cast<std::size_t>((v + static_cast<long>(m)) %
                                    static_cast<long>(m));
  };
  std::vector<int> next(grid.size());
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const int v =
          center * grid[y * w + x] +
          cross * (grid[wrap(static_cast<long>(y) - 1, h) * w + x] +
                   grid[wrap(static_cast<long>(y) + 1, h) * w + x] +
                   grid[y * w + wrap(static_cast<long>(x) - 1, w)] +
                   grid[y * w + wrap(static_cast<long>(x) + 1, w)]);
      next[y * w + x] = v % 1000;
    }
  }
  grid = std::move(next);
}

class RandomChainTest : public ::testing::TestWithParam<unsigned> {};

/// One random kernel invocation: a weighted stencil or the elementwise mix.
struct ChainStep {
  bool stencil = true;
  int center = 2, cross = 1;
};

TEST_P(RandomChainTest, RandomTaskChainsMatchSequentialReference) {
  const unsigned seed = GetParam();
  std::mt19937 rng(seed);
  const std::size_t W = 48 + rng() % 40;
  const std::size_t H = 48 + rng() % 70;
  const int devices = 1 + static_cast<int>(rng() % 4);
  const int chain = 6 + static_cast<int>(rng() % 6);

  std::vector<int> init(W * H);
  for (auto& v : init) {
    v = static_cast<int>(rng() % 1000);
  }
  // Generate the chain as data so the run can be repeated exactly.
  std::vector<ChainStep> steps(chain);
  for (ChainStep& s : steps) {
    s.stencil = rng() % 3 != 0;
    if (s.stencil) {
      s.center = static_cast<int>(rng() % 4);
      s.cross = 1 + static_cast<int>(rng() % 3);
    }
  }

  // Every chain runs twice — plan cache on and off — with the access
  // sanitizer active. The cache must change neither the results nor the
  // simulated timeline (it only removes host-side planning work).
  struct RunOut {
    std::vector<int> a, b;
    double now_ms = 0;
  };
  auto run = [&](bool cache) {
    RunOut r;
    r.a = init;
    r.b.assign(W * H, 0);
    sim::Node node(sim::homogeneous_node(sim::titan_black(), devices));
    Scheduler sched(node);
    if (!cache) {
      sched.set_plan_cache_capacity(0);
    }
    sched.set_sanitizer_enabled(true);
    Matrix<int> A(W, H, "A"), B(W, H, "B");
    A.Bind(r.a.data());
    B.Bind(r.b.data());
    using Win = Window2D<int, 1, maps::WRAP>;
    using Out = StructuredInjective<int, 2>;
    sched.AnalyzeCall(Win(A), Out(B));
    sched.AnalyzeCall(Win(B), Out(A));
    for (int step = 0; step < chain; ++step) {
      Matrix<int>& in = (step % 2 == 0) ? A : B;
      Matrix<int>& out = (step % 2 == 0) ? B : A;
      const ChainStep& s = steps[static_cast<std::size_t>(step)];
      if (s.stencil) {
        WeightedStencil k;
        k.center = s.center;
        k.cross = s.cross;
        sched.Invoke(k, Win(in), Out(out));
      } else {
        sched.Invoke(ElementwiseMix{}, Window2D<int, 0, maps::WRAP>(in),
                     Window2D<int, 0, maps::WRAP>(out), Out(out));
      }
    }
    sched.Gather(A);
    sched.Gather(B);
    r.now_ms = node.now_ms();
    return r;
  };
  const RunOut cached = run(true);
  const RunOut uncached = run(false);

  // CPU reference.
  std::vector<int> ref_a = init, ref_b(W * H, 0);
  for (int step = 0; step < chain; ++step) {
    std::vector<int>& rin = (step % 2 == 0) ? ref_a : ref_b;
    std::vector<int>& rout = (step % 2 == 0) ? ref_b : ref_a;
    const ChainStep& s = steps[static_cast<std::size_t>(step)];
    if (s.stencil) {
      rout = rin;
      reference_stencil(rout, W, H, s.center, s.cross);
    } else {
      // out = (in + 3*out) % 1000 elementwise. (Reading `out` while writing
      // it is safe on the device too: r=0 windows read only the element the
      // thread itself overwrites.)
      for (std::size_t i = 0; i < rout.size(); ++i) {
        rout[i] = (rin[i] + 3 * rout[i]) % 1000;
      }
    }
  }

  EXPECT_EQ(cached.a, ref_a) << "seed " << seed;
  EXPECT_EQ(cached.b, ref_b) << "seed " << seed;
  EXPECT_EQ(uncached.a, cached.a) << "seed " << seed;
  EXPECT_EQ(uncached.b, cached.b) << "seed " << seed;
  EXPECT_DOUBLE_EQ(uncached.now_ms, cached.now_ms)
      << "plan cache changed the simulated timeline, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainTest,
                         ::testing::Range(100u, 112u));

// --- Overlap splitting: results and traffic invariant, timing free --------------

class OverlapChainTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(OverlapChainTest, OverlapChangesTimingOnly) {
  const unsigned seed = GetParam();
  std::mt19937 rng(seed);
  const std::size_t W = 48 + rng() % 40;
  const std::size_t H = 192 + rng() % 128; // deep enough to split at span 8
  const int devices = 2 + static_cast<int>(rng() % 3);
  const int chain = 6 + static_cast<int>(rng() % 6);

  std::vector<int> init(W * H);
  for (auto& v : init) {
    v = static_cast<int>(rng() % 1000);
  }
  std::vector<ChainStep> steps(chain);
  for (ChainStep& s : steps) {
    s.stencil = rng() % 3 != 0;
    if (s.stencil) {
      s.center = static_cast<int>(rng() % 4);
      s.cross = 1 + static_cast<int>(rng() % 3);
    }
  }

  struct RunOut {
    std::vector<int> a, b;
    std::uint64_t bytes = 0;
    std::uint64_t interior = 0;
  };
  auto run = [&](bool overlap) {
    RunOut r;
    r.a = init;
    r.b.assign(W * H, 0);
    // No launch latency: the overlap cost gate passes wherever a split is
    // structurally possible. Both runs use the same spec.
    sim::DeviceSpec spec = sim::titan_black();
    spec.kernel_launch_us = 0.0;
    sim::Node node(sim::homogeneous_node(spec, devices));
    Scheduler sched(node);
    sched.set_sanitizer_enabled(true);
    sched.set_overlap_enabled(overlap);
    Matrix<int> A(W, H, "A"), B(W, H, "B");
    A.Bind(r.a.data());
    B.Bind(r.b.data());
    using Win = Window2D<int, 1, maps::WRAP>;
    using Out = StructuredInjective<int, 2>;
    sched.AnalyzeCall(Win(A), Out(B));
    sched.AnalyzeCall(Win(B), Out(A));
    for (int step = 0; step < chain; ++step) {
      Matrix<int>& in = (step % 2 == 0) ? A : B;
      Matrix<int>& out = (step % 2 == 0) ? B : A;
      const ChainStep& s = steps[static_cast<std::size_t>(step)];
      if (s.stencil) {
        WeightedStencil k;
        k.center = s.center;
        k.cross = s.cross;
        sched.Invoke(k, Win(in), Out(out));
      } else {
        sched.Invoke(ElementwiseMix{}, Window2D<int, 0, maps::WRAP>(in),
                     Window2D<int, 0, maps::WRAP>(out), Out(out));
      }
    }
    sched.Gather(A);
    sched.Gather(B);
    r.bytes = sched.stats().transfers.bytes_total();
    r.interior = sched.stats().interior_subkernels;
    return r;
  };
  const RunOut on = run(true);
  const RunOut off = run(false);

  EXPECT_EQ(on.a, off.a) << "seed " << seed;
  EXPECT_EQ(on.b, off.b) << "seed " << seed;
  // Splitting/chunking re-times transfers, never adds or removes traffic.
  EXPECT_EQ(on.bytes, off.bytes) << "seed " << seed;
  EXPECT_GT(on.interior, 0u) << "seed " << seed; // the chains must split
  EXPECT_EQ(off.interior, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapChainTest,
                         ::testing::Range(200u, 208u));

// --- Heterogeneous nodes ---------------------------------------------------------

TEST(PropertyTest, HeterogeneousNodeStillComputesCorrectly) {
  // The paper's nodes are homogeneous; the framework's even block split
  // still yields correct results on mixed devices — the slowest gates.
  std::vector<sim::DeviceSpec> specs{sim::gtx780(), sim::gtx980(),
                                     sim::titan_black(), sim::gtx780()};
  sim::Node node(specs);
  Scheduler sched(node);
  const std::size_t W = 64, H = 96;
  std::vector<int> a(W * H), b(W * H, 0);
  std::mt19937 rng(55);
  for (auto& v : a) {
    v = static_cast<int>(rng() % 1000);
  }
  std::vector<int> ref = a;
  Matrix<int> A(W, H), B(W, H);
  A.Bind(a.data());
  B.Bind(b.data());
  WeightedStencil k;
  sched.Invoke(k, Window2D<int, 1, maps::WRAP>(A),
               StructuredInjective<int, 2>(B));
  sched.Gather(B);
  reference_stencil(ref, W, H, k.center, k.cross);
  EXPECT_EQ(b, ref);
}

// --- Device loss invalidates the plan cache ---------------------------------------

TEST(PropertyTest, DeviceLossEmptiesPlanCacheAndReplansCorrectly) {
  // Warm the steady-state plan cache, kill a device, and assert every cached
  // shape is evicted (it was partitioned over the old live set). Subsequent
  // Invokes must miss, replan over the survivors, and still match the
  // sequential reference.
  const std::size_t W = 48, H = 64;
  std::vector<int> a(W * H), b(W * H, 0);
  std::mt19937 rng(77);
  for (auto& v : a) {
    v = static_cast<int>(rng() % 1000);
  }
  std::vector<int> ref = a;

  sim::Node node(sim::homogeneous_node(sim::titan_black(), 4));
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  Matrix<int> A(W, H), B(W, H);
  A.Bind(a.data());
  B.Bind(b.data());

  using Win = Window2D<int, 1, maps::WRAP>;
  using Out = StructuredInjective<int, 2>;
  WeightedStencil k;
  sched.AnalyzeCall(Win(A), Out(B));
  sched.AnalyzeCall(Win(B), Out(A));
  for (int i = 0; i < 6; ++i) {
    Matrix<int>& in = (i % 2 == 0) ? A : B;
    Matrix<int>& out = (i % 2 == 0) ? B : A;
    sched.Invoke(k, Win(in), Out(out));
    reference_stencil(ref, W, H, k.center, k.cross);
  }
  ASSERT_GT(sched.plan_cache_size(), 0u); // steady state reached
  ASSERT_GT(sched.stats().cache_hits, 0u);

  sched.kill_device(2);
  EXPECT_EQ(sched.plan_cache_size(), 0u);

  const std::uint64_t misses_before = sched.stats().cache_misses;
  for (int i = 6; i < 10; ++i) {
    Matrix<int>& in = (i % 2 == 0) ? A : B;
    Matrix<int>& out = (i % 2 == 0) ? B : A;
    sched.Invoke(k, Win(in), Out(out));
    reference_stencil(ref, W, H, k.center, k.cross);
  }
  // The first post-loss Invoke of each direction must rebuild its plan.
  EXPECT_GE(sched.stats().cache_misses, misses_before + 2);
  sched.Gather(A);
  EXPECT_EQ(a, ref);
}

// --- Radius sweep -----------------------------------------------------------------

struct BoxSum {
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

template <int R> void run_radius_case(int devices) {
  const std::size_t W = 41, H = 67;
  std::mt19937 rng(R * 17u);
  std::vector<int> x(W * H), y(W * H, -1);
  for (auto& v : x) {
    v = static_cast<int>(rng() % 5);
  }
  sim::Node node(sim::homogeneous_node(sim::gtx780(), devices));
  Scheduler sched(node);
  Matrix<int> X(W, H), Y(W, H);
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(BoxSum{}, Window2D<int, R, maps::WRAP>(X),
               StructuredInjective<int, 2>(Y));
  sched.Gather(Y);
  auto wrap = [&](long v, std::size_t m) {
    return static_cast<std::size_t>((v % static_cast<long>(m) +
                                     static_cast<long>(m)) %
                                    static_cast<long>(m));
  };
  for (std::size_t i = 0; i < H; i += 3) {
    for (std::size_t j = 0; j < W; j += 2) {
      int ref = 0;
      for (int di = -R; di <= R; ++di) {
        for (int dj = -R; dj <= R; ++dj) {
          ref += x[wrap(static_cast<long>(i) + di, H) * W +
                   wrap(static_cast<long>(j) + dj, W)];
        }
      }
      ASSERT_EQ(y[i * W + j], ref) << "R=" << R << " " << i << "," << j;
    }
  }
}

TEST(PropertyTest, WindowRadiusSweep) {
  run_radius_case<1>(4);
  run_radius_case<2>(4);
  run_radius_case<3>(3);
  run_radius_case<4>(2);
}

// --- Double precision ---------------------------------------------------------------

struct ScaleDouble {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      *it = 0.5 * x.at(it, 0, 0);
    }
  }
};

TEST(PropertyTest, PatternsAreTypeGeneric) {
  const std::size_t W = 32, H = 32;
  std::vector<double> x(W * H, 3.0), y(W * H, 0.0);
  sim::Node node(sim::homogeneous_node(sim::gtx980(), 2));
  Scheduler sched(node);
  Matrix<double> X(W, H), Y(W, H);
  X.Bind(x.data());
  Y.Bind(y.data());
  sched.Invoke(ScaleDouble{}, Window2D<double, 0, maps::NO_CHECKS>(X),
               StructuredInjective<double, 2>(Y));
  sched.Gather(Y);
  EXPECT_DOUBLE_EQ(y[100], 1.5);
}

} // namespace

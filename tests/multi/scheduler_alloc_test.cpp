// Heap allocations of the scheduler's host hot path. This binary replaces
// operator new with a counting one, so a test can bound what a section
// allocates; it is its own binary so the counter sees no other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/game_of_life.hpp"
#include "multi/maps_multi.hpp"
#include "nmf/nmf.hpp"
#include "sim/presets.hpp"
#include "simblas/simblas.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
} // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
// The matching deletes keep allocation and release paired for ASan.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace maps::multi;

// A warm, replayed Game of Life step in TimingOnly mode: no kernel bodies
// exist there, so what remains is the fingerprint, the replay's wiring and
// the issued commands. Same setup as bench/sched_overhead's GoL run. Each
// counted step is drained (a warm drain allocates nothing, see
// NodeTest.TimingOnlyDrainAllocatesNothing), so a growing command backlog
// does not add stream-queue segments to the count.
TEST(SchedulerAllocTest, WarmTimingOnlyGolInvokeAllocatesAtMost4) {
  sim::Node node(sim::homogeneous_node(sim::titan_black(), 4),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  std::vector<int> dummy(1);
  Matrix<int> a(2048, 2048, "A"), b(2048, 2048, "B");
  a.Bind(dummy.data());
  b.Bind(dummy.data());
  using Tick = apps::gol::MapsTick<1, 1>;
  sched.AnalyzeCall(Tick::Win(a), Tick::Out(b));
  sched.AnalyzeCall(Tick::Win(b), Tick::Out(a));
  const auto step = [&](int i) {
    if (i % 2 == 0) {
      sched.Invoke(Tick{}, Tick::Win(a), Tick::Out(b));
    } else {
      sched.Invoke(Tick{}, Tick::Win(b), Tick::Out(a));
    }
  };
  constexpr int kWarmup = 200, kCounted = 1000;
  for (int i = 0; i < kWarmup; ++i) {
    step(i);
  }
  sched.WaitAll();
  const std::size_t before = g_allocations.load();
  for (int i = kWarmup; i < kWarmup + kCounted; ++i) {
    step(i);
    sched.WaitAll();
  }
  const std::size_t allocs = g_allocations.load() - before;

  EXPECT_EQ(sched.stats().plans_built, 4u);
  EXPECT_EQ(sched.stats().cache_hits, 1196u);
  std::printf("allocations per warm Invoke: %.3f\n",
              static_cast<double>(allocs) / kCounted);
  EXPECT_LE(allocs, 4u * kCounted);
}

// A warm, replayed streamed GEMM task: perfbench's gemm_out_of_core chain
// (4 GTX 780, TimingOnly, a quarter of the per-device working set), each
// counted step drained. What remains per task is the residency preparation
// and the replay's wiring: the 44 window launches make no kernel body on a
// TimingOnly node.
TEST(SchedulerAllocTest, WarmTimingOnlyStreamedGemmTaskAllocatesAtMost49) {
  constexpr std::size_t kM = 16384, kK = 2048, kN = 2048;
  constexpr int kGpus = 4;
  sim::Node node(sim::homogeneous_node(sim::gtx780(), kGpus),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  sched.set_device_memory_budget(
      (3 * kM * kK * sizeof(float) / kGpus + kK * kN * sizeof(float)) / 4);
  std::vector<float> dummy(1);
  Matrix<float> x(kK, kM, "X"), b(kN, kK, "B"), c(kN, kM, "C"),
      d(kN, kM, "D");
  for (Matrix<float>* m : {&x, &b, &c, &d}) {
    m->Bind(dummy.data());
  }
  const auto step = [&] {
    simblas::Gemm(sched, x, b, c);
    simblas::Gemm(sched, c, b, d);
    sched.MarkHostModified(b);
    sched.WaitAll();
  };
  constexpr int kWarmup = 2, kCounted = 100;
  for (int i = 0; i < kWarmup; ++i) {
    step();
  }
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < kCounted; ++i) {
    step();
  }
  const std::size_t allocs = g_allocations.load() - before;
  constexpr std::size_t kTasks = 2 * kCounted;

  EXPECT_EQ(sched.stats().spill.streamed_tasks, 2u * (kWarmup + kCounted));
  EXPECT_EQ(sched.stats().plans_built, 2u);
  std::printf("allocations per warm streamed task: %.3f\n",
              static_cast<double>(allocs) / kTasks);
  EXPECT_LE(allocs, 49u * kTasks);
}

// A warm, replayed NMF iteration: bench/sched_overhead's NMF run (4 Titan
// Black, TimingOnly, 4096 x 1024): four routine tasks, two gathers of Sum-
// reduced outputs, a WaitAll and a MarkHostModified per iteration. run_maps
// sets up its datums on every call, so the per-iteration count is the
// difference between a long and a short run.
TEST(SchedulerAllocTest, WarmTimingOnlyNmfIterationAllocatesAtMost114) {
  const auto allocations = [](int iterations) {
    const std::size_t before = g_allocations.load();
    sim::Node node(sim::homogeneous_node(sim::titan_black(), 4),
                   sim::ExecMode::TimingOnly);
    Scheduler sched(node);
    std::vector<float> v(1), w, h;
    nmf::Shape shape;
    shape.n = 4096;
    shape.m = 1024;
    nmf::run_maps(sched, v, w, h, shape, iterations);
    EXPECT_EQ(sched.stats().plans_built + sched.stats().cache_hits,
              4u * static_cast<std::uint64_t>(iterations));
    return g_allocations.load() - before;
  };
  constexpr int kShort = 10, kLong = 110;
  const std::size_t allocs = allocations(kLong) - allocations(kShort);
  constexpr std::size_t kCounted = kLong - kShort;
  std::printf("allocations per warm NMF iteration: %.3f\n",
              static_cast<double>(allocs) / kCounted);
  EXPECT_LE(allocs, 114u * kCounted);
}

} // namespace

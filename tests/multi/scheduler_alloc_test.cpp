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
#include "sim/presets.hpp"

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
TEST(SchedulerAllocTest, WarmTimingOnlyGolInvokeAllocatesAtMost32) {
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
  EXPECT_LE(allocs, 32u * kCounted);
}

} // namespace

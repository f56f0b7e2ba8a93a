// Device-loss fault injection and recovery test matrix (label:
// fault-recovery).
//
// Kills each device index at each dispatch boundary (CopiesIssued,
// KernelIssued, PreGather) across three workloads — the Game of Life
// stencil, the Reductive-Static histogram, and a mixed stencil→histogram
// chain — and asserts that the recovered run is bit-identical to a
// fault-free run with fault tolerance enabled, that the CPU reference still
// matches, and that SchedulerStats::RecoveryStats reports the exact repair
// work (segments re-executed, host-mirror copies rerouted, simulated
// recovery time). The access sanitizer is live in every run, so recovery's
// shadow-state rewind is structurally checked too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <tuple>
#include <vector>

#include "apps/game_of_life.hpp"
#include "apps/histogram.hpp"
#include "multi/fault_injector.hpp"
#include "multi/maps_multi.hpp"
#include "multi/sanitizer.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

sim::Node make_node(int devices) {
  return sim::Node(sim::homogeneous_node(sim::titan_black(), devices),
                   sim::ExecMode::Functional);
}

std::vector<int> random_values(std::size_t n, int mod, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<int> v(n);
  for (auto& x : v) {
    x = static_cast<int>(rng() % static_cast<unsigned>(mod));
  }
  return v;
}

void expect_one_loss(const SchedulerStats& stats, const std::vector<int>& live,
                     int devices, int victim) {
  EXPECT_EQ(stats.recovery.devices_lost, 1u);
  EXPECT_EQ(live.size(), static_cast<std::size_t>(devices - 1));
  EXPECT_EQ(std::find(live.begin(), live.end(), victim), live.end());
}

// --- Game of Life: structured (Injective) recovery ---------------------------

struct GolRun {
  std::vector<int> a, b;
  SchedulerStats stats;
  std::vector<int> live;
};

GolRun run_gol(int devices, FaultInjector injector) {
  const std::size_t W = 64, H = 64;
  const int iterations = 4;
  GolRun r;
  r.a = random_values(W * H, 2, 42);
  r.b.assign(W * H, 0);

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  sched.set_sanitizer_enabled(true);
  if (injector) {
    sched.set_fault_injector(std::move(injector));
  }
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(r.a.data());
  B.Bind(r.b.data());
  apps::gol::run(sched, A, B, iterations, apps::gol::Scheme::Maps);
  sched.WaitAll();
  r.stats = sched.stats();
  r.live = sched.live_devices();
  return r;
}

class GolKillMatrix
    : public ::testing::TestWithParam<std::tuple<int, KillStage>> {};

TEST_P(GolKillMatrix, BitIdenticalToFaultFreeRun) {
  const int victim = std::get<0>(GetParam());
  const KillStage stage = std::get<1>(GetParam());
  const int devices = 4;

  const GolRun clean = run_gol(devices, nullptr);
  std::vector<int> ref = random_values(64 * 64, 2, 42);
  for (int i = 0; i < 4; ++i) {
    apps::gol::reference_tick(ref, 64, 64);
  }
  ASSERT_EQ(clean.a, ref); // the fault-free FT run itself is correct
  ASSERT_EQ(clean.stats.recovery.devices_lost, 0u);

  // Mid-task stages fire at the second tick; PreGather at the final gather.
  const int n = stage == KillStage::PreGather ? 0 : 1;
  const GolRun faulty = run_gol(devices, kill_at_nth(victim, stage, n));

  EXPECT_EQ(faulty.a, clean.a);
  EXPECT_EQ(faulty.b, clean.b);
  expect_one_loss(faulty.stats, faulty.live, devices, victim);
  if (stage == KillStage::PreGather) {
    // Every finished tick was mirrored: nothing to re-execute at a gather.
    EXPECT_EQ(faulty.stats.recovery.segments_reexecuted, 0u);
    EXPECT_EQ(faulty.stats.recovery.copies_rerouted, 0u);
  } else {
    // 64 rows / (8-row blocks) = 8 block rows, 2 per device: the victim's 2
    // block rows re-execute as 2 chunks, each filled by 3 host-mirror
    // copies (core band + 2 wrap halo rows).
    EXPECT_EQ(faulty.stats.recovery.segments_reexecuted, 2u);
    EXPECT_EQ(faulty.stats.recovery.copies_rerouted, 6u);
    EXPECT_GT(faulty.stats.recovery.recovery_sim_us, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VictimByStage, GolKillMatrix,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(KillStage::CopiesIssued,
                                         KillStage::KernelIssued,
                                         KillStage::PreGather)));

// --- Histogram: Reductive-Static (pending aggregation) recovery --------------

struct HistRun {
  std::vector<int> image, hist;
  SchedulerStats stats;
  std::vector<int> live;
};

HistRun run_hist(int devices, FaultInjector injector) {
  const std::size_t W = 48, H = 48;
  HistRun r;
  r.image = random_values(W * H, 256, 7);
  r.hist.assign(apps::histogram::kBins, 0);

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  sched.set_sanitizer_enabled(true);
  if (injector) {
    sched.set_fault_injector(std::move(injector));
  }
  Matrix<int> image(W, H, "image");
  Vector<int> hist(apps::histogram::kBins, "hist");
  image.Bind(r.image.data());
  hist.Bind(r.hist.data());
  apps::histogram::run(sched, image, hist, 1, apps::histogram::Scheme::Maps);
  sched.WaitAll();
  r.stats = sched.stats();
  r.live = sched.live_devices();
  return r;
}

class HistKillMatrix
    : public ::testing::TestWithParam<std::tuple<int, KillStage>> {};

TEST_P(HistKillMatrix, PartialIsReExecutedAndFoldedIn) {
  const int victim = std::get<0>(GetParam());
  const KillStage stage = std::get<1>(GetParam());
  const int devices = 4;

  const HistRun clean = run_hist(devices, nullptr);
  ASSERT_EQ(clean.hist, apps::histogram::reference(clean.image));

  const HistRun faulty = run_hist(devices, kill_at_nth(victim, stage, 0));

  EXPECT_EQ(faulty.hist, clean.hist);
  expect_one_loss(faulty.stats, faulty.live, devices, victim);
  // At every stage the victim holds a pending Sum partial, so recovery
  // re-executes its whole segment once on a survivor and folds it in. The
  // only rerouted fill is the image core band (the partial's zero fill is
  // a memset, not a copy).
  EXPECT_EQ(faulty.stats.recovery.segments_reexecuted, 1u);
  EXPECT_EQ(faulty.stats.recovery.copies_rerouted, 1u);
  EXPECT_GT(faulty.stats.recovery.recovery_sim_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    VictimByStage, HistKillMatrix,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(KillStage::CopiesIssued,
                                         KillStage::KernelIssued,
                                         KillStage::PreGather)));

// --- Stencil → Reductive-Static chain ----------------------------------------

/// Wrap stencil spreading values over all 256 bins, so the chained histogram
/// exercises every aggregation lane.
struct ByteStencil {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      *it = (5 * x.at(it, 0, 0) + x.at(it, -1, 0) + x.at(it, 1, 0) +
             x.at(it, 0, -1) + x.at(it, 0, 1)) %
            256;
    }
  }
};

void byte_stencil_reference(std::vector<int>& grid, std::size_t w,
                            std::size_t h) {
  auto wrap = [&](long v, std::size_t m) {
    return static_cast<std::size_t>((v + static_cast<long>(m)) %
                                    static_cast<long>(m));
  };
  std::vector<int> next(grid.size());
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      next[y * w + x] = (5 * grid[y * w + x] +
                         grid[wrap(static_cast<long>(y) - 1, h) * w + x] +
                         grid[wrap(static_cast<long>(y) + 1, h) * w + x] +
                         grid[y * w + wrap(static_cast<long>(x) - 1, w)] +
                         grid[y * w + wrap(static_cast<long>(x) + 1, w)]) %
                        256;
    }
  }
  grid = std::move(next);
}

struct ChainRun {
  std::vector<int> a, b, hist;
  SchedulerStats stats;
  std::vector<int> live;
};

/// Dispatch 0: ByteStencil A→B. Dispatch 1: histogram of B. Gathers last.
ChainRun run_rs_chain(int devices, FaultInjector injector) {
  const std::size_t W = 64, H = 64;
  ChainRun r;
  r.a = random_values(W * H, 256, 99);
  r.b.assign(W * H, 0);
  r.hist.assign(apps::histogram::kBins, 0);

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  sched.set_sanitizer_enabled(true);
  if (injector) {
    sched.set_fault_injector(std::move(injector));
  }
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  Vector<int> hist(apps::histogram::kBins, "hist");
  A.Bind(r.a.data());
  B.Bind(r.b.data());
  hist.Bind(r.hist.data());

  using Win = Window2D<int, 1, maps::WRAP>;
  using Out = StructuredInjective<int, 2>;
  using HIn = Window2D<int, 0, maps::NO_CHECKS, 8>;
  using HOut = ReductiveStatic<int, apps::histogram::kBins, 8>;
  sched.AnalyzeCall(Win(A), Out(B));
  sched.AnalyzeCall(HIn(B), HOut(hist));
  sched.Invoke(ByteStencil{}, Win(A), Out(B));
  sched.Invoke(apps::histogram::MapsKernel<8>{}, HIn(B), HOut(hist));
  sched.Gather(hist);
  sched.Gather(B);
  sched.WaitAll();
  r.stats = sched.stats();
  r.live = sched.live_devices();
  return r;
}

struct ChainCase {
  KillStage stage = KillStage::CopiesIssued;
  int nth = 0; ///< dispatch index for mid-task stages, gather index otherwise
};

class ChainKillMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChainKillMatrix, MixedChainRecoversBothRepairKinds) {
  static const ChainCase kCases[] = {
      {KillStage::CopiesIssued, 0}, // stencil loses its inputs
      {KillStage::KernelIssued, 0}, // stencil output dies with the device
      {KillStage::KernelIssued, 1}, // histogram partial dies with the device
      {KillStage::PreGather, 0},    // loss at the aggregation gather
  };
  const int victim = std::get<0>(GetParam());
  const ChainCase cc = kCases[std::get<1>(GetParam())];
  const int devices = 4;

  const ChainRun clean = run_rs_chain(devices, nullptr);
  std::vector<int> ref_b = clean.a;
  byte_stencil_reference(ref_b, 64, 64);
  ASSERT_EQ(clean.b, ref_b);
  ASSERT_EQ(clean.hist, apps::histogram::reference(ref_b));

  const ChainRun faulty =
      run_rs_chain(devices, kill_at_nth(victim, cc.stage, cc.nth));

  EXPECT_EQ(faulty.b, clean.b);
  EXPECT_EQ(faulty.hist, clean.hist);
  expect_one_loss(faulty.stats, faulty.live, devices, victim);
  EXPECT_GT(faulty.stats.recovery.recovery_sim_us, 0.0);
  if (cc.stage != KillStage::PreGather && cc.nth == 0) {
    // Structured repair of the stencil: 2 chunks x (core + 2 halo rows).
    EXPECT_EQ(faulty.stats.recovery.segments_reexecuted, 2u);
    EXPECT_EQ(faulty.stats.recovery.copies_rerouted, 6u);
  } else {
    // Aggregation repair of the histogram partial: one segment, one image
    // core fill.
    EXPECT_EQ(faulty.stats.recovery.segments_reexecuted, 1u);
    EXPECT_EQ(faulty.stats.recovery.copies_rerouted, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(VictimByCase, ChainKillMatrix,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3)));

// --- API edges ---------------------------------------------------------------

TEST(FaultRecoveryTest, KillDeviceOutsideDispatchIsRecoverable) {
  const std::size_t W = 64, H = 64;
  std::vector<int> ha = random_values(W * H, 2, 5), hb(W * H, 0);
  std::vector<int> ref = ha;

  sim::Node node = make_node(3);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(ha.data());
  B.Bind(hb.data());
  using Win = typename apps::gol::MapsTick<1, 1>::Win;
  using Out = typename apps::gol::MapsTick<1, 1>::Out;
  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(A), Out(B));
  apps::gol::reference_tick(ref, W, H);

  sched.kill_device(1);
  EXPECT_TRUE(sched.device_lost(1));
  EXPECT_THROW(sched.kill_device(1), std::logic_error);
  EXPECT_THROW(sched.kill_device(7), std::invalid_argument);

  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(B), Out(A));
  apps::gol::reference_tick(ref, W, H);
  sched.Gather(A);
  EXPECT_EQ(ha, ref);
  EXPECT_EQ(sched.stats().recovery.devices_lost, 1u);
}

TEST(FaultRecoveryTest, FaultToleranceMustBeSetBeforeTasks) {
  sim::Node node = make_node(2);
  Scheduler sched(node);
  std::vector<int> ha(32 * 32, 1), hb(32 * 32, 0);
  Matrix<int> A(32, 32, "A"), B(32, 32, "B");
  A.Bind(ha.data());
  B.Bind(hb.data());
  using Win = typename apps::gol::MapsTick<1, 1>::Win;
  using Out = typename apps::gol::MapsTick<1, 1>::Out;
  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(A), Out(B));
  EXPECT_THROW(sched.set_fault_tolerance_enabled(true), std::logic_error);
  // And without fault tolerance, a kill is refused rather than corrupting.
  EXPECT_THROW(sched.kill_device(0), std::logic_error);
}

TEST(FaultRecoveryTest, LosingEveryDeviceThrows) {
  sim::Node node = make_node(2);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  std::vector<int> ha(32 * 32, 1), hb(32 * 32, 0);
  Matrix<int> A(32, 32, "A"), B(32, 32, "B");
  A.Bind(ha.data());
  B.Bind(hb.data());
  using Win = typename apps::gol::MapsTick<1, 1>::Win;
  using Out = typename apps::gol::MapsTick<1, 1>::Out;
  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(A), Out(B));
  sched.kill_device(0);
  EXPECT_THROW(sched.kill_device(1), std::runtime_error);
}

// --- Out-of-core interplay: spilled segments restore from the host -----------

/// Point-wise copy used to drive LRU evictions under a tight memory budget.
struct FtPointCopy {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) { *it = x.at(it, 0, 0); }
  }
};

TEST(FaultRecoveryTest, SpilledSegmentsRestoreFromHostWithoutReexecution) {
  // Three 16x32 datums under a two-datum budget: task 2 evicts Y from every
  // slot (its rows are written back, so the host is authoritative). Killing
  // a device then loses nothing — Y's rows on the victim were spilled, and
  // recovery restores them from the host without re-executing a single
  // segment. The follow-up task refills Y from the host on the survivor and
  // the whole chain stays bit-identical.
  const std::size_t W = 16, H = 32;
  const std::size_t band_bytes = W * (H / 2) * sizeof(int); // per-slot band
  std::vector<int> x = random_values(W * H, 1000, 21), y(W * H, 0),
                   z(W * H, 0);
  const std::vector<int> x0 = x;

  sim::Node node = make_node(2);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  sched.set_sanitizer_enabled(true);
  sched.set_device_memory_budget(2 * band_bytes);
  Matrix<int> X(W, H, "X"), Y(W, H, "Y"), Z(W, H, "Z");
  X.Bind(x.data());
  Y.Bind(y.data());
  Z.Bind(z.data());

  using Pt = Window2D<int, 0, maps::NO_CHECKS>;
  using Out = StructuredInjective<int, 2>;
  sched.Invoke(FtPointCopy{}, Pt(X), Out(Y)); // residents: X, Y
  sched.Invoke(FtPointCopy{}, Pt(X), Out(Z)); // evicts Y on both slots
  ASSERT_GT(sched.stats().spill.evictions, 0u);
  ASSERT_EQ(sched.stats().recovery.segments_restored_from_host, 0u);

  sched.kill_device(1);

  const SchedulerStats& st = sched.stats();
  EXPECT_EQ(st.recovery.devices_lost, 1u);
  EXPECT_EQ(st.recovery.segments_restored_from_host, 1u); // Y, and only Y
  EXPECT_EQ(st.recovery.segments_reexecuted, 0u);

  sched.Invoke(FtPointCopy{}, Pt(Y), Out(X)); // survivor refills Y from host
  sched.Gather(X);
  sched.Gather(Y);
  sched.Gather(Z);
  sched.WaitAll();
  EXPECT_EQ(x, x0);
  EXPECT_EQ(y, x0);
  EXPECT_EQ(z, x0);
  EXPECT_EQ(st.recovery.segments_reexecuted, 0u);
}

namespace {
/// Tall Game of Life run (64x256, 4 ticks, 4 devices) with an optional
/// device memory budget — tall enough that a quarter-working-set budget
/// still holds one double-buffered streaming window per slot.
GolRun run_tall_gol(std::size_t budget, FaultInjector injector) {
  const std::size_t W = 64, H = 256;
  GolRun r;
  r.a = random_values(W * H, 2, 42);
  r.b.assign(W * H, 0);

  sim::Node node = make_node(4);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  sched.set_sanitizer_enabled(true);
  sched.set_device_memory_budget(budget);
  if (injector) {
    sched.set_fault_injector(std::move(injector));
  }
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(r.a.data());
  B.Bind(r.b.data());
  apps::gol::run(sched, A, B, 4, apps::gol::Scheme::Maps);
  sched.WaitAll();
  r.stats = sched.stats();
  r.live = sched.live_devices();
  return r;
}
} // namespace

TEST(FaultRecoveryTest, StreamedRunKilledAtGatherReexecutesLessThanInCore) {
  // Control: an in-core mid-task loss re-executes every block-row chunk of
  // the victim's segment. Under a budget below the working set the same
  // workload streams every tick and drains every output window to the host
  // as it goes — a loss at the gather then has nothing to re-execute, and
  // the result is still bit-identical to the fault-free run.
  const GolRun clean = run_tall_gol(0, nullptr);
  const GolRun incore =
      run_tall_gol(0, kill_at_nth(1, KillStage::KernelIssued, 1));
  ASSERT_EQ(incore.a, clean.a);
  const std::uint64_t reexecuted_incore =
      incore.stats.recovery.segments_reexecuted;
  ASSERT_GT(reexecuted_incore, 0u);

  // 16 KiB per slot: below the ~33 KiB in-core working set (two 16 KiB
  // bands plus halos), above the minimum double-buffered window.
  const GolRun streamed =
      run_tall_gol(16 * 1024, kill_at_nth(1, KillStage::PreGather, 0));

  EXPECT_EQ(streamed.a, clean.a);
  EXPECT_EQ(streamed.b, clean.b);
  EXPECT_GT(streamed.stats.spill.streamed_tasks, 0u);
  EXPECT_EQ(streamed.stats.recovery.devices_lost, 1u);
  EXPECT_LT(streamed.stats.recovery.segments_reexecuted, reexecuted_incore);
  EXPECT_EQ(streamed.stats.recovery.segments_reexecuted, 0u);
}

// --- Streamed (W > 1) dispatches ---------------------------------------------

namespace {
/// Histogram of a tall 128x512 image on 4 devices under a 20 KiB device
/// memory budget: every slot's 64 KiB image band exceeds the budget, so the
/// task streams over row-windows and each slot accumulates its whole-datum
/// Sum partial across its windows. `kill_slot` >= 0 kills that device
/// between the task and the Gather.
HistRun run_streamed_hist(int kill_slot, FaultInjector injector) {
  const std::size_t W = 128, H = 512;
  HistRun r;
  r.image = random_values(W * H, 256, 7);
  r.hist.assign(apps::histogram::kBins, 0);

  sim::Node node = make_node(4);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  sched.set_sanitizer_enabled(true);
  sched.set_device_memory_budget(20 * 1024);
  if (injector) {
    sched.set_fault_injector(std::move(injector));
  }
  Matrix<int> image(W, H, "image");
  Vector<int> hist(apps::histogram::kBins, "hist");
  image.Bind(r.image.data());
  hist.Bind(r.hist.data());
  using Kernel = apps::histogram::MapsKernel<8>;
  sched.Invoke(Kernel{}, Kernel::In(image), Kernel::Out(hist));
  if (kill_slot >= 0) {
    sched.kill_device(kill_slot);
  }
  sched.Gather(hist);
  r.stats = sched.stats();
  r.live = sched.live_devices();
  return r;
}
} // namespace

TEST(FaultRecoveryTest, StreamedSumWriterLossRepairsBitIdentically) {
  // A streamed task is planned like any other, so its aggregation log
  // carries the kernel and the shape: losing a Sum writer re-executes the
  // victim's whole segment on a survivor and folds the partial in.
  const HistRun clean = run_streamed_hist(-1, nullptr);
  ASSERT_EQ(clean.hist, apps::histogram::reference(clean.image));
  ASSERT_EQ(clean.stats.spill.streamed_tasks, 1u);
  ASSERT_GT(clean.stats.spill.pass_count, 4u); // W > 1 windows per slot

  const HistRun faulty = run_streamed_hist(1, nullptr);
  EXPECT_EQ(faulty.hist, clean.hist);
  expect_one_loss(faulty.stats, faulty.live, 4, 1);
  EXPECT_EQ(faulty.stats.recovery.segments_reexecuted, 1u);
  EXPECT_EQ(faulty.stats.recovery.copies_rerouted, 1u);
}

TEST(FaultRecoveryTest, StreamedKillAtCopiesIssuedReexecutesTheSegment) {
  // The victim received its persistent fills but ran none of its windows,
  // so nothing it owns reached the host: its GoL segment is re-executed in
  // one chunk per survivor, its histogram partial re-computed and folded.
  const GolRun clean = run_tall_gol(0, nullptr);
  const GolRun gol =
      run_tall_gol(16 * 1024, kill_at_nth(1, KillStage::CopiesIssued, 0));
  EXPECT_EQ(gol.a, clean.a);
  EXPECT_EQ(gol.b, clean.b);
  ASSERT_EQ(gol.stats.spill.streamed_tasks, 4u);
  expect_one_loss(gol.stats, gol.live, 4, 1);
  EXPECT_EQ(gol.stats.recovery.segments_reexecuted, 3u);
  EXPECT_EQ(gol.stats.recovery.segments_restored_from_host, 0u);

  const HistRun hist =
      run_streamed_hist(-1, kill_at_nth(1, KillStage::CopiesIssued, 0));
  EXPECT_EQ(hist.hist, apps::histogram::reference(hist.image));
  expect_one_loss(hist.stats, hist.live, 4, 1);
  EXPECT_EQ(hist.stats.recovery.segments_reexecuted, 1u);
}

TEST(FaultRecoveryTest, StreamedKillAtKernelIssuedRestoresTheSegmentFromHost) {
  // The victim's windows ran and drained before the loss took effect, so
  // the host already holds its GoL segment: nothing is re-executed. Its
  // histogram partial never left the device and is re-computed.
  const GolRun clean = run_tall_gol(0, nullptr);
  const GolRun gol =
      run_tall_gol(16 * 1024, kill_at_nth(1, KillStage::KernelIssued, 0));
  EXPECT_EQ(gol.a, clean.a);
  EXPECT_EQ(gol.b, clean.b);
  ASSERT_EQ(gol.stats.spill.streamed_tasks, 4u);
  expect_one_loss(gol.stats, gol.live, 4, 1);
  EXPECT_EQ(gol.stats.recovery.segments_reexecuted, 0u);
  EXPECT_EQ(gol.stats.recovery.segments_restored_from_host, 1u);

  const HistRun hist =
      run_streamed_hist(-1, kill_at_nth(1, KillStage::KernelIssued, 0));
  EXPECT_EQ(hist.hist, apps::histogram::reference(hist.image));
  expect_one_loss(hist.stats, hist.live, 4, 1);
  EXPECT_EQ(hist.stats.recovery.segments_reexecuted, 1u);
}

// --- reset_stats regression --------------------------------------------------

TEST(FaultRecoveryTest, ResetStatsClearsEverythingIncludingSanitizer) {
  const std::size_t W = 64, H = 64;
  std::vector<int> ha = random_values(W * H, 2, 11), hb(W * H, 0);

  sim::Node node = make_node(4);
  Scheduler sched(node);
  sched.set_fault_tolerance_enabled(true);
  sched.set_sanitizer_enabled(true);
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(ha.data());
  B.Bind(hb.data());
  using Win = typename apps::gol::MapsTick<1, 1>::Win;
  using Out = typename apps::gol::MapsTick<1, 1>::Out;
  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(A), Out(B));
  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(B), Out(A));
  sched.kill_device(2);
  sched.Gather(A);

  const SchedulerStats& st = sched.stats();
  ASSERT_GT(st.plans_built, 0u);
  ASSERT_GT(st.transfers.copies_issued, 0u);
  ASSERT_EQ(st.recovery.devices_lost, 1u);
  ASSERT_GT(sched.sanitizer()->stats().tasks_checked, 0u);
  ASSERT_GT(sched.sanitizer()->stats().writes_recorded, 0u);

  sched.reset_stats();

  EXPECT_EQ(st.plans_built, 0u);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.cache_evictions, 0u);
  EXPECT_EQ(st.transfers.copies_issued, 0u);
  EXPECT_EQ(st.transfers.bytes_total(), 0u);
  EXPECT_EQ(st.recovery.devices_lost, 0u);
  EXPECT_EQ(st.recovery.segments_reexecuted, 0u);
  EXPECT_EQ(st.recovery.copies_rerouted, 0u);
  EXPECT_EQ(st.recovery.recovery_sim_us, 0.0);
  EXPECT_EQ(sched.sanitizer()->stats().tasks_checked, 0u);
  EXPECT_EQ(sched.sanitizer()->stats().copies_checked, 0u);
  EXPECT_EQ(sched.sanitizer()->stats().rects_checked, 0u);
  EXPECT_EQ(sched.sanitizer()->stats().writes_recorded, 0u);
}

} // namespace

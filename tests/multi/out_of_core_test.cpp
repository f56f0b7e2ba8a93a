// Out-of-core execution test matrix (label: out-of-core).
//
// Differential bit-identity: every workload x budget x device-count cell
// runs once with an unlimited device memory budget (the in-core reference)
// and once under the constrained budget, with the access sanitizer live in
// both, and asserts the outputs are bit-identical while
// SchedulerStats::spill reports real spill activity with exactly balanced
// byte totals (transfers.bytes_total() == bytes_spilled + bytes_refilled).
// Budgets are expressed as fractions of the measured in-core working set
// (max over slots of the analyzer's allocated bytes), so the matrix tracks
// workload and partitioning changes automatically. A constructed ping-pong
// chain pins the LRU eviction/refill counters exactly, and the edge cases
// cover the budget-smaller-than-one-segment diagnostic, mid-chain budget
// changes (quiesce + plan cache clear), and prefetch on/off equivalence.
// Streamed plans are cached and replayed: the matrix also runs with the plan
// cache off, and the replay tests pin what a streamed plan's fingerprint
// must cover and what the sanitizer checks of a replayed window pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "apps/game_of_life.hpp"
#include "apps/histogram.hpp"
#include "multi/maps_multi.hpp"
#include "multi/sanitizer.hpp"
#include "nmf/nmf.hpp"
#include "sim/presets.hpp"
#include "simblas/simblas.hpp"

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

std::vector<float> random_floats(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng() % 1000u) / 64.0f;
  }
  return v;
}

std::size_t max_slot_bytes(Scheduler& sched, int devices) {
  std::size_t ws = 0;
  for (int s = 0; s < devices; ++s) {
    ws = std::max(ws, sched.analyzer().allocated_bytes(s));
  }
  return ws;
}

void expect_balanced(const SchedulerStats& st) {
  EXPECT_EQ(st.spill.transfers.bytes_total(),
            st.spill.bytes_spilled + st.spill.bytes_refilled)
      << "spill/refill byte totals out of balance";
}

void expect_no_spill_activity(const SchedulerStats& st) {
  EXPECT_EQ(st.spill.evictions, 0u);
  EXPECT_EQ(st.spill.refills, 0u);
  EXPECT_EQ(st.spill.bytes_spilled, 0u);
  EXPECT_EQ(st.spill.bytes_refilled, 0u);
  EXPECT_EQ(st.spill.pass_count, 0u);
  EXPECT_EQ(st.spill.streamed_tasks, 0u);
  EXPECT_EQ(st.spill.transfers.bytes_total(), 0u);
}

// --- Workload runners --------------------------------------------------------
//
// Each runner executes its chain at the given budget (0 = unlimited) and
// returns every output buffer plus the run's stats and the measured per-slot
// working set (max allocated bytes, meaningful for the budget-0 reference).

struct OocRun {
  std::vector<std::vector<int>> ints;     ///< integer outputs, workload order
  std::vector<std::vector<float>> floats; ///< float outputs, workload order
  SchedulerStats stats;
  std::size_t working_set = 0;
  double sim_ms = 0.0; ///< simulated time at the end of the chain
};

/// The run's settings besides the budget: spill prefetch and the plan cache
/// capacity (the default keeps the scheduler's).
struct OocOptions {
  bool prefetch = true;
  std::size_t cache_capacity = 64;
};

void configure(Scheduler& sched, std::size_t budget, const OocOptions& opt) {
  sched.set_sanitizer_enabled(true);
  sched.set_plan_cache_capacity(opt.cache_capacity);
  sched.set_device_memory_budget(budget);
  sched.set_spill_prefetch_enabled(opt.prefetch);
}

OocRun run_gol(int devices, std::size_t budget, const OocOptions& opt = {}) {
  const std::size_t W = 64, H = 512;
  const int iterations = 4;
  OocRun r;
  std::vector<int> a = random_values(W * H, 2, 42), b(W * H, 0);

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  configure(sched, budget, opt);
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(a.data());
  B.Bind(b.data());
  apps::gol::run(sched, A, B, iterations, apps::gol::Scheme::Maps);
  // gol::run only gathers the final buffer; gather the intermediate too so
  // both host vectors are comparable (streamed runs drain every output to
  // the host as they go, which would otherwise make the stale host copy of
  // the in-core intermediate differ legitimately).
  sched.Gather(A);
  sched.Gather(B);
  sched.WaitAll();
  r.working_set = max_slot_bytes(sched, devices);
  r.stats = sched.stats();
  r.sim_ms = node.now_ms();
  r.ints = {std::move(a), std::move(b)};
  return r;
}

OocRun run_hist(int devices, std::size_t budget,
                const OocOptions& opt = {}) {
  // Tall image so even 0.25x of the 4-device per-slot working set still
  // holds one double-buffered streaming window.
  const std::size_t W = 128, H = 512;
  OocRun r;
  std::vector<int> image = random_values(W * H, 256, 7);
  std::vector<int> hist(apps::histogram::kBins, 0);

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  configure(sched, budget, opt);
  Matrix<int> img(W, H, "image");
  Vector<int> h(apps::histogram::kBins, "hist");
  img.Bind(image.data());
  h.Bind(hist.data());
  apps::histogram::run(sched, img, h, 2, apps::histogram::Scheme::Maps);
  sched.WaitAll();
  r.working_set = max_slot_bytes(sched, devices);
  r.stats = sched.stats();
  r.sim_ms = node.now_ms();
  r.ints = {std::move(image), std::move(hist)};
  return r;
}

OocRun run_gemm_chain(int devices, std::size_t budget,
                      const OocOptions& opt = {}) {
  // Two chained GEMMs over a tall-skinny shape: C = A x B, D = C x B. B is
  // replicated whole (the streamed pass keeps it as a persistent resident);
  // A, C, D stream through row windows under tight budgets.
  const std::size_t m = 256, k = 16, n = 16;
  OocRun r;
  std::vector<float> a = random_floats(m * k, 3);
  std::vector<float> b = random_floats(k * n, 5);
  std::vector<float> c(m * n, 0.0f), d(m * n, 0.0f);

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  configure(sched, budget, opt);
  Matrix<float> A(k, m, "A"), B(n, k, "B"), C(n, m, "C"), D(n, m, "D");
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());
  D.Bind(d.data());
  simblas::Gemm(sched, A, B, C);
  simblas::Gemm(sched, C, B, D);
  sched.Gather(C);
  sched.Gather(D);
  sched.WaitAll();
  r.working_set = max_slot_bytes(sched, devices);
  r.stats = sched.stats();
  r.sim_ms = node.now_ms();
  r.floats = {std::move(c), std::move(d)};
  return r;
}

OocRun run_nmf(int devices, std::size_t budget,
               const OocOptions& opt = {}) {
  const nmf::Shape shape{256, 64, 8};
  const int iterations = 2;
  OocRun r;
  std::vector<float> v = nmf::synthetic_v(shape);
  std::vector<float> w, h;

  sim::Node node = make_node(devices);
  Scheduler sched(node);
  configure(sched, budget, opt);
  nmf::run_maps(sched, v, w, h, shape, iterations);
  sched.WaitAll();
  r.working_set = max_slot_bytes(sched, devices);
  r.stats = sched.stats();
  r.sim_ms = node.now_ms();
  r.floats = {std::move(w), std::move(h)};
  return r;
}

OocRun run_workload(int workload, int devices, std::size_t budget,
                    const OocOptions& opt = {}) {
  switch (workload) {
  case 0:
    return run_gol(devices, budget, opt);
  case 1:
    return run_hist(devices, budget, opt);
  case 2:
    return run_gemm_chain(devices, budget, opt);
  default:
    return run_nmf(devices, budget, opt);
  }
}

const char* workload_name(int workload) {
  switch (workload) {
  case 0:
    return "gol";
  case 1:
    return "histogram";
  case 2:
    return "gemm-chain";
  default:
    return "nmf";
  }
}

// --- The differential matrix -------------------------------------------------

/// (workload, budget factor index, devices). Factor index 0 is the unlimited
/// legacy budget; 1..3 scale the measured in-core working set by 1x, 0.5x
/// and 0.25x — at 0.25x every workload holds at most a quarter of its
/// aggregate working set on the devices.
class OutOfCoreMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OutOfCoreMatrix, BitIdenticalToInCoreRun) {
  const int workload = std::get<0>(GetParam());
  const int factor_idx = std::get<1>(GetParam());
  const int devices = std::get<2>(GetParam());
  static const double kFactors[] = {0.0, 1.0, 0.5, 0.25};
  const double factor = kFactors[factor_idx];

  const OocRun ref = run_workload(workload, devices, 0);
  ASSERT_GT(ref.working_set, 0u);
  expect_no_spill_activity(ref.stats); // budget 0 keeps the legacy path

  const std::size_t budget =
      factor == 0.0
          ? 0
          : static_cast<std::size_t>(static_cast<double>(ref.working_set) *
                                     factor);
  OocRun run;
  try {
    run = run_workload(workload, devices, budget);
  } catch (const SanitizerError& e) {
    FAIL() << "sanitizer report under budget " << budget << " ("
           << workload_name(workload) << ", " << devices << " devices)\n  "
           << e.what();
  }

  const std::string ctx = std::string(workload_name(workload)) + " budget=" +
                          std::to_string(budget) + " (" +
                          std::to_string(factor) + "x of " +
                          std::to_string(ref.working_set) + ") devices=" +
                          std::to_string(devices);
  ASSERT_EQ(run.ints.size(), ref.ints.size()) << ctx;
  for (std::size_t i = 0; i < ref.ints.size(); ++i) {
    EXPECT_EQ(run.ints[i], ref.ints[i]) << ctx << " output " << i;
  }
  ASSERT_EQ(run.floats.size(), ref.floats.size()) << ctx;
  for (std::size_t i = 0; i < ref.floats.size(); ++i) {
    EXPECT_EQ(run.floats[i], ref.floats[i]) << ctx << " output " << i;
  }

  expect_balanced(run.stats);
  if (factor == 0.0) {
    expect_no_spill_activity(run.stats);
  } else if (factor < 1.0) {
    // A budget below the working set must force real out-of-core activity:
    // either LRU evictions between tasks or streamed multi-pass execution.
    EXPECT_GT(run.stats.spill.evictions + run.stats.spill.streamed_tasks, 0u)
        << ctx;
    EXPECT_GT(run.stats.spill.bytes_spilled + run.stats.spill.bytes_refilled,
              0u)
        << ctx;
  }
  if (run.stats.spill.streamed_tasks > 0) {
    EXPECT_GE(run.stats.spill.pass_count, run.stats.spill.streamed_tasks)
        << ctx;
  }
}

void expect_same_spill(const SpillStats& a, const SpillStats& b,
                       const std::string& ctx) {
  EXPECT_EQ(a.evictions, b.evictions) << ctx;
  EXPECT_EQ(a.refills, b.refills) << ctx;
  EXPECT_EQ(a.bytes_spilled, b.bytes_spilled) << ctx;
  EXPECT_EQ(a.bytes_refilled, b.bytes_refilled) << ctx;
  EXPECT_EQ(a.pass_count, b.pass_count) << ctx;
  EXPECT_EQ(a.streamed_tasks, b.streamed_tasks) << ctx;
  EXPECT_EQ(a.transfers.copies_issued, b.transfers.copies_issued) << ctx;
  EXPECT_EQ(a.transfers.bytes_h2d, b.transfers.bytes_h2d) << ctx;
  EXPECT_EQ(a.transfers.bytes_d2h, b.transfers.bytes_d2h) << ctx;
  EXPECT_EQ(a.transfers.bytes_total(), b.transfers.bytes_total()) << ctx;
}

// Streamed and budgeted plans are cached like in-core ones, and pooled window
// temporaries keep whatever bytes their last window left: a run that builds
// every plan and one that replays them must agree exactly — values (so no
// window reads a row it did not refill), simulated time and every spill
// counter.
TEST_P(OutOfCoreMatrix, CacheOffRunMatchesCacheOn) {
  const int workload = std::get<0>(GetParam());
  const int factor_idx = std::get<1>(GetParam());
  const int devices = std::get<2>(GetParam());
  static const double kFactors[] = {0.0, 1.0, 0.5, 0.25};
  const OocRun ref = run_workload(workload, devices, 0);
  const auto budget = static_cast<std::size_t>(
      static_cast<double>(ref.working_set) * kFactors[factor_idx]);
  const std::string ctx = std::string(workload_name(workload)) +
                          " budget=" + std::to_string(budget) +
                          " devices=" + std::to_string(devices);
  OocRun on, off;
  try {
    on = run_workload(workload, devices, budget);
    off = run_workload(workload, devices, budget, {.cache_capacity = 0});
  } catch (const SanitizerError& e) {
    FAIL() << "sanitizer report (" << ctx << ")\n  " << e.what();
  }
  EXPECT_EQ(on.ints, off.ints) << ctx;
  EXPECT_EQ(on.floats, off.floats) << ctx;
  EXPECT_EQ(on.ints, ref.ints) << ctx;
  EXPECT_EQ(on.floats, ref.floats) << ctx;
  EXPECT_EQ(on.sim_ms, off.sim_ms) << ctx;
  expect_same_spill(on.stats.spill, off.stats.spill, ctx);
  expect_balanced(on.stats);
  expect_balanced(off.stats);
  EXPECT_EQ(off.stats.cache_hits, 0u) << ctx;
}

INSTANTIATE_TEST_SUITE_P(WorkloadByBudgetByDevices, OutOfCoreMatrix,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 4)));

// --- Pinned LRU eviction / refill counters -----------------------------------

struct PointCopy {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) { *it = x.at(it, 0, 0); }
  }
};

TEST(OutOfCorePinned, LruEvictionAndRefillCountsAreExact) {
  // Three 2048-byte datums on one device under a 4096-byte budget: the
  // chain X->Y, X->Z, Y->X forces exactly two LRU evictions (Y after task 2,
  // Z after task 3 — both dirty, so both write back their 2048 bytes) and
  // exactly one refill (task 3 reads Y, whose rows were spilled).
  const std::size_t W = 16, H = 32;
  const std::size_t bytes = W * H * sizeof(int); // 2048
  std::vector<int> x = random_values(W * H, 1000, 13), y(W * H, 0),
                   z(W * H, 0);
  const std::vector<int> x0 = x;

  sim::Node node = make_node(1);
  Scheduler sched(node);
  sched.set_sanitizer_enabled(true);
  sched.set_device_memory_budget(2 * bytes);
  Matrix<int> X(W, H, "X"), Y(W, H, "Y"), Z(W, H, "Z");
  X.Bind(x.data());
  Y.Bind(y.data());
  Z.Bind(z.data());

  using Pt = Window2D<int, 0, maps::NO_CHECKS>;
  using Out = StructuredInjective<int, 2>;
  sched.Invoke(PointCopy{}, Pt(X), Out(Y)); // residents: X, Y
  sched.Invoke(PointCopy{}, Pt(X), Out(Z)); // evicts Y (LRU, dirty)
  sched.Invoke(PointCopy{}, Pt(Y), Out(X)); // evicts Z (LRU, dirty), refills Y
  sched.Gather(X);
  sched.Gather(Y);
  sched.Gather(Z);
  sched.WaitAll();

  EXPECT_EQ(x, x0);
  EXPECT_EQ(y, x0);
  EXPECT_EQ(z, x0);
  const SchedulerStats& st = sched.stats();
  EXPECT_EQ(st.spill.evictions, 2u);
  EXPECT_EQ(st.spill.refills, 1u);
  EXPECT_EQ(st.spill.bytes_spilled, 2 * bytes);
  EXPECT_EQ(st.spill.bytes_refilled, bytes);
  EXPECT_EQ(st.spill.streamed_tasks, 0u);
  EXPECT_EQ(st.spill.pass_count, 0u);
  expect_balanced(st);
}

// --- Edge cases --------------------------------------------------------------

TEST(OutOfCoreEdge, BudgetSmallerThanOneSegmentThrowsNamedDiagnostic) {
  const std::size_t W = 64, H = 64;
  std::vector<int> a = random_values(W * H, 2, 5), b(W * H, 0);

  sim::Node node = make_node(1);
  Scheduler sched(node);
  sched.set_device_memory_budget(1024); // far below one streaming window
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(a.data());
  B.Bind(b.data());
  using Win = typename apps::gol::MapsTick<1, 1>::Win;
  using Out = typename apps::gol::MapsTick<1, 1>::Out;
  try {
    sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(A), Out(B));
    FAIL() << "expected OutOfCoreError";
  } catch (const OutOfCoreError& e) {
    EXPECT_NE(std::string(e.what()).find("smaller than one segment"),
              std::string::npos)
        << e.what();
  }
}

TEST(OutOfCoreEdge, UnstreamableShapesThrowNamedDiagnostics) {
  // A 64x64 int datum is 16 KiB: under an 8 KiB budget every task below
  // must stream, and each shape the windows cannot express names its cause.
  const std::size_t W = 64, H = 64;
  std::vector<int> a = random_values(W * H, 2, 5);
  using Win = typename apps::gol::MapsTick<1, 1>::Win;
  using Out = typename apps::gol::MapsTick<1, 1>::Out;
  const auto diagnostic = [&](bool in_place) {
    sim::Node node = make_node(1);
    Scheduler sched(node);
    sched.set_device_memory_budget(8 * 1024);
    Matrix<int> A(W, H, "A"), B(W, H, "B");
    A.Bind(a.data()); // B stays unbound
    try {
      sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(A), Out(in_place ? A : B));
    } catch (const OutOfCoreError& e) {
      return std::string(e.what());
    }
    return std::string("no OutOfCoreError");
  };
  EXPECT_NE(diagnostic(true).find("in place with a window radius"),
            std::string::npos)
      << diagnostic(true);
  EXPECT_NE(diagnostic(false).find("needs a bound host buffer"),
            std::string::npos)
      << diagnostic(false);
}

TEST(OutOfCoreEdge, OutOfCoreErrorIsARuntimeError) {
  static_assert(std::is_base_of_v<std::runtime_error, OutOfCoreError>);
}

TEST(OutOfCoreEdge, MidChainBudgetChangeQuiescesAndClearsPlanCache) {
  const std::size_t W = 64, H = 64;
  std::vector<int> a = random_values(W * H, 2, 9), b(W * H, 0);
  std::vector<int> ref = a;

  sim::Node node = make_node(2);
  Scheduler sched(node);
  sched.set_sanitizer_enabled(true);
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(a.data());
  B.Bind(b.data());
  using Win = typename apps::gol::MapsTick<1, 1>::Win;
  using Out = typename apps::gol::MapsTick<1, 1>::Out;
  sched.AnalyzeCall(Win(A), Out(B)); // §4.2: size allocations once, up front
  sched.AnalyzeCall(Win(B), Out(A));
  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(A), Out(B));
  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(B), Out(A));
  apps::gol::reference_tick(ref, W, H);
  apps::gol::reference_tick(ref, W, H);
  ASSERT_GT(sched.stats().plans_built, 0u);
  const std::uint64_t evictions_before = sched.stats().cache_evictions;

  // Tightening the budget mid-chain must drop every cached plan: they bake
  // in residency decisions made under the old (unlimited) budget.
  sched.set_device_memory_budget(16 * 1024);
  EXPECT_GT(sched.stats().cache_evictions, evictions_before);
  EXPECT_EQ(sched.device_memory_budget(), 16u * 1024u);

  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(A), Out(B));
  sched.Invoke(apps::gol::MapsTick<1, 1>{}, Win(B), Out(A));
  apps::gol::reference_tick(ref, W, H);
  apps::gol::reference_tick(ref, W, H);
  sched.Gather(A);
  sched.WaitAll();
  EXPECT_EQ(a, ref);
  expect_balanced(sched.stats());
}

TEST(OutOfCoreEdge, SettingTheSameBudgetIsANoOp) {
  sim::Node node = make_node(1);
  Scheduler sched(node);
  sched.set_device_memory_budget(0); // already 0: no quiesce, no throw
  EXPECT_EQ(sched.device_memory_budget(), 0u);
  sched.set_device_memory_budget(4096);
  EXPECT_EQ(sched.device_memory_budget(), 4096u);
}

TEST(OutOfCoreEdge, PrefetchOnAndOffAreBitIdenticalWithEqualCounters) {
  // Prefetch changes only the simulated timeline (when refills are issued),
  // never the values or the traffic totals.
  const OocRun ref = run_gol(2, 0);
  const std::size_t budget = ref.working_set / 4;
  const OocRun pre = run_gol(2, budget, {.prefetch = true});
  const OocRun naive = run_gol(2, budget, {.prefetch = false});
  ASSERT_GT(pre.stats.spill.streamed_tasks, 0u);
  EXPECT_EQ(pre.ints[0], naive.ints[0]);
  EXPECT_EQ(pre.ints[1], naive.ints[1]);
  EXPECT_EQ(pre.ints[0], ref.ints[0]);
  EXPECT_EQ(pre.stats.spill.bytes_spilled, naive.stats.spill.bytes_spilled);
  EXPECT_EQ(pre.stats.spill.bytes_refilled, naive.stats.spill.bytes_refilled);
  EXPECT_EQ(pre.stats.spill.pass_count, naive.stats.spill.pass_count);
  expect_balanced(pre.stats);
  expect_balanced(naive.stats);
}

TEST(OutOfCoreEdge, RepeatedBudgetedRunsAreBitIdentical) {
  const OocRun ref = run_gol(4, 0);
  const std::size_t budget = ref.working_set / 2;
  const OocRun r1 = run_gol(4, budget);
  const OocRun r2 = run_gol(4, budget);
  EXPECT_EQ(r1.ints[0], r2.ints[0]);
  EXPECT_EQ(r1.ints[1], r2.ints[1]);
  EXPECT_EQ(r1.stats.spill.bytes_spilled, r2.stats.spill.bytes_spilled);
  EXPECT_EQ(r1.stats.spill.bytes_refilled, r2.stats.spill.bytes_refilled);
}

// --- reset_stats regression --------------------------------------------------

TEST(OutOfCoreStats, ResetStatsClearsSpillCounters) {
  const OocRun ref = run_gol(1, 0);
  const std::size_t W = 64, H = 512;
  std::vector<int> a = random_values(W * H, 2, 42), b(W * H, 0);

  sim::Node node = make_node(1);
  Scheduler sched(node);
  sched.set_sanitizer_enabled(true);
  sched.set_device_memory_budget(ref.working_set / 4);
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(a.data());
  B.Bind(b.data());
  apps::gol::run(sched, A, B, 2, apps::gol::Scheme::Maps);
  sched.WaitAll();

  const SchedulerStats& st = sched.stats();
  ASSERT_GT(st.spill.streamed_tasks, 0u);
  ASSERT_GT(st.spill.pass_count, 0u);
  ASSERT_GT(st.spill.bytes_spilled, 0u);
  ASSERT_GT(st.spill.bytes_refilled, 0u);
  ASSERT_GT(st.spill.transfers.copies_issued, 0u);

  sched.reset_stats();

  EXPECT_EQ(st.spill.evictions, 0u);
  EXPECT_EQ(st.spill.refills, 0u);
  EXPECT_EQ(st.spill.bytes_spilled, 0u);
  EXPECT_EQ(st.spill.bytes_refilled, 0u);
  EXPECT_EQ(st.spill.pass_count, 0u);
  EXPECT_EQ(st.spill.streamed_tasks, 0u);
  EXPECT_EQ(st.spill.transfers.copies_issued, 0u);
  EXPECT_EQ(st.spill.transfers.bytes_total(), 0u);
}

// --- Cached, replayed streamed plans ----------------------------------------

/// The tall GEMM chain of perfbench's gemm_out_of_core, TimingOnly on four
/// GTX 780: X x B -> C, C x B -> D, then a host write of B, under a quarter
/// of the per-device working set, so every task streams.
struct StreamedGemmChain {
  static constexpr std::size_t kM = 16384, kK = 2048, kN = 2048;
  static constexpr int kGpus = 4;
  static constexpr std::size_t kBudget =
      (3 * kM * kK * sizeof(float) / kGpus + kK * kN * sizeof(float)) / 4;

  explicit StreamedGemmChain(std::size_t cache_capacity = 64) {
    sched.set_plan_cache_capacity(cache_capacity);
    sched.set_device_memory_budget(kBudget);
    for (Matrix<float>* m : {&x, &b, &c, &d}) {
      m->Bind(dummy.data()); // TimingOnly: host rows are never touched
    }
    sched.AnalyzeCall(Work{c.height(), 1}, Block2D<float>(x),
                      Block2DTransposed<float>(b),
                      StructuredInjective<float, 2>(c));
    sched.AnalyzeCall(Work{d.height(), 1}, Block2D<float>(c),
                      Block2DTransposed<float>(b),
                      StructuredInjective<float, 2>(d));
  }
  /// One step; `after_task` runs after each of its two tasks.
  template <typename AfterTask> void step(AfterTask&& after_task) {
    simblas::Gemm(sched, x, b, c);
    after_task();
    simblas::Gemm(sched, c, b, d);
    after_task();
    sched.MarkHostModified(b);
    sched.WaitAll();
  }
  void step() {
    step([] {});
  }

  sim::Node node{sim::homogeneous_node(sim::gtx780(), kGpus),
                 sim::ExecMode::TimingOnly};
  Scheduler sched{node};
  std::vector<float> dummy = std::vector<float>(1);
  Matrix<float> x{kK, kM, "X"}, b{kN, kK, "B"}, c{kN, kM, "C"},
      d{kN, kM, "D"};
};

TEST(OutOfCoreReplay, GemmChainBuildsNothingAfterItsFirstStep) {
  StreamedGemmChain chain;
  // Pooled window temporaries stay allocated between tasks, inside the
  // budget beside the persistent B.
  const auto within_budget = [&] {
    for (int dev = 0; dev < StreamedGemmChain::kGpus; ++dev) {
      EXPECT_LE(chain.node.device_mem_used(dev), StreamedGemmChain::kBudget)
          << "device " << dev;
    }
  };
  chain.step(within_budget);
  const SchedulerStats first = chain.sched.stats();
  EXPECT_EQ(first.spill.streamed_tasks, 2u);
  EXPECT_EQ(first.plans_built, 2u);
  EXPECT_EQ(first.uncacheable_tasks, 0u);
  for (int i = 0; i < 100; ++i) {
    chain.step(within_budget);
  }
  const SchedulerStats& st = chain.sched.stats();
  EXPECT_EQ(st.spill.streamed_tasks, 202u);
  EXPECT_EQ(st.plans_built, first.plans_built);
  EXPECT_EQ(st.cache_misses, first.cache_misses);
  EXPECT_EQ(st.cache_hits, first.cache_hits + 200);
  expect_balanced(st);
}

TEST(OutOfCoreReplay, PrefetchToggleMidChainMatchesAFreshBuildEveryTime) {
  // Prefetch decides how each window's refill is gated (on window p - 2 or
  // on the previous drain), so a plan lowered under one setting must not
  // replay under the other. The cache-off run builds every task afresh.
  const auto run = [](std::size_t cache_capacity) {
    StreamedGemmChain chain(cache_capacity);
    chain.step();
    chain.step();
    chain.sched.set_spill_prefetch_enabled(false);
    chain.step();
    chain.step();
    chain.sched.set_spill_prefetch_enabled(true);
    chain.step();
    return std::pair(chain.node.now_ms(), chain.sched.stats());
  };
  const auto [cached_ms, cached] = run(64);
  const auto [fresh_ms, fresh] = run(0);
  EXPECT_GT(cached.cache_hits, 0u);
  EXPECT_EQ(fresh.cache_hits, 0u);
  EXPECT_EQ(cached_ms, fresh_ms);
  expect_same_spill(cached.spill, fresh.spill, "prefetch toggle");
}

/// Leaves nothing in its Sum output: an unmodified routine whose only
/// effect is the zero-filled partial it leaves pending on every device.
bool leave_partial(RoutineArgs&) { return true; }

TEST(OutOfCoreReplay, PendingPartialOfAnotherDatumRebuildsWithFreshWindows) {
  // A pending Sum partial cannot be evicted, so it is pinned beside a
  // streamed task's windows and enters its window size W: a streamed plan's
  // fingerprint carries each segment's pinned bytes, and a change rebuilds
  // with the window size a cache-off build picks.
  const std::size_t m = 256, k = 16, n = 16, bins = 16;
  // B (1 KiB) plus two 28-row windows of A and C (7 KiB) leave 128 bytes.
  const std::size_t budget = 8 * 1024 + 128;
  const std::vector<float> a = random_floats(m * k, 3);
  const std::vector<float> b = random_floats(k * n, 5);
  struct Run {
    std::vector<float> c;
    SchedulerStats before, after;
    double sim_ms = 0.0;
    std::size_t free_bytes = 0;
  };
  const auto run = [&](std::size_t cache_capacity) {
    Run r;
    std::vector<float> a_host = a, b_host = b, z_host(bins, 0.0f);
    r.c.assign(m * n, 0.0f);
    sim::Node node = make_node(1);
    Scheduler sched(node);
    sched.set_sanitizer_enabled(true);
    sched.set_plan_cache_capacity(cache_capacity);
    sched.set_device_memory_budget(budget);
    Matrix<float> A(k, m, "A"), B(n, k, "B"), C(n, m, "C");
    Vector<float> Z(bins, "Z");
    A.Bind(a_host.data());
    B.Bind(b_host.data());
    C.Bind(r.c.data());
    Z.Bind(z_host.data());
    for (int i = 0; i < 3; ++i) { // build, build (B now resident), replay
      simblas::Gemm(sched, A, B, C);
    }
    // The partial fits in the room the windows left, so nothing is evicted.
    r.free_bytes = budget - node.device_mem_used(0);
    sched.InvokeUnmodified(leave_partial, nullptr, Work{bins, 1},
                           Block2DTransposed<float>(B), SumReduced<float>(Z));
    r.before = sched.stats();
    simblas::Gemm(sched, A, B, C);
    sched.WaitAll();
    r.after = sched.stats();
    r.sim_ms = node.now_ms();
    return r;
  };
  const Run cached = run(64);
  const Run fresh = run(0);
  ASSERT_GE(cached.free_bytes, bins * sizeof(float));
  EXPECT_GT(cached.before.cache_hits, 0u);
  EXPECT_EQ(cached.after.spill.evictions, cached.before.spill.evictions);
  EXPECT_EQ(cached.after.cache_evictions, cached.before.cache_evictions);
  // The Invoke after the partial appeared built its plan.
  EXPECT_EQ(cached.after.plans_built, cached.before.plans_built + 1);
  EXPECT_EQ(cached.after.cache_hits, cached.before.cache_hits);
  EXPECT_EQ(cached.after.spill.pass_count - cached.before.spill.pass_count,
            fresh.after.spill.pass_count - fresh.before.spill.pass_count);
  EXPECT_EQ(cached.sim_ms, fresh.sim_ms);
  EXPECT_EQ(cached.c, fresh.c);
  expect_same_spill(cached.after.spill, fresh.after.spill, "pinned partial");
}

TEST(OutOfCoreReplay, DroppedRefillOfAReplayedStreamedTaskIsReported) {
  // Window temporaries are pooled, so a window whose refill never ran would
  // read whatever the previous window left there: the sanitizer checks each
  // window pass's reads against its own refills, on replays too.
  const std::size_t m = 256, k = 16, n = 16;
  std::vector<float> a = random_floats(m * k, 3);
  std::vector<float> b = random_floats(k * n, 5);
  std::vector<float> c(m * n, 0.0f);
  sim::Node node = make_node(2);
  Scheduler sched(node);
  sched.set_sanitizer_enabled(true);
  sched.set_device_memory_budget(8 * 1024);
  Matrix<float> A(k, m, "A"), B(n, k, "B"), C(n, m, "C");
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());
  simblas::Gemm(sched, A, B, C); // build
  simblas::Gemm(sched, A, B, C); // build: B is now resident
  const std::uint64_t hits = sched.stats().cache_hits;
  ASSERT_GT(sched.stats().spill.streamed_tasks, 0u);

  RowInterval dropped;
  bool armed = true;
  sched.set_copy_fault_hook([&](const Scheduler::CopyFaultInfo& info) {
    // The first refill of a window of A: a host-sourced copy of A's rows.
    if (!armed || info.datum != &A || info.src_location != 0 ||
        info.zero_fill) {
      return false;
    }
    armed = false;
    dropped = info.rows;
    return true;
  });
  try {
    simblas::Gemm(sched, A, B, C);
    FAIL() << "a dropped window refill was not reported";
  } catch (const SanitizerError& e) {
    const std::string msg = e.what();
    const std::string rows = "[" + std::to_string(dropped.begin) + ", " +
                             std::to_string(dropped.end) + ")";
    EXPECT_NE(msg.find("window pass"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'A' rows " + rows), std::string::npos) << msg;
  }
  EXPECT_FALSE(armed);
  EXPECT_EQ(sched.stats().cache_hits, hits + 1); // the task was a replay
}

} // namespace

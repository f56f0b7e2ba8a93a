// Direct unit tests of the scheduler's decision modules — PlanCache,
// Residency and Recovery — over a bare simulator node, Memory Analyzer and
// Segment Location Monitor, and of the command lists devices are lowered
// to. No Scheduler is built and no task runs: each module's policy is
// checked against hand-made state.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "multi/maps_multi.hpp"
#include "multi/plan_cache.hpp"
#include "multi/plan_types.hpp"
#include "multi/recovery.hpp"
#include "multi/residency.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;
using detail::PlanCache;
using detail::PlanShape;

// --- PlanCache ---------------------------------------------------------------

PlanCache::Fingerprint fp(std::uint64_t word) {
  PlanCache::Fingerprint f;
  f.words = {word};
  f.hash = word;
  return f;
}

PlanCache::Entry entry() {
  PlanCache::Entry e;
  e.shape = std::make_shared<PlanShape>();
  return e;
}

class PlanCacheModuleTest : public ::testing::Test {
protected:
  bool known(PlanCache& cache, std::uint64_t word) {
    bool k = false;
    cache.lookup(fp(word), monitor, k);
    return k;
  }
  SegmentLocationMonitor monitor{2};
};

TEST_F(PlanCacheModuleTest, EvictsTheLeastRecentlyUsedShape) {
  PlanCache cache(2);
  EXPECT_EQ(cache.insert(fp(1), entry()), 0u);
  EXPECT_EQ(cache.insert(fp(2), entry()), 0u);
  bool k = false;
  EXPECT_NE(cache.lookup(fp(1), monitor, k), nullptr); // 1 becomes MRU
  EXPECT_EQ(cache.insert(fp(3), entry()), 1u);
  EXPECT_TRUE(known(cache, 1));
  EXPECT_FALSE(known(cache, 2));
  EXPECT_TRUE(known(cache, 3));
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(PlanCacheModuleTest, KeepsAtMostFourStateVariantsPerFingerprint) {
  // Each variant is captured under a different host binding of `d`, so a
  // lookup under binding i hits exactly when variant i is still cached.
  Matrix<int> d(4, 4, "d");
  monitor.register_datum(&d);
  std::array<std::vector<int>, 6> hosts;
  const std::vector<PatternSpec> specs{Block2D<int>(d).spec()};
  PlanCache cache(8);
  for (auto& h : hosts) {
    h.resize(16);
    d.Bind(h.data());
    PlanCache::Entry e = entry();
    e.captures = PlanCache::capture(specs, monitor);
    EXPECT_EQ(cache.insert(fp(7), std::move(e)), 0u);
  }
  EXPECT_EQ(cache.size(), 1u);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    d.Bind(hosts[i].data());
    bool k = false;
    const bool hit = cache.lookup(fp(7), monitor, k) != nullptr;
    EXPECT_TRUE(k);
    EXPECT_EQ(hit, i + PlanCache::kVariantsPerFingerprint >= hosts.size())
        << "variant " << i;
  }
}

TEST_F(PlanCacheModuleTest, CapacityZeroCachesNothing) {
  PlanCache cache(0);
  EXPECT_EQ(cache.insert(fp(1), entry()), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(known(cache, 1));
}

TEST_F(PlanCacheModuleTest, ShrinkingEvictsTheOldestAndCountsThem) {
  PlanCache cache(4);
  for (std::uint64_t w = 1; w <= 4; ++w) {
    cache.insert(fp(w), entry());
  }
  EXPECT_EQ(cache.set_capacity(1), 3u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(known(cache, 4));
  EXPECT_FALSE(known(cache, 1));
  EXPECT_EQ(cache.clear(), 1u);
}

// --- Residency ---------------------------------------------------------------

/// A whole-datum (replicated) input of `d`.
PatternSpec whole(Datum& d) {
  PatternSpec s;
  s.datum = &d;
  s.seg = Segmentation::Replicate;
  return s;
}

std::string what_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const OutOfCoreError& e) {
    return e.what();
  }
  return "";
}

class ResidencyModuleTest : public ::testing::Test {
protected:
  ResidencyModuleTest() {
    for (Matrix<int>* m : {&a_cold, &b_cold, &warm, &hot, &pending, &task}) {
      m->Bind(host.data());
    }
    for (Matrix<int>* m :
         {&a_cold, &b_cold, &warm, &hot, &pending, &unbound, &task}) {
      monitor.register_datum(m);
    }
    SegmentLocationMonitor::PendingAggregation agg;
    agg.kind = AggregationKind::Sum;
    agg.writer_slots = {0, 1};
    monitor.set_pending_aggregation(&pending, std::move(agg));
  }
  /// Records `d`'s whole-datum requirement on slot 0.
  void record(Datum& d) {
    const PatternSpec s = whole(d);
    analyzer.record(s, compute_requirement(s, partition, 0), 0);
  }
  /// Makes `d` resident on slot 0.
  void materialize(Datum& d) {
    record(d);
    analyzer.ensure(&d, 0);
  }

  static constexpr std::size_t kBytes = 16 * 16 * sizeof(int);
  sim::Node node{sim::homogeneous_node(sim::gtx980(), 2),
                 sim::ExecMode::TimingOnly};
  std::vector<int> devices{0, 1};
  MemoryAnalyzer analyzer{node, devices};
  SegmentLocationMonitor monitor{2};
  detail::Residency residency{node, devices, analyzer, monitor};
  TaskPartition partition =
      make_partition(16, 16, maps::Dim3{1, 1, 1}, 1, 1, 1);
  std::vector<int> host = std::vector<int>(16 * 16);
  Matrix<int> a_cold{16, 16, "a_cold"}, b_cold{16, 16, "b_cold"},
      warm{16, 16, "warm"}, hot{16, 16, "hot"}, pending{16, 16, "pending"},
      unbound{16, 16, "unbound"}, task{16, 16, "task"};
};

TEST_F(ResidencyModuleTest, VictimsAreLeastRecentlyTouchedWithStableTies) {
  for (Datum* d : std::vector<Datum*>{&hot, &warm, &b_cold, &a_cold}) {
    materialize(*d);
  }
  record(task);
  residency.touch({whole(warm)}, {0, 1});
  residency.touch({whole(hot)}, {0, 1});
  residency.set_budget(kBytes); // room for the task's datum alone
  std::size_t after = 0;
  const auto victims = residency.victims(0, {whole(task)}, after);
  // Never-touched residents tie at recency 0 and keep the analyzer's name
  // order; then the touched ones, coldest first.
  EXPECT_EQ(victims, (std::vector<const Datum*>{&a_cold, &b_cold, &warm,
                                                &hot}));
  EXPECT_EQ(after, kBytes);
  EXPECT_NO_THROW(residency.require_fit(0, after));
  // A looser budget stops as soon as the task fits.
  residency.set_budget(3 * kBytes);
  EXPECT_EQ(residency.victims(0, {whole(task)}, after),
            (std::vector<const Datum*>{&a_cold, &b_cold}));
}

TEST_F(ResidencyModuleTest, PinnedAndOwnDatumsAreNeverVictims) {
  for (Datum* d : std::vector<Datum*>{&pending, &unbound, &task, &a_cold}) {
    materialize(*d);
  }
  residency.set_budget(1);
  std::size_t after = 0;
  EXPECT_EQ(residency.victims(0, {whole(task)}, after),
            (std::vector<const Datum*>{&a_cold}));
  EXPECT_EQ(after, 3 * kBytes); // pending + unbound + task stay
  const std::string msg = what_of([&] { residency.require_fit(0, after); });
  EXPECT_NE(msg.find("slot 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("nothing more can be evicted"), std::string::npos)
      << msg;
}

TEST_F(ResidencyModuleTest, StreamsOnlyWhenTheTaskItselfExceedsTheBudget) {
  materialize(a_cold); // residents do not count towards the decision
  record(task);
  record(warm);
  const std::vector<PatternSpec> specs{whole(task), whole(warm)};
  const std::vector<std::vector<SegmentReq>> reqs{
      {compute_requirement(specs[0], partition, 0),
       compute_requirement(specs[1], partition, 0)}};
  residency.set_budget(2 * kBytes);
  EXPECT_FALSE(residency.must_stream(specs, reqs, {0, 1}));
  residency.set_budget(2 * kBytes - 1);
  EXPECT_TRUE(residency.must_stream(specs, reqs, {0, 1}));
}

TEST_F(ResidencyModuleTest, OutOfCoreErrorsNameTheirCause) {
  PatternSpec custom = whole(task);
  custom.custom_rows = [](std::size_t a, std::size_t b) {
    return std::make_pair(a, b);
  };
  EXPECT_NE(what_of([&] {
              residency.check_streamable({custom}, {}, "k");
            }).find("CustomAligned"),
            std::string::npos);
  EXPECT_NE(what_of([&] {
              residency.check_streamable({whole(unbound)}, {}, "k");
            }).find("'unbound' needs a bound host buffer"),
            std::string::npos);
  PatternSpec in = whole(pending);
  EXPECT_NE(what_of([&] {
              residency.check_streamable({in}, {}, "k");
            }).find("'pending' has a pending aggregation"),
            std::string::npos);
}

// --- Recovery ----------------------------------------------------------------

TEST(RecoveryModuleTest, AggregationRepairRefusedOnceAnInputHostStampMoved) {
  sim::Node node(sim::homogeneous_node(sim::gtx980(), 2),
                 sim::ExecMode::TimingOnly);
  const std::vector<int> devices{0, 1};
  std::vector<detail::SlotStreams> streams(2);
  MemoryAnalyzer analyzer(node, devices);
  SegmentLocationMonitor monitor(2);
  RecoveryStats stats;
  std::vector<int> host(16);
  Vector<int> in(16, "in"), out(16, "out");
  in.Bind(host.data());
  out.Bind(host.data());

  // A Sum output whose partials are pending on both slots, produced by a
  // task that read `in`.
  PatternSpec ispec = whole(in);
  PatternSpec ospec;
  ospec.datum = &out;
  ospec.is_input = false;
  ospec.seg = Segmentation::DuplicateFull;
  ospec.agg = AggregationKind::Sum;
  auto shape = std::make_shared<PlanShape>();
  shape->specs = {ispec, ospec};
  shape->devices.resize(2);
  shape->devices[0].active = shape->devices[1].active = true;
  const detail::BodyFactory factory =
      [](int, const maps::GridContext&, const std::vector<DeviceView>&) {
        return std::function<void()>{};
      };
  SegmentLocationMonitor::PendingAggregation agg;
  agg.kind = AggregationKind::Sum;
  agg.op = [](void*, const void*, std::size_t) {};
  agg.writer_slots = {0, 1};
  monitor.register_datum(&in);
  monitor.register_datum(&out);
  monitor.set_pending_aggregation(&out, agg);

  const auto repair_error = [&](bool move_stamp) {
    detail::Recovery recovery(node, devices, streams, analyzer, monitor,
                              stats);
    recovery.record_task(shape, factory, {0, 1});
    if (move_stamp) {
      recovery.host_written(&in);
    }
    try {
      recovery.repair(1, KillStage::PreGather, recovery.lose(1), nullptr);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(repair_error(true).find("overwritten since dispatch"),
            std::string::npos);
  // Unmoved stamps pass the guard; this bare setup then fails later, for
  // want of a surviving partial to fold into.
  const std::string unmoved = repair_error(false);
  EXPECT_EQ(unmoved.find("overwritten"), std::string::npos) << unmoved;
  EXPECT_NE(unmoved.find("no surviving holder"), std::string::npos)
      << unmoved;
}

// --- Command lists -----------------------------------------------------------

using detail::Command;
using detail::DevicePlan;
using detail::PlannedCopy;
using detail::SlotStreams;

/// One instruction as "<op><arg>@<stream>", e.g. "W3@copy" waits on plan
/// event 3 on the copy stream; "S" is a wait set, "C" a copy, "L" a launch
/// and "R" a record.
std::string str(const Command& c) {
  static const char ops[] = {'C', 'L', 'R', 'W', 'S'};
  const char* stream = c.stream == &SlotStreams::compute    ? "compute"
                       : c.stream == &SlotStreams::copy     ? "copy"
                       : c.stream == &SlotStreams::copy2    ? "copy2"
                       : c.stream == &SlotStreams::boundary ? "boundary"
                                                            : "?";
  return ops[c.op] + std::to_string(c.arg) + "@" + stream;
}

std::vector<std::string> strs(const DevicePlan& dp, std::size_t begin,
                              std::size_t end) {
  std::vector<std::string> out;
  for (std::size_t i = begin; i < end; ++i) {
    out.push_back(str(dp.commands[i]));
  }
  return out;
}

/// A streamed device of W = 3 windows: one persistent fill, then per window
/// one refill and one drain.
DevicePlan three_windows() {
  DevicePlan dp;
  dp.copies.resize(7);
  dp.windows.resize(3);
  dp.sub.resize(3);
  for (std::uint32_t p = 0; p < 3; ++p) {
    dp.windows[p].refill_begin = 1 + 2 * p;
    dp.windows[p].drain_begin = 2 + 2 * p;
    dp.windows[p].drain_end = 3 + 2 * p;
  }
  return dp;
}

TEST(CommandListTest, StreamedWindowsChainWithPrefetchGatingOnPMinusTwo) {
  PlanShape shape;
  DevicePlan dp = three_windows();
  detail::lower_windows(shape, dp, /*prefetch=*/true);
  // Events: inputs ready 0-2, kernel done 3-5, drain done 6-8.
  EXPECT_EQ(shape.events, 9u);
  EXPECT_EQ(shape.wait_sets, 0u);
  EXPECT_EQ(dp.cut, 1u);
  const std::vector<std::string> want{
      "C0@copy",
      // Window 0.
      "C1@copy", "R0@copy", "W0@compute", "L0@compute", "R3@compute",
      "W3@copy2", "C2@copy2", "R6@copy2",
      // Window 1: its buffer set was never used, so no gate.
      "C3@copy", "R1@copy", "W1@compute", "L1@compute", "R4@compute",
      "W4@copy2", "C4@copy2", "R7@copy2",
      // Window 2 reuses window 0's buffers: kernel 0 and drain 0 free them.
      "W3@copy", "W6@copy", "C5@copy", "R2@copy", "W2@compute",
      "L2@compute", "R5@compute", "W5@copy2", "C6@copy2", "R8@copy2"};
  EXPECT_EQ(strs(dp, 0, dp.commands.size()), want);
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(dp.sub[p].done, 3 + p);
  }
}

TEST(CommandListTest, StreamedWindowsWithoutPrefetchGateOnThePreviousDrain) {
  PlanShape shape;
  DevicePlan dp = three_windows();
  detail::lower_windows(shape, dp, /*prefetch=*/false);
  EXPECT_EQ(dp.cut, 1u);
  const std::vector<std::string> want{
      "C0@copy",
      "C1@copy", "R0@copy", "W0@compute", "L0@compute", "R3@compute",
      "W3@copy2", "C2@copy2", "R6@copy2",
      "W6@copy", "C3@copy", "R1@copy", "W1@compute", "L1@compute",
      "R4@compute", "W4@copy2", "C4@copy2", "R7@copy2",
      "W7@copy", "C5@copy", "R2@copy", "W2@compute", "L2@compute",
      "R5@compute", "W5@copy2", "C6@copy2", "R8@copy2"};
  EXPECT_EQ(strs(dp, 0, dp.commands.size()), want);
}

/// A copy of pattern `pattern` into local rows `dst` of `bytes` bytes.
PlannedCopy copy_into(int pattern, RowInterval dst, std::size_t bytes) {
  PlannedCopy c;
  c.pattern_index = pattern;
  c.dst_local = dst;
  c.bytes = bytes;
  return c;
}

/// A split device with S = 3 strips over 16 local rows of pattern 0 (an
/// input): boundary [0, 6), interior [4, 12), boundary [10, 16). Pattern 1
/// is an output the strips read nothing of.
DevicePlan three_strips() {
  DevicePlan dp;
  dp.copies = {copy_into(0, {0, 1}, 100),  copy_into(0, {1, 8}, 700),
               copy_into(0, {8, 15}, 700), copy_into(0, {15, 16}, 100),
               copy_into(1, {0, 16}, 1600)};
  dp.copies.back().zero_fill = true;
  const RowInterval reads[] = {{0, 6}, {4, 12}, {10, 16}};
  for (int k = 0; k < 3; ++k) {
    detail::SubKernel sub;
    sub.boundary = k != 1;
    sub.spans.resize(2);
    sub.spans[0].read_local = reads[k];
    dp.sub.push_back(sub);
  }
  return dp;
}

TEST(CommandListTest, SplitStripsWaitOnExactlyTheCopiesIntoTheirReads) {
  PlanShape shape;
  DevicePlan dp = three_strips();
  detail::lower_strips(shape, dp);
  // Copy events 0-4, strip events 5-7; wait sets 0-4 gate the copies and
  // 5-7 the strips.
  EXPECT_EQ(shape.events, 8u);
  EXPECT_EQ(shape.wait_sets, 8u);
  // Copies alternate by bytes so far: 0 -> copy, 100 > 0 -> copy2,
  // 100 <= 700 -> copy, 800 > 700 -> copy2, 800 <= 800 -> copy.
  EXPECT_EQ(strs(dp, 0, dp.cut),
            (std::vector<std::string>{
                "S0@copy", "C0@copy", "R0@copy", "S1@copy2", "C1@copy2",
                "R1@copy2", "S2@copy", "C2@copy", "R2@copy", "S3@copy2",
                "C3@copy2", "R3@copy2", "S4@copy", "C4@copy", "R4@copy"}));
  // Each strip waits on the copies meeting its read rows — not the
  // output's zero fill — and the boundary strips run on their own stream.
  EXPECT_EQ(strs(dp, dp.cut, dp.commands.size()),
            (std::vector<std::string>{
                "W0@boundary", "W1@boundary", "S5@boundary", "L0@boundary",
                "R5@boundary", "W1@compute", "W2@compute", "S6@compute",
                "L1@compute", "R6@compute", "W2@boundary", "W3@boundary",
                "S7@boundary", "L2@boundary", "R7@boundary"}));
  for (std::uint32_t k = 0; k < 3; ++k) {
    EXPECT_EQ(dp.sub[k].done, 5 + k);
  }
}

TEST(CommandListTest, CopiesIssuedCutFollowsTheCopiesOrThePersistentFills) {
  // In-core: every copy with its wait set and record, no launch.
  PlanShape shape;
  DevicePlan in_core = three_strips();
  detail::lower_strips(shape, in_core);
  EXPECT_EQ(in_core.cut, 3 * in_core.copies.size());
  EXPECT_EQ(in_core.commands[in_core.cut - 1].op, Command::Record);
  EXPECT_EQ(in_core.commands[in_core.cut].op, Command::Wait);
  // A single strip (S = 1) waits on every copy, the zero fill included.
  PlanShape whole_shape;
  DevicePlan whole = three_strips();
  whole.sub.resize(1);
  whole.sub[0].boundary = false;
  detail::lower_strips(whole_shape, whole);
  EXPECT_EQ(whole.cut, 15u);
  EXPECT_EQ(strs(whole, whole.cut, whole.commands.size()),
            (std::vector<std::string>{"W0@compute", "W1@compute",
                                      "W2@compute", "W3@compute",
                                      "W4@compute", "S5@compute",
                                      "L0@compute", "R5@compute"}));
  // Streamed: only the persistent fills, before any window's refill.
  PlanShape streamed_shape;
  DevicePlan streamed = three_windows();
  detail::lower_windows(streamed_shape, streamed, true);
  EXPECT_EQ(streamed.cut, 1u);
  EXPECT_EQ(str(streamed.commands[0]), "C0@copy");
}

TEST(CommandListTest, LaunchWaitSetSkipsTheCopiesItWaitsOnAlready) {
  // An S = 1 device with one aligned upload of rows [0, 4): the copy waits
  // on the rows' producer at the source, and the launch — which waits on
  // the copy through its Wait — gets an empty wait set although the copy
  // now produces the rows it reads.
  IntervalEventMap src_avail, dst_avail;
  AccessIntervalMap src_access, dst_access;
  src_avail.update({0, 4}, 100);
  DevicePlan dp;
  PlannedCopy c = copy_into(0, {0, 4}, 64);
  c.aligned = true;
  c.rows = c.src_local = {0, 4};
  c.src_avail = &src_avail;
  c.dst_avail = &dst_avail;
  c.src_access = &src_access;
  c.dst_access = &dst_access;
  dp.copies.push_back(c);
  detail::PatternPost post;
  post.active = true;
  post.avail = &dst_avail;
  post.access = &dst_access;
  dp.post.push_back(post);
  detail::SubKernel sub;
  sub.spans.resize(1);
  sub.spans[0].read_local = {0, 4};
  sub.spans[0].read_global = {{0, 4}};
  dp.sub.push_back(sub);
  PlanShape shape;
  detail::lower_strips(shape, dp);

  detail::TaskPlan plan;
  plan.events = 50;
  detail::wire_commands(dp, plan);
  EXPECT_EQ(plan.waits, (std::vector<sim::EventId>{100}));
  EXPECT_EQ(plan.wait_sets, (std::vector<std::uint32_t>{1, 1}));
  // The copy registered its read of the source and its new replica.
  std::vector<sim::EventId> readers, producers;
  src_access.collect({0, 4}, readers);
  dst_avail.collect({0, 4}, producers);
  EXPECT_EQ(readers, (std::vector<sim::EventId>{50}));
  EXPECT_EQ(producers, (std::vector<sim::EventId>{50}));
}

} // namespace

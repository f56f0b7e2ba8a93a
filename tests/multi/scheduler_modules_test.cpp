// Direct unit tests of the scheduler's decision modules — PlanCache,
// Residency and Recovery — over a bare simulator node, Memory Analyzer and
// Segment Location Monitor. No Scheduler is built and no task runs: each
// module's policy is checked against hand-made state.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "multi/maps_multi.hpp"
#include "multi/plan_cache.hpp"
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

} // namespace

// Transfer planner: cost-based source selection over the node topology,
// emergent multicast fan-out, op splitting/coalescing, and the per-task
// TransferStats the scheduler aggregates for planner-on and planner-off runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "multi/maps_multi.hpp"
#include "multi/transfer_planner.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

constexpr int kHost = SegmentLocationMonitor::kHost;

// --- Direct planner unit tests (monitor + topology, no scheduler) ----------

class TransferPlannerTest : public ::testing::Test {
protected:
  TransferPlannerTest()
      : monitor(4), topo(sim::Topology::pcie3_pairs(4)),
        planner(monitor, topo, {0, 1, 2, 3}), datum(64, 100, "d") {
    datum.Bind(host.data());
    monitor.register_datum(&datum);
  }

  SegmentLocationMonitor monitor;
  sim::Topology topo;
  TransferPlanner planner;
  std::vector<int> host = std::vector<int>(64 * 100);
  Matrix<int> datum;
  TransferStats stats;
};

TEST_F(TransferPlannerTest, ReroutesCrossBusOpToInPairReplica) {
  // The rows live on device 1 (in-pair with the target, device 0) and on
  // device 2 (across the inter-socket link). The monitor picked the
  // cross-bus source; the planner must move the op to the pair-mate.
  monitor.mark_written(&datum, 2, {0, 64});
  monitor.mark_copied(&datum, 3, {0, 64});
  planner.begin_task();
  auto ops = planner.route(&datum, 1, datum.row_bytes(),
                           {{3, RowInterval{0, 64}}}, stats);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].src_location, 2);
  EXPECT_EQ(ops[0].rows, (RowInterval{0, 64}));
  EXPECT_EQ(stats.copies_rerouted, 1u);
}

TEST_F(TransferPlannerTest, BroadcastFansOutAcrossTheSocketOnce) {
  // Device 0 holds the rows; devices 2 and 3 (the far pair) both need them.
  // The first target must cross the socket; the second should be served by
  // the fresh replica on its pair-mate instead of crossing again. Rows are
  // wide enough that bandwidth dominates latency — for tiny transfers a
  // second socket crossing pipelines behind the first and legitimately wins.
  const std::size_t wide_row = std::size_t{1} << 20;
  monitor.mark_written(&datum, 1, {0, 64});
  planner.begin_task();

  auto first = planner.route(&datum, 3, wide_row,
                             {{1, RowInterval{0, 64}}}, stats);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].src_location, 1);
  monitor.mark_copied(&datum, 3, {0, 64});

  auto second = planner.route(&datum, 4, wide_row,
                              {{1, RowInterval{0, 64}}}, stats);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].src_location, 3) << "expected in-pair forwarding";
  EXPECT_EQ(stats.copies_rerouted, 1u);
  EXPECT_EQ(stats.max_fanout_depth, 2u);
}

TEST_F(TransferPlannerTest, CoalescesAdjacentSameSourceOps) {
  planner.begin_task();
  auto ops = planner.route(
      &datum, 1, datum.row_bytes(),
      {{kHost, RowInterval{0, 32}}, {kHost, RowInterval{32, 64}}}, stats);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].src_location, kHost);
  EXPECT_EQ(ops[0].rows, (RowInterval{0, 64}));
  EXPECT_EQ(stats.copies_coalesced, 1u);
  EXPECT_EQ(stats.copies_planned, 2u);
}

TEST_F(TransferPlannerTest, SplitsOpsAtFreshReplicaBoundaries) {
  // Rows [0, 32) were just routed to device 2 this task; a later op spanning
  // [0, 64) must not be welded to the in-flight replica's schedule. The
  // planner splits it: the fresh half forwards in-pair, the rest still
  // crosses from the original holder.
  const std::size_t wide_row = std::size_t{1} << 20;
  monitor.mark_written(&datum, 1, {0, 64});
  planner.begin_task();
  (void)planner.route(&datum, 3, wide_row,
                      {{1, RowInterval{0, 32}}}, stats);
  monitor.mark_copied(&datum, 3, {0, 32});

  auto ops = planner.route(&datum, 4, wide_row,
                           {{1, RowInterval{0, 64}}}, stats);
  ASSERT_EQ(ops.size(), 2u);
  // Canonical order: sorted by (source, row).
  EXPECT_EQ(ops[0].src_location, 1);
  EXPECT_EQ(ops[0].rows, (RowInterval{32, 64}));
  EXPECT_EQ(ops[1].src_location, 3);
  EXPECT_EQ(ops[1].rows, (RowInterval{0, 32}));
}

// --- Cluster gateway determinism --------------------------------------------

TEST(GatewayTieBreakTest, EqualFinishCandidatesResolveToTheLowerDevice) {
  // Devices 6 and 7 (cluster node 1, pair-mates on the same bus) both hold
  // the rows; the target, device 4, is cross-bus from each, so both
  // candidate copies finish at exactly the same simulated time. The tie
  // must resolve to the lower device index — plan-cache replay depends on
  // this ordering being stable across planner changes.
  SegmentLocationMonitor monitor(8);
  sim::Topology topo = sim::Topology::cluster(2, 4);
  TransferPlanner planner(monitor, topo, {0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<int> host(64 * 100);
  Matrix<int> datum(64, 100, "d");
  datum.Bind(host.data());
  monitor.register_datum(&datum);
  TransferStats stats;

  monitor.mark_written(&datum, 7, {0, 64}); // device 6
  monitor.mark_copied(&datum, 8, {0, 64});  // device 7
  planner.begin_task();
  auto ops = planner.route(&datum, 5, datum.row_bytes(),
                           {{7, RowInterval{0, 64}}}, stats);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].src_location, 7) << "tie must pick the lower device";
}

TEST(GatewayTieBreakTest, GatewayRotationReplansIdenticallyAcrossTasks) {
  // The gateway-rotation counter resets in begin_task, so the SAME request
  // sequence must produce the SAME ops in a later task — the invariant the
  // scheduler's plan cache relies on when replaying fingerprinted plans.
  SegmentLocationMonitor monitor(8);
  sim::Topology topo = sim::Topology::cluster(2, 4);
  std::vector<int> host(64 * 100);
  Matrix<int> datum(64, 100, "d");
  datum.Bind(host.data());

  auto plan_once = [&] {
    SegmentLocationMonitor m(8);
    TransferPlanner planner(m, topo, {0, 1, 2, 3, 4, 5, 6, 7});
    m.register_datum(&datum);
    TransferStats stats;
    const std::size_t wide_row = std::size_t{1} << 20;
    m.mark_written(&datum, 1, {0, 64}); // device 0, node 0
    planner.begin_task();
    std::vector<std::vector<SegmentLocationMonitor::CopyOp>> plans;
    // A broadcast chain across the network: successive targets on node 1
    // exercise the fresh-gateway rotation.
    for (int target : {5, 6, 7, 8}) {
      plans.push_back(planner.route(&datum, target, wide_row,
                                    {{1, RowInterval{0, 64}}}, stats));
      m.mark_copied(&datum, target, {0, 64});
    }
    return plans;
  };
  const auto a = plan_once();
  const auto b = plan_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "op " << i;
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      EXPECT_EQ(a[i][k].src_location, b[i][k].src_location);
      EXPECT_EQ(a[i][k].rows, b[i][k].rows);
    }
  }
}

TEST(TransferStatsTest, AddAccumulatesCountersAndMaxesDepth) {
  TransferStats a, b;
  a.bytes_h2d = 10;
  a.bytes_p2p_same_bus = 1;
  a.copies_issued = 2;
  a.max_fanout_depth = 3;
  b.bytes_h2d = 5;
  b.bytes_d2h = 7;
  b.bytes_p2p_cross_bus = 2;
  b.bytes_host_staged = 4;
  b.copies_planned = 6;
  b.copies_issued = 1;
  b.copies_rerouted = 2;
  b.copies_coalesced = 3;
  b.max_fanout_depth = 2;
  a.max_pipeline_depth = 2;
  b.max_pipeline_depth = 5;
  b.bytes_chunked_network = 9;
  b.bytes_chunked_intranode = 3;
  a.add(b);
  EXPECT_EQ(a.bytes_h2d, 15u);
  EXPECT_EQ(a.bytes_d2h, 7u);
  EXPECT_EQ(a.bytes_p2p_same_bus, 1u);
  EXPECT_EQ(a.bytes_p2p_cross_bus, 2u);
  EXPECT_EQ(a.bytes_host_staged, 4u);
  EXPECT_EQ(a.copies_planned, 6u);
  EXPECT_EQ(a.copies_issued, 3u);
  EXPECT_EQ(a.copies_rerouted, 2u);
  EXPECT_EQ(a.copies_coalesced, 3u);
  EXPECT_EQ(a.max_fanout_depth, 3u);
  EXPECT_EQ(a.max_pipeline_depth, 5u);
  EXPECT_EQ(a.bytes_chunked_network, 9u);
  EXPECT_EQ(a.bytes_chunked_intranode, 3u);
}

// --- Scheduler-level attribution and end-to-end behaviour -------------------

bool noop_routine(RoutineArgs&) { return true; }

TEST(SchedulerTransferStatsTest, ByteCategoriesFollowThePhysicalPath) {
  const std::size_t n = 1024, w = 16;
  sim::Node node(sim::homogeneous_node(sim::gtx980(), 4),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  std::vector<float> h(n * w, 0.0f);
  Matrix<float> A(w, n, "A"), B(w, n, "B"), C(w, n, "C");
  A.Bind(h.data());
  B.Bind(h.data());
  C.Bind(h.data());

  sched.AnalyzeCall(Work{n}, Block2D<float>(A),
                    StructuredInjective<float, 2>(B));
  sched.AnalyzeCall(Work{n}, Block2DTransposed<float>(B),
                    StructuredInjective<float, 2>(C));
  // Partitioned upload: every row crosses a host uplink exactly once.
  sched.InvokeUnmodified(noop_routine, nullptr, Work{n}, Block2D<float>(A),
                         StructuredInjective<float, 2>(B));
  sched.WaitAll();
  const auto& t = sched.stats().transfers;
  EXPECT_EQ(t.bytes_h2d, n * w * sizeof(float));
  EXPECT_EQ(t.bytes_d2h, 0u);
  EXPECT_EQ(t.bytes_p2p_same_bus, 0u);
  EXPECT_EQ(t.bytes_p2p_cross_bus, 0u);
  EXPECT_GE(t.copies_issued, 4u);

  // Replicating the device-striped B fans out over peer links, never
  // touching the host.
  const std::uint64_t h2d_before = t.bytes_h2d;
  sched.InvokeUnmodified(noop_routine, nullptr, Work{n},
                         Block2DTransposed<float>(B),
                         StructuredInjective<float, 2>(C));
  sched.WaitAll();
  EXPECT_EQ(t.bytes_h2d, h2d_before);
  EXPECT_GT(t.bytes_p2p_same_bus, 0u);
  EXPECT_GT(t.bytes_p2p_cross_bus, 0u);
  EXPECT_EQ(t.bytes_host_staged, 0u);
  EXPECT_GE(t.max_fanout_depth, 2u) << "replica forwarding did not happen";

  // Gathers attribute downlink traffic even though they bypass plan_copies.
  sched.GatherAsync(C);
  sched.WaitAll();
  EXPECT_EQ(t.bytes_d2h, n * w * sizeof(float));
}

TEST(SchedulerTransferStatsTest, ForcedHostStagingIsAttributedAsStaged) {
  const std::size_t n = 512, w = 16;
  sim::Node node(sim::homogeneous_node(sim::gtx980(), 4),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  sched.set_force_host_staged(true);
  std::vector<float> h(n * w, 0.0f);
  Matrix<float> A(w, n, "A"), B(w, n, "B"), C(w, n, "C");
  A.Bind(h.data());
  B.Bind(h.data());
  C.Bind(h.data());

  sched.AnalyzeCall(Work{n}, Block2D<float>(A),
                    StructuredInjective<float, 2>(B));
  sched.AnalyzeCall(Work{n}, Block2DTransposed<float>(B),
                    StructuredInjective<float, 2>(C));
  sched.InvokeUnmodified(noop_routine, nullptr, Work{n}, Block2D<float>(A),
                         StructuredInjective<float, 2>(B));
  sched.InvokeUnmodified(noop_routine, nullptr, Work{n},
                         Block2DTransposed<float>(B),
                         StructuredInjective<float, 2>(C));
  sched.WaitAll();
  const auto& t = sched.stats().transfers;
  EXPECT_GT(t.bytes_host_staged, 0u);
  EXPECT_EQ(t.bytes_p2p_same_bus, 0u);
  EXPECT_EQ(t.bytes_p2p_cross_bus, 0u);
}

// Forced host staging decides every device-to-device copy's link, so it
// has its own bit in the plan-cache fingerprint: with the planner off (where
// the planner bit reads the same either way), switching it on mid-chain must
// rebuild rather than replay plans booked as peer transfers.
TEST(SchedulerTransferStatsTest, ForcedHostStagingToggleNeverReplaysPeerPlans) {
  const std::size_t n = 512, w = 16;
  const auto measured = [&](bool force_from_start) {
    sim::Node node(sim::homogeneous_node(sim::gtx980(), 4),
                   sim::ExecMode::TimingOnly);
    Scheduler sched(node);
    sched.set_transfer_planner_enabled(false);
    sched.set_force_host_staged(force_from_start);
    std::vector<float> h(n * w, 0.0f);
    Matrix<float> A(w, n, "A"), B(w, n, "B"), C(w, n, "C");
    A.Bind(h.data());
    B.Bind(h.data());
    C.Bind(h.data());
    sched.AnalyzeCall(Work{n}, Block2D<float>(A),
                      StructuredInjective<float, 2>(B));
    sched.AnalyzeCall(Work{n}, Block2DTransposed<float>(B),
                      StructuredInjective<float, 2>(C));
    const auto steps = [&] {
      for (int i = 0; i < 3; ++i) {
        sched.InvokeUnmodified(noop_routine, nullptr, Work{n},
                               Block2D<float>(A),
                               StructuredInjective<float, 2>(B));
        sched.InvokeUnmodified(noop_routine, nullptr, Work{n},
                               Block2DTransposed<float>(B),
                               StructuredInjective<float, 2>(C));
      }
      sched.WaitAll();
    };
    steps();
    sched.reset_stats();
    sched.set_force_host_staged(true);
    steps();
    return sched.stats().transfers;
  };
  const TransferStats forced = measured(true);
  const TransferStats toggled = measured(false);
  EXPECT_GT(forced.bytes_host_staged, 0u);
  EXPECT_EQ(forced.bytes_p2p_same_bus + forced.bytes_p2p_cross_bus, 0u);
  EXPECT_EQ(toggled.bytes_host_staged, forced.bytes_host_staged);
  EXPECT_EQ(toggled.bytes_p2p_same_bus + toggled.bytes_p2p_cross_bus, 0u);
}

TEST(SchedulerTransferStatsTest, PlannerOffKeepsMonitorSources) {
  const std::size_t n = 1024, w = 16;
  sim::Node node(sim::homogeneous_node(sim::gtx980(), 4),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  sched.set_transfer_planner_enabled(false);
  std::vector<float> h(n * w, 0.0f);
  Matrix<float> A(w, n, "A"), B(w, n, "B"), C(w, n, "C");
  A.Bind(h.data());
  B.Bind(h.data());
  C.Bind(h.data());

  sched.AnalyzeCall(Work{n}, Block2D<float>(A),
                    StructuredInjective<float, 2>(B));
  sched.AnalyzeCall(Work{n}, Block2DTransposed<float>(B),
                    StructuredInjective<float, 2>(C));
  sched.InvokeUnmodified(noop_routine, nullptr, Work{n}, Block2D<float>(A),
                         StructuredInjective<float, 2>(B));
  sched.InvokeUnmodified(noop_routine, nullptr, Work{n},
                         Block2DTransposed<float>(B),
                         StructuredInjective<float, 2>(C));
  sched.WaitAll();
  const auto& t = sched.stats().transfers;
  EXPECT_EQ(t.copies_rerouted, 0u);
  EXPECT_EQ(t.max_fanout_depth, 0u);
  // Byte accounting still classifies every transfer.
  EXPECT_GT(t.bytes_h2d, 0u);
  EXPECT_GT(t.bytes_p2p_same_bus + t.bytes_p2p_cross_bus, 0u);
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

TEST(SchedulerTransferStatsTest, PlannerOnAndOffComputeIdenticalResults) {
  const std::size_t n = 2048;
  std::vector<int> results[2];
  for (int use_planner = 0; use_planner < 2; ++use_planner) {
    sim::Node node(sim::homogeneous_node(sim::titan_black(), 4));
    Scheduler sched(node);
    sched.set_transfer_planner_enabled(use_planner == 1);
    std::vector<int> in(n), out(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = static_cast<int>(i % 97);
    }
    Vector<int> A(n, "A"), B(n, "B");
    A.Bind(in.data());
    B.Bind(out.data());
    using In = Window1D<int, 0, maps::NO_CHECKS>;
    using Out = StructuredInjective<int, 1>;
    for (int it = 0; it < 3; ++it) {
      sched.Invoke(AddOneKernel{}, In(A), Out(B));
      sched.Invoke(AddOneKernel{}, In(B), Out(A));
    }
    sched.Gather(A);
    results[use_planner] = in;
  }
  EXPECT_EQ(results[0], results[1]);
}

struct SumStencil {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      *it = (x.at(it, 0, 0) + x.at(it, -1, 0) + x.at(it, 1, 0) +
             x.at(it, 0, -1) + x.at(it, 0, 1)) %
            997;
    }
  }
};

TEST(SchedulerTransferStatsTest, PlannerNeverChangesTotalBytesMoved) {
  // The planner re-sources and re-times transfers; it must never add or
  // remove traffic. BENCH_transfer_plan.json's NMF pair illustrates why this
  // matters: planner_on shows bytes_h2d 617 MB vs 363 MB off, which looks
  // like a regression until the totals are compared — identical both ways
  // (620,756,992). After a host Gather the host is a fresh replica, and the
  // planner legitimately prefers idle h2d links over the contended p2p mesh,
  // so bytes only move BETWEEN categories. This test pins the invariant on a
  // chain with the same shape (stencil steps + host-modified re-uploads).
  const std::size_t W = 96, H = 256;
  std::uint64_t totals[2] = {0, 0};
  std::vector<int> results[2];
  for (int use_planner = 0; use_planner < 2; ++use_planner) {
    sim::Node node(sim::homogeneous_node(sim::titan_black(), 4));
    Scheduler sched(node);
    sched.set_transfer_planner_enabled(use_planner == 1);
    std::vector<int> a(W * H), b(W * H, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<int>(i % 997);
    }
    Matrix<int> A(W, H, "A"), B(W, H, "B");
    A.Bind(a.data());
    B.Bind(b.data());
    using Win = Window2D<int, 1, maps::WRAP>;
    using Out = StructuredInjective<int, 2>;
    sched.AnalyzeCall(Win(A), Out(B));
    sched.AnalyzeCall(Win(B), Out(A));
    for (int it = 0; it < 3; ++it) {
      sched.Invoke(SumStencil{}, Win(A), Out(B));
      sched.Invoke(SumStencil{}, Win(B), Out(A));
      // NMF-style host round trip: gather + out-of-band host update forces
      // re-uploads whose source the planner is free to re-choose.
      sched.Gather(A);
      for (auto& v : a) {
        v = (v + 1) % 997;
      }
      sched.MarkHostModified(A);
    }
    sched.Gather(A);
    const TransferStats& t = sched.stats().transfers;
    totals[use_planner] = t.bytes_total();
    results[use_planner] = a;
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(totals[0], totals[1])
      << "planner changed the amount of data moved, not just its routing";
}

} // namespace

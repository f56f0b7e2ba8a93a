// Tests for the runtime access sanitizer (sanitizer.hpp): the shadow
// write-version map, the dispatch-time freshness checks, and the fault
// injection hook that proves a dropped inferred copy is reported with the
// exact stale rectangle — on the plan-build path AND the plan-cache replay
// path, which is exactly the path that skips the location monitor's
// per-copy marks.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "multi/maps_multi.hpp"
#include "multi/sanitizer.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

// --- VersionMap unit tests ---------------------------------------------------

TEST(VersionMapTest, AssignQueryAndCoalesce) {
  VersionMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.at(5), 0u);

  m.assign({0, 10}, 1);
  m.assign({10, 20}, 1); // adjacent, same version: must coalesce
  EXPECT_EQ(m.entry_count(), 1u);
  EXPECT_EQ(m.at(0), 1u);
  EXPECT_EQ(m.at(19), 1u);
  EXPECT_EQ(m.at(20), 0u);

  m.assign({5, 12}, 3); // splits the range
  EXPECT_EQ(m.at(4), 1u);
  EXPECT_EQ(m.at(5), 3u);
  EXPECT_EQ(m.at(11), 3u);
  EXPECT_EQ(m.at(12), 1u);

  std::vector<VersionedRange> pieces;
  m.query({0, 25}, pieces);
  // Pieces partition [0,25) exactly, including a version-0 gap at the end.
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0].rows.begin, 0u);
  EXPECT_EQ(pieces[0].rows.end, 5u);
  EXPECT_EQ(pieces[0].version, 1u);
  EXPECT_EQ(pieces[1].rows.begin, 5u);
  EXPECT_EQ(pieces[1].rows.end, 12u);
  EXPECT_EQ(pieces[1].version, 3u);
  EXPECT_EQ(pieces[2].rows.begin, 12u);
  EXPECT_EQ(pieces[2].rows.end, 20u);
  EXPECT_EQ(pieces[2].version, 1u);
  EXPECT_EQ(pieces[3].rows.begin, 20u);
  EXPECT_EQ(pieces[3].rows.end, 25u);
  EXPECT_EQ(pieces[3].version, 0u);
}

TEST(VersionMapTest, AssignZeroErasesAndAssignFromPropagates) {
  VersionMap a, b;
  a.assign({0, 100}, 7);
  a.assign({40, 60}, 0); // erase the middle
  EXPECT_EQ(a.at(39), 7u);
  EXPECT_EQ(a.at(50), 0u);
  EXPECT_EQ(a.at(60), 7u);

  b.assign({0, 10}, 1);
  b.assign_from(a, {30, 70}); // copies 7 / gap / 7 piecewise
  EXPECT_EQ(b.at(5), 1u);     // untouched outside the range
  EXPECT_EQ(b.at(35), 7u);
  EXPECT_EQ(b.at(50), 0u);
  EXPECT_EQ(b.at(65), 7u);
}

// --- Shared fixtures ---------------------------------------------------------

struct StencilWrap {
  template <typename In, typename Out>
  void operator()(const maps::ThreadContext&, In& x, Out& y) const {
    MAPS_FOREACH(it, y) {
      *it = (2 * x.at(it, 0, 0) + x.at(it, -1, 0) + x.at(it, 1, 0) +
             x.at(it, 0, -1) + x.at(it, 0, 1)) %
            1000;
    }
  }
};

using Win = Window2D<int, 1, maps::WRAP>;
using Out = StructuredInjective<int, 2>;

struct ChainSetup {
  std::vector<int> a, b;
  sim::Node node;
  Scheduler sched;
  Matrix<int> A, B;

  ChainSetup(std::size_t w, std::size_t h, int devices, bool sanitize = true,
             bool cache = true)
      : a(w * h), b(w * h, 0),
        node(sim::homogeneous_node(sim::titan_black(), devices)), sched(node),
        A(w, h, "A"), B(w, h, "B") {
    std::mt19937 rng(1234);
    for (auto& v : a) {
      v = static_cast<int>(rng() % 1000);
    }
    if (!cache) {
      sched.set_plan_cache_capacity(0);
    }
    if (sanitize) {
      sched.set_sanitizer_enabled(true);
    }
    A.Bind(a.data());
    B.Bind(b.data());
    sched.AnalyzeCall(Win(A), Out(B));
    sched.AnalyzeCall(Win(B), Out(A));
  }

  void step(int i) {
    if (i % 2 == 0) {
      sched.Invoke(StencilWrap{}, Win(A), Out(B));
    } else {
      sched.Invoke(StencilWrap{}, Win(B), Out(A));
    }
  }
};

// --- Clean runs --------------------------------------------------------------

TEST(SanitizerTest, CleanMultiDeviceChainPassesAndCountsChecks) {
  ChainSetup s(64, 96, 4);
  for (int i = 0; i < 8; ++i) {
    s.step(i);
  }
  s.sched.Gather(s.A);
  s.sched.Gather(s.B);

  ASSERT_TRUE(s.sched.sanitizer_enabled());
  const auto& st = s.sched.sanitizer()->stats();
  EXPECT_EQ(st.tasks_checked, 10u); // 8 kernels + 2 gathers
  EXPECT_GT(st.copies_checked, 0u);
  EXPECT_GT(st.rects_checked, 0u);
  EXPECT_GT(st.writes_recorded, 0u);

  // Cross-check against an unsanitized run: identical results, proving the
  // sanitizer is pure metadata.
  ChainSetup ref(64, 96, 4, /*sanitize=*/false);
  for (int i = 0; i < 8; ++i) {
    ref.step(i);
  }
  ref.sched.Gather(ref.A);
  ref.sched.Gather(ref.B);
  EXPECT_EQ(s.a, ref.a);
  EXPECT_EQ(s.b, ref.b);
}

TEST(SanitizerTest, ShadowMapTracksWritersAndGather) {
  ChainSetup s(48, 64, 2);
  s.step(0); // A -> B: B freshly written on the devices
  AccessSanitizer* san = s.sched.sanitizer();
  const Datum* b = &static_cast<Datum&>(s.B);
  // The host's copy of B is stale until the gather runs.
  const VersionMap& latest = san->latest(b);
  EXPECT_FALSE(latest.empty());
  EXPECT_GT(latest.at(0), san->held(b, AccessSanitizer::kHost).at(0));
  s.sched.Gather(s.B);
  EXPECT_EQ(san->held(b, AccessSanitizer::kHost).at(0), san->latest(b).at(0));
}

TEST(SanitizerTest, EnableAfterSchedulingThrows) {
  ChainSetup s(32, 32, 2, /*sanitize=*/false);
  s.step(0);
  EXPECT_THROW(s.sched.set_sanitizer_enabled(true), std::logic_error);
  // Disabling is always allowed (a no-op here).
  s.sched.set_sanitizer_enabled(false);
  EXPECT_FALSE(s.sched.sanitizer_enabled());
}

// --- Fault injection: dropped copies must be reported ------------------------

/// Drops the n-th copy matching `pred`; records what it dropped.
struct DropNth {
  int target = 0;
  int seen = 0;
  Scheduler::CopyFaultInfo dropped;
  bool hit = false;

  template <typename Pred> Scheduler::CopyFaultHook hook(Pred pred) {
    return [this, pred](const Scheduler::CopyFaultInfo& c) {
      if (!pred(c)) {
        return false;
      }
      if (seen++ != target) {
        return false;
      }
      dropped = c;
      hit = true;
      return true;
    };
  }
};

std::string rows_str(const RowInterval& r) {
  return "[" + std::to_string(r.begin) + ", " + std::to_string(r.end) + ")";
}

TEST(SanitizerTest, DroppedHostUploadReportsExactRectangle) {
  ChainSetup s(64, 80, 2);
  DropNth drop;
  // Drop the first aligned host->device upload of the first task.
  s.sched.set_copy_fault_hook(drop.hook([](const Scheduler::CopyFaultInfo& c) {
    return c.aligned && !c.zero_fill && c.src_location == 0;
  }));
  try {
    s.step(0);
    FAIL() << "stale read not reported";
  } catch (const SanitizerError& e) {
    ASSERT_TRUE(drop.hit);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("datum 'A'"), std::string::npos) << msg;
    // The transfer planner forwards device 1's halo from device 0's replica,
    // so the first casualty of the dropped upload may be that forward rather
    // than the kernel read itself. Either way the report must pinpoint a
    // rectangle inside the dropped one and prescribe the upload that never
    // happened.
    const std::size_t pos = msg.find("rows [");
    ASSERT_NE(pos, std::string::npos) << msg;
    std::size_t rb = 0, re = 0;
    ASSERT_EQ(std::sscanf(msg.c_str() + pos, "rows [%zu, %zu)", &rb, &re), 2)
        << msg;
    EXPECT_GE(rb, drop.dropped.rows.begin) << msg;
    EXPECT_LE(re, drop.dropped.rows.end) << msg;
    EXPECT_NE(msg.find("should have scheduled a copy"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("host -> device 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("does not hold at all"), std::string::npos) << msg;
  }
}

TEST(SanitizerTest, DroppedInteriorHaloExchangeReportsStaleVersion) {
  ChainSetup s(64, 96, 3);
  s.step(0); // writes B on the devices
  DropNth drop;
  // Task 2 reads B: its interior halo rows move device-to-device. Drop the
  // first such exchange; the destination then holds those rows at the stale
  // pre-task-1 version (or not at all).
  s.sched.set_copy_fault_hook(drop.hook([](const Scheduler::CopyFaultInfo& c) {
    return c.aligned && !c.zero_fill && c.src_location != 0 &&
           c.dst_location != 0 && c.src_location != c.dst_location;
  }));
  try {
    s.step(1);
    FAIL() << "stale read not reported";
  } catch (const SanitizerError& e) {
    ASSERT_TRUE(drop.hit);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("datum 'B'"), std::string::npos) << msg;
    EXPECT_NE(msg.find(rows_str(drop.dropped.rows)), std::string::npos) << msg;
    EXPECT_NE(msg.find("reads"), std::string::npos) << msg;
  }
}

TEST(SanitizerTest, DroppedWrapHaloRefillReportsMissingHalo) {
  ChainSetup s(64, 96, 2);
  s.step(0);
  DropNth drop;
  // Wrap boundary slots are refilled every task with rows that do NOT land
  // at their global position; dropping one is caught by the per-dispatch
  // halo-coverage check rather than the version map.
  s.sched.set_copy_fault_hook(drop.hook([](const Scheduler::CopyFaultInfo& c) {
    return !c.aligned && !c.zero_fill;
  }));
  try {
    s.step(1);
    FAIL() << "missing halo refill not reported";
  } catch (const SanitizerError& e) {
    ASSERT_TRUE(drop.hit);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("halo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("datum 'B'"), std::string::npos) << msg;
  }
}

TEST(SanitizerTest, ReplayPathIsCheckedIdentically) {
  // Warm the plan cache, prove the steady state replays, then drop a copy in
  // a replayed dispatch: the sanitizer must still catch it, because its hooks
  // run on the plan being executed, not on the monitor marks (which replays
  // skip entirely).
  ChainSetup s(64, 96, 3);
  for (int i = 0; i < 6; ++i) {
    s.step(i);
  }
  ASSERT_GT(s.sched.stats().cache_hits, 0u)
      << "steady state did not reach the replay path";
  const auto hits_before = s.sched.stats().cache_hits;

  DropNth drop;
  s.sched.set_copy_fault_hook(drop.hook([](const Scheduler::CopyFaultInfo& c) {
    return c.aligned && !c.zero_fill && c.src_location != 0 &&
           c.dst_location != 0;
  }));
  try {
    s.step(6);
    FAIL() << "stale read not reported on the replay path";
  } catch (const SanitizerError& e) {
    ASSERT_TRUE(drop.hit);
    EXPECT_GT(s.sched.stats().cache_hits, hits_before)
        << "the faulted dispatch was not a replay";
    const std::string msg = e.what();
    EXPECT_NE(msg.find(rows_str(drop.dropped.rows)), std::string::npos) << msg;
  }
}

TEST(SanitizerTest, WithoutSanitizerDropIsSilentCorruption) {
  // The motivating failure mode: the same injected fault without the
  // sanitizer completes "successfully" and corrupts the result. The exec
  // observer confirms the transfer really was suppressed in the simulator.
  const std::size_t W = 64, H = 96;
  auto run = [&](bool inject, std::uint64_t* copy_events) {
    ChainSetup s(W, H, 3, /*sanitize=*/false);
    if (copy_events != nullptr) {
      s.node.set_exec_observer([copy_events](const sim::TraceEvent& te) {
        if (te.kind == 'C') {
          ++*copy_events;
        }
      });
    }
    DropNth drop;
    if (inject) {
      s.sched.set_copy_fault_hook(
          drop.hook([](const Scheduler::CopyFaultInfo& c) {
            return c.aligned && !c.zero_fill && c.src_location != 0 &&
                   c.dst_location != 0;
          }));
    }
    s.step(0);
    s.step(1);
    s.sched.set_copy_fault_hook(nullptr);
    s.sched.Gather(s.A);
    return s.a;
  };
  std::uint64_t copies_clean = 0, copies_faulted = 0;
  const auto clean = run(false, &copies_clean);
  const auto faulted = run(true, &copies_faulted);
  EXPECT_LT(copies_faulted, copies_clean)
      << "the dropped copy still executed";
  EXPECT_NE(clean, faulted) << "fault injection did not corrupt the result";
}

TEST(SanitizerTest, DroppedCopyDoesNotDeadlockTheSimulator) {
  // A dropped copy must still record its done event, or every consumer
  // waiting on it would hang the node forever. With the sanitizer off the
  // run completes; WaitAll returning at all is the assertion.
  ChainSetup s(48, 64, 2, /*sanitize=*/false);
  int drops = 0;
  s.sched.set_copy_fault_hook([&](const Scheduler::CopyFaultInfo& c) {
    if (!c.zero_fill && drops < 3) {
      ++drops;
      return true;
    }
    return false;
  });
  s.step(0);
  s.step(1);
  s.sched.WaitAll();
  EXPECT_EQ(drops, 3);
  // The chain really ran through the scheduler before the drain.
  EXPECT_GT(s.sched.tasks_scheduled(), 0u);
}

// --- Aggregation lifecycle ---------------------------------------------------

struct HistKernel {
  template <typename In, typename OutP>
  void operator()(const maps::ThreadContext&, In& image, OutP& hist) const {
    MAPS_FOREACH(h, hist) {
      auto pixel = image.align(h);
      h[static_cast<std::size_t>(*pixel)] += 1;
    }
    hist.commit();
  }
};

TEST(SanitizerTest, AggregationLifecycleIsTracked) {
  const std::size_t W = 96, H = 64;
  std::vector<int> image(W * H);
  std::mt19937 rng(7);
  for (auto& p : image) {
    p = static_cast<int>(rng() % 256);
  }
  std::vector<int> hist(256, 0), expected(256, 0);
  for (int p : image) {
    expected[static_cast<std::size_t>(p)]++;
  }

  sim::Node node(sim::homogeneous_node(sim::gtx780(), 3));
  Scheduler sched(node);
  sched.set_sanitizer_enabled(true);
  Matrix<int> img(W, H, "image");
  Vector<int> h(256, "hist");
  img.Bind(image.data());
  h.Bind(hist.data());
  using In = Window2D<int, 0, maps::NO_CHECKS>;
  sched.Invoke(HistKernel{}, In(img), ReductiveStatic<int, 256>(h));

  // Partial copies: no location holds the latest version yet, and trying to
  // read the datum is refused (by the monitor before the sanitizer even
  // runs; the sanitizer's shadow state agrees).
  AccessSanitizer* san = sched.sanitizer();
  const Datum* hd = &static_cast<Datum&>(h);
  EXPECT_EQ(san->held(hd, AccessSanitizer::kHost).at(0), 0u);
  EXPECT_NE(san->latest(hd).at(0), 0u);
  sched.Gather(h);
  EXPECT_EQ(hist, expected);
  // Gather resolved the aggregation: the host holds the latest version.
  EXPECT_EQ(san->held(hd, AccessSanitizer::kHost).at(0), san->latest(hd).at(0));
  EXPECT_NE(san->latest(hd).at(0), 0u);
}

TEST(SanitizerTest, MarkHostModifiedMintsFreshVersion) {
  ChainSetup s(48, 64, 2);
  s.step(0);
  AccessSanitizer* san = s.sched.sanitizer();
  const Datum* a = &static_cast<Datum&>(s.A);
  const std::uint64_t before = san->latest(a).at(0);
  // Host code rewrites A out of band: devices' replicas go stale.
  for (auto& v : s.a) {
    v = (v + 1) % 1000;
  }
  s.sched.MarkHostModified(s.A);
  EXPECT_GT(san->latest(a).at(0), before);
  EXPECT_EQ(san->held(a, AccessSanitizer::kHost).at(0), san->latest(a).at(0));
  for (int loc = 1; loc <= 2; ++loc) {
    EXPECT_NE(san->held(a, loc).at(0), san->latest(a).at(0));
  }
  // The next task re-uploads and passes the checks.
  s.step(0);
  s.sched.Gather(s.B);
}

TEST(SanitizerTest, ReduceScatterResolvesPartialsDeviceSide) {
  const std::size_t n = 512;
  std::vector<float> host_in(n, 1.0f), acc_out(n, 0.0f);
  auto routine = [n](RoutineArgs& a) {
    float* acc = a.parameters[1].as<float>();
    const int slot = a.device_idx;
    sim::LaunchStats st;
    st.label = "partial";
    st.blocks = 4;
    a.node->launch(a.stream, st, [acc, n, slot] {
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] += static_cast<float>(slot + 1);
      }
    });
    return true;
  };
  sim::Node node(sim::homogeneous_node(sim::gtx980(), 4));
  Scheduler sched(node);
  sched.set_sanitizer_enabled(true);
  Vector<float> In(n, "in"), Acc(n, "acc");
  In.Bind(host_in.data());
  Acc.Bind(acc_out.data());
  sched.InvokeUnmodified(routine, nullptr, Work{n},
                         Block2D<float>(static_cast<Datum&>(In)),
                         SumReduced<float>(Acc));
  sched.ReduceScatter(Acc, Work{n});
  sched.Gather(Acc);
  EXPECT_EQ(acc_out, std::vector<float>(n, 10.0f));
  // After the scatter + gather the host holds the latest version.
  AccessSanitizer* san = sched.sanitizer();
  const Datum* ad = &static_cast<Datum&>(Acc);
  EXPECT_EQ(san->held(ad, AccessSanitizer::kHost).at(0), san->latest(ad).at(0));
}

} // namespace

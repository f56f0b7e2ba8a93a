// Differential fuzz harness for the multi-GPU pipeline (label: fuzz_smoke).
//
// Each seed derives a random task chain — stencil / elementwise kernels,
// device-side reductions (Sum partials, ReduceScatter, a consuming stencil),
// out-of-band host writes, mid-chain gathers — plus a random configuration:
// grid size, device count (1–4), architecture preset, plan cache on/off,
// final gather ordering. The chain is generated once as data and executed
// three ways: the seeded multi-GPU configuration on the parallel execution
// backend, the same configuration on the sequential legacy backend, and a
// single-device reference scheduler — all with the access sanitizer
// enabled. Results must be bit-identical everywhere and the two backends
// must report the exact same simulated time; a mismatch (or a sanitizer
// report on a clean run) prints the seed and a full reproducer description.
// 1000 seeded chains by default; MAPS_FUZZ_SEEDS overrides.
//
// A second pass fuzzes the sanitizer itself: for each seed it counts the
// aligned inferred copies of the run, drops one at random, and asserts the
// stale read is reported instead of silently corrupting the output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "multi/maps_multi.hpp"
#include "multi/sanitizer.hpp"
#include "multi/symbolic_verifier.hpp"
#include "sim/presets.hpp"

namespace {

using namespace maps::multi;

// --- Chain description (generated as data so every run replays it) -----------

struct FuzzOp {
  enum Kind { Stencil, Mix, HostModify, MidGather, Reduce } kind = Stencil;
  int center = 2, cross = 1; ///< Stencil / Reduce consumer weights
  int target = 0;            ///< HostModify / MidGather: 0 = A, 1 = B
  int delta = 0;             ///< HostModify increment
};

bool is_reduce(const FuzzOp& op) { return op.kind == FuzzOp::Reduce; }

struct FuzzCase {
  unsigned seed = 0;
  std::size_t W = 0, H = 0;
  int devices = 1;
  int arch = 0; ///< index into the preset list
  bool cache = true;
  bool gather_a_first = true;
  std::vector<FuzzOp> ops;

  std::string describe() const {
    static const char* arch_names[] = {"gtx780", "titan_black", "gtx980"};
    std::ostringstream os;
    os << "seed=" << seed << " W=" << W << " H=" << H
       << " devices=" << devices << " arch=" << arch_names[arch]
       << " cache=" << (cache ? "on" : "off")
       << " gather=" << (gather_a_first ? "A,B" : "B,A") << " ops=[";
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const FuzzOp& op = ops[i];
      if (i != 0) {
        os << " ";
      }
      switch (op.kind) {
      case FuzzOp::Stencil:
        os << "stencil(" << op.center << "," << op.cross << ")";
        break;
      case FuzzOp::Mix:
        os << "mix";
        break;
      case FuzzOp::HostModify:
        os << "hostmod(" << (op.target == 0 ? 'A' : 'B') << ",+" << op.delta
           << ")";
        break;
      case FuzzOp::MidGather:
        os << "gather(" << (op.target == 0 ? 'A' : 'B') << ")";
        break;
      case FuzzOp::Reduce:
        os << "reduce(" << op.center << "," << op.cross << ")";
        break;
      }
    }
    os << "]";
    return os.str();
  }
};

FuzzCase make_case(unsigned seed) {
  std::mt19937 rng(seed);
  FuzzCase fc;
  fc.seed = seed;
  fc.W = 24 + rng() % 48;
  fc.H = 24 + rng() % 56;
  fc.devices = 1 + static_cast<int>(rng() % 4);
  fc.arch = static_cast<int>(rng() % 3);
  fc.cache = rng() % 2 == 0;
  fc.gather_a_first = rng() % 2 == 0;
  const int chain = 4 + static_cast<int>(rng() % 7);
  for (int i = 0; i < chain; ++i) {
    FuzzOp op;
    const unsigned roll = rng() % 10;
    if (roll < 5) {
      op.kind = FuzzOp::Stencil;
      op.center = static_cast<int>(rng() % 4);
      op.cross = 1 + static_cast<int>(rng() % 3);
    } else if (roll < 8) {
      op.kind = FuzzOp::Mix;
    } else if (roll < 9) {
      op.kind = FuzzOp::HostModify;
      op.target = static_cast<int>(rng() % 2);
      op.delta = 1 + static_cast<int>(rng() % 99);
    } else {
      op.kind = FuzzOp::MidGather;
      op.target = static_cast<int>(rng() % 2);
    }
    fc.ops.push_back(op);
  }
  // Half the chains also reduce device-side. Drawn last, so every seed keeps
  // the rest of its chain.
  if (rng() % 2 == 0) {
    FuzzOp op;
    op.kind = FuzzOp::Reduce;
    op.center = static_cast<int>(rng() % 4);
    op.cross = 1 + static_cast<int>(rng() % 3);
    const auto at = static_cast<long>(rng() % (fc.ops.size() + 1));
    fc.ops.insert(fc.ops.begin() + at, op);
  }
  return fc;
}

// --- Kernels -----------------------------------------------------------------

struct FuzzStencil {
  int center = 2, cross = 1;
  template <typename In, typename OutP>
  void operator()(const maps::ThreadContext&, In& x, OutP& y) const {
    MAPS_FOREACH(it, y) {
      *it = (center * x.at(it, 0, 0) + cross * (x.at(it, -1, 0) +
                                                x.at(it, 1, 0) +
                                                x.at(it, 0, -1) +
                                                x.at(it, 0, 1))) %
            1000;
    }
  }
};

struct FuzzMix {
  template <typename A, typename B, typename OutP>
  void operator()(const maps::ThreadContext&, A& a, B& b, OutP& y) const {
    MAPS_FOREACH(it, y) {
      *it = (a.at(it, 0, 0) + 3 * b.at(it, 0, 0)) % 1000;
    }
  }
};

/// The Reduce op's unmodified routine: every device adds (7x + 1) % 1000 of
/// its own input rows into its private Sum partial, so the summed partials
/// hold that map of the whole input for any device count.
bool fuzz_partial(RoutineArgs& a) {
  const int* in = a.parameters[0].as<int>();
  int* acc = a.parameters[1].as<int>();
  const Segment rows = a.container_segments[0];
  const std::size_t w = a.parameters[0].view.row_elems;
  sim::LaunchStats st;
  st.label = "fuzz_partial";
  st.blocks = 1 + rows.rows();
  a.node->launch(a.stream, st, [in, acc, rows, w] {
    if (in == nullptr || acc == nullptr) {
      return;
    }
    for (std::size_t r = rows.global_row_begin; r < rows.global_row_end; ++r) {
      for (std::size_t c = 0; c < w; ++c) {
        acc[r * w + c] +=
            (7 * in[(r - rows.global_row_begin) * w + c] + 1) % 1000;
      }
    }
  });
  return true;
}

// --- Executing one configuration of a chain ----------------------------------

struct RunResult {
  std::vector<int> a, b, c;
  double sim_ms = 0.0; ///< simulated clock after the final gather
};

sim::DeviceSpec arch_spec(int arch) {
  switch (arch) {
  case 0:
    return sim::gtx780();
  case 1:
    return sim::titan_black();
  default:
    return sim::gtx980();
  }
}

/// Compute-transfer overlap configuration of one run. `force` runs on
/// devices without kernel launch latency, which opens the split cost gate,
/// and shrinks the chunk threshold, so the tiny fuzz grids still split and
/// chunk when overlap is enabled; `stats_out` (optional) receives the run's
/// scheduler stats.
struct OverlapCfg {
  bool enabled = true;
  bool force = false;
  SchedulerStats* stats_out = nullptr;
};

/// Runs the chain on `devices` devices. `fault` (optional) is installed as
/// the scheduler's copy fault hook for the kernel tasks. `fault_tolerance`
/// switches on host mirroring, and `injector` (optional, requires fault
/// tolerance) kills a device at a seeded dispatch boundary mid-chain.
/// `cluster_nodes > 0` spreads the devices over that many cluster nodes
/// (devices must divide evenly); `planner` forces the transfer planner on
/// (1) or off (0), -1 keeps the scheduler default.
RunResult run_chain(const FuzzCase& fc, int devices,
                    Scheduler::CopyFaultHook fault = nullptr,
                    const OverlapCfg& overlap = OverlapCfg{},
                    bool fault_tolerance = false,
                    FaultInjector injector = nullptr,
                    int exec_threads = -1, int cluster_nodes = 0,
                    int planner = -1, int placement = -1,
                    std::size_t budget = 0) {
  using Win = Window2D<int, 1, maps::WRAP>;
  using Pt = Window2D<int, 0, maps::WRAP>;
  using Out = StructuredInjective<int, 2>;

  RunResult r;
  r.a.resize(fc.W * fc.H);
  r.b.assign(fc.W * fc.H, 0);
  r.c.assign(fc.W * fc.H, 0);
  std::mt19937 init_rng(fc.seed ^ 0x9e3779b9u);
  for (auto& v : r.a) {
    v = static_cast<int>(init_rng() % 1000);
  }

  const sim::Topology topo =
      cluster_nodes > 0
          ? sim::Topology::cluster(cluster_nodes, devices / cluster_nodes)
          : sim::Topology::pcie3_pairs(devices);
  sim::DeviceSpec spec = arch_spec(fc.arch);
  if (overlap.force) {
    spec.kernel_launch_us = 0.0;
  }
  sim::Node node(sim::homogeneous_node(spec, devices), topo);
  Scheduler sched(node);
  if (exec_threads >= 0) {
    sched.set_exec_threads(static_cast<unsigned>(exec_threads));
  }
  if (planner >= 0) {
    sched.set_transfer_planner_enabled(planner != 0);
  }
  if (placement >= 0) {
    sched.set_placement_enabled(placement != 0);
  }
  if (fault_tolerance) {
    sched.set_fault_tolerance_enabled(true);
  }
  if (injector) {
    sched.set_fault_injector(std::move(injector));
  }
  if (!fc.cache) {
    sched.set_plan_cache_capacity(0);
  }
  sched.set_sanitizer_enabled(true);
  if (budget > 0) {
    sched.set_device_memory_budget(budget);
  }
  sched.set_overlap_enabled(overlap.enabled);
  if (overlap.force) {
    sched.set_copy_chunk_bytes(256); // chunk even the fuzz grids' tiny copies
  }
  if (fault) {
    sched.set_copy_fault_hook(std::move(fault));
  }
  // C receives the Reduce op's device-side sums.
  Matrix<int> A(fc.W, fc.H, "A"), B(fc.W, fc.H, "B"), C(fc.W, fc.H, "C");
  A.Bind(r.a.data());
  B.Bind(r.b.data());
  C.Bind(r.c.data());
  sched.AnalyzeCall(Win(A), Out(B));
  sched.AnalyzeCall(Win(B), Out(A));
  if (std::any_of(fc.ops.begin(), fc.ops.end(), is_reduce)) {
    sched.AnalyzeCall(Work{fc.H, fc.W}, Block2D<int>(A), SumReduced<int>(C));
    sched.AnalyzeCall(Work{fc.H, fc.W}, Block2D<int>(B), SumReduced<int>(C));
    sched.AnalyzeCall(Win(C), Out(A));
  }

  int step = 0; // parity selects the ping-pong direction
  for (const FuzzOp& op : fc.ops) {
    Matrix<int>& in = (step % 2 == 0) ? A : B;
    Matrix<int>& out = (step % 2 == 0) ? B : A;
    switch (op.kind) {
    case FuzzOp::Stencil: {
      FuzzStencil k;
      k.center = op.center;
      k.cross = op.cross;
      sched.Invoke(k, Win(in), Out(out));
      ++step;
      break;
    }
    case FuzzOp::Mix:
      sched.Invoke(FuzzMix{}, Pt(in), Pt(out), Out(out));
      ++step;
      break;
    case FuzzOp::HostModify: {
      Matrix<int>& t = (op.target == 0) ? A : B;
      std::vector<int>& host = (op.target == 0) ? r.a : r.b;
      sched.Gather(t); // host copy is current before the out-of-band write
      for (auto& v : host) {
        v = (v + op.delta) % 1000;
      }
      sched.MarkHostModified(t);
      break;
    }
    case FuzzOp::MidGather:
      sched.Gather((op.target == 0) ? A : B);
      break;
    case FuzzOp::Reduce: {
      // Sum partials, scattered device-side; the stencil reads the
      // scattered rows (and their neighbours' halos) straight away.
      sched.InvokeUnmodified(fuzz_partial, nullptr, Work{fc.H, fc.W},
                             Block2D<int>(in), SumReduced<int>(C));
      sched.ReduceScatter(C, Work{fc.H});
      FuzzStencil k;
      k.center = op.center;
      k.cross = op.cross;
      sched.Invoke(k, Win(C), Out(out));
      ++step;
      break;
    }
    }
  }
  if (fc.gather_a_first) {
    sched.Gather(A);
    sched.Gather(B);
  } else {
    sched.Gather(B);
    sched.Gather(A);
  }
  if (overlap.stats_out != nullptr) {
    *overlap.stats_out = sched.stats();
  }
  r.sim_ms = node.now_ms();
  return r;
}

// --- Differential fuzz: multi-GPU == single-device reference -----------------

constexpr unsigned kSeedsPerChunk = 25;

/// Total seeded chains: 1000 by default, tunable with MAPS_FUZZ_SEEDS (the
/// TSan CI job trims it; soak runs can raise it).
unsigned fuzz_seed_total() {
  if (const char* env = std::getenv("MAPS_FUZZ_SEEDS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<unsigned>(v);
    }
  }
  return 1000;
}

unsigned fuzz_chunk_count() {
  return (fuzz_seed_total() + kSeedsPerChunk - 1) / kSeedsPerChunk;
}

class DifferentialFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialFuzz, MultiGpuMatchesSingleDeviceReference) {
  const unsigned total = fuzz_seed_total();
  const unsigned base = GetParam() * kSeedsPerChunk;
  for (unsigned seed = base; seed < std::min(base + kSeedsPerChunk, total);
       ++seed) {
    const FuzzCase fc = make_case(seed);
    // Every chain runs three ways: the seeded multi-GPU config on the
    // parallel execution backend (4 exec threads, forced so the assertion
    // is meaningful on single-core runners), the same config on the
    // sequential legacy backend, and the single-device reference. Results
    // must be bit-identical across all three, and the parallel backend
    // must not move the simulated clock by a single tick (sim time depends
    // only on the dependency graph, never on host execution).
    RunResult par, seq, ref;
    try {
      par = run_chain(fc, fc.devices, nullptr, OverlapCfg{}, false, nullptr,
                      /*exec_threads=*/4);
      seq = run_chain(fc, fc.devices, nullptr, OverlapCfg{}, false, nullptr,
                      /*exec_threads=*/0);
      ref = run_chain(fc, 1);
    } catch (const SanitizerError& e) {
      FAIL() << "sanitizer report on a clean chain\n  " << fc.describe()
             << "\n  " << e.what();
    }
    ASSERT_EQ(par.a, ref.a) << "reproducer: " << fc.describe();
    ASSERT_EQ(par.b, ref.b) << "reproducer: " << fc.describe();
    ASSERT_EQ(par.a, seq.a)
        << "exec-threads changed results; reproducer: " << fc.describe();
    ASSERT_EQ(par.b, seq.b)
        << "exec-threads changed results; reproducer: " << fc.describe();
    ASSERT_EQ(par.sim_ms, seq.sim_ms)
        << "exec-threads changed SIM TIME; reproducer: " << fc.describe();
  }
}

// ceil(MAPS_FUZZ_SEEDS / 25) chunks of 25 seeds (40 x 25 = 1000 default).
INSTANTIATE_TEST_SUITE_P(Chunks, DifferentialFuzz,
                         ::testing::Range(0u, fuzz_chunk_count()));

// --- Determinism: same case, same config, identical output -------------------

TEST(DifferentialFuzzExtra, RepeatedRunsAreBitIdentical) {
  for (unsigned seed = 300; seed < 310; ++seed) {
    const FuzzCase fc = make_case(seed);
    const RunResult r1 = run_chain(fc, fc.devices);
    const RunResult r2 = run_chain(fc, fc.devices);
    ASSERT_EQ(r1.a, r2.a) << "reproducer: " << fc.describe();
    ASSERT_EQ(r1.b, r2.b) << "reproducer: " << fc.describe();
  }
}

// --- Overlap fuzz: splitting/chunking change timing only ---------------------

TEST(DifferentialFuzzExtra, OverlapOnOffBitIdenticalWithEqualByteTotals) {
  // Forced interior/boundary splitting and aggressive copy chunking must not
  // change a single output value or a single byte of planned traffic — only
  // the simulated timeline. The sanitizer is live in both runs, so every
  // strip's copy gating is also structurally checked per dispatch. With
  // overlap off, every device launches its whole grid at once, and that
  // launch must still wait for device-side reductions (Reduce ops) on the
  // rows it reads.
  std::uint64_t split_runs = 0, chunked_runs = 0, reduce_runs = 0;
  for (unsigned seed = 700; seed < 740; ++seed) {
    const FuzzCase fc = make_case(seed);
    SchedulerStats stats_on, stats_off;
    RunResult on, off, ref;
    try {
      on = run_chain(fc, fc.devices, nullptr,
                     OverlapCfg{true, /*force=*/true, &stats_on});
      off = run_chain(fc, fc.devices, nullptr,
                      OverlapCfg{false, /*force=*/true, &stats_off});
      ref = run_chain(fc, 1);
    } catch (const SanitizerError& e) {
      FAIL() << "sanitizer report on a clean chain\n  " << fc.describe()
             << "\n  " << e.what();
    }
    ASSERT_EQ(off.a, ref.a) << "reproducer: " << fc.describe();
    ASSERT_EQ(off.b, ref.b) << "reproducer: " << fc.describe();
    ASSERT_EQ(on.a, off.a) << "reproducer: " << fc.describe();
    ASSERT_EQ(on.b, off.b) << "reproducer: " << fc.describe();
    ASSERT_EQ(stats_on.transfers.bytes_total(),
              stats_off.transfers.bytes_total())
        << "overlap changed planned traffic; reproducer: " << fc.describe();
    split_runs += stats_on.interior_subkernels > 0 ? 1 : 0;
    chunked_runs += stats_on.transfers.copies_chunked > 0 ? 1 : 0;
    reduce_runs +=
        fc.devices > 1 && std::any_of(fc.ops.begin(), fc.ops.end(), is_reduce);
    EXPECT_EQ(stats_off.interior_subkernels, 0u) << fc.describe();
    EXPECT_EQ(stats_off.transfers.copies_chunked, 0u) << fc.describe();
  }
  // The seed range must actually exercise all three.
  EXPECT_GE(split_runs, 10u);
  EXPECT_GE(chunked_runs, 10u);
  EXPECT_GE(reduce_runs, 10u);
}

// --- Out-of-core fuzz: random memory budgets change residency only -----------

TEST(OutOfCoreFuzz, RandomBudgetsBitIdenticalWithBalancedBytes) {
  // For each seed: the unlimited-memory run is the reference; the same chain
  // under a seed-derived device memory budget must produce bit-identical
  // outputs with the sanitizer live, differing only in residency traffic —
  // and so must a third run under the same budget with fault tolerance on
  // that loses a seeded device at a seeded dispatch boundary (multi-device
  // seeds only), whether the interrupted task ran in-core or streamed.
  // The budget floor (16 KiB) keeps every draw above the minimum streaming
  // window for the corpus grids (double-buffered block-row windows over rows
  // of at most ~284 bytes), so a budget is never rejected; the 32 KiB span
  // still pulls many draws below the per-slot working sets of the larger
  // low-device-count seeds, forcing real evictions and streamed passes. Every spill
  // byte must be balanced: the spill transfer ledger equals write-backs plus
  // refills exactly — a leak either way means residency traffic was
  // misclassified as first-touch distribution (or vice versa).
  const unsigned total = std::min(fuzz_seed_total(), 80u);
  std::uint64_t streamed = 0, residency_bytes = 0, streamed_under_loss = 0;
  for (unsigned seed = 0; seed < total; ++seed) {
    // Without Reduce ops: their whole-datum Sum partial is a window-invariant
    // resident that the budget floor below is not sized for.
    FuzzCase fc = make_case(seed);
    std::erase_if(fc.ops, is_reduce);
    std::mt19937 brng(fc.seed ^ 0x00c0ffeeu);
    const std::size_t budget = 16 * 1024 + brng() % (32 * 1024);
    const int victim =
        static_cast<int>(brng() % static_cast<unsigned>(fc.devices));
    constexpr KillStage kStages[] = {KillStage::CopiesIssued,
                                     KillStage::KernelIssued,
                                     KillStage::PreGather};
    const KillStage stage = kStages[brng() % 3];
    const int nth = static_cast<int>(brng() % 3);
    SchedulerStats ref_stats, ooc_stats, ft_stats;
    RunResult ref, ooc, ft;
    try {
      ref = run_chain(fc, fc.devices, nullptr,
                      OverlapCfg{true, false, &ref_stats});
      ooc = run_chain(fc, fc.devices, nullptr,
                      OverlapCfg{true, false, &ooc_stats}, false, nullptr,
                      /*exec_threads=*/-1, /*cluster_nodes=*/0,
                      /*planner=*/-1, /*placement=*/-1, budget);
      if (fc.devices > 1) {
        ft = run_chain(fc, fc.devices, nullptr,
                       OverlapCfg{true, false, &ft_stats},
                       /*fault_tolerance=*/true,
                       kill_at_nth(victim, stage, nth), /*exec_threads=*/-1,
                       /*cluster_nodes=*/0, /*planner=*/-1, /*placement=*/-1,
                       budget);
      }
    } catch (const SanitizerError& e) {
      FAIL() << "sanitizer report under budget " << budget << "\n  "
             << fc.describe() << "\n  " << e.what();
    }
    ASSERT_EQ(ooc.a, ref.a)
        << "budget " << budget << " changed results; " << fc.describe();
    ASSERT_EQ(ooc.b, ref.b)
        << "budget " << budget << " changed results; " << fc.describe();
    if (fc.devices > 1) {
      ASSERT_EQ(ft.a, ref.a)
          << "device loss under budget " << budget << " changed results; "
          << fc.describe() << " kill slot " << victim << " stage "
          << static_cast<int>(stage) << " nth " << nth;
      ASSERT_EQ(ft.b, ref.b)
          << "device loss under budget " << budget << " changed results; "
          << fc.describe() << " kill slot " << victim << " stage "
          << static_cast<int>(stage) << " nth " << nth;
      if (ft_stats.recovery.devices_lost > 0) {
        streamed_under_loss += ft_stats.spill.streamed_tasks;
      }
    }
    EXPECT_EQ(ref_stats.spill.evictions, 0u) << fc.describe();
    EXPECT_EQ(ref_stats.spill.transfers.bytes_total(), 0u) << fc.describe();
    EXPECT_EQ(ooc_stats.spill.transfers.bytes_total(),
              ooc_stats.spill.bytes_spilled + ooc_stats.spill.bytes_refilled)
        << "spill byte ledger out of balance under budget " << budget << "; "
        << fc.describe();
    streamed += ooc_stats.spill.streamed_tasks;
    residency_bytes +=
        ooc_stats.spill.bytes_spilled + ooc_stats.spill.bytes_refilled;
  }
  // The slice must actually exercise the out-of-core machinery, not just
  // hand every chain a budget it fits under. (LRU evictions cannot occur in
  // this corpus — the ping-pong chain references both datums in every task,
  // so no resident is ever idle; the eviction counters are pinned in
  // out_of_core_test instead.)
  EXPECT_GT(streamed, 0u);
  EXPECT_GT(residency_bytes, 0u);
  EXPECT_GT(streamed_under_loss, 0u);
}

// --- Fault fuzz: a dropped inferred copy must be reported --------------------

TEST(FaultFuzz, DroppedAlignedCopyIsAlwaysReported) {
  // For each seed: count the aligned non-zero-fill copies the chain plans,
  // then rerun dropping one of them at random. The sanitizer must throw —
  // the alternative is the silent corruption this harness exists to rule
  // out. (Non-aligned Wrap/Clamp halo refills can be duplicated at Clamp
  // boundaries, so only aligned drops guarantee a detectable stale read.)
  int exercised = 0;
  for (unsigned seed = 500; seed < 520; ++seed) {
    const FuzzCase fc = make_case(seed);
    std::uint64_t aligned_copies = 0;
    run_chain(fc, fc.devices, [&](const Scheduler::CopyFaultInfo& c) {
      if (c.aligned && !c.zero_fill) {
        ++aligned_copies;
      }
      return false;
    });
    if (aligned_copies == 0) {
      continue; // nothing to drop (tiny single-device chains)
    }
    ++exercised;
    std::mt19937 rng(seed ^ 0x7f4a7c15u);
    const std::uint64_t victim = rng() % aligned_copies;
    std::uint64_t n = 0;
    bool dropped = false;
    EXPECT_THROW(
        {
          run_chain(fc, fc.devices, [&](const Scheduler::CopyFaultInfo& c) {
            if (c.aligned && !c.zero_fill && n++ == victim) {
              dropped = true;
              return true;
            }
            return false;
          });
        },
        SanitizerError)
        << "silent stale read! dropped copy " << victim << " of "
        << aligned_copies << "; reproducer: " << fc.describe();
    EXPECT_TRUE(dropped) << fc.describe();
  }
  // The seed range must actually exercise the fault path.
  EXPECT_GE(exercised, 10);
}

// --- Symbolic agreement: static proofs match the dynamic sanitizer -----------

SymArg sym_window(int datum, int radius) {
  PatternSpec s;
  s.kind = PatternKind::Window;
  s.is_input = true;
  s.seg = Segmentation::PartitionAligned;
  s.radius_low = radius;
  s.radius_high = radius;
  s.boundary = maps::Boundary::Wrap;
  return {s, datum};
}

SymArg sym_out(int datum) {
  PatternSpec s;
  s.kind = PatternKind::StructuredInjective;
  s.is_input = false;
  s.seg = Segmentation::PartitionAligned;
  return {s, datum};
}

/// The symbolic image of a fuzz chain: same ping-pong parity, same
/// out-of-band host writes and gathers as run_chain() issues concretely.
/// Win is a radius-1 WRAP window, Pt a radius-0 one; datum 0 is A, 1 is B.
std::vector<SymStep> symbolic_chain(const FuzzCase& fc) {
  std::vector<SymStep> chain;
  int step = 0;
  for (const FuzzOp& op : fc.ops) {
    const int in = (step % 2 == 0) ? 0 : 1;
    const int out = 1 - in;
    switch (op.kind) {
    case FuzzOp::Stencil:
      chain.push_back(SymStep::task({sym_window(in, 1), sym_out(out)}));
      ++step;
      break;
    case FuzzOp::Mix:
      chain.push_back(SymStep::task(
          {sym_window(in, 0), sym_window(out, 0), sym_out(out)}));
      ++step;
      break;
    case FuzzOp::HostModify:
      chain.push_back(SymStep::gather(op.target));
      chain.push_back(SymStep::host_write(op.target));
      break;
    case FuzzOp::MidGather:
      chain.push_back(SymStep::gather(op.target));
      break;
    case FuzzOp::Reduce:
      // Datum 2 is C. The scattered sums rest partitioned on the devices,
      // computed from each device's own input rows: the image of the
      // routine plus ReduceScatter is a task writing C.
      chain.push_back(SymStep::task({sym_window(in, 0), sym_out(2)}));
      chain.push_back(SymStep::task({sym_window(2, 1), sym_out(out)}));
      ++step;
      break;
    }
  }
  chain.push_back(SymStep::gather(fc.gather_a_first ? 0 : 1));
  chain.push_back(SymStep::gather(fc.gather_a_first ? 1 : 0));
  return chain;
}

TEST(SymbolicAgreement, VerifierAndSanitizerNeverDisagree) {
  // A slice of the fuzz corpus, checked both ways. Direction one: every
  // chain the sanitizer accepts at runtime must be PROVABLE — the symbolic
  // verifier certifies the chain's whole partition family for each device
  // count the seed can draw, then the concrete run (sanitizer live) must be
  // clean. Direction two: a chain the sanitizer would flag must fail the
  // proof too — drop the first aligned inferred copy through the symbolic
  // hook and require a counterexample rectangle, mirroring what FaultFuzz
  // proves concretely with the scheduler's copy fault hook.
  const unsigned total = std::min(fuzz_seed_total(), 150u);
  unsigned mutated = 0;
  for (unsigned seed = 0; seed < total; ++seed) {
    const FuzzCase fc = make_case(seed);
    const std::vector<SymStep> chain = symbolic_chain(fc);
    SymbolicVerifier probe(sym::Family::unaligned(fc.devices, 1));
    for (int devices = 1; devices <= fc.devices; ++devices) {
      SymbolicVerifier v(sym::Family::unaligned(devices, 1));
      const CertResult res = v.verify_chain(chain, /*loop=*/false);
      EXPECT_TRUE(res.ok) << "proof failed for a chain the sanitizer accepts"
                          << "\n  devices=" << devices << " " << fc.describe()
                          << "\n  " << res.summary();
      if (devices == fc.devices) {
        probe = std::move(v);
      }
    }
    try {
      run_chain(fc, fc.devices);
    } catch (const SanitizerError& e) {
      FAIL() << "sanitizer flagged a chain the verifier proved\n  "
             << fc.describe() << "\n  " << e.what();
    }
    // Direction two on the same seed: drop the first aligned task copy.
    bool has_victim = false;
    for (const SymbolicVerifier::StepTrace& st : probe.last_trace()) {
      for (const sym::Copy& c : st.copies) {
        has_victim |= c.aligned && !c.zero_fill && c.arg >= 0;
      }
    }
    if (!has_victim) {
      continue;
    }
    ++mutated;
    SymbolicVerifier broken(sym::Family::unaligned(fc.devices, 1));
    bool dropped = false;
    broken.set_copy_filter([&dropped](const sym::Copy& c) {
      if (!dropped && c.aligned && !c.zero_fill && c.arg >= 0) {
        dropped = true;
        return false;
      }
      return true;
    });
    const CertResult res = broken.verify_chain(chain, /*loop=*/false);
    EXPECT_TRUE(dropped) << fc.describe();
    EXPECT_FALSE(res.ok)
        << "dropped copy not detected symbolically; " << fc.describe();
    for (const SymFailure& f : res.failures) {
      EXPECT_FALSE(f.rect.empty())
          << "counterexample without a rectangle; " << fc.describe();
    }
  }
  // The corpus slice must actually exercise the mutation direction.
  EXPECT_GE(mutated, total / 2);
}

// --- Fault fuzz: random device loss keeps chains bit-identical ---------------

TEST(FaultFuzz, RandomDeviceLossKeepsChainsBitIdentical) {
  // For each multi-device seed: run the chain fault-free with fault
  // tolerance on, then rerun it killing a seeded random device at a seeded
  // random boundary (CopiesIssued / KernelIssued / PreGather), sanitizer
  // live in both. Recovery must reproduce the fault-free results bit for
  // bit — across stencils, in-place mixes, out-of-band host writes and
  // mid-chain gathers.
  int exercised = 0;
  for (unsigned seed = 900; seed < 940; ++seed) {
    const FuzzCase fc = make_case(seed);
    if (fc.devices < 2) {
      continue; // losing the only device is (correctly) unrecoverable
    }
    ++exercised;
    std::mt19937 rng(seed ^ 0x51f15eedu);
    const int victim =
        static_cast<int>(rng() % static_cast<unsigned>(fc.devices));
    constexpr KillStage kStages[] = {KillStage::CopiesIssued,
                                     KillStage::KernelIssued,
                                     KillStage::PreGather};
    const KillStage stage = kStages[rng() % 3];
    const int nth = static_cast<int>(rng() % 3);
    RunResult clean, faulty;
    try {
      clean = run_chain(fc, fc.devices, nullptr, OverlapCfg{},
                        /*fault_tolerance=*/true);
      faulty = run_chain(fc, fc.devices, nullptr, OverlapCfg{},
                         /*fault_tolerance=*/true,
                         kill_at_nth(victim, stage, nth));
    } catch (const SanitizerError& e) {
      FAIL() << "sanitizer report under fault tolerance\n  " << fc.describe()
             << "\n  kill slot " << victim << " stage "
             << static_cast<int>(stage) << " nth " << nth << "\n  "
             << e.what();
    }
    ASSERT_EQ(faulty.a, clean.a)
        << "device loss changed results; reproducer: " << fc.describe()
        << " kill slot " << victim << " stage " << static_cast<int>(stage)
        << " nth " << nth;
    ASSERT_EQ(faulty.b, clean.b)
        << "device loss changed results; reproducer: " << fc.describe()
        << " kill slot " << victim << " stage " << static_cast<int>(stage)
        << " nth " << nth;
  }
  // The seed range must actually exercise recovery.
  EXPECT_GE(exercised, 20);
}

// --- Cluster fuzz: hierarchical routing never changes results ----------------

TEST(ClusterFuzz, PlannerOnOffBitIdenticalAcrossNodeBoundaries) {
  // Cluster slice (2 nodes x 2-4 GPUs per node): the hierarchical planner
  // only reroutes copies — it picks sources and stages node crossings, never
  // changes what lands where. For every seeded chain the planner-on and
  // planner-off runs must agree bit for bit, and the total bytes moved is a
  // routing invariant (reclassification between link classes is allowed;
  // the sum is not).
  int crossed = 0;
  for (unsigned seed = 1300; seed < 1330; ++seed) {
    const FuzzCase fc = make_case(seed);
    const int gpn = 2 + static_cast<int>(seed % 3u); // 2..4 GPUs per node
    const int devices = 2 * gpn;
    SchedulerStats on_stats, off_stats, pl_stats;
    OverlapCfg on_cfg, off_cfg, pl_cfg;
    on_cfg.stats_out = &on_stats;
    off_cfg.stats_out = &off_stats;
    pl_cfg.stats_out = &pl_stats;
    RunResult on, off, pl;
    try {
      on = run_chain(fc, devices, nullptr, on_cfg, false, nullptr, -1,
                     /*cluster_nodes=*/2, /*planner=*/1);
      off = run_chain(fc, devices, nullptr, off_cfg, false, nullptr, -1,
                      /*cluster_nodes=*/2, /*planner=*/0);
      pl = run_chain(fc, devices, nullptr, pl_cfg, false, nullptr, -1,
                     /*cluster_nodes=*/2, /*planner=*/1, /*placement=*/1);
    } catch (const SanitizerError& e) {
      FAIL() << "sanitizer report on cluster chain\n  " << fc.describe()
             << "\n  gpus per node " << gpn << "\n  " << e.what();
    }
    ASSERT_EQ(on.a, off.a)
        << "cluster planner changed results; reproducer: " << fc.describe()
        << " gpus per node " << gpn;
    ASSERT_EQ(on.b, off.b)
        << "cluster planner changed results; reproducer: " << fc.describe()
        << " gpus per node " << gpn;
    // Topology-aware placement only reorders which physical device hosts
    // which segment — results must stay bit-identical with it on.
    ASSERT_EQ(pl.a, on.a)
        << "placement changed results; reproducer: " << fc.describe()
        << " gpus per node " << gpn;
    ASSERT_EQ(pl.b, on.b)
        << "placement changed results; reproducer: " << fc.describe()
        << " gpus per node " << gpn;
    ASSERT_EQ(on_stats.transfers.bytes_total(),
              off_stats.transfers.bytes_total())
        << "routing changed the total bytes moved; reproducer: "
        << fc.describe() << " gpus per node " << gpn;
    const std::uint64_t net = on_stats.transfers.bytes_net_send +
                              on_stats.transfers.bytes_net_recv +
                              on_stats.transfers.bytes_net_staged;
    if (net > 0) {
      ++crossed;
    }
  }
  // The slice must actually drive traffic across the node boundary.
  EXPECT_GE(crossed, 20);
}

} // namespace

#include "workloads.hpp"

#include <cstdio>
#include <map>
#include <random>

#include "apps/game_of_life.hpp"
#include "apps/histogram.hpp"
#include "sim/presets.hpp"
#include "simblas/simblas.hpp"

namespace perfbench {

namespace {

using maps::multi::CostHints;
using maps::multi::Matrix;
using maps::multi::Scheduler;
using maps::multi::Vector;
using maps::multi::Work;
using Tick = apps::gol::MapsTick<1, 1>;

constexpr int kGpus = 4;

std::vector<int> random_world(std::size_t cells, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> world(cells);
  for (int& c : world) {
    c = static_cast<int>(rng() & 1u);
  }
  return world;
}

/// Flips one cell of a checked output when the self-test asks for it.
template <typename T> void maybe_flip(std::vector<T>& out, Inject inject) {
  if (inject == Inject::FlipCell && !out.empty()) {
    out[out.size() / 2] = out[out.size() / 2] == T{} ? T{1} : T{};
  }
}

/// `ticks` double-buffered Game of Life ticks, A -> B first; `ticks` is even
/// so the current generation ends in A.
void gol_ticks(Scheduler& sched, Matrix<int>& a, Matrix<int>& b, int ticks,
               Tracer& tracer, const CostHints& hints) {
  for (int i = 0; i < ticks; ++i) {
    Matrix<int>& in = i % 2 == 0 ? a : b;
    Matrix<int>& out = i % 2 == 0 ? b : a;
    tracer.call("Invoke", [&] {
      return sched.Invoke(hints, Tick{}, Tick::Win(in), Tick::Out(out));
    });
  }
}

void analyze_gol(Scheduler& sched, Matrix<int>& a, Matrix<int>& b,
                 Tracer& tracer) {
  tracer.call("AnalyzeCall",
              [&] { sched.AnalyzeCall(Tick::Win(a), Tick::Out(b)); });
  tracer.call("AnalyzeCall",
              [&] { sched.AnalyzeCall(Tick::Win(b), Tick::Out(a)); });
}

// --- gol_halo ---------------------------------------------------------------

/// TimingOnly Game of Life on a paper Table-3 node: replay-bound host path
/// with halo exchanges, no kernel bodies.
class GolHalo final : public Workload {
public:
  static constexpr std::size_t kSide = 2048;
  static constexpr int kTicks = 100;
  static constexpr std::size_t kCheckSide = 256;
  static constexpr int kCheckSteps = 2;

  using Workload::Workload;

  const WorkloadInfo& info() const override {
    static const WorkloadInfo i{"gol_halo", 100, 4, kTicks, 0, 0};
    return i;
  }

  OpCount check_pass() override {
    sim::Node node(sim::homogeneous_node(sim::titan_black(), kGpus),
                   sim::ExecMode::Functional);
    Scheduler sched(node);
    sched.set_exec_threads(cfg_.exec_threads);
    std::vector<int> host_a = random_world(kCheckSide * kCheckSide, cfg_.seed);
    std::vector<int> host_b(host_a.size(), 0);
    std::vector<int> ref = host_a;
    Matrix<int> a(kCheckSide, kCheckSide, "A"), b(kCheckSide, kCheckSide, "B");
    a.Bind(host_a.data());
    b.Bind(host_b.data());
    Tracer off;
    analyze_gol(sched, a, b, off);
    for (int s = 0; s < kCheckSteps; ++s) {
      gol_ticks(sched, a, b, kTicks, off, hints_);
      sched.WaitAll();
    }
    sched.Gather(a);
    for (int t = 0; t < kCheckSteps * kTicks; ++t) {
      apps::gol::reference_tick(ref, kCheckSide, kCheckSide);
    }
    maybe_flip(host_a, cfg_.inject);
    const std::uint64_t ops = kCheckSteps * kTicks + 1;
    return {ops, host_a == ref ? 0 : ops};
  }

  void build(Tracer& tracer) override {
    node_ = std::make_unique<sim::Node>(
        sim::homogeneous_node(sim::titan_black(), kGpus),
        sim::ExecMode::TimingOnly);
    sched_ = std::make_unique<Scheduler>(*node_);
    sched_->set_exec_threads(cfg_.exec_threads);
    a_ = std::make_unique<Matrix<int>>(kSide, kSide, "A");
    b_ = std::make_unique<Matrix<int>>(kSide, kSide, "B");
    a_->Bind(dummy_.data()); // TimingOnly: host backing is never touched
    b_->Bind(dummy_.data());
    analyze_gol(*sched_, *a_, *b_, tracer);
  }

  void step(Tracer& tracer) override {
    gol_ticks(*sched_, *a_, *b_, kTicks, tracer, hints_);
    tracer.call("WaitAll", [&] { sched_->WaitAll(); });
  }

  void teardown() override {
    sched_.reset();
    a_.reset();
    b_.reset();
    node_.reset();
  }

  Scheduler& scheduler() override { return *sched_; }
  sim::Node& node() override { return *node_; }

private:
  CostHints hints_ = apps::gol::maps_cost_hints();
  std::vector<int> dummy_ = std::vector<int>(1);
  std::unique_ptr<sim::Node> node_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<Matrix<int>> a_, b_;
};

// --- life_census --------------------------------------------------------------

/// Functional Game of Life with a periodic census: injective stencil writes
/// beside reductive histogram merges and a Sum gather.
class LifeCensus final : public Workload {
public:
  static constexpr std::size_t kSide = 512;
  static constexpr int kTicks = 8;
  using CensusKernel = apps::histogram::MapsKernel<8>;

  explicit LifeCensus(Config cfg)
      : Workload(std::move(cfg)),
        initial_(random_world(kSide * kSide, cfg_.seed)) {
    census_hints_.flops_per_elem = 3.0; // as apps::histogram::run
  }

  const WorkloadInfo& info() const override {
    static const WorkloadInfo i{"life_census", 100, 2, kTicks + 1, 1,
                                (kTicks + 1) * kSide * kSide};
    return i;
  }

  void prepare() override {
    world_ = initial_;
    next_.assign(world_.size(), 0);
    hist_.assign(apps::histogram::kBins, 0);
    steps_done_ = 0;
  }

  void build(Tracer& tracer) override {
    node_ = std::make_unique<sim::Node>(
        sim::homogeneous_node(sim::titan_black(), kGpus),
        sim::ExecMode::Functional);
    sched_ = std::make_unique<Scheduler>(*node_);
    sched_->set_exec_threads(cfg_.exec_threads);
    a_ = std::make_unique<Matrix<int>>(kSide, kSide, "A");
    b_ = std::make_unique<Matrix<int>>(kSide, kSide, "B");
    h_ = std::make_unique<Vector<int>>(apps::histogram::kBins, "hist");
    a_->Bind(world_.data());
    b_->Bind(next_.data());
    h_->Bind(hist_.data());
    analyze_gol(*sched_, *a_, *b_, tracer);
    tracer.call("AnalyzeCall", [&] {
      sched_->AnalyzeCall(CensusKernel::In(*a_), CensusKernel::Out(*h_));
    });
  }

  void step(Tracer& tracer) override {
    gol_ticks(*sched_, *a_, *b_, kTicks, tracer, tick_hints_);
    tracer.call("Invoke", [&] {
      return sched_->Invoke(census_hints_, CensusKernel{},
                            CensusKernel::In(*a_), CensusKernel::Out(*h_));
    });
    tracer.call("Gather", [&] { sched_->Gather(*h_); });
    tracer.call("WaitAll", [&] { sched_->WaitAll(); });
    ++steps_done_;
  }

  bool check_step() override {
    advance_reference(steps_done_);
    return hist_ == ref_hists_[steps_done_ - 1];
  }

  bool check_epoch() override {
    sched_->Gather(*a_);
    std::vector<int> world = world_;
    maybe_flip(world, cfg_.inject);
    return world == reference_world(steps_done_);
  }

  void teardown() override {
    sched_.reset();
    a_.reset();
    b_.reset();
    h_.reset();
    node_.reset();
  }

  Scheduler& scheduler() override { return *sched_; }
  sim::Node& node() override { return *node_; }

private:
  // The CPU reference. Every epoch starts from the same world, so one
  // reference timeline serves them all: a cursor generation advanced on
  // demand, the census after every step, and the epoch-end generations.
  void advance_reference(std::uint64_t steps) {
    for (; ref_steps_ < steps; ++ref_steps_) {
      for (int t = 0; t < kTicks; ++t) {
        apps::gol::reference_tick(ref_, kSide, kSide);
      }
      ref_hists_.push_back(apps::histogram::reference(ref_));
    }
  }

  const std::vector<int>& reference_world(std::uint64_t steps) {
    auto it = ref_worlds_.find(steps);
    if (it == ref_worlds_.end()) {
      if (ref_steps_ > steps) { // behind the cursor: replay from the start
        ref_ = initial_;
        ref_steps_ = 0;
        ref_hists_.clear();
      }
      advance_reference(steps);
      it = ref_worlds_.emplace(steps, ref_).first;
    }
    return it->second;
  }

  CostHints tick_hints_ = apps::gol::maps_cost_hints();
  CostHints census_hints_;
  std::vector<int> initial_, world_, next_, hist_;
  std::uint64_t steps_done_ = 0;
  std::vector<int> ref_ = initial_;
  std::uint64_t ref_steps_ = 0;
  std::vector<std::vector<int>> ref_hists_; ///< [k] = census after k+1 steps
  std::map<std::uint64_t, std::vector<int>> ref_worlds_;
  std::unique_ptr<sim::Node> node_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<Matrix<int>> a_, b_;
  std::unique_ptr<Vector<int>> h_;
};

// --- gemm_out_of_core -------------------------------------------------------

/// The tall GEMM chain of bench/out_of_core under a budget of a quarter of
/// the per-device working set: every task streams.
class GemmOutOfCore final : public Workload {
public:
  static constexpr std::size_t kM = 16384, kK = 2048, kN = 2048;
  static constexpr std::size_t kCheckM = 1024, kCheckK = 128, kCheckN = 128;
  static constexpr int kCheckSteps = 2;
  static constexpr std::size_t kPressure = 4;
  /// GEMM pairs per step: four keep a step near 1.5 ms, long enough that
  /// per-step times average over short bursts of host contention.
  static constexpr int kPairs = 4;

  using Workload::Workload;

  const WorkloadInfo& info() const override {
    static const WorkloadInfo i{"gemm_out_of_core", 100, 2, 2 * kPairs, 0, 0};
    return i;
  }

  /// Three tall stripes split across the devices plus the replicated B.
  static std::size_t budget(std::size_t m, std::size_t k, std::size_t n) {
    return (3 * m * k * sizeof(float) / kGpus + k * n * sizeof(float)) /
           kPressure;
  }

  OpCount check_pass() override {
    std::mt19937_64 rng(cfg_.seed);
    std::uniform_real_distribution<float> uni(-1.0f, 1.0f);
    std::vector<float> x(kCheckM * kCheckK), b(kCheckK * kCheckN);
    for (float& v : x) {
      v = uni(rng);
    }
    for (float& v : b) {
      v = uni(rng);
    }
    ChainResult limited =
        run_check_chain(x, b, budget(kCheckM, kCheckK, kCheckN));
    const ChainResult unlimited = run_check_chain(x, b, 0);
    maybe_flip(limited.c, cfg_.inject);
    const bool streamed = limited.streamed > 0;
    const bool balanced = ledger_balanced(limited.spill);
    const bool identical = limited.c == unlimited.c && limited.d == unlimited.d;
    const bool ok = streamed && balanced && identical;
    if (!ok) {
      std::fprintf(stderr,
                   "gemm check: streamed=%d ledger_balanced=%d "
                   "bit_identical=%d\n",
                   streamed, balanced, identical);
    }
    const std::uint64_t ops = 2 * limited.ops;
    return {ops, ok ? 0 : ops};
  }

  void build(Tracer& tracer) override {
    node_ = std::make_unique<sim::Node>(
        sim::homogeneous_node(sim::gtx780(), kGpus), sim::ExecMode::TimingOnly);
    sched_ = std::make_unique<Scheduler>(*node_);
    sched_->set_exec_threads(cfg_.exec_threads);
    sched_->set_device_memory_budget(budget(kM, kK, kN));
    x_ = std::make_unique<Matrix<float>>(kK, kM, "X");
    b_ = std::make_unique<Matrix<float>>(kN, kK, "B");
    c_ = std::make_unique<Matrix<float>>(kN, kM, "C");
    d_ = std::make_unique<Matrix<float>>(kN, kM, "D");
    for (Matrix<float>* m : {x_.get(), b_.get(), c_.get(), d_.get()}) {
      m->Bind(dummy_.data()); // TimingOnly: host backing is never touched
    }
    analyze_gemm(*sched_, *x_, *b_, *c_, tracer);
    analyze_gemm(*sched_, *c_, *b_, *d_, tracer);
  }

  void step(Tracer& tracer) override {
    for (int p = 0; p < kPairs; ++p) {
      gemm(tracer, *x_, *c_);
      gemm(tracer, *c_, *d_);
      tracer.call("MarkHostModified", [&] { sched_->MarkHostModified(*b_); });
    }
    tracer.call("WaitAll", [&] { sched_->WaitAll(); });
  }

  bool check_step() override { return ledger_balanced(sched_->stats().spill); }

  void teardown() override {
    sched_.reset();
    x_.reset();
    b_.reset();
    c_.reset();
    d_.reset();
    node_.reset();
  }

  Scheduler& scheduler() override { return *sched_; }
  sim::Node& node() override { return *node_; }

private:
  /// simblas::Gemm (one InvokeUnmodified) of A x B into C inside a span;
  /// when tracing, marks the span if the task streamed.
  void gemm(Tracer& tracer, Matrix<float>& a, Matrix<float>& c) {
    if (!tracer.enabled()) {
      simblas::Gemm(*sched_, a, *b_, c);
      return;
    }
    const std::uint64_t before = sched_->stats().spill.streamed_tasks;
    tracer.call("InvokeUnmodified",
                [&] { return simblas::Gemm(*sched_, a, *b_, c); });
    if (sched_->stats().spill.streamed_tasks != before) {
      tracer.spans().back().streamed = true;
    }
  }

  struct ChainResult {
    std::vector<float> c, d;
    maps::multi::SpillStats spill;
    std::uint64_t streamed = 0;
    std::uint64_t ops = 0;
  };

  static void analyze_gemm(Scheduler& sched, Matrix<float>& a,
                           Matrix<float>& b, Matrix<float>& c, Tracer& tracer) {
    tracer.call("AnalyzeCall", [&] {
      sched.AnalyzeCall(Work{c.height(), 1}, maps::multi::Block2D<float>(a),
                        maps::multi::Block2DTransposed<float>(b),
                        maps::multi::StructuredInjective<float, 2>(c));
    });
  }

  /// The out-of-core contract: bytes moved by spill traffic equal the bytes
  /// written back plus the bytes refilled.
  bool ledger_balanced(const maps::multi::SpillStats& s) const {
    const std::uint64_t moved = s.transfers.bytes_total() +
                                (cfg_.inject == Inject::UnbalancedLedger ? 1 : 0);
    return moved == s.bytes_spilled + s.bytes_refilled;
  }

  /// The step's call sequence at reduced size, functionally, under
  /// `budget_bytes` (0 = unlimited). B changes on the host between steps.
  ChainResult run_check_chain(const std::vector<float>& x0,
                              std::vector<float> b0,
                              std::size_t budget_bytes) const {
    sim::Node node(sim::homogeneous_node(sim::gtx780(), kGpus),
                   sim::ExecMode::Functional);
    Scheduler sched(node);
    sched.set_exec_threads(cfg_.exec_threads);
    if (budget_bytes != 0) {
      sched.set_device_memory_budget(budget_bytes);
    }
    std::vector<float> x = x0;
    ChainResult r;
    r.c.assign(kCheckM * kCheckN, 0.0f);
    r.d.assign(kCheckM * kCheckN, 0.0f);
    Matrix<float> xm(kCheckK, kCheckM, "X"), bm(kCheckN, kCheckK, "B"),
        cm(kCheckN, kCheckM, "C"), dm(kCheckN, kCheckM, "D");
    xm.Bind(x.data());
    bm.Bind(b0.data());
    cm.Bind(r.c.data());
    dm.Bind(r.d.data());
    for (int s = 0; s < kCheckSteps; ++s) {
      if (s > 0) {
        // The host writes B only while nothing is in flight; the previous
        // step's MarkHostModified makes the next task re-upload it.
        for (float& v : b0) {
          v *= 0.5f;
        }
      }
      simblas::Gemm(sched, xm, bm, cm);
      simblas::Gemm(sched, cm, bm, dm);
      sched.MarkHostModified(bm);
      sched.WaitAll();
      r.ops += 2;
    }
    sched.Gather(cm);
    sched.Gather(dm);
    r.ops += 2;
    r.spill = sched.stats().spill;
    r.streamed = r.spill.streamed_tasks;
    return r;
  }

  std::vector<float> dummy_ = std::vector<float>(1);
  std::unique_ptr<sim::Node> node_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<Matrix<float>> x_, b_, c_, d_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg) {
  if (name == "gol_halo") {
    return std::make_unique<GolHalo>(cfg);
  }
  if (name == "life_census") {
    return std::make_unique<LifeCensus>(cfg);
  }
  if (name == "gemm_out_of_core") {
    return std::make_unique<GemmOutOfCore>(cfg);
  }
  return nullptr;
}

} // namespace perfbench

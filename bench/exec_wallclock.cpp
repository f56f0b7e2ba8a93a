// Wall-clock throughput of the parallel functional execution backend
// (DESIGN.md §5.12, EXPERIMENTS.md §"Wall-clock execution").
//
// Unlike the fig* benches this measures *host wall-clock*, not simulated
// time: Functional-mode runs execute every kernel body on the CPU, and that
// host cost — not sim fidelity — bounds the fuzz matrices and the test
// suite. Three workloads (Game of Life stencil, Reductive-Static histogram,
// chained GEMM via the unmodified-routine path) run at 1/2/4/native exec
// threads plus the sequential legacy backend, asserting the results stay
// bit-identical (FNV-1a digest over the gathered outputs) and the simulated
// clock identical while only wall-clock changes. Writes
// BENCH_exec_wallclock.json (override with --out <path>) and prints each
// workload's sequential sweep rate (output elements per second) to stderr.
//
// --smoke runs trimmed sizes and asserts bit-identity, sim-identity and —
// only on hosts with >= 4 hardware threads — a >= 1.2x wall-clock speedup at
// 4 exec threads on the sweep-dominated workloads; wired as the
// `perf_smoke` ctest label.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/game_of_life.hpp"
#include "apps/histogram.hpp"
#include "bench/bench_common.hpp"
#include "multi/maps_multi.hpp"
#include "simblas/simblas.hpp"

namespace {

using namespace maps::multi;

constexpr int kGpus = 4;

struct Run {
  double wall_ms = 0;
  double sim_ms = 0;
  std::uint64_t digest = 0; ///< FNV-1a over the gathered output bytes
  std::uint64_t chunks = 0; ///< pool jobs executed (chunks + deferred bodies)
  std::uint64_t cells = 0;  ///< output elements computed, over all tasks
};

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Sizes {
  std::size_t gol_n, hist_n, gemm_n;
  int gol_iters, hist_iters, gemm_chain;
};

Run run_gol(unsigned exec_threads, const Sizes& sz) {
  const std::size_t W = sz.gol_n, H = sz.gol_n;
  std::mt19937 rng(1234);
  std::vector<int> a(W * H), b(W * H, 0);
  for (auto& v : a) {
    v = static_cast<int>(rng() & 1u);
  }
  sim::Node node(sim::homogeneous_node(sim::titan_black(), kGpus));
  Scheduler sched(node);
  sched.set_exec_threads(exec_threads);
  Matrix<int> A(W, H, "A"), B(W, H, "B");
  A.Bind(a.data());
  B.Bind(b.data());

  const auto t0 = std::chrono::steady_clock::now();
  apps::gol::run(sched, A, B, sz.gol_iters, apps::gol::Scheme::Maps);
  sched.WaitAll();

  Run r;
  r.wall_ms = wall_ms_since(t0);
  r.sim_ms = node.now_ms();
  const std::vector<int>& out = sz.gol_iters % 2 == 0 ? a : b;
  r.digest = fnv1a(out.data(), out.size() * sizeof(int));
  r.chunks = sched.stats().exec.chunks_executed;
  r.cells = W * H * static_cast<std::uint64_t>(sz.gol_iters);
  return r;
}

Run run_histogram(unsigned exec_threads, const Sizes& sz) {
  const std::size_t W = sz.hist_n, H = sz.hist_n;
  std::mt19937 rng(5678);
  std::vector<int> image(W * H);
  for (auto& v : image) {
    v = static_cast<int>(rng() % 100000);
  }
  std::vector<int> hist(apps::histogram::kBins, 0);
  sim::Node node(sim::homogeneous_node(sim::titan_black(), kGpus));
  Scheduler sched(node);
  sched.set_exec_threads(exec_threads);
  Matrix<int> Image(W, H, "image");
  Vector<int> Hist(apps::histogram::kBins, "hist");
  Image.Bind(image.data());
  Hist.Bind(hist.data());

  const auto t0 = std::chrono::steady_clock::now();
  apps::histogram::run(sched, Image, Hist, sz.hist_iters,
                       apps::histogram::Scheme::Maps);
  sched.WaitAll();

  Run r;
  r.wall_ms = wall_ms_since(t0);
  r.sim_ms = node.now_ms();
  r.digest = fnv1a(hist.data(), hist.size() * sizeof(int));
  r.chunks = sched.stats().exec.chunks_executed;
  r.cells = W * H * static_cast<std::uint64_t>(sz.hist_iters);
  return r;
}

Run run_gemm_chain(unsigned exec_threads, const Sizes& sz) {
  const std::size_t n = sz.gemm_n;
  std::mt19937 rng(91);
  std::uniform_real_distribution<float> dist(-0.05f, 0.05f);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = dist(rng);
    b[i] = dist(rng);
  }
  b[0] += 1.0f; // keep the chain numerically tame
  sim::Node node(sim::homogeneous_node(sim::titan_black(), kGpus));
  Scheduler sched(node);
  sched.set_exec_threads(exec_threads);
  Matrix<float> A(n, n, "A"), B(n, n, "B"), C(n, n, "C");
  A.Bind(a.data());
  B.Bind(b.data());
  C.Bind(c.data());

  const auto t0 = std::chrono::steady_clock::now();
  simblas::Gemm(sched, A, B, C);
  std::uint64_t gemms = 1;
  for (int i = 1; i < sz.gemm_chain; i += 2) {
    simblas::Gemm(sched, C, B, A);
    simblas::Gemm(sched, A, B, C);
    gemms += 2;
  }
  sched.WaitAll();
  sched.Gather(C);

  Run r;
  r.wall_ms = wall_ms_since(t0);
  r.sim_ms = node.now_ms();
  r.digest = fnv1a(c.data(), c.size() * sizeof(float));
  r.chunks = sched.stats().exec.chunks_executed;
  r.cells = n * n * gemms;
  return r;
}

/// Best-of-`reps` wall clock (standard minimum-of-N protocol); digest and
/// sim_ms must agree across repetitions or the config itself is broken.
template <typename F>
Run best_of(int reps, unsigned exec_threads, const Sizes& sz, F&& f) {
  Run best = f(exec_threads, sz);
  for (int i = 1; i < reps; ++i) {
    Run r = f(exec_threads, sz);
    if (r.digest != best.digest || r.sim_ms != best.sim_ms) {
      std::fprintf(stderr,
                   "FATAL: repetition disagrees with itself at %u threads\n",
                   exec_threads);
      std::exit(1);
    }
    if (r.wall_ms < best.wall_ms) {
      best = r;
    }
  }
  return best;
}

struct Workload {
  const char* name;
  Run (*fn)(unsigned, const Sizes&);
};

bool check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
  }
  return ok;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_exec_wallclock.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const Sizes sz = smoke ? Sizes{384, 768, 192, 4, 2, 4}
                         : Sizes{768, 1536, 320, 6, 3, 6};
  const int reps = smoke ? 2 : 3;
  const unsigned native = std::max(1u, std::thread::hardware_concurrency());

  bench::print_setup_header(
      "Functional execution backend: host wall-clock vs exec threads");
  std::printf("host threads available: %u\n", native);

  // Fixed thread counts land in the JSON (digests, sim times and chunk
  // counts are machine-independent there); the native row is print-only.
  const unsigned fixed[] = {0, 1, 2, 4};
  const Workload workloads[] = {
      {"game_of_life", run_gol},
      {"histogram", run_histogram},
      {"gemm_chain", run_gemm_chain},
  };

  struct Row {
    Run fixed_runs[4];
    Run native_run;
  };
  Row rows[std::size(workloads)];

  for (std::size_t w = 0; w < std::size(workloads); ++w) {
    for (std::size_t t = 0; t < std::size(fixed); ++t) {
      rows[w].fixed_runs[t] = best_of(reps, fixed[t], sz, workloads[w].fn);
    }
    rows[w].native_run = best_of(reps, native, sz, workloads[w].fn);

    const Run& seq = rows[w].fixed_runs[0];
    std::printf("\n%s (sim %.3f ms)\n", workloads[w].name, seq.sim_ms);
    std::printf("  %-10s %12s %10s %10s %8s\n", "threads", "wall ms",
                "speedup", "chunks", "bits");
    const auto row = [&](const char* label, const Run& r) {
      std::printf("  %-10s %12.2f %9.2fx %10llu %8s\n", label, r.wall_ms,
                  seq.wall_ms / r.wall_ms,
                  static_cast<unsigned long long>(r.chunks),
                  r.digest == seq.digest ? "same" : "DIFFER");
    };
    row("seq", rows[w].fixed_runs[0]);
    row("1", rows[w].fixed_runs[1]);
    row("2", rows[w].fixed_runs[2]);
    row("4", rows[w].fixed_runs[3]);
    char native_label[24];
    std::snprintf(native_label, sizeof native_label, "native %u", native);
    row(native_label, rows[w].native_run);
    // The sequential backend runs every kernel body on this thread, so this
    // rate reads the functional-sweep layer (plus the run's small fixed
    // planning and copy cost) without a trace.
    std::fprintf(stderr, "%s: sequential sweep %.1f Mcells/s\n",
                 workloads[w].name,
                 static_cast<double>(seq.cells) / (seq.wall_ms * 1e3));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"exec_wallclock\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"gpus\": %d,\n  \"workloads\": {\n", kGpus);
  for (std::size_t w = 0; w < std::size(workloads); ++w) {
    const Run& seq = rows[w].fixed_runs[0];
    std::fprintf(f, "    \"%s\": {\n", workloads[w].name);
    for (std::size_t t = 0; t < std::size(fixed); ++t) {
      const Run& r = rows[w].fixed_runs[t];
      std::fprintf(f,
                   "      \"t%u\": {\"digest\": \"%016llx\", \"sim_ms\": %.6f, "
                   "\"chunks_executed\": %llu, \"wall_ms\": %.3f, "
                   "\"wall_speedup\": %.3f},\n",
                   fixed[t], static_cast<unsigned long long>(r.digest),
                   r.sim_ms, static_cast<unsigned long long>(r.chunks),
                   r.wall_ms, seq.wall_ms / r.wall_ms);
    }
    std::fprintf(f, "      \"bit_identical\": %s,\n",
                 (rows[w].fixed_runs[1].digest == seq.digest &&
                  rows[w].fixed_runs[2].digest == seq.digest &&
                  rows[w].fixed_runs[3].digest == seq.digest &&
                  rows[w].native_run.digest == seq.digest)
                     ? "true"
                     : "false");
    std::fprintf(f, "      \"sim_identical\": %s\n    }%s\n",
                 (rows[w].fixed_runs[1].sim_ms == seq.sim_ms &&
                  rows[w].fixed_runs[2].sim_ms == seq.sim_ms &&
                  rows[w].fixed_runs[3].sim_ms == seq.sim_ms &&
                  rows[w].native_run.sim_ms == seq.sim_ms)
                     ? "true"
                     : "false",
                 w + 1 < std::size(workloads) ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (smoke) {
    bool ok = true;
    for (std::size_t w = 0; w < std::size(workloads); ++w) {
      const Run& seq = rows[w].fixed_runs[0];
      for (const Run& r : rows[w].fixed_runs) {
        ok &= check(r.digest == seq.digest, "results not bit-identical");
        ok &= check(r.sim_ms == seq.sim_ms, "simulated time differs");
      }
      ok &= check(rows[w].native_run.digest == seq.digest,
                  "native-thread results not bit-identical");
      ok &= check(rows[w].fixed_runs[2].chunks > 0,
                  "2-thread run executed no pool jobs");
    }
    // The wall-clock claim needs real cores; single-core CI shards can only
    // check the determinism contract above.
    if (std::thread::hardware_concurrency() >= 4) {
      for (std::size_t w = 0; w + 1 < std::size(workloads); ++w) { // sweeps
        const Row& r = rows[w];
        ok &= check(r.fixed_runs[0].wall_ms >= 1.2 * r.fixed_runs[3].wall_ms,
                    "4-thread speedup below 1.2x on a >=4-core host");
      }
    }
    return ok ? 0 : 1;
  }
  return 0;
}

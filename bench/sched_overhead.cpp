// Scheduler host-side overhead: steady-state task-plan caching (DESIGN.md
// §Scheduler, EXPERIMENTS.md §"Plan caching").
//
// Unlike the fig* benches, this one measures *host wall-clock* spent inside
// the Scheduler, not simulated GPU time: the per-Invoke cost of partitioning,
// boundary analysis and copy planning in a steady-state loop, with the plan
// cache enabled vs disabled. Two workloads: the Game of Life double-buffered
// loop (two alternating task shapes) and the NMF multiplicative-update loop
// (a longer mixed pipeline with aggregations). Writes BENCH_sched_overhead.json
// next to the working directory (override with --out <path>).
//
// --smoke runs 100 iterations (enough for the steady state to dominate the
// first few builds) and asserts the cache hits and wins; wired as the
// `perf_smoke` ctest label.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/game_of_life.hpp"
#include "bench/bench_common.hpp"
#include "multi/maps_multi.hpp"
#include "nmf/nmf.hpp"

namespace {

using namespace maps::multi;

struct Run {
  SchedulerStats stats;
  double sim_ms = 0;       // simulated time — must not depend on the cache
  double wall_us = 0;      // host wall-clock for the whole loop
  std::uint64_t tasks = 0; // Invokes issued
  std::size_t live_intervals = 0;

  // Host-side planning cost per task: time spent building or replaying
  // plans, the quantity the cache is meant to shrink.
  double plan_us_per_task() const {
    return tasks == 0 ? 0
                      : (stats.plan_time_us + stats.replay_time_us) /
                            static_cast<double>(tasks);
  }
};

double wall_us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Run run_gol(bool cache_on, int iterations, int gpus) {
  sim::Node node(sim::homogeneous_node(sim::titan_black(), gpus),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  if (!cache_on) {
    sched.set_plan_cache_capacity(0);
  }

  std::vector<int> dummy(1);
  Matrix<int> a(2048, 2048, "A"), b(2048, 2048, "B");
  a.Bind(dummy.data());
  b.Bind(dummy.data());
  using Tick = apps::gol::MapsTick<1, 1>;
  sched.AnalyzeCall(Tick::Win(a), Tick::Out(b));
  sched.AnalyzeCall(Tick::Win(b), Tick::Out(a));

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    if (i % 2 == 0) {
      sched.Invoke(Tick{}, Tick::Win(a), Tick::Out(b));
    } else {
      sched.Invoke(Tick{}, Tick::Win(b), Tick::Out(a));
    }
  }
  sched.WaitAll();

  Run r;
  r.wall_us = wall_us_since(t0);
  r.stats = sched.stats();
  r.sim_ms = node.now_ms();
  r.tasks = static_cast<std::uint64_t>(iterations);
  r.live_intervals = sched.live_dependency_intervals();
  return r;
}

Run run_nmf(bool cache_on, int iterations, int gpus) {
  sim::Node node(sim::homogeneous_node(sim::titan_black(), gpus),
                 sim::ExecMode::TimingOnly);
  Scheduler sched(node);
  if (!cache_on) {
    sched.set_plan_cache_capacity(0);
  }

  std::vector<float> v(1), w, h; // TimingOnly: backing never touched
  nmf::Shape shape;
  shape.n = 4096; // trimmed from the paper's 16K: planning cost is
  shape.m = 1024; // size-independent, keep the bench quick
  const auto t0 = std::chrono::steady_clock::now();
  const nmf::Result res = nmf::run_maps(sched, v, w, h, shape, iterations);

  Run r;
  r.wall_us = wall_us_since(t0);
  r.stats = sched.stats();
  r.sim_ms = res.sim_ms;
  r.tasks = r.stats.plans_built + r.stats.cache_hits;
  r.live_intervals = sched.live_dependency_intervals();
  return r;
}

void print_pair(const char* workload, const Run& off, const Run& on) {
  std::printf("\n%s (%llu tasks)\n", workload,
              static_cast<unsigned long long>(off.tasks));
  std::printf("  %-12s %16s %16s %10s %10s %12s\n", "cache", "plan us/task",
              "wall us/task", "hits", "built", "live ivals");
  const auto row = [](const char* name, const Run& r) {
    std::printf("  %-12s %16.2f %16.2f %10llu %10llu %12zu\n", name,
                r.plan_us_per_task(),
                r.wall_us / static_cast<double>(r.tasks),
                static_cast<unsigned long long>(r.stats.cache_hits),
                static_cast<unsigned long long>(r.stats.plans_built),
                r.live_intervals);
  };
  row("off", off);
  row("on", on);
  std::printf("  planning speedup: %.2fx   (sim time %s: %.3f ms)\n",
              off.plan_us_per_task() / on.plan_us_per_task(),
              off.sim_ms == on.sim_ms ? "identical" : "MISMATCH",
              on.sim_ms);
}

void json_run(std::FILE* f, const char* key, const Run& r) {
  std::fprintf(
      f,
      "      \"%s\": {\"plan_us_per_task\": %.3f, \"wall_us_per_task\": %.3f, "
      "\"plan_time_us\": %.1f, \"replay_time_us\": %.1f, \"tasks\": %llu, "
      "\"plans_built\": %llu, \"cache_hits\": %llu, \"cache_misses\": %llu, "
      "\"live_dependency_intervals\": %zu, \"sim_ms\": %.6f}",
      key, r.plan_us_per_task(), r.wall_us / static_cast<double>(r.tasks),
      r.stats.plan_time_us, r.stats.replay_time_us,
      static_cast<unsigned long long>(r.tasks),
      static_cast<unsigned long long>(r.stats.plans_built),
      static_cast<unsigned long long>(r.stats.cache_hits),
      static_cast<unsigned long long>(r.stats.cache_misses), r.live_intervals,
      r.sim_ms);
}

struct Workload {
  const char* name;
  Run off, on;
};

// The loop body allocates nothing in steady state, but the process does:
// first-touch pages, allocator warmup and CPU noise inflate single runs by
// 2x or more. Repeat each configuration and keep the repetition with the
// lowest planning cost — the standard minimum-of-N wall-clock protocol.
// The off/on repetitions are interleaved so a noise burst (VM steal, CPU
// migration) lands on both configurations instead of poisoning every
// repetition of one of them.
template <typename F> Workload best_pair(const char* name, int reps, F&& run) {
  Workload w{name, run(false), run(true)};
  for (int r = 1; r < reps; ++r) {
    Run off = run(false);
    if (off.plan_us_per_task() < w.off.plan_us_per_task()) {
      w.off = off;
    }
    Run on = run(true);
    if (on.plan_us_per_task() < w.on.plan_us_per_task()) {
      w.on = on;
    }
  }
  return w;
}

bool check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
  }
  return ok;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sched_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const int gol_iters = smoke ? 100 : 1000;
  const int nmf_iters = smoke ? 25 : 250; // ~4 tasks per NMF iteration
  const int gpus = 4;

  bench::print_setup_header(
      "Scheduler overhead: steady-state plan caching (host wall-clock)");

  const int reps = smoke ? 2 : 5;
  Workload workloads[] = {
      best_pair("game_of_life", reps,
                [&](bool on) { return run_gol(on, gol_iters, gpus); }),
      best_pair("nmf", reps,
                [&](bool on) { return run_nmf(on, nmf_iters, gpus); }),
  };
  for (const Workload& w : workloads) {
    print_pair(w.name, w.off, w.on);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sched_overhead\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"gpus\": %d,\n  \"workloads\": {\n", gpus);
  for (std::size_t i = 0; i < std::size(workloads); ++i) {
    const Workload& w = workloads[i];
    std::fprintf(f, "    \"%s\": {\n", w.name);
    json_run(f, "cache_off", w.off);
    std::fprintf(f, ",\n");
    json_run(f, "cache_on", w.on);
    std::fprintf(f, ",\n      \"planning_speedup\": %.3f\n    }%s\n",
                 w.off.plan_us_per_task() / w.on.plan_us_per_task(),
                 i + 1 < std::size(workloads) ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (smoke) {
    bool ok = true;
    for (const Workload& w : workloads) {
      ok &= check(w.on.stats.cache_hits >= 5, "expected >= 5 cache hits");
      ok &= check(w.off.sim_ms == w.on.sim_ms,
                  "simulated time differs cache on vs off");
      ok &= check(w.off.plan_us_per_task() >= 1.5 * w.on.plan_us_per_task(),
                  "planning speedup below 1.5x");
      ok &= check(w.on.stats.uncacheable_tasks == 0,
                  "steady-state tasks should all be cacheable");
    }
    return ok ? 0 : 1;
  }
  return 0;
}

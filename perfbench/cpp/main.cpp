// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--inject none|flip_cell|unbalanced_ledger]
//
// Runs one workload (workloads.hpp) in epochs until at least `--seconds` of
// measured steps, checks its outputs, and prints one JSON object as the last
// line of standard output: end-to-end metrics, per-layer metrics, operation
// counts and a host manifest. End-to-end metrics come from untraced epochs.
// With --trace 1, epochs alternate untraced and traced; per-layer host times
// come from the traced ones, and the first traced epoch is written out as
// Chrome trace-event JSON. perfbench/run.py builds and drives this binary;
// perfbench/README.md defines every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kMinWarmupSteps = 2;
constexpr int kMaxWarmupSteps = 8;
constexpr int kSimTraceSteps = 2;
// A run ends after this much wall time even if it measured less than
// --seconds, so it exits well within three minutes on a contended host.
constexpr double kWallCapSeconds = 120.0;

// Counters read from SchedulerStats and sim::SimStats. The simulated ones
// are deterministic: equal across epochs, seeds and hosts.
#define PERFBENCH_SIM_COUNTERS(X)                                              \
  X(sim_ms)                                                                    \
  X(kernels)                                                                   \
  X(copies)                                                                    \
  X(host_funcs)                                                                \
  X(bytes_h2d)                                                                 \
  X(bytes_d2h)                                                                 \
  X(bytes_p2p_same_bus)                                                        \
  X(bytes_p2p_cross_bus)                                                       \
  X(bytes_host_staged)                                                         \
  X(kernel_s)                                                                  \
  X(copy_s)                                                                    \
  X(uplink_s)                                                                  \
  X(downlink_s)                                                                \
  X(socket_s)                                                                  \
  X(plans_built)                                                               \
  X(cache_hits)                                                                \
  X(cache_misses)                                                              \
  X(copies_issued)                                                             \
  X(copies_chunked)                                                            \
  X(copies_rerouted)                                                           \
  X(candidates_scanned)                                                        \
  X(transfer_bytes)                                                            \
  X(streamed_tasks)                                                            \
  X(pass_count)                                                                \
  X(evictions)                                                                 \
  X(refills)                                                                   \
  X(bytes_spilled)                                                             \
  X(bytes_refilled)                                                            \
  X(spill_transfer_bytes)
#define PERFBENCH_HOST_COUNTERS(X)                                             \
  X(plan_time_us)                                                              \
  X(replay_time_us)                                                            \
  X(monitor_plan_us)                                                           \
  X(route_plan_us)                                                             \
  X(chunks_executed)                                                           \
  X(chunks_stolen)                                                             \
  X(idle_waits)

struct Counters {
#define PERFBENCH_FIELD(n) double n = 0;
  PERFBENCH_SIM_COUNTERS(PERFBENCH_FIELD)
  PERFBENCH_HOST_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD
  std::vector<double> device_compute_s;

  Counters& operator+=(const Counters& o) {
#define PERFBENCH_ADD(n) n += o.n;
    PERFBENCH_SIM_COUNTERS(PERFBENCH_ADD)
    PERFBENCH_HOST_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    device_compute_s.resize(
        std::max(device_compute_s.size(), o.device_compute_s.size()));
    for (std::size_t i = 0; i < o.device_compute_s.size(); ++i) {
      device_compute_s[i] += o.device_compute_s[i];
    }
    return *this;
  }

  Counters operator-(const Counters& o) const {
    Counters d = *this;
#define PERFBENCH_SUB(n) d.n -= o.n;
    PERFBENCH_SIM_COUNTERS(PERFBENCH_SUB)
    PERFBENCH_HOST_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
    for (std::size_t i = 0;
         i < std::min(d.device_compute_s.size(), o.device_compute_s.size());
         ++i) {
      d.device_compute_s[i] -= o.device_compute_s[i];
    }
    return d;
  }

  bool same_simulation(const Counters& o) const {
    bool same = device_compute_s == o.device_compute_s;
#define PERFBENCH_EQ(n) same = same && n == o.n;
    PERFBENCH_SIM_COUNTERS(PERFBENCH_EQ)
#undef PERFBENCH_EQ
    return same;
  }
};

Counters read_counters(Workload& w) {
  const maps::multi::SchedulerStats& s = w.scheduler().stats();
  const sim::SimStats& n = w.node().stats();
  Counters c;
  c.sim_ms = w.node().now_ms();
  c.kernels = static_cast<double>(n.kernels_launched);
  c.copies = static_cast<double>(n.copies);
  c.host_funcs = static_cast<double>(n.host_funcs);
  c.bytes_h2d = static_cast<double>(n.bytes_h2d);
  c.bytes_d2h = static_cast<double>(n.bytes_d2h);
  c.bytes_p2p_same_bus = static_cast<double>(n.bytes_p2p_same_bus);
  c.bytes_p2p_cross_bus = static_cast<double>(n.bytes_p2p_cross_bus);
  c.bytes_host_staged = static_cast<double>(n.bytes_host_staged);
  c.kernel_s = n.kernel_seconds;
  c.copy_s = n.copy_seconds;
  c.uplink_s = n.host_uplink_busy_seconds;
  c.downlink_s = n.host_downlink_busy_seconds;
  c.socket_s = n.socket_link_busy_seconds;
  c.device_compute_s = n.device_compute_seconds;
  c.plans_built = static_cast<double>(s.plans_built);
  c.cache_hits = static_cast<double>(s.cache_hits);
  c.cache_misses = static_cast<double>(s.cache_misses);
  c.copies_issued = s.transfers.copies_issued;
  c.copies_chunked = s.transfers.copies_chunked;
  c.copies_rerouted = s.transfers.copies_rerouted;
  c.candidates_scanned = static_cast<double>(s.transfers.candidates_scanned);
  c.transfer_bytes = static_cast<double>(s.transfers.bytes_total());
  c.streamed_tasks = static_cast<double>(s.spill.streamed_tasks);
  c.pass_count = static_cast<double>(s.spill.pass_count);
  c.evictions = static_cast<double>(s.spill.evictions);
  c.refills = static_cast<double>(s.spill.refills);
  c.bytes_spilled = static_cast<double>(s.spill.bytes_spilled);
  c.bytes_refilled = static_cast<double>(s.spill.bytes_refilled);
  c.spill_transfer_bytes = static_cast<double>(s.spill.transfers.bytes_total());
  c.plan_time_us = s.plan_time_us;
  c.replay_time_us = s.replay_time_us;
  c.monitor_plan_us = s.monitor_plan_us;
  c.route_plan_us = s.route_plan_us;
  c.chunks_executed = static_cast<double>(s.exec.chunks_executed);
  c.chunks_stolen = static_cast<double>(s.exec.chunks_stolen);
  c.idle_waits = static_cast<double>(s.exec.idle_waits);
  return c;
}

/// Linear-interpolated quantile of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// One untraced epoch's timings.
struct EpochTiming {
  double setup_s = 0;
  double rate = 0; ///< tasks per second of measured steps
  std::vector<double> step_ms;
};

/// Everything one run measured, before it becomes metrics.
struct RunData {
  std::vector<EpochTiming> timed; ///< untraced epochs
  double untraced_s = 0, traced_s = 0;
  std::uint64_t untraced_steps = 0, traced_steps = 0;
  int epochs = 0, traced_epochs = 0;
  OpCount ops;
  bool correct = true;
  bool window_set = false;
  Counters window;      ///< first epoch's leading sim_window_steps
  Counters first_epoch; ///< first epoch, set-up through last measured step
  Counters traced;      ///< traced epochs, measured steps only
  Counters traced_setup; ///< traced epochs, set-up only
  std::vector<sim::TraceEvent> sim_trace;
  std::vector<std::string> errors;
  // Node shape, for normalising busy times into fractions.
  int gpus = 0, buses = 0, socket_links = 0;
};

/// Warm-up: steps until a step builds no plan and moves the same spill
/// bytes as the one before it (plan cache and residency settled).
void warm_up(Workload& w, Tracer& tracer, int epoch) {
  Counters prev = read_counters(w);
  double prev_spill = -1.0;
  for (int i = 0; i < kMaxWarmupSteps; ++i) {
    tracer.set_context(epoch, -1 - i, Phase::Setup);
    const int span = tracer.open("step");
    w.step(tracer);
    tracer.close(span);
    const Counters now = read_counters(w);
    const double spill = (now.bytes_spilled + now.bytes_refilled) -
                         (prev.bytes_spilled + prev.bytes_refilled);
    const bool built = now.plans_built != prev.plans_built ||
                       now.cache_misses != prev.cache_misses;
    if (i + 1 >= kMinWarmupSteps && !built && spill == prev_spill) {
      return;
    }
    prev = now;
    prev_spill = spill;
  }
}

/// One epoch: fresh set-up, epoch_steps measured and checked steps,
/// teardown. Throws whatever the scheduler throws.
void run_epoch(Workload& w, Tracer& tracer, RunData& run, bool traced,
               bool capture_sim_trace) {
  const WorkloadInfo& info = w.info();
  const int e = run.epochs;
  const std::uint64_t ops_per_step = info.tasks_per_step + info.gathers_per_step;
  tracer.set_enabled(traced);
  w.prepare();

  tracer.set_context(e, -1, Phase::Setup);
  const Clock::time_point setup_t0 = Clock::now();
  const int setup_span = tracer.open("setup");
  w.build(tracer);
  warm_up(w, tracer, e);
  tracer.close(setup_span);
  const double setup_s = seconds_since(setup_t0);

  const Counters start = read_counters(w);
  if (run.epochs == 0) {
    const sim::Topology& topo = w.node().topology();
    run.gpus = w.node().device_count();
    run.buses = topo.bus_count();
    run.socket_links = 2 * topo.cluster_nodes(); // one per direction
  }
  std::vector<bool> step_failed(static_cast<std::size_t>(info.epoch_steps));
  std::vector<double> step_ms;
  double measured_s = 0;
  for (int s = 0; s < info.epoch_steps; ++s) {
    tracer.set_context(e, s, Phase::Measure);
    const Clock::time_point t0 = Clock::now();
    const int span = tracer.open("step");
    run.ops.attempted += ops_per_step; // counted first: a throw fails them
    w.step(tracer);
    tracer.close(span);
    const double dt = seconds_since(t0);
    measured_s += dt;
    step_ms.push_back(dt * 1e3);
    if (s + 1 == info.sim_window_steps) {
      const Counters window = read_counters(w) - start;
      if (!run.window_set) {
        run.window = window;
        run.window_set = true;
      } else if (!window.same_simulation(run.window)) {
        run.errors.push_back("simulated counters differ between epochs");
        std::fill(step_failed.begin(), step_failed.end(), true);
      }
    }
    if (!w.check_step()) {
      step_failed[static_cast<std::size_t>(s)] = true;
    }
  }
  const Counters end = read_counters(w);
  if (capture_sim_trace) {
    // Untimed extra steps (excluded from every metric) for the simulated
    // timeline of the Chrome trace.
    w.node().enable_trace(true);
    for (int s = 0; s < kSimTraceSteps; ++s) {
      tracer.set_context(e, info.epoch_steps + s, Phase::Measure);
      const int span = tracer.open("step");
      w.step(tracer);
      tracer.close(span);
    }
    run.sim_trace = w.node().trace();
    w.node().enable_trace(false);
    w.node().clear_trace();
  }
  if (!w.check_epoch()) {
    run.errors.push_back("end-of-epoch output check failed");
    std::fill(step_failed.begin(), step_failed.end(), true);
  }
  w.teardown();

  const std::uint64_t failed_steps = static_cast<std::uint64_t>(
      std::count(step_failed.begin(), step_failed.end(), true));
  run.ops.failed += failed_steps * ops_per_step;
  if (run.epochs == 0) {
    run.first_epoch = end;
  }
  if (traced) {
    run.traced += end - start;
    run.traced_setup += start;
    run.traced_s += measured_s;
    run.traced_steps += static_cast<std::uint64_t>(info.epoch_steps);
    ++run.traced_epochs;
  } else {
    run.timed.push_back(
        {setup_s,
         static_cast<double>(info.epoch_steps * info.tasks_per_step) /
             measured_s,
         std::move(step_ms)});
    run.untraced_s += measured_s;
    run.untraced_steps += static_cast<std::uint64_t>(info.epoch_steps);
  }
  ++run.epochs;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// The fastest quarter of the untraced epochs by throughput. The host is a
/// shared VM: other tenants slow it by up to 2x in bursts lasting from a
/// fraction of a second to minutes, so a run's median epoch moves with the
/// share of the run a burst covers. Every epoch runs identical work, so the
/// fastest epochs measure the program itself: the min-of-N protocol of
/// bench/sched_overhead, applied per epoch.
std::vector<const EpochTiming*> quiet_epochs(const RunData& run) {
  std::vector<const EpochTiming*> epochs;
  for (const EpochTiming& t : run.timed) {
    epochs.push_back(&t);
  }
  std::sort(epochs.begin(), epochs.end(),
            [](const EpochTiming* a, const EpochTiming* b) {
              return a->rate > b->rate;
            });
  epochs.resize((epochs.size() + 3) / 4);
  return epochs;
}

/// Medians over the quiet epochs of their throughput, per-epoch median and
/// p90 step time, and set-up time.
Metrics end_to_end(const std::vector<const EpochTiming*>& quiet) {
  std::vector<double> rates, p50s, p90s, setups;
  for (const EpochTiming* t : quiet) {
    rates.push_back(t->rate);
    p50s.push_back(quantile(t->step_ms, 0.5));
    p90s.push_back(quantile(t->step_ms, 0.9));
    setups.push_back(t->setup_s);
  }
  Metrics m;
  m["tasks_per_s"] = {quantile(rates, 0.5), "tasks/s"};
  m["step_ms_p50"] = {quantile(p50s, 0.5), "ms"};
  m["step_ms_p90"] = {quantile(p90s, 0.5), "ms"};
  m["setup_s"] = {quantile(setups, 0.5), "s"};
  m["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  return m;
}

/// Span aggregates over the traced epochs' measured steps.
struct SpanTotals {
  std::map<std::string, std::pair<double, std::uint64_t>> by_name; // us, n
  double analyze_us = 0;
  std::uint64_t analyze_n = 0;
  double streamed_us = 0;
  std::uint64_t streamed_n = 0;
  double step_us = 0, child_us = 0;

  double mean(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0
                               : ratio(it->second.first,
                                       static_cast<double>(it->second.second));
  }
  double total(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.first;
  }
};

SpanTotals span_totals(const std::vector<Span>& spans, int epoch_steps) {
  SpanTotals t;
  const auto measured = [&](const Span& s) {
    return s.phase == Phase::Measure && s.step < epoch_steps;
  };
  for (const Span& s : spans) {
    if (s.phase == Phase::Setup && std::strcmp(s.name, "AnalyzeCall") == 0) {
      t.analyze_us += s.us();
      ++t.analyze_n;
    }
    if (!measured(s)) {
      continue;
    }
    if (s.parent < 0 && std::strcmp(s.name, "step") == 0) {
      t.step_us += s.us();
      continue;
    }
    auto& [us, n] = t.by_name[s.name];
    us += s.us();
    ++n;
    if (s.streamed) {
      t.streamed_us += s.us();
      ++t.streamed_n;
    }
    if (s.parent >= 0 &&
        std::strcmp(spans[static_cast<std::size_t>(s.parent)].name, "step") ==
            0) {
      t.child_us += s.us();
    }
  }
  return t;
}

Metrics per_layer(const WorkloadInfo& info, const RunData& run,
                  const Tracer& tracer) {
  Metrics m;
  const SpanTotals sp = span_totals(tracer.spans(), info.epoch_steps);
  const Counters& T = run.traced;
  const Counters& S = run.traced_setup;
  const Counters& W = run.window;
  const double w_steps = info.sim_window_steps;
  const double w_tasks = w_steps * static_cast<double>(info.tasks_per_step);
  const double t_tasks = static_cast<double>(run.traced_steps) *
                         static_cast<double>(info.tasks_per_step);
  const double sim_s = W.sim_ms * 1e-3;
  const double invoke_us =
      ratio(sp.total("Invoke") + sp.total("InvokeUnmodified"), t_tasks);
  // Blocking calls drain the node; that is where kernel bodies run.
  const double blocking_us = sp.total("WaitAll") + sp.total("Gather");
  const double t_commands = T.kernels + T.copies + T.host_funcs;

  m["sim_step_ms"] = {W.sim_ms / w_steps, "sim_ms"};
  m["fail_rate"] = {ratio(static_cast<double>(run.ops.failed),
                          static_cast<double>(run.ops.attempted)),
                    "fraction"};

  m["scheduler.invoke_us"] = {invoke_us, "us"};
  m["scheduler.replay_us"] = {ratio(T.replay_time_us, T.cache_hits), "us"};
  m["scheduler.dispatch_us"] = {
      invoke_us - ratio(T.plan_time_us + T.replay_time_us, t_tasks), "us"};
  m["scheduler.wait_us"] = {sp.mean("WaitAll"), "us"};
  m["scheduler.gather_us"] = {sp.mean("Gather"), "us"};
  m["scheduler.mark_host_modified_us"] = {sp.mean("MarkHostModified"), "us"};
  m["scheduler.cache_hit_ratio"] = {ratio(T.cache_hits, t_tasks), "fraction"};
  m["scheduler.plans_built"] = {run.first_epoch.plans_built, "count"};

  m["scheduler.analyze_us"] = {
      ratio(sp.analyze_us, static_cast<double>(sp.analyze_n)), "us"};
  m["scheduler.build_us"] = {ratio(S.plan_time_us, S.plans_built), "us"};
  m["monitor.plan_us"] = {ratio(S.monitor_plan_us, S.plans_built), "us"};
  m["planner.route_us"] = {ratio(S.route_plan_us, S.plans_built), "us"};
  m["planner.candidates_scanned"] = {run.first_epoch.candidates_scanned,
                                     "count"};
  m["transfer.copies_issued_per_task"] = {ratio(W.copies_issued, w_tasks),
                                          "count/task"};
  m["transfer.copies_chunked"] = {ratio(W.copies_chunked, w_tasks),
                                  "count/task"};
  m["transfer.copies_rerouted"] = {ratio(W.copies_rerouted, w_tasks),
                                   "count/task"};
  m["transfer.mb_per_step"] = {W.transfer_bytes / kMiB / w_steps, "MiB"};

  m["sim.commands_per_task"] = {
      ratio(W.kernels + W.copies + W.host_funcs, w_tasks), "count/task"};
  m["sim.wait_ns_per_command"] = {ratio(blocking_us * 1e3, t_commands), "ns"};
  m["sim.kernel_busy_frac"] = {ratio(W.kernel_s, run.gpus * sim_s),
                               "fraction"};
  m["sim.copy_busy_frac"] = {ratio(W.copy_s, run.gpus * sim_s), "fraction"};
  m["sim.h2d_mb"] = {W.bytes_h2d / kMiB / w_steps, "MiB"};
  m["sim.d2h_mb"] = {W.bytes_d2h / kMiB / w_steps, "MiB"};
  m["sim.p2p_same_bus_mb"] = {W.bytes_p2p_same_bus / kMiB / w_steps, "MiB"};
  m["sim.p2p_cross_bus_mb"] = {W.bytes_p2p_cross_bus / kMiB / w_steps, "MiB"};
  m["sim.host_staged_mb"] = {W.bytes_host_staged / kMiB / w_steps, "MiB"};
  m["sim.host_uplink_busy_frac"] = {ratio(W.uplink_s, run.buses * sim_s),
                                    "fraction"};
  m["sim.host_downlink_busy_frac"] = {ratio(W.downlink_s, run.buses * sim_s),
                                      "fraction"};
  m["sim.socket_link_busy_frac"] = {
      ratio(W.socket_s, run.socket_links * sim_s), "fraction"};
  double max_c = 0, sum_c = 0;
  for (const double c : W.device_compute_s) {
    max_c = std::max(max_c, c);
    sum_c += c;
  }
  m["sim.compute_imbalance"] = {
      ratio(max_c, sum_c / static_cast<double>(
                               std::max<std::size_t>(1, W.device_compute_s.size()))),
      "ratio"};

  m["exec.chunks_per_task"] = {ratio(T.chunks_executed, t_tasks), "count/task"};
  m["exec.steal_ratio"] = {ratio(T.chunks_stolen, T.chunks_executed),
                           "fraction"};
  m["exec.idle_waits_per_task"] = {ratio(T.idle_waits, t_tasks), "count/task"};
  m["exec.mcells_per_s"] = {
      ratio(static_cast<double>(info.cells_per_step) *
                static_cast<double>(run.traced_steps),
            blocking_us),
      "Mcells/s"};

  m["spill.streamed_tasks"] = {W.streamed_tasks / w_steps, "count/step"};
  m["spill.passes_per_task"] = {ratio(W.pass_count, W.streamed_tasks),
                                "count/task"};
  m["spill.evictions"] = {W.evictions / w_steps, "count/step"};
  m["spill.refills"] = {W.refills / w_steps, "count/step"};
  m["spill.spilled_mb_per_step"] = {W.bytes_spilled / kMiB / w_steps, "MiB"};
  m["spill.refilled_mb_per_step"] = {W.bytes_refilled / kMiB / w_steps, "MiB"};
  m["spill.streamed_invoke_us"] = {
      ratio(sp.streamed_us, static_cast<double>(sp.streamed_n)), "us"};
  m["spill.ledger_balanced"] = {
      W.spill_transfer_bytes == W.bytes_spilled + W.bytes_refilled ? 1.0 : 0.0,
      "bool"};

  const double untraced_rate = ratio(
      static_cast<double>(run.untraced_steps), run.untraced_s);
  const double traced_rate =
      ratio(static_cast<double>(run.traced_steps), run.traced_s);
  m["trace.overhead_frac"] = {ratio(untraced_rate, traced_rate) - 1.0,
                              "fraction"};
  m["trace.step_coverage"] = {ratio(sp.child_us, sp.step_us), "fraction"};
  return m;
}

// --- output -----------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  for (const auto& [name, metric] : m) {
    if (s.size() > 1) {
      s += ", ";
    }
    s += "\"" + name + "\": {\"value\": " + num(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  return s + "}";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  Inject inject = Inject::None;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--inject") {
      if (val == "flip_cell") {
        a.inject = Inject::FlipCell;
      } else if (val == "unbalanced_ledger") {
        a.inject = Inject::UnbalancedLedger;
      } else if (val != "none") {
        return false;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

int run_main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>] "
                 "[--inject none|flip_cell|unbalanced_ledger]\n");
    return 2;
  }
  Config cfg;
  cfg.seed = args.seed;
  cfg.exec_threads = std::min(4u, host_cpus());
  cfg.inject = args.inject;
  std::unique_ptr<Workload> w = make_workload(args.workload, cfg);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadInfo& info = w->info();

  RunData run;
  Tracer tracer;
  const Clock::time_point start = Clock::now();
  try {
    const OpCount check = w->check_pass();
    run.ops.attempted += check.attempted;
    run.ops.failed += check.failed;
    if (check.failed != 0) {
      run.errors.push_back("reduced-size functional check failed");
    }
    const int min_epochs = 4;
    for (;;) {
      const bool traced = args.trace && run.epochs % 2 == 1;
      run_epoch(*w, tracer, run, traced,
                traced && run.traced_epochs == 0 && !args.trace_out.empty());
      const bool enough = run.untraced_s + run.traced_s >= args.seconds &&
                          run.epochs >= min_epochs;
      if (enough && run.epochs % (args.trace ? 2 : 1) == 0) {
        break;
      }
      if (seconds_since(start) > kWallCapSeconds) {
        // A slow host, not a wrong result: the run ends with what it has.
        std::fprintf(stderr, "perfbench %s: stopped at the %.0f s wall cap\n",
                     info.name, kWallCapSeconds);
        break;
      }
    }
  } catch (const std::exception& e) {
    run.ops.failed += 1;
    run.ops.attempted = std::max(run.ops.attempted, run.ops.failed);
    run.errors.push_back(std::string("exception: ") + e.what());
  }
  run.correct = run.errors.empty() && run.ops.failed == 0;

  char manifest[512];
  std::snprintf(manifest, sizeof manifest,
                "{\"nproc\": %u, \"exec_threads\": %u, \"invoker_threads\": "
                "%d, \"build_type\": \"%s\", \"compiler\": %s}",
                host_cpus(), cfg.exec_threads, run.gpus, PERFBENCH_BUILD_TYPE,
                quoted(PERFBENCH_COMPILER).c_str());
  std::string trace_file;
  if (args.trace && !args.trace_out.empty()) {
    if (write_chrome_trace(args.trace_out, info.name, tracer.spans(), 1,
                           run.sim_trace, manifest)) {
      trace_file = args.trace_out;
    } else {
      run.errors.push_back("cannot write " + args.trace_out);
    }
  }
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "perfbench %s: %s\n", info.name, e.c_str());
  }

  const std::vector<const EpochTiming*> quiet = quiet_epochs(run);
  const std::uint64_t samples =
      quiet.size() * static_cast<std::uint64_t>(info.epoch_steps);
  const std::uint64_t tail =
      samples - static_cast<std::uint64_t>(
                    std::ceil(0.9 * static_cast<double>(samples)));
  std::string errors = "[";
  for (const std::string& e : run.errors) {
    errors += (errors.size() > 1 ? ", " : "") + quoted(e);
  }
  errors += "]";
  std::string epochs = "[";
  for (const EpochTiming& t : run.timed) {
    epochs += (epochs.size() > 1 ? ", " : "") +
              std::string("{\"tasks_per_s\": ") + num(t.rate) +
              ", \"step_ms_p50\": " + num(quantile(t.step_ms, 0.5)) +
              ", \"step_ms_p90\": " + num(quantile(t.step_ms, 0.9)) +
              ", \"setup_s\": " + num(t.setup_s) + "}";
  }
  epochs += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"epochs\": %d, "
      "\"quiet_epochs\": %zu, \"step_samples\": %llu, "
      "\"p90_tail_samples\": %llu, "
      "\"manifest\": %s, "
      "\"untraced_epochs\": %s, "
      "\"trace_file\": %s, \"errors\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s}\n",
      info.name, static_cast<unsigned long long>(args.seed),
      run.correct ? "true" : "false",
      static_cast<unsigned long long>(run.ops.attempted),
      static_cast<unsigned long long>(run.ops.failed), run.epochs,
      quiet.size(), static_cast<unsigned long long>(samples),
      static_cast<unsigned long long>(tail), manifest, epochs.c_str(),
      quoted(trace_file).c_str(),
      errors.c_str(), metrics_json(end_to_end(quiet)).c_str(),
      metrics_json(per_layer(info, run, tracer)).c_str());
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }

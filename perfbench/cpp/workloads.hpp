// The benchmark's three workloads. Each is a closed loop with one client:
// a step issues a fixed call sequence through the Scheduler's Table-2 API
// and waits for it to finish before the next step starts.
//
// A workload runs in epochs. Every epoch builds a fresh node and scheduler
// (build + warm-up is the timed set-up), runs a fixed number of steps and
// tears down, so simulator state and memory stay bounded however fast the
// host is, and every epoch replays the identical simulated timeline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "multi/maps_multi.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Output corruption the checker self-test injects; None in measured runs.
enum class Inject { None, FlipCell, UnbalancedLedger };

struct Config {
  std::uint64_t seed = 1;
  unsigned exec_threads = 1;
  Inject inject = Inject::None;
};

/// Operations (Invoke/InvokeUnmodified/Gather calls) a check attempted and
/// how many of them failed.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct WorkloadInfo {
  const char* name = "";
  int epoch_steps = 0; ///< measured steps per epoch
  /// Leading measured steps of every epoch over which simulated counters are
  /// read: a fixed window, so they are exact and identical across runs.
  int sim_window_steps = 0;
  std::uint64_t tasks_per_step = 0;   ///< Invoke + InvokeUnmodified calls
  std::uint64_t gathers_per_step = 0; ///< Gather calls
  std::uint64_t cells_per_step = 0;   ///< grid cells kernel bodies sweep
};

class Workload {
public:
  explicit Workload(Config cfg) : cfg_(std::move(cfg)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const WorkloadInfo& info() const = 0;

  /// Untimed functional pass of the same call sequence at reduced size,
  /// checked against a reference (TimingOnly workloads; runs once per run).
  virtual OpCount check_pass() { return {}; }
  /// Untimed: (re)generates the epoch's inputs from the seed.
  virtual void prepare() {}
  /// Timed set-up: node and scheduler construction, Bind and AnalyzeCall.
  /// The harness adds the warm-up steps.
  virtual void build(Tracer& tracer) = 0;
  /// One closed-loop step.
  virtual void step(Tracer& tracer) = 0;
  /// Untimed output check of the step just run.
  virtual bool check_step() { return true; }
  /// Untimed output check at the end of an epoch.
  virtual bool check_epoch() { return true; }
  /// Destroys the epoch's scheduler and node.
  virtual void teardown() = 0;

  virtual maps::multi::Scheduler& scheduler() = 0;
  virtual sim::Node& node() = 0;

protected:
  Config cfg_;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg);

} // namespace perfbench

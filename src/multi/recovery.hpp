// Device-loss recovery (DESIGN.md §5.11, §5.17): which device an injected
// fault kills and how its unfinished work is re-executed on the survivors
// from the host mirrors. It exists only while fault tolerance is on (null
// otherwise). The scheduler keeps what a loss invalidates — plan cache,
// ordering maps, staging buffers, the live slot order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "multi/fault_injector.hpp"
#include "multi/location_monitor.hpp"
#include "multi/memory_analyzer.hpp"
#include "multi/plan_types.hpp"
#include "multi/sanitizer.hpp"

namespace maps::multi {

/// Device-loss recovery accounting (fault-tolerance mode only).
struct RecoveryStats {
  std::uint64_t devices_lost = 0;
  /// Victim segments (or segment chunks) re-executed on survivors:
  /// structured repairs count one per chunk, aggregation repairs one per
  /// re-executed partial.
  std::uint64_t segments_reexecuted = 0;
  /// Input fills of re-executed segments served from the host mirrors
  /// instead of the (dead) device the original plan used.
  std::uint64_t copies_rerouted = 0;
  /// Victim segments that needed no repair because the host already held
  /// their rows: one per datum the victim had spilled under the memory
  /// budget (the write-back precedes every eviction, so the rows are
  /// host-resident by construction), plus losses whose structured repair
  /// was skipped because the host covered every output row of the
  /// victim's segment — spilled segments are restored from the host,
  /// never re-executed.
  std::uint64_t segments_restored_from_host = 0;
  /// Simulated time spent draining + repairing, in simulated microseconds.
  double recovery_sim_us = 0.0;
};

namespace detail {

class Recovery {
public:
  /// `devices` and `streams` are per scheduler slot; `stats` receives the
  /// repair counters.
  Recovery(sim::Node& node, const std::vector<int>& devices,
           const std::vector<SlotStreams>& streams, MemoryAnalyzer& analyzer,
           SegmentLocationMonitor& monitor, RecoveryStats& stats)
      : node_(node), devices_(devices), streams_(streams),
        analyzer_(analyzer), monitor_(monitor), stats_(stats),
        dead_(devices.size(), false) {}

  void set_injector(FaultInjector injector) { injector_ = std::move(injector); }
  /// The live slot the injector kills during a dispatch of `shape` (-1:
  /// none), consulted per active slot at CopiesIssued then KernelIssued.
  int choose_victim(const PlanShape& shape, TaskHandle task,
                    const std::vector<int>& live, KillStage& stage) const;
  /// The live slot the injector kills at a Gather's entry (-1: none).
  int pre_gather_victim(const std::vector<int>& live) const;

  bool dead(int slot) const { return dead_.at(static_cast<std::size_t>(slot)); }
  /// Marks `victim` dead and returns the surviving slots, ascending. Throws
  /// std::runtime_error when none survive.
  std::vector<int> lose(int victim);

  /// Logs a dispatch (segment -> slot map `live`): the last task, and per
  /// aggregating output the task whose partials are pending, with the host
  /// stamps of its inputs. `factory` is null for unmodified routines — they
  /// cannot be re-executed per segment.
  void record_task(const std::shared_ptr<const PlanShape>& shape,
                   const BodyFactory& factory, const std::vector<int>& live);
  /// The bound host buffer of `datum` changed content (mirrors, gathers,
  /// write-backs, drains, MarkHostModified, repairs).
  void host_written(const Datum* datum) { ++host_stamp_[datum->key()]; }

  /// Re-executes the victim's unfinished work on the `live` survivors: its
  /// segment of the last task (unless the loss is PreGather), chunked
  /// across survivors with results written to the host, and its pending
  /// Sum partials, re-computed and folded into a surviving writer's. Runs
  /// synchronously and drains the node.
  void repair(int victim, KillStage stage, const std::vector<int>& live,
              AccessSanitizer* sanitizer);

private:
  /// A dispatched task, kept so a loss can re-execute the victim's segment.
  struct TaskLog {
    std::shared_ptr<const PlanShape> shape;
    BodyFactory factory;   ///< null for routines (unrecoverable)
    std::vector<int> live; ///< segment -> slot map at dispatch
    /// The victim's segment of the task, -1 when it held none.
    int segment_of(int slot) const {
      const auto it = std::find(live.begin(), live.end(), slot);
      return it == live.end() ? -1 : static_cast<int>(it - live.begin());
    }
  };
  /// The task behind a still-pending aggregation. Entries persist after the
  /// aggregation resolves (guarded by the monitor's pending record) and are
  /// overwritten by the next aggregating task on the datum.
  struct AggLog : TaskLog {
    const Datum* datum = nullptr;
    /// Host stamps of every input at dispatch: a repair is only sound while
    /// the mirrors still hold the values the task consumed.
    std::vector<std::pair<const void*, std::uint64_t>> input_stamps;
  };

  std::uint64_t host_stamp(const void* key) const {
    const auto it = host_stamp_.find(key);
    return it == host_stamp_.end() ? 0 : it->second;
  }
  void repair_structured(int victim, KillStage stage,
                         const std::vector<int>& live,
                         std::vector<sim::Buffer*>& temps,
                         AccessSanitizer* sanitizer);
  void repair_aggregations(int victim, const std::vector<int>& live,
                           std::vector<sim::Buffer*>& temps);
  /// A repair temporary on `slot` holding `req`'s rows of `spec`, filled from
  /// the host mirrors. `pre_task_core`: the lost task wrote the datum in
  /// place, so its host rows are usable only inside the victim's core.
  sim::Buffer* stage_from_host(const PatternSpec& spec, const SegmentReq& req,
                               int slot, std::vector<sim::Buffer*>& temps,
                               bool pre_task_core);

  sim::Node& node_;
  const std::vector<int>& devices_;
  const std::vector<SlotStreams>& streams_;
  MemoryAnalyzer& analyzer_;
  SegmentLocationMonitor& monitor_;
  RecoveryStats& stats_;
  FaultInjector injector_;
  std::vector<bool> dead_;
  /// Depth 1 suffices: host mirrors make every older result host-resident.
  /// Null shape: nothing to re-execute (a routine, or already repaired).
  TaskLog last_task_;
  std::unordered_map<const void*, AggLog> agg_log_;
  /// Monotonic per-datum stamp of host-buffer content changes.
  std::unordered_map<const void*, std::uint64_t> host_stamp_;
};

} // namespace detail
} // namespace maps::multi

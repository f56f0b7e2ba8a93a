// The simulated multi-GPU node: devices, streams, events and the
// discrete-event engine.
//
// This module is the reproduction's substitute for the CUDA runtime plus the
// paper's 4-GPU PCIe-3 testbed (DESIGN.md §2). It exposes the asynchronous
// command-queue semantics the MAPS-Multi scheduler is written against:
//
//  * per-device in-order streams holding kernels, copies, memsets, event
//    records/waits and host functions;
//  * one compute engine and two copy engines per device, so copies overlap
//    kernels and each other (paper §2);
//  * events for cross-stream/cross-device synchronization;
//  * peer-to-peer transfers over the node topology, with an explicit
//    host-staged variant for the paper's baseline systems.
//
// Execution model: enqueue operations are cheap and thread-safe. Each
// command is a compact, trivially destructible record whose costs are fixed
// at enqueue: a kernel's duration, a copy's duration, setup share and link
// route (its LinkUse, or its legs when Topology::copy_legs applies), all
// pure functions of the command, the immutable topology and the device
// specs. Functional bodies, and kernel labels while tracing or an exec
// observer is on, live in side tables the record indexes.
// synchronize() runs a deterministic list scheduler that processes commands
// in simulated-time order, respecting stream order, event dependencies and
// engine availability; in Functional mode each command's body also executes,
// so results are real and verifiable. Simulated timestamps depend only on the
// dependency graph, never on host wall-clock.
//
// The scheduler is event-driven. Runnable stream heads sit in a min-heap
// keyed by (ready time, stream id); a head that waits on an event record not
// yet processed is parked and only re-enters the heap when a record of that
// event satisfies the generation it waits for. A head's ready time is the max
// of its stream's last completion, its issue floor, the engine and link free
// times it needs and its event's completion, and each of these only grows as
// commands run. A heap key is therefore a lower bound: the popped head whose
// recomputed ready time equals its key is the earliest runnable command with
// the lowest stream id on ties, and a stale key is re-keyed and pushed back.
// Record and wait heads take no time and no engine, and their keys never go
// stale: they start at their key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/arch.hpp"
#include "sim/launch_stats.hpp"
#include "sim/memory.hpp"
#include "sim/stats.hpp"
#include "sim/topology.hpp"

namespace sim {

/// Whether kernel/copy bodies actually run (tests, examples) or only their
/// costs accrue (paper-scale benchmarks). See DESIGN.md §5.3.
enum class ExecMode { Functional, TimingOnly };

using StreamId = int;
using EventId = int;

/// Host-side backend that runs functional KERNEL bodies asynchronously while
/// the event loop keeps scheduling (the multi-layer scheduler installs one
/// backed by its worker pool; see set_functional_executor). The contract
/// mirrors the sequential semantics exactly:
///
///  * run_kernel_body(device, body) may return before `body` ran; at most
///    one body is pending per device (the event loop joins the device
///    first), so same-device kernels never overlap;
///  * join_device / join_all block until the named bodies finished and
///    rethrow any captured exception.
///
/// Only Kernel bodies are ever deferred — copies, memsets and host functions
/// read and write the same buffers, so the event loop joins ALL pending
/// bodies before executing any non-kernel body, and again before returning
/// from a drain. Deferred bodies must not call back into the Node (the same
/// rule as inline bodies).
class FunctionalExecutor {
public:
  virtual ~FunctionalExecutor() = default;
  virtual void run_kernel_body(int device, std::function<void()> body) = 0;
  virtual void join_device(int device) = 0;
  virtual void join_all() = 0;
};

class Node {
public:
  Node(std::vector<DeviceSpec> specs, Topology topo,
       ExecMode mode = ExecMode::Functional);
  explicit Node(std::vector<DeviceSpec> specs,
                ExecMode mode = ExecMode::Functional);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int device_count() const { return static_cast<int>(specs_.size()); }
  const DeviceSpec& spec(int device) const;
  const Topology& topology() const { return topo_; }
  ExecMode mode() const { return mode_; }
  bool functional() const { return mode_ == ExecMode::Functional; }

  // --- Memory ---------------------------------------------------------------
  Buffer* malloc_device(int device, std::size_t bytes);
  void free_device(Buffer* buffer);
  std::size_t device_mem_used(int device) const;
  std::size_t device_mem_capacity(int device) const;

  // --- Streams & events -------------------------------------------------------
  StreamId create_stream(int device);
  /// The stream created for each device at construction time.
  StreamId default_stream(int device) const;
  int stream_device(StreamId stream) const;
  EventId create_event();
  /// Creates `n` events under one lock; returns the first of `n` consecutive
  /// ids. Used by dispatch paths that know their event count up front.
  EventId create_events(int n);

  // --- Commands ---------------------------------------------------------------
  void memcpy_h2d(StreamId stream, Buffer* dst, std::size_t dst_off,
                  const void* src, std::size_t bytes);
  void memcpy_d2h(StreamId stream, void* dst, Buffer* src, std::size_t src_off,
                  std::size_t bytes);
  void memcpy_p2p(StreamId stream, Buffer* dst, std::size_t dst_off,
                  Buffer* src, std::size_t src_off, std::size_t bytes);
  /// Peer copy that bounces through host RAM (baseline systems only).
  void memcpy_p2p_host_staged(StreamId stream, Buffer* dst, std::size_t dst_off,
                              Buffer* src, std::size_t src_off,
                              std::size_t bytes);

  /// Strided 2D copies: `height` rows of `row_bytes`, with independent pitches.
  void memcpy_2d_h2d(StreamId stream, Buffer* dst, std::size_t dst_off,
                     std::size_t dst_pitch, const void* src,
                     std::size_t src_pitch, std::size_t row_bytes,
                     std::size_t height);
  void memcpy_2d_d2h(StreamId stream, void* dst, std::size_t dst_pitch,
                     Buffer* src, std::size_t src_off, std::size_t src_pitch,
                     std::size_t row_bytes, std::size_t height);
  void memcpy_2d_p2p(StreamId stream, Buffer* dst, std::size_t dst_off,
                     std::size_t dst_pitch, Buffer* src, std::size_t src_off,
                     std::size_t src_pitch, std::size_t row_bytes,
                     std::size_t height);

  void memset_device(StreamId stream, Buffer* dst, std::size_t dst_off,
                     int value, std::size_t bytes);

  /// Occupies a copy engine for an explicit duration, accounting `bytes` as
  /// host-to-device traffic. Used by baseline models whose staging behaviour
  /// (pinned-buffer bandwidth, host-side contention) is not derivable from
  /// the point-to-point topology — e.g. CUBLAS-XT tile streaming (§5.4).
  void stage_host_traffic(StreamId stream, std::size_t bytes, double seconds);

  /// Enqueues a kernel. Its duration is fixed here from `stats`; the label
  /// is kept only while tracing or an exec observer is on. `body` runs
  /// inside the event loop (Functional mode) in dependency order; it must
  /// not call back into the Node.
  void launch(StreamId stream, const LaunchStats& stats,
              std::function<void()> body);

  /// Enqueues a host-side function (e.g. aggregation) that runs when the
  /// stream reaches it.
  void host_func(StreamId stream, std::function<void()> fn,
                 double cost_us = 1.0);

  /// Returns the generation this record is (1 for the event's first).
  std::uint64_t record_event(EventId event, StreamId stream);
  /// CUDA semantics: waits for the most recent record enqueued before this
  /// call; a wait on a never-recorded event is a no-op.
  void wait_event(StreamId stream, EventId event);
  /// Strict variant for out-of-order enqueue across streams (the scheduler
  /// issues one device at a time, so a wait may precede another device's
  /// record): waits for the `generation`-th record of `event` even if that
  /// record has not been enqueued yet. The matching record must be enqueued
  /// before the next synchronize(), otherwise the drain reports a deadlock.
  /// Generations are 1-based: 0 throws std::invalid_argument.
  void wait_event_generation(StreamId stream, EventId event,
                             std::uint64_t generation);

  // --- Synchronization & clock -----------------------------------------------
  /// Drains every stream, executing all pending commands.
  void synchronize();
  /// Semantically waits for one stream; conservatively drains everything
  /// (simulated timestamps are unaffected — they depend only on the
  /// dependency graph).
  void synchronize_stream(StreamId stream);

  /// Simulated host-visible clock, in milliseconds.
  double now_ms() const;
  /// Advances the host clock: models host-side software time (scheduler
  /// bookkeeping, baseline library overhead). Subsequent commands cannot
  /// start earlier than the advanced time.
  void advance_host_us(double us);

  const SimStats& stats() const { return stats_; }
  void reset_stats();

  /// Timeline tracing (start/end of every processed command).
  void enable_trace(bool on);
  const std::vector<TraceEvent>& trace() const { return trace_; }
  void clear_trace();

  /// Streaming per-command observer: invoked, under the node lock, for every
  /// command the event loop processes, with the same payload a trace entry
  /// would carry — but nothing is stored, so it is usable on unbounded runs.
  /// Validation harnesses use it to assert executed-command invariants (e.g.
  /// that a deliberately dropped transfer really never ran). The callback
  /// must not call back into the Node. Pass nullptr to remove.
  void set_exec_observer(std::function<void(const TraceEvent&)> observer);

  /// Installs (or, with nullptr, removes) the asynchronous functional-body
  /// backend. Must not be called while a synchronize() is in progress on
  /// another thread (the caller quiesces the node first). The Node does not
  /// own the executor; the installer must clear it before destroying the
  /// backend. No-op in TimingOnly mode (bodies are null there anyway).
  void set_functional_executor(FunctionalExecutor* executor);

private:
  struct Command;
  struct StreamState;
  struct EventState;
  struct DeviceEngines;
  struct LinkState;

  /// Under the lock: moves a functional body into the side table and
  /// returns its index (Command::kNone when there is none to run).
  std::uint32_t store_body(std::function<void()>& body);
  /// Under the lock: appends `cmd` with the host clock as its issue floor.
  void push_locked(StreamState& st, Command& cmd);
  /// Enqueues a copy, fixing its duration, setup share and link route.
  /// `duration_override_s` >= 0 replaces the topology cost (and the legs).
  void enqueue_copy(StreamId stream, Endpoint src, Endpoint dst,
                    std::size_t bytes, bool host_staged,
                    std::function<void()> body,
                    double duration_override_s = -1.0);
  bool traced() const { return trace_enabled_ || exec_observer_ != nullptr; }
  void drain_locked();
  /// True when the stream's head waits on a generation not yet processed.
  bool head_parked(const StreamState& st) const;
  /// Earliest start of the stream's (unparked) head; for a copy, `engine`
  /// (when given) receives the copy engine it would use.
  double head_ready(const StreamState& st, int* engine = nullptr) const;
  void push_ready(double key, StreamId stream);
  /// Puts a non-empty stream's head in the ready heap or the parked list.
  void schedule_head(StreamId stream);
  /// Completion time of `generation` of `event` (0 while unprocessed).
  double event_completion(EventId event, std::uint64_t generation) const;
  /// Topology duration of a copy (without override).
  double copy_duration(Endpoint src, Endpoint dst, std::size_t bytes,
                       bool host_staged) const;
  void account(const Command& cmd, int device);
  TraceEvent trace_event(const Command& cmd, StreamId stream, int device,
                         double start, double end) const;
  /// Earliest time every shared link a copy needs is free (0 for none).
  /// Network-crossing copies are evaluated leg-wise (Topology::copy_legs):
  /// each leg's resource need only be free by that leg's offset into the
  /// transfer, which is what lets successive chunk pieces pipeline their
  /// D2H / NIC / H2D hops instead of serializing end-to-end.
  double link_free_time(const Command& cmd) const;
  /// Setup-latency share of a copy's duration; this much may overlap the
  /// predecessor still draining the shared link.
  double copy_setup_seconds(Endpoint src, Endpoint dst,
                            bool host_staged) const;
  /// Marks the copy's shared links busy until `completion` (per leg for
  /// network-crossing copies: each resource is released when its leg ends).
  void reserve_links(const Command& cmd, double completion);
  /// Max free-time over the resources in one LinkUse.
  double link_free_use(const Topology::LinkUse& use) const;
  /// Marks one LinkUse's resources busy until `until`, accounting
  /// `duration` of busy time to each.
  void reserve_use(const Topology::LinkUse& use, double until, double duration);

  std::vector<DeviceSpec> specs_;
  Topology topo_;
  ExecMode mode_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<DeviceAllocator>> allocators_;
  std::vector<StreamState> streams_;
  /// Side tables of queued commands, indexed by Command::body / label /
  /// first_leg. Emptied only by a drain that leaves every queue empty, so
  /// a throwing body leaves the rest's entries in place.
  std::vector<std::function<void()>> bodies_;
  std::vector<std::string> labels_;
  std::vector<Topology::CopyLeg> legs_;
  std::vector<EventState> events_;
  /// Completion times of generations >= 2 of re-recorded events, indexed
  /// by generation - 2.
  std::unordered_map<EventId, std::vector<double>> later_completion_s_;
  /// Drain state, rebuilt by every drain: runnable heads keyed by ready
  /// time, and heads waiting on unprocessed event records.
  std::vector<std::pair<double, StreamId>> ready_heap_;
  std::vector<StreamId> parked_;
  std::vector<DeviceEngines> engines_;
  /// Shared interconnect resources: per-bus host uplink/downlink and a
  /// per-cluster-node full-duplex inter-socket link. Copies wait for and
  /// reserve these in addition to a destination copy engine, so concurrent
  /// transfers that share a physical link serialize instead of overlapping
  /// for free. Indexed by bus for host links, by cluster node for the
  /// socket link (sized to the max of both).
  std::vector<LinkState> links_;
  std::vector<StreamId> default_streams_;

  double host_time_s_ = 0.0;
  SimStats stats_;
  bool trace_enabled_ = false;
  std::vector<TraceEvent> trace_;
  std::function<void(const TraceEvent&)> exec_observer_;
  FunctionalExecutor* functional_exec_ = nullptr;
};

} // namespace sim

#include "multi/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "multi/read_spans.hpp"

namespace maps::multi {

using namespace detail;

namespace {
constexpr maps::Dim3 kBlock2D{32, 8, 1};
constexpr maps::Dim3 kBlock1D{1, 128, 1};
/// Host-side software cost charged per task (scheduler bookkeeping) and per
/// participating device. These values reproduce the paper's sub-1%
/// unmodified-routine overhead (Table 4); see EXPERIMENTS.md.
constexpr double kTaskOverheadUs = 60.0;
constexpr double kPerDeviceOverheadUs = 20.0;

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Default exec-thread count: MAPS_EXEC_THREADS env override (0 = forced
/// sequential), else hardware_concurrency.
unsigned default_exec_threads() {
  if (const char* env = std::getenv("MAPS_EXEC_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') {
      return static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}
} // namespace

Scheduler::Scheduler(sim::Node& node, std::vector<int> devices)
    : node_(node),
      devices_(devices.empty() ? [&] {
        std::vector<int> all(static_cast<std::size_t>(node.device_count()));
        std::iota(all.begin(), all.end(), 0);
        return all;
      }() : std::move(devices)),
      analyzer_(node_, devices_),
      monitor_(static_cast<int>(devices_.size())),
      planner_(monitor_, node_.topology(), devices_),
      residency_(node_, devices_, analyzer_, monitor_) {
  for (int d : devices_) {
    streams_.push_back({node_.create_stream(d), node_.create_stream(d),
                        node_.create_stream(d), node_.create_stream(d),
                        node_.create_stream(d)});
  }
  live_.resize(devices_.size());
  std::iota(live_.begin(), live_.end(), 0);
  set_exec_threads(default_exec_threads());
}

Scheduler::~Scheduler() {
  // Unhook and tear down the execution backend before anything a deferred
  // body could reference dies. No bodies are pending here: every drain exit
  // joins the backend.
  if (exec_backend_ != nullptr) {
    node_.set_functional_executor(nullptr);
    exec_backend_.reset();
  }
  // Idle: every streamed dispatch ends with the node drained.
  residency_.release_pool();
}

void Scheduler::set_exec_threads(unsigned n) {
  const bool want_backend = n > 0 && node_.functional();
  if (n == exec_threads_ && want_backend == (exec_backend_ != nullptr)) {
    return;
  }
  // Quiesce before switching: in-flight bodies were created against the
  // current backend. Skipped on the fresh-construction path (nothing could
  // be in flight, and synchronizing here would drain commands other
  // schedulers on the node may still be wiring up).
  if (tasks_scheduled() != 0 || exec_backend_ != nullptr) {
    node_.synchronize();
  }
  if (exec_backend_ != nullptr) {
    node_.set_functional_executor(nullptr);
    exec_backend_.reset();
  }
  exec_threads_ = n;
  stats_.exec.threads = n;
  if (want_backend) {
    exec_backend_ =
        std::make_unique<detail::ExecBackend>(n, node_.device_count());
    node_.set_functional_executor(exec_backend_.get());
  }
}

ThreadPool* Scheduler::exec_pool() {
  return exec_backend_ != nullptr ? &exec_backend_->pool() : nullptr;
}

void Scheduler::refresh_exec_stats() const {
  stats_.exec.threads = exec_threads_;
  if (exec_backend_ == nullptr) {
    return;
  }
  const ThreadPool::Stats s = exec_backend_->pool().stats();
  stats_.exec.chunks_executed = s.executed;
  stats_.exec.chunks_stolen = s.stolen;
  stats_.exec.idle_waits = s.idle_waits;
}

std::uint64_t* Scheduler::append_counter(const Datum* datum, int slot) {
  auto& vec = append_counts_[datum->key()].per_slot;
  if (!vec) {
    vec = std::make_shared<std::vector<std::uint64_t>>(devices_.size(), 0);
  }
  return &(*vec)[static_cast<std::size_t>(slot)];
}

TaskPartition
Scheduler::derive_partition(const std::vector<PatternSpec>& specs,
                            const Work* work, int slots_eff) const {
  if (work != nullptr) {
    return make_partition(work->rows, work->cols, maps::Dim3{1, 1, 1}, 1, 1,
                          slots_eff);
  }
  if (specs.empty()) {
    throw std::invalid_argument("Invoke: task has no pattern arguments");
  }
  const auto first = [&](auto pred) {
    const auto it = std::find_if(specs.begin(), specs.end(), pred);
    return it == specs.end() ? nullptr : &*it;
  };
  // Work dimensions come from the first Structured Injective output; when a
  // task has none (e.g. histogram), from the first Window input (Fig 4),
  // else the first partitioned pattern, else the first pattern.
  const PatternSpec* dims_src = first([](const PatternSpec& s) {
    return s.kind == PatternKind::StructuredInjective;
  });
  dims_src = dims_src ? dims_src : first([](const PatternSpec& s) {
    return s.is_input && s.kind == PatternKind::Window;
  });
  dims_src = dims_src ? dims_src : first([](const PatternSpec& s) {
    return s.seg == Segmentation::PartitionAligned;
  });
  dims_src = dims_src ? dims_src : &specs.front();
  const std::size_t rows = dims_src->datum->rows();
  const std::size_t cols = dims_src->datum->row_elems();

  // ILP configuration comes from the output containers (§4.5.1).
  const PatternSpec* out =
      first([](const PatternSpec& s) { return !s.is_input; });
  unsigned ilp_x = out ? static_cast<unsigned>(out->ilp_x) : 1;
  unsigned ilp_y = out ? static_cast<unsigned>(out->ilp_y) : 1;
  if (cols == 1) {
    // 1-D work: fold all ILP into the partition dimension.
    ilp_y = std::max(1u, ilp_x * ilp_y);
    ilp_x = 1;
    return make_partition(rows, cols, kBlock1D, ilp_x, ilp_y, slots_eff);
  }
  return make_partition(rows, cols, kBlock2D, ilp_x, ilp_y, slots_eff);
}

void Scheduler::apply_placement(const std::vector<PatternSpec>& specs) {
  if (!settings_.placement || node_.topology().cluster_nodes() <= 1 ||
      live_.size() <= 1) {
    return;
  }
  // Placement only helps pattern sets with provable adjacent-segment
  // exchanges: halo inputs, whose block-row neighbours trade boundary rows
  // every task. Broadcast (Replicate) consumers already cross the network
  // once per node under hierarchical routing regardless of segment order,
  // so reordering buys them nothing and would churn plan-cache shapes.
  if (std::none_of(specs.begin(), specs.end(),
                   [](const PatternSpec& s) { return s.halo_input(); })) {
    return;
  }
  ++stats_.placement.evaluations;
  const sim::Topology& topo = node_.topology();
  const auto node_of = [&](int slot) {
    return topo.cluster_node_of(devices_[static_cast<std::size_t>(slot)]);
  };
  const auto crossings = [&](const std::vector<int>& order) {
    std::uint32_t n = 0;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      n += node_of(order[i]) != node_of(order[i + 1]) ? 1 : 0;
    }
    return n;
  };
  // Canonical order: live slots sorted by (cluster node, bus, device index).
  // Adjacent segments become node neighbours — the minimum possible
  // node-crossing count for a linear halo chain — and within a node, bus
  // neighbours. The canonical order is unique and independent of the
  // current one, so placement can never flip-flop between equal-cost orders
  // across tasks; a reorder is adopted only when strictly cheaper, which
  // also makes the pass a provable no-op for the default node-contiguous
  // device enumeration.
  const auto rank = [&](int slot) {
    const int d = devices_[static_cast<std::size_t>(slot)];
    return std::tuple(topo.cluster_node_of(d), topo.bus_of(d), d);
  };
  std::vector<int> canonical = live_;
  std::stable_sort(canonical.begin(), canonical.end(),
                   [&](int a, int b) { return rank(a) < rank(b); });
  const std::uint32_t cur = crossings(live_);
  const std::uint32_t can = crossings(canonical);
  if (can < cur) {
    stats_.placement.crossings_before = cur;
    stats_.placement.crossings_after = can;
    ++stats_.placement.reorders;
    live_ = std::move(canonical);
  }
}

int Scheduler::slots_for(const std::vector<PatternSpec>& specs,
                         const Work* work) const {
  bool single = work != nullptr && work->single_device;
  for (const auto& s : specs) {
    single = single || s.seg == Segmentation::SingleDevice;
  }
  return single ? 1 : live_count();
}

void Scheduler::analyze_task(std::vector<PatternSpec> specs,
                             const Work* work) {
  for (const auto& s : specs) {
    monitor_.register_datum(s.datum);
  }
  apply_placement(specs);
  const int slots_eff = slots_for(specs, work);
  record_requirements(specs, derive_partition(specs, work, slots_eff),
                      slots_eff);
}

std::vector<std::vector<SegmentReq>>
Scheduler::record_requirements(const std::vector<PatternSpec>& specs,
                               const TaskPartition& partition, int slots_eff) {
  std::vector<std::vector<SegmentReq>> reqs(
      static_cast<std::size_t>(slots_eff));
  for (int seg = 0; seg < slots_eff; ++seg) {
    auto& seg_reqs = reqs[static_cast<std::size_t>(seg)];
    const int slot = live_[static_cast<std::size_t>(seg)];
    for (const auto& s : specs) {
      seg_reqs.push_back(compute_requirement(s, partition, seg));
      analyzer_.record(s, seg_reqs.back(), slot);
    }
  }
  return reqs;
}

std::size_t Scheduler::live_dependency_intervals() const {
  std::size_t n = 0;
  for (const auto& [key, o] : ordering_) {
    n += o.avail.entry_count() + o.access.entry_count();
  }
  return n;
}

// --- Planning ----------------------------------------------------------------

void Scheduler::plan_copies_for(PlanShape& shape, int slot, int pattern_index,
                                const SegmentReq& req,
                                const MemoryAnalyzer::Alloc& alloc) {
  const PatternSpec& spec =
      shape.specs[static_cast<std::size_t>(pattern_index)];
  Datum* datum = spec.datum;
  DevicePlan& dp = shape.devices[static_cast<std::size_t>(slot)];
  const int dst_loc = SegmentLocationMonitor::loc(slot);
  // An aligned replica is up to date once the copy lands: Algorithm 2 may
  // source a later slot's copy from it within this task.
  const auto emit = [&](PlannedCopy c) {
    if (c.aligned) {
      monitor_.mark_copied(c.datum, c.dst_location, c.rows);
    }
    dp.copies.push_back(std::move(c));
  };

  for (const CopyRegion& region : req.input_regions) {
    if (region.zero_fill) {
      PlannedCopy c;
      c.pattern_index = pattern_index;
      c.zero_fill = true;
      c.whole_buffer = req.whole;
      c.datum = datum;
      c.dst_location = dst_loc;
      c.dst_access = &ordering(datum, dst_loc).access;
      c.dst_buffer = alloc.buffer;
      if (c.whole_buffer) {
        c.dst_offset = 0;
        c.bytes = alloc.buffer->size();
        c.dst_local = RowInterval{0, alloc.rows};
      } else {
        const std::size_t local_row = static_cast<std::size_t>(
            region.local_row + (req.origin - alloc.origin));
        c.dst_offset = local_row * alloc.row_bytes;
        c.bytes = alloc.row_bytes;
        c.dst_local = RowInterval{local_row, local_row + 1};
      }
      emit(std::move(c));
      continue;
    }

    // Whether this region lands at its global position (core / interior
    // halo) or in a Wrap/Clamp slot that must be refilled every task.
    const bool aligned = region_lands_aligned(region, req.origin);

    // The region's rows are served per Algorithm 2, then routed over the
    // topology by the transfer planner (when active; forced host staging
    // prescribes every route).
    const auto t_monitor = std::chrono::steady_clock::now();
    auto ops = monitor_.plan_copies(datum, dst_loc, region.global, aligned);
    stats_.monitor_plan_us += elapsed_us(t_monitor);
    if (planner_active()) {
      const auto t_route = std::chrono::steady_clock::now();
      ops = planner_.route(datum, dst_loc, alloc.row_bytes, std::move(ops),
                           shape.transfers);
      stats_.route_plan_us += elapsed_us(t_route);
    } else {
      shape.transfers.copies_planned += static_cast<std::uint32_t>(ops.size());
    }
    // Row-range chunking (TransferPlanner::chunk). Network routes are chunked
    // even when compute–transfer overlap is off, but only under leg-wise
    // occupancy (network_pipelining): without it chunked crossings would
    // serialize whole-duration reservations and only add per-piece latency.
    const sim::Topology& topo = node_.topology();
    const bool chunk_network = planner_active() && topo.cluster_nodes() > 1 &&
                               topo.network_pipelining;
    if (settings_.copy_chunk_bytes > 0 &&
        (settings_.overlap || chunk_network)) {
      ops = planner_.chunk(std::move(ops), dst_loc, alloc.row_bytes,
                           settings_.copy_chunk_bytes, settings_.overlap,
                           shape.transfers);
    }
    for (const auto& op : ops) {
      PlannedCopy c;
      c.pattern_index = pattern_index;
      c.aligned = aligned;
      c.src_location = op.src_location;
      c.dst_location = dst_loc;
      c.via_host = op.via_host;
      c.datum = datum;
      c.src_avail = &ordering(datum, op.src_location).avail;
      c.dst_avail = &ordering(datum, dst_loc).avail;
      c.src_access = &ordering(datum, op.src_location).access;
      c.dst_access = &ordering(datum, dst_loc).access;
      c.rows = op.rows;
      c.dst_buffer = alloc.buffer;
      const long local = region.local_row +
                         static_cast<long>(op.rows.begin - region.global.begin) +
                         (req.origin - alloc.origin);
      c.dst_offset = static_cast<std::size_t>(local) * alloc.row_bytes;
      c.bytes = op.rows.size() * alloc.row_bytes;
      c.dst_local = RowInterval{static_cast<std::size_t>(local),
                                static_cast<std::size_t>(local) +
                                    op.rows.size()};
      if (op.src_location == SegmentLocationMonitor::kHost) {
        if (!datum->bound()) {
          throw std::runtime_error("datum '" + datum->name() +
                                   "' must be bound to a host buffer before "
                                   "it is used as input");
        }
        c.src_host = datum->host_row(op.rows.begin);
        c.src_local = op.rows; // host: local == global
      } else {
        const int src_slot = op.src_location - 1;
        const auto* src_alloc = analyzer_.find(datum, src_slot);
        if (src_alloc == nullptr) {
          throw std::logic_error("location monitor references an allocation "
                                 "that does not exist");
        }
        c.src_buffer = src_alloc->buffer;
        c.src_offset = src_alloc->row_offset(
            static_cast<long>(op.rows.begin));
        c.src_local = src_alloc->local(op.rows);
      }
      // Out-of-core refill classification: a copy landing entirely on rows
      // this location previously spilled is residency-policy traffic, not the
      // task's inherent data movement — it rematerializes evicted state. It
      // is accounted under SpillStats (partially spilled destinations stay
      // ordinary, so refills never over-count). Checked before emit:
      // mark_copied clears the spilled record.
      const bool refill = residency_.budget() > 0 && c.aligned &&
                          !op.rows.empty() &&
                          monitor_.spilled(datum, dst_loc).covers(op.rows);
      TransferStats& tacct = refill ? shape.spill.transfers : shape.transfers;
      if (refill) {
        ++shape.spill.refills;
        shape.spill.bytes_refilled += c.bytes;
      }
      // Byte attribution by physical path, matching how the copy will be
      // dispatched (forced staging and cross-node peers bounce through the
      // host).
      ++tacct.copies_issued;
      const sim::Endpoint src_ep =
          op.src_location == SegmentLocationMonitor::kHost
              ? sim::Endpoint::host()
              : sim::Endpoint::dev(
                    devices_[static_cast<std::size_t>(op.src_location - 1)]);
      const sim::Endpoint dst_ep =
          sim::Endpoint::dev(devices_[static_cast<std::size_t>(slot)]);
      const bool staged =
          !src_ep.is_host() &&
          (settings_.force_host_staged || op.via_host ||
           !node_.topology().peer_enabled(src_ep.device, dst_ep.device));
      TransferPlanner::account(tacct, node_.topology(), src_ep,
                               dst_ep, staged, c.bytes);
      emit(std::move(c));
    }
  }
}

void Scheduler::wire(TaskPlan& plan) {
  const PlanShape& sh = *plan.shape;
  plan.events = node_.create_events(static_cast<int>(sh.events));
  plan.waits.clear();
  plan.wait_sets.clear();
  plan.dropped.clear();
  // Segment order, the order Algorithm 2 planned the copies in: a copy
  // sourcing another slot's fresh replica waits on the copy that made it.
  for (const int slot : live_) {
    const DevicePlan& dp = sh.devices[static_cast<std::size_t>(slot)];
    if (dp.active) {
      wire_commands(dp, plan);
    }
  }
  assert(plan.wait_sets.size() == sh.wait_sets);
  // Kernel reads and writes register per launch, so a consumer (a
  // neighbour's next halo pull, the next task's interior) waits only on the
  // strip that actually produced or read its rows.
  for (const int slot : live_) {
    const DevicePlan& dp = sh.devices[static_cast<std::size_t>(slot)];
    for (std::size_t i = 0; dp.active && i < dp.post.size(); ++i) {
      const PatternPost& post = dp.post[i];
      for (std::size_t k = 0; post.active && k < dp.sub.size(); ++k) {
        const StripSpan& sp = dp.sub[k].spans[i];
        const sim::EventId done = plan.event(dp.sub[k].done);
        if (post.is_input) {
          if (!sp.read_local.empty()) {
            post.access->add_reader(sp.read_local, done);
          }
        } else if (!sp.out_global.empty()) {
          post.avail->update(sp.out_global, done);
          post.access->write(sp.out_local, done);
        }
      }
    }
  }
  for (const auto& s : sh.specs) {
    if (!s.is_input && s.agg == AggregationKind::Append) {
      std::fill_n(append_counter(s.datum, 0), devices_.size(), 0);
    }
  }
  stats_.transfers.add(sh.transfers);
  stats_.spill.add(sh.spill);
  stats_.interior_subkernels += sh.interior_launches;
  stats_.boundary_subkernels += sh.boundary_launches;
}

TaskPlan& Scheduler::plan_task(std::vector<PatternSpec> specs,
                               const Work* work, const CostHints& hints,
                               const char* label, bool splittable) {
  for (const auto& s : specs) {
    monitor_.register_datum(s.datum);
  }
  // Placement must settle before the fingerprint is taken: the chosen
  // segment -> slot order is part of the plan's shape identity.
  apply_placement(specs);

  // Out-of-core residency (DESIGN.md §5.16), prepared before the cache
  // lookup: a plan bakes in the residency it was built under, and a wave
  // that frees something clears the cache, so the subsequent miss rebuilds
  // with the refill copies planned. A task whose own working set exceeds
  // the budget streams; otherwise colder residents make room for it.
  bool streamed = false;
  std::vector<std::vector<SegmentReq>> reqs;
  if (residency_.budget() > 0) {
    residency_.touch(specs, live_);
    const int slots_eff = slots_for(specs, work);
    reqs = record_requirements(
        specs, derive_partition(specs, work, slots_eff), slots_eff);
    streamed = residency_.must_stream(specs, reqs, live_);
    if (streamed) {
      prepare_stream(specs, reqs, label);
    } else {
      enforce_budget(specs, slots_eff);
    }
  }

  if (cache_.capacity() == 0 || !PlanCache::cacheable(specs)) {
    const auto t0 = std::chrono::steady_clock::now();
    TaskPlan& plan = build_plan(std::move(specs), work, hints, label,
                                splittable, streamed, std::move(reqs));
    stats_.plan_time_us += elapsed_us(t0);
    ++stats_.plans_built;
    stats_.uncacheable_tasks += cache_.capacity() > 0 ? 1 : 0;
    return plan;
  }

  // Every setting a build bakes into the plan: routing (planner on/off and
  // forced host staging each decide links and byte classes), the overlap
  // split and chunking, and the budget that decided which residents a build
  // evicted. A streamed plan also bakes in its prefetch gating and, through
  // each segment's window size, the bytes pinned beside its windows.
  const bool prefetch = streamed && residency_.prefetch();
  config_.assign(
      {static_cast<std::uint64_t>(slots()),
       (planner_active() ? 1u : 0u) | (settings_.force_host_staged ? 2u : 0u) |
           (streamed ? 4u : 0u) | (prefetch ? 8u : 0u),
       (settings_.overlap ? 2u : 0u) | (splittable ? 1u : 0u),
       settings_.copy_chunk_bytes, residency_.budget()});
  if (streamed) {
    config_.insert(config_.end(), stream_pinned_.begin(),
                   stream_pinned_.end());
  }
  PlanCache::Fingerprint fp =
      PlanCache::fingerprint(config_, live_, specs, work, hints, label);
  bool known = false;
  if (const PlanCache::Entry* hit = cache_.lookup(fp, monitor_, known)) {
    // Replay: the cached shape is immutable and shared, so only the wiring
    // is redone, against the current ordering state; the captured
    // post-state then restores the location monitor wholesale.
    const auto t0 = std::chrono::steady_clock::now();
    plan_.handle = next_task_++;
    plan_.shape = hit->shape;
    wire(plan_);
    for (const PlanCache::DatumPostState& ps : hit->post_state) {
      monitor_.restore_state(ps.datum, ps.state);
    }
    stats_.replay_time_us += elapsed_us(t0);
    ++stats_.cache_hits;
    return plan_;
  }
  // A known shape whose variants were all built under another location
  // state counts as an invalidation; the build adds a variant.
  stats_.cache_invalidations += known ? 1 : 0;
  ++stats_.cache_misses;

  // Capture the validity oracle BEFORE the build mutates the monitor: a
  // later Invoke hits only if the monitor looks like it does right now.
  PlanCache::Entry entry;
  entry.captures = PlanCache::capture(specs, monitor_);
  const auto t0 = std::chrono::steady_clock::now();
  TaskPlan& plan = build_plan(std::move(specs), work, hints, label,
                              splittable, streamed, std::move(reqs));
  stats_.plan_time_us += elapsed_us(t0);
  ++stats_.plans_built;
  entry.shape = plan.shape;
  entry.post_state = PlanCache::capture_post(entry.captures, monitor_);
  stats_.cache_evictions += cache_.insert(std::move(fp), std::move(entry));
  return plan;
}

namespace detail {
void pull_and_sum(sim::Node& node, const SlotStreams& streams,
                  const SumFold& f) {
  const std::size_t seg_bytes = f.elems * f.elem_size;
  for (std::size_t k = 0; k < f.pulls.size(); ++k) {
    const SumPull& pull = f.pulls[k];
    const sim::StreamId cs = k % 2 == 0 ? streams.copy : streams.copy2;
    for (sim::EventId w : pull.waits) {
      node.wait_event_generation(cs, w, 1);
    }
    // Pieces of one segment share a stream, so they stay ordered while
    // their legs overlap in the simulator's pipelined occupancy model.
    const std::size_t piece =
        pull.chunk_bytes > 0 ? pull.chunk_bytes : seg_bytes;
    for (std::size_t b = 0; b < seg_bytes; b += piece) {
      node.memcpy_p2p(cs, f.staging, k * seg_bytes + b, pull.src,
                      pull.src_off + b, std::min(piece, seg_bytes - b));
    }
    node.record_event(pull.done, cs);
  }
  for (const SumPull& pull : f.pulls) {
    node.wait_event_generation(f.stream, pull.done, 1);
  }
  for (sim::EventId w : f.waits) {
    node.wait_event_generation(f.stream, w, 1);
  }
  sim::LaunchStats st;
  st.label = f.label;
  st.blocks = std::max<std::uint64_t>(1, f.elems / 256);
  st.threads_per_block = 256;
  st.flops = f.elems * f.staged;
  st.global_bytes_read = seg_bytes * f.staged + seg_bytes;
  st.global_bytes_written = seg_bytes;
  node.launch(f.stream, st,
              [staging = f.staging, dst = f.dst, dst_off = f.dst_off,
               elems = f.elems, seg_bytes, staged = f.staged, op = f.op] {
                if (staging == nullptr || !staging->has_backing() ||
                    !dst->has_backing()) {
                  return;
                }
                for (std::size_t k = 0; k < staged; ++k) {
                  op(dst->data() + dst_off, staging->data() + k * seg_bytes,
                     elems);
                }
              });
  if (f.done >= 0) {
    node.record_event(f.done, f.stream);
  }
}
} // namespace detail

TaskPlan& Scheduler::build_plan(std::vector<PatternSpec> specs,
                                const Work* work, const CostHints& hints,
                                const char* label, bool splittable,
                                bool streamed,
                                std::vector<std::vector<SegmentReq>> reqs) {
  plan_.handle = next_task_++;
  auto shape_owned = std::make_shared<PlanShape>();
  PlanShape& shape = *shape_owned;
  shape.specs = std::move(specs);
  for (const auto& s : shape.specs) {
    shape.dims.push_back(s.datum->dims());
  }
  shape.streamed = streamed;
  planner_.begin_task();
  // Chunks that gate different strips must survive the planner's
  // re-coalescing pass.
  planner_.set_max_coalesce_bytes(settings_.overlap ? settings_.copy_chunk_bytes
                                                  : 0);

  // Segments [0, slots_eff) map to physical slots through live_; with no
  // device losses the map is the identity and slots_eff == slots().
  const int slots_eff = slots_for(shape.specs, work);
  shape.partition = derive_partition(shape.specs, work, slots_eff);
  shape.devices.resize(devices_.size());

  // Record requirements first (lazy AnalyzeCall) so allocations cover this
  // task even if the programmer skipped the explicit call; a budgeted task
  // recorded them already for the stream decision.
  if (reqs.empty()) {
    reqs = record_requirements(shape.specs, shape.partition, slots_eff);
  }

  if (streamed) {
    ++shape.spill.streamed_tasks;
  } else {
    // A post-loss repartition widens survivor segments, so requirements can
    // legitimately outgrow allocations made under the old live set. With
    // fault tolerance the host mirrors hold every datum, so the stale buffer
    // can be dropped and re-materialized at the new size; without it the
    // analyzer's AnalyzeCall-first contract stands (ensure() throws below).
    if (recovery_ != nullptr) {
      bool flushed = false;
      for (int seg = 0; seg < slots_eff; ++seg) {
        const int slot = live_[static_cast<std::size_t>(seg)];
        for (const auto& s : shape.specs) {
          if (!analyzer_.needs_grow(s.datum, slot)) {
            continue;
          }
          if (!flushed) {
            // In-flight commands may still read the buffer being replaced,
            // and cached plans bake its base pointer into their views.
            invalidate_plans();
            flushed = true;
          }
          analyzer_.grow(s.datum, slot);
          const int loc = SegmentLocationMonitor::loc(slot);
          ordering(s.datum, loc) = Ordering{};
          monitor_.drop_holdings(s.datum, loc);
          if (sanitizer_) {
            sanitizer_->on_holdings_dropped(s.datum, loc);
          }
        }
      }
    }
    // Make room for this task's datums under the device-memory budget
    // before ensure() materializes them (DESIGN.md §5.16). Tasks whose own
    // working set cannot fit stream instead, so eviction of colder
    // residents always suffices here (or throws).
    if (residency_.budget() > 0) {
      enforce_budget(shape.specs, slots_eff);
    }
  }

  // Interior/boundary splitting: structurally eligible shapes pass the cost
  // gate once per task; the per-device strip geometry still depends on each
  // slot's block rows (a thin segment may have no interior at all).
  const bool try_split = !streamed && splittable && settings_.overlap &&
                         slots_eff > 1 && overlap_eligible(shape.specs) &&
                         overlap_profitable(shape.specs, node_, devices_);

  for (int seg = 0; seg < slots_eff; ++seg) {
    const int slot = live_[static_cast<std::size_t>(seg)];
    DevicePlan& dp = shape.devices[static_cast<std::size_t>(slot)];
    const auto& slot_reqs = reqs[static_cast<std::size_t>(seg)];
    dp.active = std::any_of(slot_reqs.begin(), slot_reqs.end(),
                            [](const SegmentReq& r) { return r.active; });
    if (!dp.active) {
      continue;
    }
    ++shape.active_slots;

    // Grid context: the multiple-device abstraction (§4, Fig 1b). The grid
    // sees SEGMENT coordinates (device = seg, device_count = slots_eff), so
    // a kernel's per-device sweep is a pure function of the partition — the
    // physical slot it lands on is invisible, which keeps post-loss
    // re-execution bit-identical.
    dp.grid.grid_dim = maps::Dim3{
        static_cast<unsigned>(shape.partition.blocks_x),
        static_cast<unsigned>(shape.partition.blocks_y), 1};
    dp.grid.block_dim = shape.partition.block_dim;
    dp.grid.block_row_offset = static_cast<unsigned>(
        shape.partition.block_rows[static_cast<std::size_t>(seg)].begin);
    dp.grid.block_rows = static_cast<unsigned>(
        shape.partition.block_rows[static_cast<std::size_t>(seg)].size());
    dp.grid.device = seg;
    dp.grid.device_count = slots_eff;
    dp.grid.work_width = static_cast<unsigned>(shape.partition.work_cols);
    dp.grid.work_height = static_cast<unsigned>(shape.partition.work_rows);
    dp.grid.ilp_x = shape.partition.ilp_x;
    dp.grid.ilp_y = shape.partition.ilp_y;
    dp.stats = task_launch_stats(shape.specs, shape.partition, seg, hints,
                                 label);
    if (streamed) {
      if (residency_.plan_windows(shape, dp, seg, slot, slot_reqs,
                                  stream_pinned_[static_cast<std::size_t>(seg)],
                                  label)) {
        // Pooled temporaries were released (the node is drained since
        // prepare_stream): drop the cached plans that bound them.
        invalidate_plans();
      }
      lower_windows(shape, dp, residency_.prefetch());
      continue;
    }

    std::vector<const MemoryAnalyzer::Alloc*> allocs(shape.specs.size(),
                                                     nullptr);

    // Allocations, views, transfers.
    for (std::size_t i = 0; i < shape.specs.size(); ++i) {
      const PatternSpec& s = shape.specs[i];
      const SegmentReq& req = slot_reqs[i];
      if (!req.active) {
        bind_operand(dp, s.datum, req.core, nullptr, 0, 0);
        dp.post.emplace_back();
        continue;
      }
      const auto& alloc = analyzer_.ensure(s.datum, slot);
      allocs[i] = &alloc;
      bind_operand(dp, s.datum, req.core, alloc.buffer, alloc.origin,
                   alloc.rows);

      PatternPost post;
      post.active = true;
      post.is_input = s.is_input;
      post.private_copy = req.private_copy;
      post.datum = s.datum;
      post.core = req.core;
      post.core_local = alloc.local(req.core);
      post.produced =
          req.private_copy ? RowInterval{0, s.datum->rows()} : req.core;
      post.local_span = RowInterval{0, alloc.rows};
      post.avail =
          &ordering(s.datum, SegmentLocationMonitor::loc(slot)).avail;
      post.access =
          &ordering(s.datum, SegmentLocationMonitor::loc(slot)).access;
      if (s.is_input) {
        split_read_rows(req, post.reads, post.halo_reads);
      }
      dp.post.push_back(post);

      plan_copies_for(shape, slot, static_cast<int>(i), req, alloc);
    }

    build_strips(shape, dp, seg, slot_reqs, allocs,
                 try_split ? compute_strips(shape.specs, shape.partition, seg,
                                            slot_reqs)
                           : std::vector<StripRange>{});
    lower_strips(shape, dp);
  }

  // The monitor reflects the state after the task (dispatch issues the
  // commands): outputs' core rows, and the partial copies every writer of a
  // reductive / unstructured output leaves for its aggregation.
  for (const int slot : live_) {
    for (const PatternPost& post :
         shape.devices[static_cast<std::size_t>(slot)].post) {
      if (post.active && !post.is_input && !post.private_copy) {
        monitor_.mark_written(post.datum, SegmentLocationMonitor::loc(slot),
                              post.core);
      }
    }
  }
  for (const auto& s : shape.specs) {
    if (s.is_input || s.agg == AggregationKind::None) {
      continue;
    }
    SegmentLocationMonitor::PendingAggregation agg;
    agg.kind = s.agg;
    agg.op = s.agg_op;
    for (std::size_t slot = 0; slot < shape.devices.size(); ++slot) {
      if (shape.devices[slot].active) {
        agg.writer_slots.push_back(static_cast<int>(slot));
      }
    }
    monitor_.set_pending_aggregation(s.datum, std::move(agg));
  }
  plan_.shape = std::move(shape_owned);
  wire(plan_);
  return plan_;
}

void detail::bind_operand(LaunchBinding& b, const Datum* datum,
                          RowInterval core, sim::Buffer* buffer, long origin,
                          std::size_t rows) {
  b.buffers.push_back(buffer);
  if (buffer == nullptr) {
    b.views.emplace_back();
    return;
  }
  DeviceView view;
  view.base = buffer->data();
  view.pitch = datum->row_bytes();
  view.origin = origin;
  view.rows = rows;
  view.row_elems = datum->row_elems();
  view.datum_rows = datum->rows();
  view.core_begin = core.begin;
  view.core_end = core.end;
  b.views.push_back(view);
}

void Scheduler::launch_binding(
    sim::StreamId stream, int slot, const LaunchBinding& b,
    const sim::LaunchStats& stats,
    const std::vector<std::vector<std::size_t>>& dims,
    std::function<void()> body, const UnmodifiedRoutine& routine,
    void* context, const std::vector<std::vector<std::byte>>& consts) {
  if (!routine) {
    node_.launch(stream, stats, std::move(body));
    return;
  }
  // Filled in place: the vectors keep their capacity from launch to launch.
  RoutineArgs& args = routine_args_;
  args.node = &node_;
  args.device_idx = slot;
  args.sim_device = devices_[static_cast<std::size_t>(slot)];
  args.stream = stream;
  args.context = context;
  args.parameters.resize(b.views.size());
  args.container_segments.resize(b.views.size());
  for (std::size_t i = 0; i < b.views.size(); ++i) {
    RoutineParam& param = args.parameters[i];
    Segment& seg = args.container_segments[i];
    if (b.buffers[i] == nullptr) {
      param = RoutineParam{};
      seg.global_row_begin = seg.global_row_end = 0;
      seg.m_dimensions.clear();
      continue;
    }
    const DeviceView& view = b.views[i];
    param.buffer = b.buffers[i];
    param.byte_offset = static_cast<std::size_t>(
                            static_cast<long>(view.core_begin) - view.origin) *
                        view.pitch;
    param.view = view;
    seg.global_row_begin = view.core_begin;
    seg.global_row_end = view.core_end;
    seg.m_dimensions.assign(dims[i].begin(), dims[i].end());
    seg.m_dimensions[0] = view.core_end - view.core_begin;
  }
  args.constants = consts;
  if (!routine(args)) {
    throw std::runtime_error("unmodified routine reported failure");
  }
}

void Scheduler::issue_commands(
    TaskPlan& plan, int slot, std::size_t end, const BodyFactory& factory,
    const UnmodifiedRoutine& routine, void* context,
    const std::vector<std::vector<std::byte>>& consts) {
  const PlanShape& sh = *plan.shape;
  const DevicePlan& dp = sh.devices[static_cast<std::size_t>(slot)];
  const SlotStreams& st = streams_[static_cast<std::size_t>(slot)];
  for (std::size_t n = 0; n < end; ++n) {
    const Command& cmd = dp.commands[n];
    const sim::StreamId stream = st.*cmd.stream;
    switch (cmd.op) {
    case Command::Copy: {
      const PlannedCopy& c = dp.copies[cmd.arg];
      // Fault injection: a dropped transfer silently never happens, but the
      // Record after it still fires so downstream commands are not
      // deadlocked — the data is simply stale, like a missed inferred copy.
      if (copy_fault_hook_ &&
          copy_fault_hook_(CopyFaultInfo{c.datum, c.src_location,
                                         c.dst_location, c.rows, c.zero_fill,
                                         c.aligned, plan.handle})) {
        plan.dropped.emplace_back(slot, cmd.arg);
      } else if (c.zero_fill) {
        node_.memset_device(stream, c.dst_buffer, c.dst_offset, 0, c.bytes);
      } else if (c.dst_host != nullptr) {
        node_.memcpy_d2h(stream, c.dst_host, c.src_buffer, c.src_offset,
                         c.bytes);
      } else if (c.src_host != nullptr) {
        node_.memcpy_h2d(stream, c.dst_buffer, c.dst_offset, c.src_host,
                         c.bytes);
      } else if ((settings_.force_host_staged || c.via_host) &&
                 c.src_buffer->device() != c.dst_buffer->device()) {
        node_.memcpy_p2p_host_staged(stream, c.dst_buffer, c.dst_offset,
                                     c.src_buffer, c.src_offset, c.bytes);
      } else {
        node_.memcpy_p2p(stream, c.dst_buffer, c.dst_offset, c.src_buffer,
                         c.src_offset, c.bytes);
      }
      break;
    }
    case Command::Launch: {
      // One body per launch, made only where it runs: the factory narrows
      // the grid to the strip's or window's block rows. None for routines.
      const SubKernel& sub = dp.sub[cmd.arg];
      const LaunchBinding& ops = dp.operands(cmd.arg);
      launch_binding(stream, slot, ops, sub.stats, sh.dims,
                     factory && node_.functional()
                         ? factory(slot, sub.grid, ops.views)
                         : std::function<void()>{},
                     routine, context, consts);
      break;
    }
    case Command::Record: {
      const sim::EventId event = plan.event(cmd.arg);
      if (node_.record_event(event, stream) == 1) {
        if (recorded_on_.empty()) {
          recorded_base_ = event;
        }
        if (event >= recorded_base_) {
          const auto i = static_cast<std::size_t>(event - recorded_base_);
          if (i >= recorded_on_.size()) {
            recorded_on_.resize(i + 1, -1);
          }
          recorded_on_[i] = stream;
        }
      }
      break;
    }
    case Command::Wait:
      wait_unless_ordered(stream, plan.event(cmd.arg));
      break;
    case Command::WaitSet:
      for (std::uint32_t k = cmd.arg == 0 ? 0 : plan.wait_sets[cmd.arg - 1];
           k < plan.wait_sets[cmd.arg]; ++k) {
        wait_unless_ordered(stream, plan.waits[k]);
      }
      break;
    }
  }
}

void Scheduler::wait_unless_ordered(sim::StreamId stream,
                                    sim::EventId event) {
  // The record precedes this wait in the stream's FIFO, so the wait is
  // ready no later than the stream's next command and takes no time: the
  // node's timeline is the same without it.
  if (event >= recorded_base_ &&
      static_cast<std::size_t>(event - recorded_base_) < recorded_on_.size() &&
      recorded_on_[static_cast<std::size_t>(event - recorded_base_)] ==
          stream) {
    ++stats_.waits_elided;
    return;
  }
  node_.wait_event_generation(stream, event, 1);
}

void Scheduler::set_sanitizer_enabled(bool on) {
  if (!on) {
    sanitizer_.reset();
    return;
  }
  if (sanitizer_ != nullptr) {
    return;
  }
  if (tasks_scheduled() != 0) {
    throw std::logic_error(
        "Scheduler: enable the access sanitizer before scheduling tasks (the "
        "shadow version map must observe every task from the first)");
  }
  sanitizer_ = std::make_unique<AccessSanitizer>(slots());
}

void Scheduler::reset_stats() {
  stats_ = SchedulerStats{};
  stats_.exec.threads = exec_threads_;
  if (exec_backend_ != nullptr) {
    exec_backend_->pool().reset_stats();
  }
  if (sanitizer_ != nullptr) {
    sanitizer_->reset_stats();
  }
}

// --- Out-of-core execution (DESIGN.md §5.16) ---------------------------------

void Scheduler::set_device_memory_budget(std::size_t bytes) {
  if (bytes == residency_.budget()) {
    return;
  }
  if (tasks_scheduled() != 0) {
    // Mid-chain budget change: cached plans bake in residency decisions made
    // under the old budget, and in-flight commands may reference buffers the
    // new policy is about to evict.
    invalidate_plans();
  }
  residency_.release_pool(); // window temporaries sized for the old budget
  residency_.set_budget(bytes);
}

void Scheduler::invalidate_plans() {
  node_.synchronize();
  stats_.cache_evictions += cache_.clear();
}

void Scheduler::enforce_budget(const std::vector<PatternSpec>& specs,
                               int slots_eff) {
  bool quiesced = false;
  for (int seg = 0; seg < slots_eff; ++seg) {
    const int slot = live_[static_cast<std::size_t>(seg)];
    std::size_t after = 0;
    const auto victims = residency_.victims(slot, specs, after);
    // Pooled window temporaries hold no data: they go first.
    const bool drop_pool =
        !victims.empty() || !residency_.pool_fits(slot, after);
    if (drop_pool && !quiesced) {
      invalidate_plans(); // once per wave of evictions
      quiesced = true;
    }
    if (drop_pool) {
      residency_.release_pool(slot);
    }
    for (const Datum* d : victims) {
      spill_allocation(d, slot);
    }
    residency_.require_fit(slot, after);
  }
}

void Scheduler::prepare_stream(
    const std::vector<PatternSpec>& specs,
    const std::vector<std::vector<SegmentReq>>& reqs, const char* label) {
  residency_.check_streamable(specs, reqs, label);
  // Windows read host rows directly: drain, then make the host
  // authoritative for every input (the flush itself is spill traffic).
  node_.synchronize();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto same_input = [&](const PatternSpec& s) {
      return s.is_input && s.datum->key() == specs[i].datum->key();
    };
    if (specs[i].is_input &&
        std::none_of(specs.begin(), specs.begin() + static_cast<long>(i),
                     same_input)) {
      flush_datum_to_host(specs[i].datum);
    }
  }
  node_.synchronize();
  // Clear residency on every active slot: windowed datums stream through
  // pooled temporaries, and colder residents make room for the persistent
  // set. Dirty rows were flushed above, so these evictions write back
  // nothing for this task's own inputs.
  stream_pinned_.assign(reqs.size(), 0);
  bool quiesced = false;
  for (std::size_t seg = 0; seg < reqs.size(); ++seg) {
    const int slot = live_[seg];
    bool drop_pool = false;
    const auto victims = residency_.stream_victims(
        slot, specs, reqs[seg], stream_pinned_[seg], drop_pool);
    if ((drop_pool || !victims.empty()) && !quiesced) {
      invalidate_plans(); // once per wave that frees something
      quiesced = true;
    }
    if (drop_pool) {
      residency_.release_pool(slot);
    }
    for (const Datum* d : victims) {
      spill_allocation(d, slot);
    }
  }
}

void Scheduler::spill_allocation(const Datum* datum, int slot) {
  const auto* alloc = analyzer_.find(datum, slot);
  if (alloc == nullptr) {
    return;
  }
  const int loc = SegmentLocationMonitor::loc(slot);
  // Snapshot before the write-back loop mutates the monitor.
  const IntervalSet held = monitor_.up_to_date(datum, loc);
  const IntervalSet& host =
      monitor_.up_to_date(datum, SegmentLocationMonitor::kHost);
  for (const RowInterval& iv : held.intervals()) {
    for (const RowInterval& dirty : host.missing_from(iv)) {
      // Rows valid only on this device: write them back before freeing.
      if (!datum->bound()) {
        throw OutOfCoreError("out-of-core: datum '" + datum->name() +
                             "' holds device-only rows but has no bound host "
                             "buffer to spill into");
      }
      write_back(datum, slot, *alloc, dirty);
    }
  }
  // The holdings become "spilled": the refill classifier in plan_copies_for
  // recognizes copies that restore exactly these rows.
  for (const RowInterval& iv : held.intervals()) {
    monitor_.mark_spilled(datum, loc, iv);
  }
  if (sanitizer_ != nullptr) {
    sanitizer_->on_holdings_dropped(datum, loc);
  }
  ordering(datum, loc) = Ordering{};
  // The write-backs above must land before the buffer is freed.
  node_.synchronize();
  analyzer_.evict(datum, slot);
  ++stats_.spill.evictions;
}

void Scheduler::flush_datum_to_host(Datum* datum) {
  const auto ops = monitor_.plan_copies(datum, SegmentLocationMonitor::kHost,
                                        RowInterval{0, datum->rows()});
  for (const auto& op : ops) {
    if (op.src_location == SegmentLocationMonitor::kHost || op.rows.empty()) {
      continue;
    }
    const int src_slot = op.src_location - 1;
    const auto* alloc = analyzer_.find(datum, src_slot);
    if (alloc == nullptr) {
      throw std::logic_error(
          "out-of-core: monitor holds rows of datum '" + datum->name() +
          "' on a slot with no allocation");
    }
    write_back(datum, src_slot, *alloc, op.rows);
  }
}

void Scheduler::write_back(const Datum* datum, int slot,
                           const MemoryAnalyzer::Alloc& alloc,
                           RowInterval rows) {
  copy_to_host(datum, slot, streams_[static_cast<std::size_t>(slot)].copy2,
               alloc, rows, stats_.spill.transfers, {}, -1);
  stats_.spill.bytes_spilled += rows.size() * alloc.row_bytes;
}

void Scheduler::copy_to_host(const Datum* datum, int slot,
                             sim::StreamId stream,
                             const MemoryAnalyzer::Alloc& alloc,
                             RowInterval rows, TransferStats& acct,
                             std::vector<sim::EventId> waits,
                             sim::EventId done) {
  monitor_.mark_copied(datum, SegmentLocationMonitor::kHost, rows);
  if (sanitizer_ != nullptr) {
    sanitizer_->on_copy(datum, SegmentLocationMonitor::loc(slot),
                        SegmentLocationMonitor::kHost, rows);
  }
  host_written(datum);
  submit_to_host(slot, stream, std::move(waits), datum->host_row(rows.begin),
                 alloc.buffer,
                 alloc.row_offset(static_cast<long>(rows.begin)),
                 rows.size() * alloc.row_bytes, done, acct);
}

// --- Fault tolerance & device-loss recovery (DESIGN.md §5.11) ----------------

void Scheduler::set_fault_tolerance_enabled(bool on) {
  if (on == (recovery_ != nullptr)) {
    return;
  }
  if (tasks_scheduled() != 0) {
    throw std::logic_error(
        "Scheduler: toggle fault tolerance before scheduling tasks (the host "
        "mirrors must cover every output from the first task on)");
  }
  recovery_ = on ? std::make_unique<Recovery>(node_, devices_, streams_,
                                              analyzer_, monitor_,
                                              stats_.recovery)
                 : nullptr;
}

void Scheduler::set_fault_injector(FaultInjector injector) {
  if (recovery_ != nullptr) {
    recovery_->set_injector(std::move(injector));
  } else if (injector) {
    throw std::logic_error(
        "set_fault_injector: fault tolerance is disabled — enable it first "
        "(set_fault_tolerance_enabled)");
  }
}

bool Scheduler::device_lost(int slot) const {
  (void)devices_.at(static_cast<std::size_t>(slot)); // range check
  return recovery_ != nullptr && recovery_->dead(slot);
}

void Scheduler::kill_device(int slot) {
  if (slot < 0 || slot >= slots()) {
    throw std::invalid_argument("kill_device: slot " + std::to_string(slot) +
                                " out of range");
  }
  if (recovery_ == nullptr) {
    throw std::logic_error(
        "kill_device: fault tolerance is disabled — without host mirrors a "
        "device loss is unrecoverable (set_fault_tolerance_enabled)");
  }
  if (recovery_->dead(slot)) {
    throw std::logic_error("kill_device: slot " + std::to_string(slot) +
                           " is already dead");
  }
  // Outside a dispatch every completed task is mirrored, so only pending
  // aggregation partials can be lost — the PreGather stage repairs exactly
  // those.
  recover_device(slot, KillStage::PreGather);
}

void Scheduler::kill_node(int cluster_node) {
  const sim::Topology& topo = node_.topology();
  if (cluster_node < 0 || cluster_node >= topo.cluster_nodes()) {
    throw std::invalid_argument("kill_node: node " +
                                std::to_string(cluster_node) +
                                " out of range");
  }
  std::vector<int> victims;
  for (int slot = 0; slot < slots(); ++slot) {
    if (!device_lost(slot) &&
        topo.cluster_node_of(devices_[static_cast<std::size_t>(slot)]) ==
            cluster_node) {
      victims.push_back(slot);
    }
  }
  if (victims.empty()) {
    throw std::logic_error("kill_node: node " + std::to_string(cluster_node) +
                           " has no live devices");
  }
  // Sequential losses through the single-device path: each recovery leaves
  // the scheduler consistent, so the next victim's recovery sees exactly the
  // state a real cascading loss would. kill_device itself throws if the last
  // live device would go.
  for (const int slot : victims) {
    kill_device(slot);
  }
}

void Scheduler::enqueue_host_mirrors(const TaskPlan& plan, int skip_slot) {
  const PlanShape& sh = *plan.shape;
  for (int s : live_) {
    if (s == skip_slot) {
      continue;
    }
    const DevicePlan& dp = sh.devices[static_cast<std::size_t>(s)];
    if (!dp.active) {
      continue;
    }
    const int sloc = SegmentLocationMonitor::loc(s);
    for (const PatternPost& post : dp.post) {
      // Private (duplicated) partials are not valid global rows — they are
      // covered by the aggregation log, not the mirrors.
      if (!post.active || post.is_input || post.private_copy ||
          post.core.empty()) {
        continue;
      }
      const Datum* d = post.datum;
      if (!d->bound()) {
        throw std::runtime_error("fault tolerance: datum '" + d->name() +
                                 "' needs a bound host buffer to mirror to");
      }
      const auto* alloc = analyzer_.find(d, s);
      if (alloc == nullptr) {
        continue;
      }
      std::vector<sim::EventId> waits;
      ordering(d, sloc).avail.collect(post.core, waits);
      ordered_to_host(d, s, streams_[static_cast<std::size_t>(s)].copy2, *alloc,
                      post.core, std::move(waits));
    }
  }
}

sim::EventId Scheduler::ordered_to_host(const Datum* datum, int slot,
                                        sim::StreamId stream,
                                        const MemoryAnalyzer::Alloc& alloc,
                                        RowInterval rows,
                                        std::vector<sim::EventId> waits) {
  // The d2h both reads the device rows and overwrites the host rows.
  const sim::EventId ev = node_.create_event();
  ordering(datum, SegmentLocationMonitor::loc(slot))
      .access.add_reader(alloc.local(rows), ev);
  Ordering& host = ordering(datum, SegmentLocationMonitor::kHost);
  host.access.collect(rows, waits);
  host.access.write(rows, ev);
  host.avail.update(rows, ev);
  copy_to_host(datum, slot, stream, alloc, rows, stats_.transfers,
               std::move(waits), ev);
  return ev;
}

template <typename Enqueue>
void Scheduler::issue(int slot, Enqueue&& enqueue) {
  if (recovery_ != nullptr && recovery_->dead(slot)) {
    throw std::logic_error("Scheduler: issue to lost device slot " +
                           std::to_string(slot));
  }
  try {
    enqueue();
  } catch (...) {
    if (!issue_error_) {
      issue_error_ = std::current_exception();
    }
  }
}

void Scheduler::rethrow_issue_error() {
  if (issue_error_) {
    std::rethrow_exception(std::exchange(issue_error_, nullptr));
  }
}

void Scheduler::submit_to_host(int slot, sim::StreamId stream,
                               std::vector<sim::EventId> waits,
                               std::byte* dst, sim::Buffer* src,
                               std::size_t src_off, std::size_t bytes,
                               sim::EventId done, TransferStats& acct) {
  ++acct.copies_issued;
  TransferPlanner::account(
      acct, node_.topology(),
      sim::Endpoint::dev(devices_[static_cast<std::size_t>(slot)]),
      sim::Endpoint::host(), false, bytes);
  issue(slot, [&] {
    for (sim::EventId w : waits) {
      node_.wait_event_generation(stream, w, 1);
    }
    node_.memcpy_d2h(stream, dst, src, src_off, bytes);
    if (done >= 0) {
      node_.record_event(done, stream);
    }
  });
}

void Scheduler::recover_device(int victim, KillStage stage) {
  if (recovery_->dead(victim)) {
    return;
  }
  // Drain-completes loss model: the kill takes effect at the next sync
  // point, so everything already enqueued — including this dispatch's
  // commands and the survivors' mirrors — finishes first. Every cached shape
  // was partitioned over the old live set.
  invalidate_plans();
  const double t0_ms = node_.now_ms();
  live_ = recovery_->lose(victim);

  // Invalidate everything that references the dead device: its holdings in
  // the location monitor and sanitizer shadow map, its ordering maps (reset
  // in place — plans hold stable pointers into these maps), its allocations
  // and the reduce-scatter staging pools.
  const int vloc = SegmentLocationMonitor::loc(victim);
  // Out-of-core residency pays off here: every segment the victim spilled
  // under the memory budget was written back to the host before its buffer
  // was freed, so those datums survive the loss with no repair at all —
  // count them before the drop below erases the records (DESIGN.md §5.16).
  stats_.recovery.segments_restored_from_host +=
      static_cast<std::uint64_t>(monitor_.spilled_datum_count(vloc));
  monitor_.drop_location(vloc);
  if (sanitizer_ != nullptr) {
    sanitizer_->on_device_lost(vloc);
  }
  for (auto& [key, o] : ordering_) {
    if (key.second == vloc) {
      o = Ordering{};
    }
  }
  analyzer_.drop_slot(victim);
  for (auto& [key, buf] : staging_) {
    node_.free_device(buf);
  }
  staging_.clear();
  residency_.release_pool();
  ++stats_.recovery.devices_lost;
  recovery_->repair(victim, stage, live_, sanitizer_.get());
  stats_.recovery.recovery_sim_us += (node_.now_ms() - t0_ms) * 1000.0;
}

TaskHandle Scheduler::dispatch(TaskPlan& plan,
                               const BodyFactory& factory,
                               UnmodifiedRoutine routine, void* context,
                               std::vector<std::vector<std::byte>> consts) {
  const PlanShape& sh = *plan.shape;

  // Fault tolerance: log the dispatch for recovery, then let the injector
  // choose a victim. At most one device dies per dispatch; the kill takes
  // effect at the next sync point (drain-completes loss model), so the
  // commands are still issued — the victim's list cut after its copies for
  // a CopiesIssued loss — and recovery runs once they drain. Routines
  // cannot be re-executed per segment, so only MAPS kernels consult the
  // injector.
  int victim = -1;
  KillStage stage = KillStage::CopiesIssued;
  if (recovery_ != nullptr) {
    for (const DevicePlan& dp : sh.devices) {
      for (std::size_t i = 0; sh.streamed && i < dp.copies.size(); ++i) {
        if (dp.copies[i].dst_host != nullptr) { // a drain: host rows change
          host_written(dp.copies[i].datum);
        }
      }
    }
    recovery_->record_task(plan.shape, factory, live_);
    if (factory) {
      victim = recovery_->choose_victim(sh, plan.handle, live_, stage);
    }
  }

  node_.advance_host_us(kTaskOverheadUs +
                        kPerDeviceOverheadUs * sh.active_slots);
  for (int slot = 0; slot < slots(); ++slot) {
    const DevicePlan& dp = sh.devices[static_cast<std::size_t>(slot)];
    if (!dp.active) {
      continue;
    }
    const std::size_t end = slot == victim && stage == KillStage::CopiesIssued
                                ? dp.cut
                                : dp.commands.size();
    issue(slot, [&] {
      issue_commands(plan, slot, end, factory, routine, context, consts);
    });
  }
  if (sanitizer_ != nullptr) {
    sanitizer_->on_dispatch(plan);
  }
  if (sh.streamed) {
    // A failed issue left some window unrecorded: report it, not the drain's
    // deadlock. The drain advances host time to the task's completion and
    // leaves the pooled window temporaries idle for the next streamed task.
    rethrow_issue_error();
    node_.synchronize();
  }
  if (recovery_ != nullptr) {
    // The victim's outputs die with it: for CopiesIssued they were never
    // computed, for KernelIssued they were computed but the loss precedes
    // the mirror — either way recovery re-derives them from the mirrors.
    // Streamed devices mirror nothing: their drains already rest on the
    // host.
    enqueue_host_mirrors(plan, victim);
  }
  if (victim >= 0) {
    recover_device(victim, stage);
  }
  return plan.handle;
}

void Scheduler::GatherAsync(Datum& datum) {
  if (!datum.bound()) {
    throw std::runtime_error("Gather: datum '" + datum.name() +
                             "' is not bound to a host buffer");
  }
  if (!monitor_.known(&datum)) {
    monitor_.register_datum(&datum);
    return; // never touched by a task: host copy is authoritative
  }
  node_.advance_host_us(kTaskOverheadUs);
  if (sanitizer_ != nullptr) {
    sanitizer_->begin_context(0, "Gather");
  }

  // PreGather device loss: consulted before any gather planning, so the
  // plan below only ever sees the post-recovery location state (the
  // victim's pending partials have already been folded into a survivor).
  if (recovery_ != nullptr) {
    if (const int victim = recovery_->pre_gather_victim(live_); victim >= 0) {
      recover_device(victim, KillStage::PreGather);
    }
  }

  const auto* pending = monitor_.pending_aggregation(&datum);
  std::vector<sim::EventId> ready_events;
  // Joins every d2h piece on the lead live slot's copy stream — then runs
  // `combine` on the host, if any — and makes one event the producer of the
  // whole host buffer, so later reads of it have one dependency.
  const auto join = [&](std::function<void()> combine, double cost_us) {
    const sim::EventId host_ready = node_.create_event();
    const int lead = live_.front();
    const sim::StreamId stream = streams_[static_cast<std::size_t>(lead)].copy;
    issue(lead, [&] {
      for (sim::EventId ev : ready_events) {
        node_.wait_event_generation(stream, ev, 1);
      }
      if (combine) {
        node_.host_func(stream, std::move(combine), cost_us);
      }
      node_.record_event(host_ready, stream);
    });
    ordering(&datum, SegmentLocationMonitor::kHost)
        .avail.update(RowInterval{0, datum.rows()}, host_ready);
  };

  if (pending != nullptr) {
    // §3.2: duplicated outputs are gathered from every device and
    // post-processed on the host.
    struct Staged {
      int slot;
      std::shared_ptr<std::vector<std::byte>> bytes;
    };
    auto staged = std::make_shared<std::vector<Staged>>();
    for (int slot : pending->writer_slots) {
      const auto* alloc = analyzer_.find(&datum, slot);
      if (alloc == nullptr) {
        continue;
      }
      auto host_bytes =
          std::make_shared<std::vector<std::byte>>(alloc->buffer->size());
      staged->push_back(Staged{slot, host_bytes});
      const sim::EventId ev = node_.create_event();
      ready_events.push_back(ev);
      std::vector<sim::EventId> producers;
      Ordering& src = ordering(&datum, SegmentLocationMonitor::loc(slot));
      src.avail.collect(RowInterval{0, datum.rows()}, producers);
      src.access.add_reader(RowInterval{0, alloc->rows}, ev);
      // `staged` keeps the bytes alive: the aggregation below holds it
      // until after this copy lands.
      submit_to_host(slot, streams_[static_cast<std::size_t>(slot)].copy,
                     std::move(producers), host_bytes->data(), alloc->buffer,
                     0, alloc->buffer->size(), ev, stats_.transfers);
    }

    // Host-side aggregation cost scales with the staged volume (~25 GB/s:
    // a multi-threaded combine over resident pages).
    double staged_bytes = 0;
    for (const auto& st : *staged) {
      staged_bytes += static_cast<double>(st.bytes->size());
    }
    const double agg_cost_us = 10.0 + staged_bytes * 0.04e-3;
    const AggregationKind kind = pending->kind;
    auto op = pending->op;
    AppendCounts& ac = append_counts_[datum.key()];
    auto counts = ac.per_slot;
    if (!ac.gathered) {
      ac.gathered = std::make_shared<std::size_t>(0);
    }
    auto gathered_out = ac.gathered;
    Datum* dptr = &datum;
    join(
        [staged, kind, op, counts, gathered_out, dptr] {
          const std::size_t row_bytes = dptr->row_bytes();
          const std::size_t elems = dptr->rows() * dptr->row_elems();
          const std::size_t esize = dptr->elem_size();
          std::byte* host = static_cast<std::byte*>(dptr->host_raw());
          switch (kind) {
          case AggregationKind::Sum: {
            bool first = true;
            for (const auto& st : *staged) {
              if (first) {
                std::memcpy(host, st.bytes->data(), elems * esize);
                first = false;
              } else {
                op(host, st.bytes->data(), elems);
              }
            }
            break;
          }
          case AggregationKind::Append: {
            std::size_t total = 0;
            for (const auto& st : *staged) {
              const std::size_t n =
                  counts ? (*counts)[static_cast<std::size_t>(st.slot)] : 0;
              std::memcpy(host + total * row_bytes, st.bytes->data(),
                          n * row_bytes);
              total += n;
            }
            *gathered_out = total;
            break;
          }
          case AggregationKind::MaskedMerge: {
            for (const auto& st : *staged) {
              const std::byte* payload = st.bytes->data();
              const std::byte* mask = payload + elems * esize;
              for (std::size_t i = 0; i < elems; ++i) {
                if (mask[i] != std::byte{0}) {
                  std::memcpy(host + i * esize, payload + i * esize, esize);
                }
              }
            }
            break;
          }
          case AggregationKind::None:
            break;
          }
        },
        agg_cost_us);
    monitor_.clear_pending_aggregation(&datum);
    monitor_.mark_copied(&datum, SegmentLocationMonitor::kHost,
                         RowInterval{0, datum.rows()});
    host_written(&datum);
    if (sanitizer_ != nullptr) {
      sanitizer_->on_aggregation_resolved_host(&datum);
    }
    return;
  }

  // Structured outputs: Algorithm 2 with the host as the target.
  const auto ops = monitor_.plan_copies(&datum, SegmentLocationMonitor::kHost,
                                        RowInterval{0, datum.rows()});
  if (ops.empty()) {
    return;
  }
  host_written(&datum);
  for (const auto& op : ops) {
    if (op.src_location == SegmentLocationMonitor::kHost) {
      continue;
    }
    const int slot = op.src_location - 1;
    const auto* alloc = analyzer_.find(&datum, slot);
    if (alloc == nullptr) {
      throw std::logic_error("gather: missing allocation");
    }
    std::vector<sim::EventId> producers;
    ordering(&datum, op.src_location).avail.collect(op.rows, producers);
    ready_events.push_back(ordered_to_host(
        &datum, slot, streams_[static_cast<std::size_t>(slot)].copy, *alloc,
        op.rows, std::move(producers)));
  }
  join(nullptr, 0.0);
}

void Scheduler::MarkHostModified(Datum& datum) {
  if (!datum.bound()) {
    throw std::runtime_error("MarkHostModified: datum '" + datum.name() +
                             "' is not bound");
  }
  if (!monitor_.known(&datum)) {
    monitor_.register_datum(&datum);
    return;
  }
  monitor_.mark_written(&datum, SegmentLocationMonitor::kHost,
                        RowInterval{0, datum.rows()});
  host_written(&datum);
  if (sanitizer_ != nullptr) {
    sanitizer_->on_host_write(&datum);
  }
  // Host-code writes happen at the current host clock; nothing to chain on.
  ordering(&datum, SegmentLocationMonitor::kHost) = Ordering{};
}

void Scheduler::ReduceScatter(Datum& datum, Work work) {
  const auto* pending = monitor_.pending_aggregation(&datum);
  if (pending == nullptr) {
    throw std::runtime_error("ReduceScatter: datum '" + datum.name() +
                             "' has no pending aggregation");
  }
  if (pending->kind != AggregationKind::Sum || !pending->op) {
    throw std::runtime_error(
        "ReduceScatter: only Sum-aggregated outputs are supported");
  }
  node_.advance_host_us(kTaskOverheadUs);
  if (sanitizer_ != nullptr) {
    sanitizer_->begin_context(0, "ReduceScatter");
    sanitizer_->on_aggregation_scattered(&datum);
  }

  const TaskPartition partition =
      make_partition(work.rows == 0 ? datum.rows() : work.rows, 1,
                     maps::Dim3{1, 1, 1}, 1, 1, live_count());
  const std::size_t row_bytes = datum.row_bytes();
  auto op = pending->op;
  const auto writers = pending->writer_slots;

  for (int seg = 0; seg < live_count(); ++seg) {
    const int t = live_[static_cast<std::size_t>(seg)];
    const RowInterval rows =
        partition.work_row_ranges[static_cast<std::size_t>(seg)];
    if (rows.empty()) {
      continue;
    }
    const auto* dst_alloc = analyzer_.find(&datum, t);
    if (dst_alloc == nullptr) {
      continue;
    }
    const int t_loc = SegmentLocationMonitor::loc(t);
    const std::size_t seg_bytes = rows.size() * row_bytes;

    // Hierarchical pre-combine (the reduce dual of the transfer planner's
    // fan-out trees): partials are grouped into *combine domains* — PCIe
    // pairs on the target's own cluster node, whole nodes elsewhere — and
    // each domain sums locally before its single combined segment travels
    // to the target. A pair of partials behind the inter-socket link then
    // crosses it once instead of once per holder, and on a cluster each
    // remote node's partials cross the network once instead of once per
    // writer.
    const sim::Topology& topo = node_.topology();
    const int t_dev = devices_[static_cast<std::size_t>(t)];
    const int t_bus = topo.bus_of(t_dev);
    const int t_node = topo.cluster_node_of(t_dev);
    std::vector<int> sources;
    std::vector<std::vector<int>> combine_groups;
    {
      // Domain ids: [0, bus_count) = buses on the target's node,
      // [bus_count, bus_count + cluster_nodes) = whole remote nodes.
      const std::size_t n_domains =
          static_cast<std::size_t>(topo.bus_count()) +
          static_cast<std::size_t>(topo.cluster_nodes());
      std::vector<std::vector<int>> by_domain(n_domains);
      for (int s : writers) {
        if (s == t || analyzer_.find(&datum, s) == nullptr) {
          continue;
        }
        const int dev = devices_[static_cast<std::size_t>(s)];
        const int s_node = topo.cluster_node_of(dev);
        const std::size_t dom =
            s_node == t_node
                ? static_cast<std::size_t>(topo.bus_of(dev))
                : static_cast<std::size_t>(topo.bus_count()) +
                      static_cast<std::size_t>(s_node);
        by_domain[dom].push_back(s);
      }
      for (std::size_t dom = 0; dom < n_domains; ++dom) {
        auto& members = by_domain[dom];
        // The target's own bus needs no pre-combine: its partials already
        // sit one cheap hop away.
        const bool target_bus = dom == static_cast<std::size_t>(t_bus);
        if (!planner_active() || target_bus || members.size() < 2) {
          sources.insert(sources.end(), members.begin(), members.end());
          continue;
        }
        const int combiner = members.front();
        std::vector<int> group{combiner};
        for (int m : members) {
          if (m == combiner) {
            continue;
          }
          if (topo.peer_enabled(devices_[static_cast<std::size_t>(combiner)],
                                devices_[static_cast<std::size_t>(m)])) {
            group.push_back(m);
          } else {
            sources.push_back(m);
          }
        }
        sources.push_back(combiner);
        if (group.size() >= 2) {
          combine_groups.push_back(std::move(group));
        }
      }
    }

    // Sums `srcs`' partial rows into `dst`'s own on dst's reduce stream,
    // staging them in `staging` (grown to `need` bytes on dst's device), and
    // registers every read and the write in the ordering maps.
    const auto reduce_rows = [&](int dst, const std::vector<int>& srcs,
                                 sim::Buffer*& staging, std::size_t need,
                                 const char* label) {
      const auto* dst_alloc = analyzer_.find(&datum, dst);
      const int dst_loc = SegmentLocationMonitor::loc(dst);
      const int dst_dev = devices_[static_cast<std::size_t>(dst)];
      SumFold f;
      f.label = label;
      f.stream = streams_[static_cast<std::size_t>(dst)].reduce;
      f.staged = srcs.size();
      for (int s : srcs) {
        if (staging == nullptr || staging->size() < need) {
          staging = node_.malloc_device(dst_dev, need);
        }
        const auto* src_alloc = analyzer_.find(&datum, s);
        const int src_loc = SegmentLocationMonitor::loc(s);
        const int src_dev = devices_[static_cast<std::size_t>(s)];
        SumPull pull;
        pull.src = src_alloc->buffer;
        pull.src_off = src_alloc->row_offset(static_cast<long>(rows.begin));
        ordering(&datum, src_loc).avail.collect(rows, pull.waits);
        pull.done = node_.create_event();
        ordering(&datum, src_loc).access.add_reader(src_alloc->local(rows),
                                                   pull.done);
        ++stats_.transfers.copies_issued;
        TransferPlanner::account(stats_.transfers, topo,
                                 sim::Endpoint::dev(src_dev),
                                 sim::Endpoint::dev(dst_dev), false,
                                 seg_bytes);
        // Network crossings go in pieces, exactly like routed input
        // transfers; the pieces partition the same segment over the same
        // link, so byte totals are unchanged.
        if (planner_active() && settings_.copy_chunk_bytes > 0 &&
            topo.network_pipelining && !topo.peer_enabled(src_dev, dst_dev) &&
            seg_bytes > settings_.copy_chunk_bytes) {
          pull.chunk_bytes = settings_.copy_chunk_bytes;
          const std::uint32_t depth =
              static_cast<std::uint32_t>((seg_bytes + pull.chunk_bytes - 1) /
                                         pull.chunk_bytes);
          stats_.transfers.max_pipeline_depth =
              std::max(stats_.transfers.max_pipeline_depth, depth);
          stats_.transfers.bytes_chunked_network += seg_bytes;
          stats_.transfers.copies_chunked += depth - 1;
        }
        f.pulls.push_back(std::move(pull));
      }
      f.staging = staging;
      f.dst = dst_alloc->buffer;
      f.dst_off = dst_alloc->row_offset(static_cast<long>(rows.begin));
      f.elems = rows.size() * datum.row_elems();
      f.elem_size = datum.elem_size();
      f.op = op;
      f.done = node_.create_event();
      const RowInterval dst_local = dst_alloc->local(rows);
      Ordering& dst_order = ordering(&datum, dst_loc);
      dst_order.avail.collect(rows, f.waits);
      dst_order.access.collect(dst_local, f.waits);
      issue(dst, [&] {
        pull_and_sum(node_, streams_[static_cast<std::size_t>(dst)], f);
      });
      dst_order.avail.update(rows, f.done);
      dst_order.access.write(dst_local, f.done);
      return f.done;
    };

    for (const auto& group : combine_groups) {
      const int c = group.front();
      reduce_rows(c, std::vector<int>(group.begin() + 1, group.end()),
                  staging_[{datum.key(), t * slots() + c}],
                  seg_bytes * (group.size() - 1), "reduce_scatter_combine");
    }
    // The target sums every remaining partial (possibly none) into its own.
    const sim::EventId sum_done =
        reduce_rows(t, sources, staging_[{datum.key(), t * slots() + t}],
                    seg_bytes * (writers.size() - 1), "reduce_scatter_sum");
    monitor_.mark_written(&datum, t_loc, rows);
    if (sanitizer_ != nullptr) {
      sanitizer_->on_write(&datum, t_loc, rows);
    }

    // Fault tolerance: the reduced segment is a brand-new value that exists
    // only on its target device; mirror it so the host invariant (fresh copy
    // of every non-pending datum) holds for the scattered result too.
    if (recovery_ != nullptr) {
      if (!datum.bound()) {
        throw std::runtime_error("fault tolerance: datum '" + datum.name() +
                                 "' needs a bound host buffer to mirror to");
      }
      ordered_to_host(&datum, t, streams_[static_cast<std::size_t>(t)].copy2,
                      *dst_alloc, rows, {sum_done});
    }
  }
  monitor_.clear_pending_aggregation(&datum);
}

void Scheduler::Gather(Datum& datum) {
  GatherAsync(datum);
  WaitAll();
}

void Scheduler::Wait(TaskHandle handle) {
  (void)handle; // conservative: drain everything (see synchronize_stream)
  WaitAll();
}

void Scheduler::WaitAll() {
  rethrow_issue_error();
  node_.synchronize();
  recorded_on_.clear();
}

std::size_t Scheduler::gathered_count(const Datum& datum) const {
  auto it = append_counts_.find(datum.key());
  return it == append_counts_.end() || !it->second.gathered
             ? 0
             : *it->second.gathered;
}

} // namespace maps::multi

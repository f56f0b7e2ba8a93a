#include "multi/scheduler.hpp"

#include <algorithm>
#include <bit>
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

namespace detail {

/// Worker-pool-backed sim::FunctionalExecutor. One fork-join Group per
/// PHYSICAL node device holds that device's (at most one) pending kernel
/// body; the event loop joins the device before deferring the next body, so
/// same-device sweeps never overlap. Chunked sweeps running inside a body
/// fork their block-row chunks onto the same pool — the pool's helping
/// waits make the nested fork-join deadlock-free.
class ExecBackend : public sim::FunctionalExecutor {
public:
  ExecBackend(unsigned parallelism, int device_count)
      : pool_(parallelism), groups_(static_cast<std::size_t>(device_count)) {}

  ThreadPool& pool() { return pool_; }

  void run_kernel_body(int device, std::function<void()> body) override {
    pool_.submit(groups_[static_cast<std::size_t>(device)], std::move(body));
  }

  void join_device(int device) override {
    pool_.wait(groups_[static_cast<std::size_t>(device)]);
  }

  void join_all() override {
    std::exception_ptr first;
    for (auto& g : groups_) {
      try {
        pool_.wait(g);
      } catch (...) {
        if (!first) {
          first = std::current_exception();
        }
      }
    }
    if (first) {
      std::rethrow_exception(first);
    }
  }

private:
  ThreadPool pool_;
  std::vector<ThreadPool::Group> groups_;
};

} // namespace detail

Scheduler::Scheduler(sim::Node& node, std::vector<int> devices)
    : node_(node),
      devices_(devices.empty() ? [&] {
        std::vector<int> all(static_cast<std::size_t>(node.device_count()));
        std::iota(all.begin(), all.end(), 0);
        return all;
      }() : std::move(devices)),
      analyzer_(node_, devices_),
      monitor_(static_cast<int>(devices_.size())),
      planner_(monitor_, node_.topology(), devices_) {
  for (std::size_t s = 0; s < devices_.size(); ++s) {
    compute_streams_.push_back(node_.create_stream(devices_[s]));
    copy_streams_.push_back(node_.create_stream(devices_[s]));
    copy_streams2_.push_back(node_.create_stream(devices_[s]));
    reduce_streams_.push_back(node_.create_stream(devices_[s]));
    boundary_streams_.push_back(node_.create_stream(devices_[s]));
  }
  live_.resize(devices_.size());
  std::iota(live_.begin(), live_.end(), 0);
  dead_.assign(devices_.size(), false);
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
  auto& vec = append_counts_[datum->key()];
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
  // Work dimensions come from the first Structured Injective output; when a
  // task has none (e.g. histogram), from the first Window input (Fig 4).
  const PatternSpec* dims_src = nullptr;
  for (const auto& s : specs) {
    if (s.kind == PatternKind::StructuredInjective) {
      dims_src = &s;
      break;
    }
  }
  if (dims_src == nullptr) {
    for (const auto& s : specs) {
      if (s.is_input && s.kind == PatternKind::Window) {
        dims_src = &s;
        break;
      }
    }
  }
  if (dims_src == nullptr) {
    for (const auto& s : specs) {
      if (s.seg == Segmentation::PartitionAligned) {
        dims_src = &s;
        break;
      }
    }
  }
  if (dims_src == nullptr && !specs.empty()) {
    dims_src = &specs.front();
  }
  if (dims_src == nullptr) {
    throw std::invalid_argument("Invoke: task has no pattern arguments");
  }
  const std::size_t rows = dims_src->datum->rows();
  const std::size_t cols = dims_src->datum->row_elems();

  // ILP configuration comes from the output containers (§4.5.1).
  unsigned ilp_x = 1, ilp_y = 1;
  for (const auto& s : specs) {
    if (!s.is_input) {
      ilp_x = static_cast<unsigned>(s.ilp_x);
      ilp_y = static_cast<unsigned>(s.ilp_y);
      break;
    }
  }
  if (cols == 1) {
    // 1-D work: fold all ILP into the partition dimension.
    ilp_y = std::max(1u, ilp_x * ilp_y);
    ilp_x = 1;
    return make_partition(rows, cols, kBlock1D, ilp_x, ilp_y, slots_eff);
  }
  return make_partition(rows, cols, kBlock2D, ilp_x, ilp_y, slots_eff);
}

void Scheduler::apply_placement(const std::vector<PatternSpec>& specs) {
  if (!placement_enabled_ || node_.topology().cluster_nodes() <= 1 ||
      live_.size() <= 1) {
    return;
  }
  // Placement only helps pattern sets with provable adjacent-segment
  // exchanges: halo inputs, whose block-row neighbours trade boundary rows
  // every task. Broadcast (Replicate) consumers already cross the network
  // once per node under hierarchical routing regardless of segment order,
  // so reordering buys them nothing and would churn plan-cache shapes.
  bool halo = false;
  for (const auto& s : specs) {
    if (s.is_input && s.seg == Segmentation::PartitionAligned &&
        (s.radius_low > 0 || s.radius_high > 0)) {
      halo = true;
      break;
    }
  }
  if (!halo) {
    return;
  }
  ++stats_.placement.evaluations;
  const sim::Topology& topo = node_.topology();
  const auto dev = [&](int slot) {
    return devices_[static_cast<std::size_t>(slot)];
  };
  const auto crossings = [&](const std::vector<int>& order) {
    std::uint32_t n = 0;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      if (topo.cluster_node_of(dev(order[i])) !=
          topo.cluster_node_of(dev(order[i + 1]))) {
        ++n;
      }
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
  std::vector<int> canonical = live_;
  std::stable_sort(canonical.begin(), canonical.end(), [&](int a, int b) {
    const int da = dev(a), db = dev(b);
    const int na = topo.cluster_node_of(da), nb = topo.cluster_node_of(db);
    if (na != nb) {
      return na < nb;
    }
    const int ba = topo.bus_of(da), bb = topo.bus_of(db);
    if (ba != bb) {
      return ba < bb;
    }
    return da < db;
  });
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
  TaskPartition partition = derive_partition(specs, work, slots_eff);
  for (int seg = 0; seg < slots_eff; ++seg) {
    const int slot = live_[static_cast<std::size_t>(seg)];
    for (const auto& s : specs) {
      analyzer_.record(s, compute_requirement(s, partition, seg), slot);
    }
  }
}

// --- Plan cache --------------------------------------------------------------

bool Scheduler::cacheable(const std::vector<PatternSpec>& specs) {
  // CustomAligned row mappings are opaque host functions: two Invokes with
  // equal fingerprints could still need different rows, so never cache them.
  for (const auto& s : specs) {
    if (s.custom_rows) {
      return false;
    }
  }
  return true;
}

Scheduler::PlanFingerprint
Scheduler::fingerprint(const std::vector<PatternSpec>& specs, const Work* work,
                       const CostHints& hints, const char* label,
                       bool splittable) const {
  PlanFingerprint fp;
  auto& w = fp.words;
  w.reserve(specs.size() * 12 + 11);
  w.push_back(0x4d415053'46503106ull); // "MAPS" fingerprint, version 6
  w.push_back(static_cast<std::uint64_t>(slots()));
  // Device losses change the segment → slot map, so the live set is part of
  // the shape identity (the cache is also cleared wholesale on recovery;
  // this guards any plan that survives in flight).
  std::uint64_t live_mask = 0;
  for (int s : live_) {
    live_mask |= 1ull << s;
  }
  w.push_back(live_mask);
  // The live *order* is the segment → slot map itself; topology-aware
  // placement can permute it without changing the mask, and a plan built
  // under one order must never replay under another.
  std::uint64_t live_order = 0xcbf29ce484222325ull;
  for (int s : live_) {
    live_order = (live_order ^ static_cast<std::uint64_t>(s)) *
                 0x100000001b3ull;
  }
  w.push_back(live_order);
  // Routing is baked into cached plans, so the planner setting is part of
  // the shape identity: a plan routed with the planner on must never be
  // replayed after it is switched off (or vice versa).
  w.push_back(planner_active() ? 1 : 0);
  // Likewise for overlap: strip decomposition, copy chunking and the split
  // cost gate are all baked into the shape.
  w.push_back((overlap_enabled_ ? 2u : 0u) | (splittable ? 1u : 0u));
  w.push_back(static_cast<std::uint64_t>(copy_chunk_bytes_));
  // The device-memory budget decides which residents a build evicts, so a
  // plan built under one budget must never replay under another.
  w.push_back(static_cast<std::uint64_t>(device_memory_budget_));
  w.push_back(specs.size());
  for (const auto& s : specs) {
    w.push_back(reinterpret_cast<std::uintptr_t>(s.datum->key()));
    // Shape guards the (unlikely) reuse of a datum address by a new datum.
    w.push_back(s.datum->rows());
    w.push_back(s.datum->row_elems());
    w.push_back(s.datum->elem_size());
    w.push_back((static_cast<std::uint64_t>(s.kind) << 32) |
                (static_cast<std::uint64_t>(s.seg) << 16) |
                (static_cast<std::uint64_t>(s.agg) << 8) |
                (s.is_input ? 1u : 0u));
    w.push_back(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(s.radius_low)));
    w.push_back(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(s.radius_high)));
    w.push_back((static_cast<std::uint64_t>(s.boundary) << 32) |
                (static_cast<std::uint64_t>(s.ilp_x) << 16) |
                static_cast<std::uint64_t>(s.ilp_y));
    w.push_back(s.row_scale_num);
    w.push_back(s.row_scale_den);
  }
  if (work != nullptr) {
    w.push_back(1);
    w.push_back(work->rows);
    w.push_back(work->cols);
    w.push_back(work->single_device ? 1 : 0);
  } else {
    w.push_back(0);
  }
  w.push_back(std::bit_cast<std::uint64_t>(hints.flops_per_elem));
  w.push_back(std::bit_cast<std::uint64_t>(hints.instr_per_thread));
  w.push_back(std::bit_cast<std::uint64_t>(hints.flop_efficiency));
  // Cost label (kernel/routine family) feeds the launch-stats label.
  std::uint64_t lh = 0xcbf29ce484222325ull;
  for (const char* p = label; *p != '\0'; ++p) {
    lh = (lh ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
  }
  w.push_back(lh);
  fp.hash = hash_words(w.data(), w.size());
  return fp;
}

std::vector<Scheduler::DatumCapture>
Scheduler::capture_datums(const std::vector<PatternSpec>& specs) const {
  std::vector<DatumCapture> caps;
  caps.reserve(specs.size());
  for (const auto& s : specs) {
    const Datum* d = s.datum;
    if (std::any_of(caps.begin(), caps.end(), [&](const DatumCapture& c) {
          return c.datum->key() == d->key();
        })) {
      continue;
    }
    DatumCapture cap;
    cap.datum = d;
    cap.host_ptr = d->bound() ? d->host_raw() : nullptr;
    cap.epoch = monitor_.epoch(d);
    monitor_.state_snapshot(d, cap.snapshot);
    caps.push_back(std::move(cap));
  }
  return caps;
}

std::vector<Scheduler::DatumPostState>
Scheduler::capture_post_states(const std::vector<PatternSpec>& specs,
                               const std::vector<DatumCapture>& pre) const {
  std::vector<DatumPostState> post;
  post.reserve(specs.size());
  for (const auto& s : specs) {
    const Datum* d = s.datum;
    if (std::any_of(post.begin(), post.end(), [&](const DatumPostState& p) {
          return p.datum->key() == d->key();
        })) {
      continue;
    }
    // The build left this datum untouched (typically an input that was
    // already resident everywhere it is needed): its post-state IS the
    // pre-state the hit will have re-proved, so replay has nothing to
    // restore for it.
    const auto pc = std::find_if(pre.begin(), pre.end(), [&](
        const DatumCapture& c) { return c.datum->key() == d->key(); });
    if (pc != pre.end() && pc->epoch == monitor_.epoch(d)) {
      continue;
    }
    DatumPostState ps;
    ps.datum = d;
    monitor_.capture_state(d, ps.state);
    post.push_back(std::move(ps));
  }
  return post;
}

bool Scheduler::captures_valid(
    const std::vector<DatumCapture>& captures) const {
  std::vector<std::uint64_t> cur;
  for (const auto& cap : captures) {
    const void* host = cap.datum->bound() ? cap.datum->host_raw() : nullptr;
    if (host != cap.host_ptr) {
      return false; // re-Bind: cached host source addresses are stale
    }
    const std::uint64_t e = monitor_.epoch(cap.datum);
    if (e == cap.epoch) {
      continue;
    }
    cur.clear();
    monitor_.state_snapshot(cap.datum, cur);
    if (cur != cap.snapshot) {
      return false;
    }
    // Periodic steady state (e.g. double buffering) came back around to the
    // captured state under a different epoch; re-arm the fast path.
    cap.epoch = e;
  }
  return true;
}

void Scheduler::cache_insert(PlanFingerprint fp,
                             std::shared_ptr<const PlanShape> shape,
                             std::vector<DatumCapture> captures,
                             std::vector<DatumPostState> post_state) {
  CacheEntry entry;
  entry.shape = std::move(shape);
  entry.captures = std::move(captures);
  entry.post_state = std::move(post_state);

  auto it = cache_.find(fp);
  if (it != cache_.end()) { // new state variant of an already-cached shape
    auto& vars = it->second.variants;
    vars.insert(vars.begin(), std::move(entry));
    if (vars.size() > kVariantsPerFingerprint) {
      vars.pop_back();
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }

  while (cache_.size() >= plan_cache_capacity_ && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
  lru_.push_front(fp);
  CacheSlot slot;
  slot.variants.push_back(std::move(entry));
  slot.lru_it = lru_.begin();
  cache_[std::move(fp)] = std::move(slot);
}

void Scheduler::set_plan_cache_capacity(std::size_t n) {
  plan_cache_capacity_ = n;
  while (cache_.size() > plan_cache_capacity_ && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

std::size_t Scheduler::live_dependency_intervals() const {
  std::size_t n = 0;
  for (const auto& [key, map] : avail_) {
    n += map.entry_count();
  }
  for (const auto& [key, map] : access_) {
    n += map.entry_count();
  }
  return n;
}

// --- Planning ----------------------------------------------------------------

void Scheduler::wire_copy(const PlannedCopy& c, DeviceWiring& dw,
                          CopyWiring& w, sim::EventId done,
                          bool update_monitor) {
  const std::size_t base = dw.wait_pool.size();
  w.wait_begin = static_cast<std::uint32_t>(base);
  w.done = done;
  w.dropped = false; // recycled replay wiring may carry a stale fault flag
  if (c.zero_fill) {
    c.dst_access->collect(c.dst_local, dw.wait_pool, base);
    c.dst_access->write(c.dst_local, w.done);
    w.wait_end = static_cast<std::uint32_t>(dw.wait_pool.size());
    return;
  }
  // Producer availability of exactly the copied rows at the source (GLOBAL
  // rows), plus WAR against prior readers/writers of the destination slot
  // (LOCAL rows).
  c.src_avail->collect(c.rows, dw.wait_pool, base);
  c.dst_access->collect(c.dst_local, dw.wait_pool, base);
  c.dst_access->write(c.dst_local, w.done);
  // Register the read on the source (LOCAL rows there).
  c.src_access->add_reader(c.src_local, w.done);
  // Only rows whose virtual position equals their global position can later
  // serve as copy sources (wrapped/clamped halo slots cannot), and only then
  // does the replica register as available data that later tasks may chain
  // on.
  if (c.aligned) {
    if (update_monitor) {
      monitor_.mark_copied(c.datum, c.dst_location, c.rows);
    }
    c.dst_avail->update(c.rows, w.done);
  }
  w.wait_end = static_cast<std::uint32_t>(dw.wait_pool.size());
}

void Scheduler::plan_copies_for(PlanShape& shape, DeviceWiring& dw, int slot,
                                int pattern_index, const SegmentReq& req,
                                const MemoryAnalyzer::Alloc& alloc) {
  const PatternSpec& spec =
      shape.specs[static_cast<std::size_t>(pattern_index)];
  Datum* datum = spec.datum;
  DevicePlan& dp = shape.devices[static_cast<std::size_t>(slot)];
  const int dst_loc = SegmentLocationMonitor::loc(slot);

  for (const CopyRegion& region : req.input_regions) {
    if (region.zero_fill) {
      PlannedCopy c;
      c.pattern_index = pattern_index;
      c.zero_fill = true;
      c.whole_buffer = req.whole;
      c.datum = datum;
      c.dst_location = dst_loc;
      c.dst_access = &access_[{datum->key(), dst_loc}];
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
      CopyWiring w;
      wire_copy(c, dw, w, node_.create_event(), /*update_monitor=*/true);
      dp.copies.push_back(std::move(c));
      dw.copies.push_back(w);
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
    // Row-range chunking: split transfers above the threshold so consumers
    // with row-granular reads (interior/boundary strips, forwarding copies
    // in a fan-out tree) start as soon as their chunk lands instead of when
    // the whole transfer finishes. On clusters, chunk pieces of one network
    // crossing additionally pipeline their D2H / NIC / H2D hops in the
    // simulator's leg-wise occupancy model, so network routes are chunked
    // even when compute–transfer overlap is off. Purely structural — every
    // chunk moves the same rows over the same link, so byte totals are
    // unchanged.
    const sim::Topology& topo = node_.topology();
    const auto op_crosses = [&](const SegmentLocationMonitor::CopyOp& op) {
      const int src_dev =
          op.src_location == SegmentLocationMonitor::kHost
              ? -1
              : devices_[static_cast<std::size_t>(op.src_location - 1)];
      return topo.cluster_node_of(src_dev) !=
             topo.cluster_node_of(devices_[static_cast<std::size_t>(slot)]);
    };
    // Without leg-wise occupancy (network_pipelining off) chunked crossings
    // would serialize whole-duration reservations and only add per-piece
    // latency, so the PR 8 monolithic model plans monolithic routes.
    const bool chunk_network = planner_active() && topo.cluster_nodes() > 1 &&
                               topo.network_pipelining;
    if (copy_chunk_bytes_ > 0 && (overlap_enabled_ || chunk_network)) {
      const std::size_t chunk_rows =
          std::max<std::size_t>(1, copy_chunk_bytes_ / alloc.row_bytes);
      const auto splits = [&](const SegmentLocationMonitor::CopyOp& op) {
        return op.rows.size() > chunk_rows &&
               (overlap_enabled_ || op_crosses(op));
      };
      const bool oversize = std::any_of(ops.begin(), ops.end(), splits);
      if (oversize) {
        std::vector<SegmentLocationMonitor::CopyOp> pieces;
        pieces.reserve(ops.size());
        for (const auto& op : ops) {
          if (!splits(op)) {
            pieces.push_back(op);
            continue;
          }
          const std::uint32_t depth = static_cast<std::uint32_t>(
              (op.rows.size() + chunk_rows - 1) / chunk_rows);
          shape.transfers.max_pipeline_depth =
              std::max(shape.transfers.max_pipeline_depth, depth);
          (op_crosses(op) ? shape.transfers.bytes_chunked_network
                          : shape.transfers.bytes_chunked_intranode) +=
              op.rows.size() * alloc.row_bytes;
          std::size_t b = op.rows.begin;
          while (op.rows.end - b > chunk_rows) {
            auto piece = op;
            piece.rows = RowInterval{b, b + chunk_rows};
            pieces.push_back(piece);
            b += chunk_rows;
            ++shape.transfers.copies_chunked;
          }
          auto tail = op;
          tail.rows = RowInterval{b, op.rows.end};
          pieces.push_back(tail);
        }
        ops = std::move(pieces);
      }
    }
    for (const auto& op : ops) {
      PlannedCopy c;
      c.pattern_index = pattern_index;
      c.aligned = aligned;
      c.src_location = op.src_location;
      c.dst_location = dst_loc;
      c.via_host = op.via_host;
      c.datum = datum;
      c.src_avail = &avail_[{datum->key(), op.src_location}];
      c.dst_avail = &avail_[{datum->key(), dst_loc}];
      c.src_access = &access_[{datum->key(), op.src_location}];
      c.dst_access = &access_[{datum->key(), dst_loc}];
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
      // ordinary, so refills never over-count). Checked before wire_copy:
      // mark_copied below clears the spilled record.
      const bool refill = device_memory_budget_ > 0 && c.aligned &&
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
          (force_host_staged_ || op.via_host ||
           !node_.topology().peer_enabled(src_ep.device, dst_ep.device));
      TransferPlanner::account(tacct, node_.topology(), src_ep,
                               dst_ep, staged, c.bytes);
      CopyWiring w;
      wire_copy(c, dw, w, node_.create_event(), /*update_monitor=*/true);
      dp.copies.push_back(std::move(c));
      dw.copies.push_back(w);
    }
  }
}

void Scheduler::commit_post_state(const DevicePlan& dp, const DeviceWiring& dw,
                                  int slot, bool update_monitor) {
  const int loc = SegmentLocationMonitor::loc(slot);
  // Reads and writes register per strip, so a consumer (a neighbour's next
  // halo pull, the next task's interior) waits only on the strip that
  // actually produced or read its rows.
  for (std::size_t i = 0; i < dp.post.size(); ++i) {
    const PatternPost& post = dp.post[i];
    if (!post.active) {
      continue;
    }
    for (std::size_t k = 0; k < dp.sub.size(); ++k) {
      const StripSpan& sp = dp.sub[k].spans[i];
      const sim::EventId done = dw.strips[k].done;
      if (post.is_input) {
        if (!sp.read_local.empty()) {
          post.access->add_reader(sp.read_local, done);
        }
      } else if (!sp.out_global.empty()) {
        post.avail->update(sp.out_global, done);
        post.access->write(sp.out_local, done);
      }
    }
    if (!post.is_input && update_monitor && !post.private_copy) {
      monitor_.mark_written(post.datum, loc, post.core);
    }
  }
}

void Scheduler::commit_aggregations(const PlanShape& shape,
                                    bool update_monitor) {
  // Reductive / unstructured outputs: register the pending aggregation and
  // reset the per-device append counters.
  for (const auto& s : shape.specs) {
    if (s.is_input || s.agg == AggregationKind::None) {
      continue;
    }
    if (update_monitor) { // replay restores the captured post-state instead
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
    if (s.agg == AggregationKind::Append) {
      auto& counts = append_counts_[s.datum->key()];
      if (!counts) {
        counts =
            std::make_shared<std::vector<std::uint64_t>>(devices_.size(), 0);
      }
      std::fill(counts->begin(), counts->end(), 0);
    }
  }
}

void Scheduler::account_dispatch(const PlanShape& shape) {
  stats_.transfers.add(shape.transfers);
  stats_.spill.add(shape.spill);
  stats_.interior_subkernels += shape.interior_launches;
  stats_.boundary_subkernels += shape.boundary_launches;
}

std::shared_ptr<Scheduler::TaskPlan>
Scheduler::plan_task(std::vector<PatternSpec> specs, const Work* work,
                     const CostHints& hints, const char* label,
                     bool splittable) {
  for (const auto& s : specs) {
    monitor_.register_datum(s.datum);
  }
  // Placement must settle before the fingerprint is taken: the chosen
  // segment -> slot order is part of the plan's shape identity.
  apply_placement(specs);

  // Out-of-core residency (DESIGN.md §5.16), decided before the cache
  // lookup: a replayed plan bakes in the residency it was built under, and
  // any eviction here clears the cache, so the subsequent miss rebuilds with
  // the refill copies planned.
  bool streamed = false;
  if (device_memory_budget_ > 0) {
    // LRU recency: every datum this task references counts as touched on
    // every live slot, for hit and miss paths alike — a replayed plan keeps
    // its buffers exactly as warm as a rebuilt one would.
    const std::uint64_t stamp = ++touch_counter_;
    for (const auto& s : specs) {
      for (int slot : live_) {
        last_touch_[{s.datum->key(), slot}] = stamp;
      }
    }
    // The task streams when its own working set on some slot — the planned
    // bytes of every datum it touches there, once its requirements are
    // recorded (the lazy AnalyzeCall build_plan repeats) — exceeds the
    // budget. Otherwise colder residents make room for it.
    const int slots_eff = slots_for(specs, work);
    const TaskPartition partition = derive_partition(specs, work, slots_eff);
    for (int seg = 0; seg < slots_eff && !streamed; ++seg) {
      const int slot = live_[static_cast<std::size_t>(seg)];
      std::vector<const Datum*> touched;
      for (const auto& s : specs) {
        const SegmentReq req = compute_requirement(s, partition, seg);
        analyzer_.record(s, req, slot);
        if (req.active && std::none_of(touched.begin(), touched.end(),
                                       [&](const Datum* d) {
                                         return d->key() == s.datum->key();
                                       })) {
          touched.push_back(s.datum);
        }
      }
      std::size_t working = 0;
      for (const Datum* d : touched) {
        working += analyzer_.planned_bytes(d, slot);
      }
      streamed = working > device_memory_budget_;
    }
    if (!streamed) {
      enforce_budget(specs, slots_eff);
    }
  }

  const bool use_cache =
      !streamed && plan_cache_capacity_ > 0 && cacheable(specs);
  if (!use_cache) {
    const auto t0 = std::chrono::steady_clock::now();
    auto plan =
        build_plan(std::move(specs), work, hints, label, splittable, streamed);
    // Streamed plans are counted by spill.streamed_tasks, not as plan
    // builds: a budgeted chain that streams every task is in steady state.
    if (!streamed) {
      stats_.plan_time_us += elapsed_us(t0);
      ++stats_.plans_built;
      stats_.uncacheable_tasks += plan_cache_capacity_ > 0 ? 1 : 0;
    }
    account_dispatch(*plan->shape);
    return plan;
  }

  PlanFingerprint fp = fingerprint(specs, work, hints, label, splittable);
  auto it = cache_.find(fp);
  if (it != cache_.end()) {
    CacheSlot& slot = it->second;
    for (std::size_t vi = 0; vi < slot.variants.size(); ++vi) {
      if (!captures_valid(slot.variants[vi].captures)) {
        continue;
      }
      std::rotate(slot.variants.begin(), slot.variants.begin() + vi,
                  slot.variants.begin() + vi + 1); // MRU within the slot
      lru_.splice(lru_.begin(), lru_, slot.lru_it);
      const auto t0 = std::chrono::steady_clock::now();
      auto plan = replay_plan(slot.variants.front());
      stats_.replay_time_us += elapsed_us(t0);
      ++stats_.cache_hits;
      account_dispatch(*plan->shape);
      return plan;
    }
    // Known shape, but no variant was built under the current location
    // state; the build below adds one (possibly displacing the oldest).
    ++stats_.cache_invalidations;
  }
  ++stats_.cache_misses;

  // Capture the validity oracle BEFORE the build mutates the monitor: a
  // later Invoke hits only if the monitor looks like it does right now.
  auto captures = capture_datums(specs);
  const auto t0 = std::chrono::steady_clock::now();
  auto plan = build_plan(std::move(specs), work, hints, label, splittable,
                         /*streamed=*/false);
  stats_.plan_time_us += elapsed_us(t0);
  ++stats_.plans_built;
  auto post_states = capture_post_states(plan->shape->specs, captures);
  cache_insert(std::move(fp), plan->shape, std::move(captures),
               std::move(post_states));
  account_dispatch(*plan->shape);
  return plan;
}

bool Scheduler::overlap_eligible(const std::vector<PatternSpec>& specs) {
  bool halo_input = false;
  for (const auto& s : specs) {
    if (s.seg == Segmentation::PartitionAligned) {
      // Non-unit row scales can map adjacent work strips onto a shared datum
      // row (ceil/floor rounding), so strips would no longer write disjoint
      // rows.
      if (s.row_scale_num != 1 || s.row_scale_den != 1) {
        return false;
      }
    } else if (!(s.is_input && s.seg == Segmentation::Replicate)) {
      return false; // duplicated/custom/single-device segmentation
    }
    if (!s.is_input && s.agg != AggregationKind::None) {
      return false; // aggregating outputs are combined as whole buffers
    }
    if (s.is_input && s.seg == Segmentation::PartitionAligned &&
        (s.radius_low > 0 || s.radius_high > 0)) {
      halo_input = true;
    }
  }
  // Without a windowed input there is no halo traffic to overlap against.
  return halo_input;
}

bool Scheduler::overlap_profitable(
    const std::vector<PatternSpec>& specs) const {
  // Estimate the halo chain a boundary strip would hide: link latency plus
  // the widest halo over the cheapest inter-device link (conservative — the
  // contended cross-bus path only makes the chain longer). Splitting adds up
  // to two extra kernel launches per device, each paying the launch cost on
  // the compute engine.
  const sim::Topology& topo = node_.topology();
  const sim::Endpoint a = sim::Endpoint::dev(devices_[0]);
  const sim::Endpoint b = devices_.size() > 1 ? sim::Endpoint::dev(devices_[1])
                                              : sim::Endpoint::host();
  double chain_us = 0.0;
  for (const auto& s : specs) {
    if (!s.is_input || s.seg != Segmentation::PartitionAligned ||
        (s.radius_low == 0 && s.radius_high == 0)) {
      continue;
    }
    const std::size_t halo_rows = static_cast<std::size_t>(
        std::max(s.radius_low, s.radius_high));
    const std::size_t bytes =
        halo_rows * s.datum->row_elems() * s.datum->elem_size();
    chain_us = std::max(chain_us, topo.transfer_seconds(a, b, bytes) * 1e6);
  }
  const double extra_launch_us =
      2.0 * node_.spec(devices_[0]).kernel_launch_us;
  return chain_us > extra_launch_us;
}

namespace {
/// Launch stats of a strip covering `frac` of the device's block rows: the
/// work totals scale proportionally, per-launch fixed costs stay.
sim::LaunchStats scale_launch_stats(const sim::LaunchStats& st, double frac) {
  const auto part = [frac](std::uint64_t v) {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(v) * frac));
  };
  sim::LaunchStats out = st;
  out.blocks = std::max<std::uint64_t>(1, part(st.blocks));
  out.flops = part(st.flops);
  out.global_bytes_read = part(st.global_bytes_read);
  out.global_bytes_written = part(st.global_bytes_written);
  out.shared_ops = part(st.shared_ops);
  out.global_atomics = part(st.global_atomics);
  out.shared_atomics = part(st.shared_atomics);
  out.instr_overhead = part(st.instr_overhead);
  return out;
}

/// One partial segment a SumFold pulls into its staging buffer.
struct SumPull {
  sim::Buffer* src = nullptr;
  std::size_t src_off = 0;
  std::vector<sim::EventId> waits; ///< producers of the pulled rows
  sim::EventId done = 0;
  /// Piece size for a network crossing (0 = one copy): the pieces pipeline
  /// their D2H / NIC / H2D legs chunk by chunk.
  std::size_t chunk_bytes = 0;
};

/// A device-side Sum (ReduceScatter, aggregation repair): dst += each of
/// the first `staged` segments of `staging`, `pulls` filling them first.
struct SumFold {
  const char* label = "";
  sim::StreamId stream = 0; ///< where the fold kernel runs
  std::vector<SumPull> pulls;
  std::size_t staged = 0;
  sim::Buffer* staging = nullptr;
  sim::Buffer* dst = nullptr;
  std::size_t dst_off = 0;
  std::size_t elems = 0; ///< elements per segment
  std::size_t elem_size = 0;
  std::vector<sim::EventId> waits; ///< extra waits of the fold kernel
  sim::EventId done = -1;          ///< recorded after the fold (< 0: none)
  std::function<void(void*, const void*, std::size_t)> op;
};

/// Enqueues `f`: the pulls alternate between the device's two copy streams,
/// then the fold kernel runs after every pull and `f.waits`.
void pull_and_sum(sim::Node& node, sim::StreamId copy0, sim::StreamId copy1,
                  const SumFold& f) {
  const std::size_t seg_bytes = f.elems * f.elem_size;
  for (std::size_t k = 0; k < f.pulls.size(); ++k) {
    const SumPull& pull = f.pulls[k];
    const sim::StreamId cs = k % 2 == 0 ? copy0 : copy1;
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
} // namespace

void Scheduler::build_strips(
    PlanShape& shape, DevicePlan& dp, int seg,
    const std::vector<SegmentReq>& reqs,
    const std::vector<const MemoryAnalyzer::Alloc*>& allocs,
    const std::vector<StripRange>& ranges) {
  if (ranges.size() < 2) {
    // S = 1: the whole device grid at the device's cost. It reads every
    // local buffer (core + halos), gates on every copy and zero fill, and
    // waits on the availability of the rows it reads at their global
    // position — whatever stream or engine produced them.
    SubKernel sub;
    sub.grid = dp.grid;
    sub.stats = dp.stats;
    sub.spans.resize(dp.post.size());
    for (std::size_t i = 0; i < dp.post.size(); ++i) {
      const PatternPost& post = dp.post[i];
      StripSpan& sp = sub.spans[i];
      if (!post.active) {
        continue;
      }
      if (post.is_input) {
        sp.read_local = post.local_span;
        sp.read_global = post.reads;
      } else {
        // Private (duplicated) partials span the whole datum; aligned
        // outputs produce exactly their core rows.
        sp.out_local = post.core_local;
        sp.out_global = post.produced;
      }
    }
    sub.copy_waits.resize(dp.copies.size());
    std::iota(sub.copy_waits.begin(), sub.copy_waits.end(), 0u);
    dp.sub.push_back(std::move(sub));
    return;
  }
  const std::size_t span = shape.partition.rows_per_block_row();
  const std::size_t total =
      shape.partition.block_rows[static_cast<std::size_t>(seg)].size();
  dp.sub.reserve(ranges.size());
  for (const StripRange& r : ranges) {
    SubKernel sub;
    sub.boundary = r.boundary;
    sub.grid = dp.grid;
    sub.grid.block_row_offset = static_cast<unsigned>(r.block_rows.begin);
    sub.grid.block_rows = static_cast<unsigned>(r.block_rows.size());
    const std::size_t w0 = r.block_rows.begin * span;
    const std::size_t w1 =
        std::min(r.block_rows.end * span, shape.partition.work_rows);
    sub.spans.resize(shape.specs.size());
    for (std::size_t i = 0; i < shape.specs.size(); ++i) {
      const PatternSpec& s = shape.specs[i];
      const SegmentReq& req = reqs[i];
      if (!req.active || allocs[i] == nullptr) {
        continue;
      }
      const MemoryAnalyzer::Alloc& alloc = *allocs[i];
      StripSpan& sp = sub.spans[i];
      const long rows = static_cast<long>(s.datum->rows());
      if (s.is_input) {
        if (req.whole || s.seg != Segmentation::PartitionAligned) {
          // Replicated input: every strip reads the whole datum.
          sp.read_local = RowInterval{0, alloc.rows};
          sp.read_global.push_back(
              RowInterval{0, static_cast<std::size_t>(rows)});
          continue;
        }
        // Virtual rows the strip reads (1/1 row scale — enforced by
        // overlap_eligible): its work rows widened by the window radius.
        const long lo = read_span_lo(s, w0);
        const long hi = read_span_hi(s, w1);
        const long l0 = std::max(lo - alloc.origin, 0L);
        const long l1 =
            std::min(hi - alloc.origin, static_cast<long>(alloc.rows));
        sp.read_local = RowInterval{static_cast<std::size_t>(l0),
                                    static_cast<std::size_t>(
                                        std::max(l1, l0))};
        // Rows read at their global position gate on availability; rows read
        // through Wrap/Clamp/Zero halo slots gate on their refill copies
        // (below), which is why clipping to the datum is enough here.
        const long g0 = std::clamp(lo, 0L, rows);
        const long g1 = std::clamp(hi, g0, rows);
        if (g1 > g0) {
          sp.read_global.push_back(RowInterval{
              static_cast<std::size_t>(g0), static_cast<std::size_t>(g1)});
        }
      } else {
        const RowInterval out = intersect(
            RowInterval{w0, std::min(w1, static_cast<std::size_t>(rows))},
            req.core);
        if (out.empty()) {
          continue;
        }
        sp.out_global = out;
        sp.out_local = alloc.local(out);
      }
    }
    // Copy gating: the strip waits exactly for the inferred copies (and zero
    // fills) whose destination rows it reads. Chunked copies gate at chunk
    // granularity, so the interior's first rows never wait for a whole
    // segment upload.
    for (std::size_t ci = 0; ci < dp.copies.size(); ++ci) {
      const PlannedCopy& c = dp.copies[ci];
      const StripSpan& sp =
          sub.spans[static_cast<std::size_t>(c.pattern_index)];
      if (!intersect(c.dst_local, sp.read_local).empty()) {
        sub.copy_waits.push_back(static_cast<std::uint32_t>(ci));
      }
    }
    const double frac =
        total == 0 ? 1.0
                   : static_cast<double>(r.block_rows.size()) /
                         static_cast<double>(total);
    sub.stats = scale_launch_stats(dp.stats, frac);
    ++(r.boundary ? shape.boundary_launches : shape.interior_launches);
    dp.sub.push_back(std::move(sub));
  }
}

void Scheduler::wire_strips(const DevicePlan& dp, DeviceWiring& dw,
                            sim::EventId first) {
  dw.strips.resize(dp.sub.size());
  for (std::size_t k = 0; k < dp.sub.size(); ++k) {
    const SubKernel& sub = dp.sub[k];
    StripWiring& sw = dw.strips[k];
    sw.waits.clear();
    sw.waits.reserve(sub.wait_hint);
    // 1. This task's own copies into the strip's read rows (every copy has
    //    its own done event, so the list needs no dedup).
    for (std::uint32_t ci : sub.copy_waits) {
      sw.waits.push_back(dw.copies[ci].done);
    }
    // 2. Availability of the aligned rows the strip reads (earlier kernels,
    //    strips and device-side reductions on this device — which may have
    //    run on another stream — and earlier tasks' copies) plus WAR/WAW on
    //    the rows it writes.
    for (std::size_t i = 0; i < dp.post.size(); ++i) {
      const PatternPost& post = dp.post[i];
      if (!post.active) {
        continue;
      }
      const StripSpan& sp = sub.spans[i];
      if (post.is_input) {
        for (const RowInterval& iv : sp.read_global) {
          post.avail->collect(iv, sw.waits);
        }
      } else if (!sp.out_local.empty()) {
        post.access->collect(sp.out_local, sw.waits);
      }
    }
    sw.done = first + static_cast<sim::EventId>(k);
  }
}

std::shared_ptr<Scheduler::TaskPlan>
Scheduler::build_plan(std::vector<PatternSpec> specs, const Work* work,
                      const CostHints& hints, const char* label,
                      bool splittable, bool streamed) {
  auto plan = std::make_shared<TaskPlan>();
  plan->handle = next_task_++;
  auto shape_owned = std::make_shared<PlanShape>();
  PlanShape& shape = *shape_owned;
  plan->shape = shape_owned;
  shape.specs = std::move(specs);
  for (const auto& s : shape.specs) {
    shape.dims.push_back(s.datum->dims());
  }
  shape.streamed = streamed;
  shape.prefetch = spill_prefetch_;
  planner_.begin_task();
  // Chunks that gate different strips must survive the planner's
  // re-coalescing pass.
  planner_.set_max_coalesce_bytes(overlap_enabled_ ? copy_chunk_bytes_ : 0);

  // Segments [0, slots_eff) map to physical slots through live_; with no
  // device losses the map is the identity and slots_eff == slots().
  const int slots_eff = slots_for(shape.specs, work);
  shape.partition = derive_partition(shape.specs, work, slots_eff);
  shape.devices.resize(devices_.size());
  plan->wiring.resize(devices_.size());

  // Record requirements first (lazy AnalyzeCall) so allocations cover this
  // task even if the programmer skipped the explicit call.
  std::vector<std::vector<SegmentReq>> reqs(
      static_cast<std::size_t>(slots_eff));
  for (int seg = 0; seg < slots_eff; ++seg) {
    const int slot = live_[static_cast<std::size_t>(seg)];
    for (const auto& s : shape.specs) {
      reqs[static_cast<std::size_t>(seg)].push_back(
          compute_requirement(s, shape.partition, seg));
      analyzer_.record(s, reqs[static_cast<std::size_t>(seg)].back(), slot);
    }
  }

  // Residents a streamed device cannot evict, per segment.
  std::vector<std::size_t> unevictable(static_cast<std::size_t>(slots_eff),
                                       0);
  if (streamed) {
    check_streamable(shape, reqs, label);
    ++shape.spill.streamed_tasks;
    // Streamed plans run against a drained node: the passes below evict.
    invalidate_plans();
    bool quiesced = true;
    // Make the host authoritative for every input: windows read host rows
    // directly, and the flush itself is spill traffic.
    std::vector<const void*> flushed;
    for (const auto& s : shape.specs) {
      if (!s.is_input || std::find(flushed.begin(), flushed.end(),
                                   s.datum->key()) != flushed.end()) {
        continue;
      }
      flushed.push_back(s.datum->key());
      flush_datum_to_host(s.datum);
    }
    node_.synchronize();
    // Clear residency on every active slot: windowed datums stream through
    // transient buffers, and colder residents make room for the persistent
    // set. Whole-requirement datums stay resident unless their recorded plan
    // outgrew the existing buffer. Dirty rows were flushed above, so these
    // evictions write back nothing for this task's own inputs.
    for (int seg = 0; seg < slots_eff; ++seg) {
      const int slot = live_[static_cast<std::size_t>(seg)];
      const auto& sreqs = reqs[static_cast<std::size_t>(seg)];
      std::vector<const void*> keep;
      for (std::size_t i = 0; i < shape.specs.size(); ++i) {
        if (sreqs[i].active && sreqs[i].whole &&
            !analyzer_.needs_grow(shape.specs[i].datum, slot)) {
          keep.push_back(shape.specs[i].datum->key());
        }
      }
      for (const auto& r : analyzer_.resident(slot)) {
        if (std::find(keep.begin(), keep.end(), r.datum->key()) !=
            keep.end()) {
          continue;
        }
        if (monitor_.pending_aggregation(r.datum) != nullptr ||
            !r.datum->bound()) {
          unevictable[static_cast<std::size_t>(seg)] +=
              r.alloc->buffer->size();
          continue;
        }
        spill_allocation(r.datum, slot, quiesced);
      }
    }
  } else {
    // A post-loss repartition widens survivor segments, so requirements can
    // legitimately outgrow allocations made under the old live set. With
    // fault tolerance the host mirrors hold every datum, so the stale buffer
    // can be dropped and re-materialized at the new size; without it the
    // analyzer's AnalyzeCall-first contract stands (ensure() throws below).
    if (fault_tolerance_) {
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
          reset_ordering(s.datum, loc);
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
    if (device_memory_budget_ > 0) {
      enforce_budget(shape.specs, slots_eff);
    }
  }

  // Interior/boundary splitting: structurally eligible shapes pass the cost
  // gate once per task; the per-device strip geometry still depends on each
  // slot's block rows (a thin segment may have no interior at all).
  const bool try_split = !streamed && splittable && overlap_enabled_ &&
                         slots_eff > 1 && overlap_eligible(shape.specs) &&
                         overlap_profitable(shape.specs);

  for (int seg = 0; seg < slots_eff; ++seg) {
    const int slot = live_[static_cast<std::size_t>(seg)];
    DevicePlan& dp = shape.devices[static_cast<std::size_t>(slot)];
    DeviceWiring& dw = plan->wiring[static_cast<std::size_t>(slot)];
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
      plan_windows(shape, dp, dw, seg, slot_reqs,
                   unevictable[static_cast<std::size_t>(seg)], label);
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
          &avail_[{s.datum->key(), SegmentLocationMonitor::loc(slot)}];
      post.access =
          &access_[{s.datum->key(), SegmentLocationMonitor::loc(slot)}];
      if (s.is_input) {
        split_read_rows(req, post.reads, post.halo_reads);
      }
      dp.post.push_back(post);

      plan_copies_for(shape, dw, slot, static_cast<int>(i), req, alloc);
    }

    build_strips(shape, dp, seg, slot_reqs, allocs,
                 try_split ? compute_strips(shape.specs, shape.partition, seg,
                                            slot_reqs)
                           : std::vector<StripRange>{});
    wire_strips(dp, dw, node_.create_events(static_cast<int>(dp.sub.size())));
    for (std::size_t k = 0; k < dp.sub.size(); ++k) {
      dp.sub[k].wait_hint =
          static_cast<std::uint32_t>(dw.strips[k].waits.size());
    }
    dp.wait_pool_hint = static_cast<std::uint32_t>(dw.wait_pool.size());
  }

  // Post-kernel location state (the actual commands are enqueued by
  // dispatch; the monitor reflects the state after the task).
  for (int seg = 0; seg < slots_eff; ++seg) {
    const int slot = live_[static_cast<std::size_t>(seg)];
    if (shape.devices[static_cast<std::size_t>(slot)].active) {
      commit_post_state(shape.devices[static_cast<std::size_t>(slot)],
                        plan->wiring[static_cast<std::size_t>(slot)], slot,
                        /*update_monitor=*/true);
    }
  }
  commit_aggregations(shape, /*update_monitor=*/true);

  return plan;
}

std::shared_ptr<Scheduler::TaskPlan> Scheduler::acquire_replay_plan() {
  TaskPlan* raw = nullptr;
  if (!plan_free_.empty()) {
    raw = plan_free_.back().release();
    plan_free_.pop_back();
  } else {
    raw = new TaskPlan();
  }
  // Every reference dies on the caller's thread before the Scheduler does.
  return std::shared_ptr<TaskPlan>(
      raw, [this](TaskPlan* p) { plan_free_.emplace_back(p); });
}

std::shared_ptr<Scheduler::TaskPlan>
Scheduler::replay_plan(const CacheEntry& entry) {
  // The cached shape is immutable and shared; only the event wiring is
  // rebuilt, against the CURRENT avail_/access_ state, in exactly the order
  // the build would have produced it. The location monitor is not touched
  // until the end, where the captured post-state is restored wholesale.
  std::shared_ptr<TaskPlan> plan = acquire_replay_plan();
  plan->shape = entry.shape;
  plan->handle = next_task_++;
  const PlanShape& sh = *plan->shape;
  plan->wiring.resize(sh.devices.size());

  // One lock, one block of event ids for every copy and strip.
  int n_events = 0;
  for (const DevicePlan& dp : sh.devices) {
    if (dp.active) {
      n_events += static_cast<int>(dp.copies.size() + dp.sub.size());
    }
  }
  sim::EventId next_event = node_.create_events(n_events);

  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    DeviceWiring& dw = plan->wiring[slot];
    dw.wait_pool.clear();
    dw.wait_pool.reserve(dp.wait_pool_hint);
    dw.copies.resize(dp.copies.size());
    // Same order as build_plan: every copy, then the strips.
    for (std::size_t ci = 0; ci < dp.copies.size(); ++ci) {
      wire_copy(dp.copies[ci], dw, dw.copies[ci], next_event++,
                /*update_monitor=*/false);
    }
    wire_strips(dp, dw, next_event);
    next_event += static_cast<sim::EventId>(dp.sub.size());
  }

  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    if (sh.devices[slot].active) {
      commit_post_state(sh.devices[slot], plan->wiring[slot],
                        static_cast<int>(slot), /*update_monitor=*/false);
    }
  }
  for (const DatumPostState& ps : entry.post_state) {
    monitor_.restore_state(ps.datum, ps.state);
  }
  commit_aggregations(sh, /*update_monitor=*/false);
  return plan;
}

void Scheduler::bind_operand(LaunchBinding& b, const Datum* datum,
                             RowInterval core, sim::Buffer* buffer,
                             long origin, std::size_t rows) {
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

void Scheduler::issue_copy(sim::StreamId stream, const PlannedCopy& c) {
  if (c.zero_fill) {
    node_.memset_device(stream, c.dst_buffer, c.dst_offset, 0, c.bytes);
  } else if (c.dst_host != nullptr) {
    node_.memcpy_d2h(stream, c.dst_host, c.src_buffer, c.src_offset, c.bytes);
  } else if (c.src_host != nullptr) {
    node_.memcpy_h2d(stream, c.dst_buffer, c.dst_offset, c.src_host, c.bytes);
  } else if ((force_host_staged_ || c.via_host) &&
             c.src_buffer->device() != c.dst_buffer->device()) {
    node_.memcpy_p2p_host_staged(stream, c.dst_buffer, c.dst_offset,
                                 c.src_buffer, c.src_offset, c.bytes);
  } else {
    node_.memcpy_p2p(stream, c.dst_buffer, c.dst_offset, c.src_buffer,
                     c.src_offset, c.bytes);
  }
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
  RoutineArgs args;
  args.node = &node_;
  args.device_idx = slot;
  args.sim_device = devices_[static_cast<std::size_t>(slot)];
  args.stream = stream;
  args.context = context;
  args.parameters.resize(b.views.size());
  args.container_segments.resize(b.views.size());
  for (std::size_t i = 0; i < b.views.size(); ++i) {
    if (b.buffers[i] == nullptr) {
      continue;
    }
    const DeviceView& view = b.views[i];
    RoutineParam& param = args.parameters[i];
    param.buffer = b.buffers[i];
    param.byte_offset = static_cast<std::size_t>(
                            static_cast<long>(view.core_begin) - view.origin) *
                        view.pitch;
    param.view = view;
    Segment& seg = args.container_segments[i];
    seg.global_row_begin = view.core_begin;
    seg.global_row_end = view.core_end;
    seg.m_dimensions = dims[i];
    seg.m_dimensions[0] = view.core_end - view.core_begin;
  }
  args.constants = consts;
  if (!routine(args)) {
    throw std::runtime_error("unmodified routine reported failure");
  }
}

void Scheduler::enqueue_device_commands(
    const TaskPlan& plan, int slot, std::vector<std::function<void()>> bodies,
    const UnmodifiedRoutine& routine, void* context,
    const std::vector<std::vector<std::byte>>& consts, bool copies_only) {
  const PlanShape& sh = *plan.shape;
  const DevicePlan& dp = sh.devices[static_cast<std::size_t>(slot)];
  const DeviceWiring& dw = plan.wiring[static_cast<std::size_t>(slot)];
  const sim::StreamId copy_stream = copy_streams_[static_cast<std::size_t>(slot)];
  const sim::StreamId copy_stream2 =
      copy_streams2_[static_cast<std::size_t>(slot)];
  const sim::StreamId compute_stream =
      compute_streams_[static_cast<std::size_t>(slot)];
  const auto body = [&](std::size_t k) {
    return k < bodies.size() ? std::move(bodies[k]) : std::function<void()>{};
  };

  if (!dp.windows.empty()) {
    // Streamed device (DESIGN.md §5.16). The node was drained when the plan
    // was built, so nothing outside the plan needs waiting on: persistent
    // fills go first on the copy stream, then every window refills on the
    // copy stream, computes on the compute stream and drains on the second
    // copy stream, chained by its three events.
    const auto issue = [&](std::size_t begin, std::size_t end,
                           sim::StreamId stream) {
      for (std::size_t i = begin; i < end; ++i) {
        if (!dw.copies[i].dropped) {
          issue_copy(stream, dp.copies[i]);
        }
      }
    };
    issue(0, dp.windows.front().refill_begin, copy_stream);
    if (copies_only) {
      return;
    }
    const sim::EventId n = static_cast<sim::EventId>(dp.windows.size());
    const auto inputs_ready = [&](std::size_t p) {
      return dw.window_events + static_cast<sim::EventId>(p);
    };
    const auto compute_done = [&](std::size_t p) {
      return dw.window_events + n + static_cast<sim::EventId>(p);
    };
    const auto drain_done = [&](std::size_t p) {
      return dw.window_events + 2 * n + static_cast<sim::EventId>(p);
    };
    for (std::size_t p = 0; p < dp.windows.size(); ++p) {
      const WindowPass& win = dp.windows[p];
      // Double-buffer gating. Prefetch on: window p's refill may start as
      // soon as its buffer set is free — kernel p-2 released the input
      // temps, drain p-2 released the output temps — so it overlaps window
      // p-1's kernel. Prefetch off: the naive evict-then-refill baseline
      // serializes on the PREVIOUS window's drain.
      if (sh.prefetch) {
        if (p >= 2) {
          node_.wait_event_generation(copy_stream, compute_done(p - 2), 1);
          node_.wait_event_generation(copy_stream, drain_done(p - 2), 1);
        }
      } else if (p >= 1) {
        node_.wait_event_generation(copy_stream, drain_done(p - 1), 1);
      }
      issue(win.refill_begin, win.drain_begin, copy_stream);
      node_.record_event(inputs_ready(p), copy_stream);
      node_.wait_event_generation(compute_stream, inputs_ready(p), 1);
      launch_binding(compute_stream, slot, win, win.stats, sh.dims, body(p),
                     routine, context, consts);
      node_.record_event(compute_done(p), compute_stream);
      node_.wait_event_generation(copy_stream2, compute_done(p), 1);
      issue(win.drain_begin, win.drain_end, copy_stream2);
      node_.record_event(drain_done(p), copy_stream2);
    }
    return;
  }

  // Copies spread over the device's two copy streams so independent
  // transfers exploit both copy engines (§2: "multiple memory copy engines
  // that allow simultaneous two-way memory transfer"). Balancing by bytes
  // rather than alternating by index keeps the engines evenly loaded when
  // coalescing leaves transfers of very different sizes.
  std::uint64_t stream_bytes[2] = {0, 0};
  for (std::size_t i = 0; i < dp.copies.size(); ++i) {
    const PlannedCopy& c = dp.copies[i];
    const CopyWiring& w = dw.copies[i];
    const int si = stream_bytes[0] <= stream_bytes[1] ? 0 : 1;
    stream_bytes[si] += c.bytes;
    const sim::StreamId cs = si == 0 ? copy_stream : copy_stream2;
    for (std::uint32_t k = w.wait_begin; k < w.wait_end; ++k) {
      node_.wait_event_generation(cs, dw.wait_pool[k], 1);
    }
    // Fault injection: a dropped transfer silently never happens, but its
    // done event still fires so downstream commands are not deadlocked —
    // the data is simply stale, exactly like a missed inferred copy.
    if (!w.dropped) {
      issue_copy(cs, c);
    }
    node_.record_event(w.done, cs);
  }

  if (copies_only) {
    // CopiesIssued device loss: the victim received its inferred inputs but
    // never launched. Its strip events are left unrecorded — recovery
    // resets the victim's ordering maps before any survivor could collect
    // them, so nothing ever waits on the missing events.
    return;
  }

  // The whole grid and interior strips launch on the compute stream the
  // moment their dependencies clear; boundary strips go to the dedicated
  // boundary stream so their halo-copy waits never block the interior's
  // launch. All strips share the device's compute engine, so the simulator
  // serializes the actual execution.
  for (std::size_t k = 0; k < dp.sub.size(); ++k) {
    const SubKernel& sub = dp.sub[k];
    const StripWiring& sw = dw.strips[k];
    const sim::StreamId stream =
        sub.boundary ? boundary_streams_[static_cast<std::size_t>(slot)]
                     : compute_stream;
    for (sim::EventId ev : sw.waits) {
      node_.wait_event_generation(stream, ev, 1);
    }
    launch_binding(stream, slot, dp, sub.stats, sh.dims, body(k), routine,
                   context, consts);
    node_.record_event(sw.done, stream);
  }
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
  if (bytes == device_memory_budget_) {
    return;
  }
  if (tasks_scheduled() != 0) {
    // Mid-chain budget change: cached plans bake in residency decisions made
    // under the old budget, and in-flight commands may reference buffers the
    // new policy is about to evict.
    invalidate_plans();
  }
  device_memory_budget_ = bytes;
}

void Scheduler::invalidate_plans() {
  node_.synchronize();
  stats_.cache_evictions += cache_.size();
  cache_.clear();
  lru_.clear();
}

void Scheduler::enforce_budget(const std::vector<PatternSpec>& specs,
                               int slots_eff) {
  bool quiesced = false;
  for (int seg = 0; seg < slots_eff; ++seg) {
    const int slot = live_[static_cast<std::size_t>(seg)];
    // Bytes on this slot once the task's datums materialize: current
    // residents plus the planned size of every referenced datum that has no
    // buffer yet (build_plan recorded the requirements just above).
    std::vector<const void*> task_keys;
    std::size_t after = 0;
    for (const auto& s : specs) {
      if (std::find(task_keys.begin(), task_keys.end(), s.datum->key()) !=
          task_keys.end()) {
        continue;
      }
      task_keys.push_back(s.datum->key());
      if (analyzer_.find(s.datum, slot) == nullptr) {
        after += analyzer_.planned_bytes(s.datum, slot);
      }
    }
    for (const auto& r : analyzer_.resident(slot)) {
      after += r.alloc->buffer->size();
    }
    if (after <= device_memory_budget_) {
      continue;
    }
    // LRU eviction over residents the task does not reference. Pending
    // aggregation partials are pinned (their rows are valid nowhere else,
    // and written back as global rows they would corrupt the datum), as are
    // unbound datums (no host buffer to spill into). resident() is
    // name-sorted, so the stable_sort's tie-break is deterministic — the
    // pinned eviction counters in the tests rely on that.
    struct Cand {
      const Datum* datum;
      std::size_t bytes;
      std::uint64_t touch;
    };
    std::vector<Cand> cands;
    for (const auto& r : analyzer_.resident(slot)) {
      if (std::find(task_keys.begin(), task_keys.end(), r.datum->key()) !=
          task_keys.end()) {
        continue;
      }
      if (monitor_.pending_aggregation(r.datum) != nullptr ||
          !r.datum->bound()) {
        continue;
      }
      const auto t = last_touch_.find({r.datum->key(), slot});
      cands.push_back({r.datum, r.alloc->buffer->size(),
                       t == last_touch_.end() ? 0 : t->second});
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const Cand& a, const Cand& b) {
                       return a.touch < b.touch;
                     });
    for (const Cand& c : cands) {
      if (after <= device_memory_budget_) {
        break;
      }
      spill_allocation(c.datum, slot, quiesced);
      after -= c.bytes;
    }
    if (after > device_memory_budget_) {
      throw OutOfCoreError(
          "out-of-core: slot " + std::to_string(slot) + " needs " +
          std::to_string(after) + " bytes against a device memory budget of " +
          std::to_string(device_memory_budget_) +
          " bytes and nothing more can be evicted (the remaining residents "
          "are the task's own datums, pending aggregation partials, or "
          "unbound data) — raise the budget or Gather pending partials "
          "first");
    }
  }
}

void Scheduler::spill_allocation(const Datum* datum, int slot,
                                 bool& quiesced) {
  if (!quiesced) {
    invalidate_plans();
    quiesced = true;
  }
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
  reset_ordering(datum, loc);
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
  const std::size_t bytes = rows.size() * datum->row_bytes();
  node_.memcpy_d2h(copy_streams2_[static_cast<std::size_t>(slot)],
                   datum->host_row(rows.begin), alloc.buffer,
                   alloc.row_offset(static_cast<long>(rows.begin)), bytes);
  ++stats_.spill.transfers.copies_issued;
  TransferPlanner::account(
      stats_.spill.transfers, node_.topology(),
      sim::Endpoint::dev(devices_[static_cast<std::size_t>(slot)]),
      sim::Endpoint::host(), false, bytes);
  stats_.spill.bytes_spilled += bytes;
  monitor_.mark_copied(datum, SegmentLocationMonitor::kHost, rows);
  if (sanitizer_ != nullptr) {
    sanitizer_->on_copy(datum, SegmentLocationMonitor::loc(slot),
                        SegmentLocationMonitor::kHost, rows);
  }
  ++host_content_stamp_[datum->key()];
}

void Scheduler::reset_ordering(const Datum* datum, int loc) {
  auto av = avail_.find({datum->key(), loc});
  if (av != avail_.end()) {
    av->second = IntervalEventMap{};
  }
  auto ac = access_.find({datum->key(), loc});
  if (ac != access_.end()) {
    ac->second = AccessIntervalMap{};
  }
}

void Scheduler::check_streamable(
    const PlanShape& shape, const std::vector<std::vector<SegmentReq>>& reqs,
    const char* label) const {
  const auto& specs = shape.specs;
  for (const auto& s : specs) {
    if (s.custom_rows) {
      throw OutOfCoreError(
          "out-of-core: task '" + std::string(label) +
          "' uses a CustomAligned row mapping — windows must be a pure "
          "function of the partition, so it cannot be streamed; raise the "
          "device memory budget");
    }
    if (!s.datum->bound()) {
      throw OutOfCoreError("out-of-core: datum '" + s.datum->name() +
                           "' needs a bound host buffer to stream through");
    }
    if (!s.is_input && s.agg != AggregationKind::None &&
        s.agg != AggregationKind::Sum) {
      throw OutOfCoreError(
          "out-of-core: task '" + std::string(label) +
          "' has a dynamic (Append/MaskedMerge) output — its size is not a "
          "function of the partition, so it cannot be streamed; raise the "
          "device memory budget");
    }
    if (s.is_input && monitor_.pending_aggregation(s.datum) != nullptr) {
      throw OutOfCoreError("out-of-core: input datum '" + s.datum->name() +
                           "' has a pending aggregation — Gather it before a "
                           "streamed task can read it");
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const PatternSpec& out = specs[i];
    if (out.is_input) {
      continue;
    }
    if (out.agg == AggregationKind::None &&
        (out.row_scale_num != 1 || out.row_scale_den != 1)) {
      throw OutOfCoreError(
          "out-of-core: task '" + std::string(label) +
          "' writes through a non-unit row scale — window drains would not "
          "tile the output; raise the device memory budget");
    }
    for (const auto& in : specs) {
      if (in.is_input && in.datum->key() == out.datum->key() &&
          (in.radius_low > 0 || in.radius_high > 0)) {
        throw OutOfCoreError(
            "out-of-core: task '" + std::string(label) +
            "' updates datum '" + out.datum->name() +
            "' in place with a window radius — a later window would read "
            "host rows an earlier window already overwrote; raise the "
            "device memory budget");
      }
    }
    // Sum outputs must be whole-datum duplicates (the same invariant the
    // in-core reductive path relies on): each slot then accumulates its
    // private partial across its windows in ascending block-row order — the
    // same sweep order as the unsplit kernel, which is what keeps float
    // partials bit-identical.
    if (out.agg != AggregationKind::Sum) {
      continue;
    }
    for (const auto& seg_reqs : reqs) {
      if (seg_reqs[i].active && !seg_reqs[i].whole) {
        throw OutOfCoreError(
            "out-of-core: Sum output datum '" + out.datum->name() +
            "' is not duplicated whole — partitioned reductive outputs "
            "cannot be streamed");
      }
    }
  }
}

void Scheduler::plan_windows(PlanShape& shape, DevicePlan& dp,
                             DeviceWiring& dw, int seg,
                             const std::vector<SegmentReq>& reqs,
                             std::size_t persistent_bytes,
                             const char* label) {
  const auto& specs = shape.specs;
  const int slot = live_[static_cast<std::size_t>(seg)];
  const int loc = SegmentLocationMonitor::loc(slot);
  const sim::Endpoint host = sim::Endpoint::host();
  const sim::Endpoint dev =
      sim::Endpoint::dev(devices_[static_cast<std::size_t>(slot)]);
  const RowInterval sblocks =
      shape.partition.block_rows[static_cast<std::size_t>(seg)];
  const std::size_t nblocks = sblocks.size();
  dp.post.resize(specs.size());
  // Every streamed copy is residency traffic: host-sourced fills and
  // refills, host-bound drains.
  const auto add_copy = [&](const PlannedCopy& c) {
    if (!c.zero_fill) {
      ++shape.spill.transfers.copies_issued;
      const bool drain = c.dst_host != nullptr;
      TransferPlanner::account(shape.spill.transfers, node_.topology(),
                               drain ? dev : host, drain ? host : dev, false,
                               c.bytes);
      (drain ? shape.spill.bytes_spilled : shape.spill.bytes_refilled) +=
          c.bytes;
    }
    dp.copies.push_back(c);
  };

  // Persistent (window-invariant) operands: replicated inputs and
  // whole-datum reductive partials.
  std::vector<const MemoryAnalyzer::Alloc*> allocs(specs.size(), nullptr);
  std::vector<const void*> filled;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SegmentReq& req = reqs[i];
    if (!req.active || !req.whole) {
      continue;
    }
    Datum* d = specs[i].datum;
    const auto& alloc = analyzer_.ensure(d, slot);
    allocs[i] = &alloc;
    if (std::find(filled.begin(), filled.end(), d->key()) != filled.end()) {
      continue;
    }
    filled.push_back(d->key());
    persistent_bytes += alloc.buffer->size();
    for (const CopyRegion& region : req.input_regions) {
      PlannedCopy c;
      c.pattern_index = static_cast<int>(i);
      c.datum = d;
      c.dst_location = loc;
      c.dst_buffer = alloc.buffer;
      if (region.zero_fill) {
        // Reductive partial: fresh zeros every task, like the in-core
        // zero-fill copy.
        c.zero_fill = true;
        c.whole_buffer = true;
        c.bytes = alloc.buffer->size();
        add_copy(c);
        continue;
      }
      // Upload only what the device does not already hold — kept residents
      // stay warm across a task chain.
      c.aligned = true;
      for (const RowInterval& miss :
           monitor_.up_to_date(d, loc).missing_from(region.global)) {
        const long local = region.local_row + static_cast<long>(miss.begin) -
                           static_cast<long>(region.global.begin) +
                           (req.origin - alloc.origin);
        c.rows = miss;
        c.dst_offset = static_cast<std::size_t>(local) * alloc.row_bytes;
        c.src_host = d->host_row(miss.begin);
        c.bytes = miss.size() * alloc.row_bytes;
        add_copy(c);
        monitor_.mark_copied(d, loc, miss);
      }
    }
  }

  // Window size from the linear local-rows model of each streamed pattern:
  // probing 1- and 2-block-row windows gives the per-block-row slope and the
  // fixed overhead (halo rows), which streaming_window_block_rows turns into
  // the largest double-bufferable window. The doubled fixed bytes ride in
  // the persistent term — both ping-pong buffer sets carry them.
  std::size_t slope_bytes = 0;
  std::size_t fixed_bytes = 0;
  bool any_windowed = false;
  const TaskPartition p1 = narrow_partition(
      shape.partition, RowInterval{sblocks.begin, sblocks.begin + 1});
  const TaskPartition p2 = narrow_partition(
      shape.partition,
      RowInterval{sblocks.begin, sblocks.begin + std::min<std::size_t>(
                                                     2, nblocks)});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!reqs[i].active || reqs[i].whole) {
      continue;
    }
    any_windowed = true;
    const std::size_t l1 = compute_requirement(specs[i], p1, 0).local_rows;
    std::size_t slope = l1;
    std::size_t fixed = 0;
    if (nblocks >= 2) {
      const std::size_t l2 = compute_requirement(specs[i], p2, 0).local_rows;
      slope = l2 - l1;
      fixed = l1 > slope ? l1 - slope : 0;
    }
    slope_bytes += slope * specs[i].datum->row_bytes();
    fixed_bytes += fixed * specs[i].datum->row_bytes();
  }
  std::size_t W = nblocks;
  if (any_windowed) {
    W = streaming_window_block_rows(slope_bytes,
                                    persistent_bytes + 2 * fixed_bytes,
                                    device_memory_budget_, nblocks);
    if (W == 0) {
      throw OutOfCoreError(
          "out-of-core: device memory budget of " +
          std::to_string(device_memory_budget_) +
          " bytes cannot hold a single streaming window of task '" +
          std::string(label) + "' on slot " + std::to_string(slot) +
          " (window-invariant residents need " +
          std::to_string(persistent_bytes + 2 * fixed_bytes) +
          " bytes, one window block-row streams " +
          std::to_string(slope_bytes) +
          " bytes, double-buffered) — the budget is smaller than one "
          "segment");
    }
  } else if (persistent_bytes > device_memory_budget_) {
    throw OutOfCoreError(
        "out-of-core: the whole-datum residents of task '" +
        std::string(label) + "' alone need " +
        std::to_string(persistent_bytes) + " bytes on slot " +
        std::to_string(slot) + ", exceeding the device memory budget of " +
        std::to_string(device_memory_budget_) +
        " bytes — the budget is smaller than one segment");
  }
  const std::size_t nwindows = (nblocks + W - 1) / W;
  shape.spill.pass_count += nwindows;

  // Window requirements — windows are spans of the segment's block rows, a
  // pure function of the partition.
  std::vector<std::vector<SegmentReq>> wreqs(nwindows);
  std::vector<RowInterval> wblocks(nwindows);
  std::vector<std::size_t> max_rows(specs.size(), 0);
  for (std::size_t p = 0; p < nwindows; ++p) {
    const std::size_t b0 = sblocks.begin + p * W;
    wblocks[p] = RowInterval{b0, std::min(b0 + W, sblocks.end)};
    const TaskPartition wp = narrow_partition(shape.partition, wblocks[p]);
    wreqs[p].reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      wreqs[p].push_back(compute_requirement(specs[i], wp, 0));
      if (!reqs[i].whole && wreqs[p].back().active) {
        max_rows[i] = std::max(max_rows[i], wreqs[p].back().local_rows);
      }
    }
  }

  // In-place updates: an output spec whose datum this task also reads must
  // stream through the SAME window temporary as the input spec — the
  // in-core path aliases their device allocation, and routines
  // read-modify-write through the output parameter (W *= ... in NMF's
  // wupdate). check_streamable's radius guard makes the two window
  // geometries identical (radius 0, unit row scale).
  std::vector<std::size_t> alias(specs.size());
  std::iota(alias.begin(), alias.end(), std::size_t{0});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].is_input || reqs[i].whole) {
      continue;
    }
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (!specs[j].is_input || reqs[j].whole ||
          specs[j].datum->key() != specs[i].datum->key()) {
        continue;
      }
      alias[i] = j;
      max_rows[j] = std::max(max_rows[j], max_rows[i]);
      max_rows[i] = 0; // shares j's temporary
      break;
    }
  }
  for (std::size_t p = 0; p < nwindows; ++p) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (alias[i] != i && wreqs[p][i].active &&
          wreqs[p][i].origin != wreqs[p][alias[i]].origin) {
        throw OutOfCoreError(
            "out-of-core: task '" + std::string(label) + "' updates datum '" +
            specs[i].datum->name() +
            "' in place but its input and output window geometries "
            "disagree — it cannot be streamed; raise the device memory "
            "budget");
      }
    }
  }

  // Ping-pong temporaries: window p streams through set p % 2, so the
  // refill of window p can overlap the kernel of window p - 1 under
  // prefetch. Transient residency is deliberately NOT recorded in the
  // location monitor — the buffers die with the dispatch.
  std::vector<sim::Buffer*> wbufs[2] = {
      std::vector<sim::Buffer*>(specs.size(), nullptr),
      std::vector<sim::Buffer*>(specs.size(), nullptr)};
  for (int set = 0; set < (nwindows < 2 ? 1 : 2); ++set) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (max_rows[i] == 0) {
        continue;
      }
      wbufs[set][i] = node_.malloc_device(
          devices_[static_cast<std::size_t>(slot)],
          max_rows[i] * specs[i].datum->row_bytes());
      shape.window_temps.push_back(wbufs[set][i]);
    }
  }
  if (nwindows < 2) {
    wbufs[1] = wbufs[0];
  }
  for (auto& set : wbufs) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      set[i] = set[alias[i]];
    }
  }

  dp.windows.resize(nwindows);
  // Per window: one refill per input region and one drain per output.
  dp.copies.reserve(dp.copies.size() + nwindows * specs.size());
  for (std::size_t p = 0; p < nwindows; ++p) {
    WindowPass& win = dp.windows[p];
    win.views.reserve(specs.size());
    win.buffers.reserve(specs.size());
    const RowInterval wb = wblocks[p];
    const auto& wr = wreqs[p];
    const auto& bufs = wbufs[p % 2];
    win.grid = dp.grid;
    win.grid.block_row_offset = static_cast<unsigned>(wb.begin);
    win.grid.block_rows = static_cast<unsigned>(wb.size());
    win.stats = scale_launch_stats(dp.stats, static_cast<double>(wb.size()) /
                                                 static_cast<double>(nblocks));

    // Refills: window inputs straight from the flushed host rows.
    win.refill_begin = static_cast<std::uint32_t>(dp.copies.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (reqs[i].whole || !wr[i].active) {
        continue;
      }
      Datum* d = specs[i].datum;
      const std::size_t row_bytes = d->row_bytes();
      for (const CopyRegion& region : wr[i].input_regions) {
        PlannedCopy c;
        c.pattern_index = static_cast<int>(i);
        c.datum = d;
        c.dst_location = loc;
        c.dst_buffer = bufs[i];
        c.dst_offset = static_cast<std::size_t>(region.local_row) * row_bytes;
        c.zero_fill = region.zero_fill;
        c.bytes = row_bytes;
        if (!region.zero_fill) {
          c.rows = region.global;
          c.src_host = d->host_row(region.global.begin);
          c.bytes = region.global.size() * row_bytes;
        }
        add_copy(c);
      }
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!wr[i].active) {
        bind_operand(win, specs[i].datum, wr[i].core, nullptr, 0, 0);
      } else if (reqs[i].whole) {
        bind_operand(win, specs[i].datum, wr[i].core, allocs[i]->buffer,
                     allocs[i]->origin, allocs[i]->rows);
      } else {
        bind_operand(win, specs[i].datum, wr[i].core, bufs[i], wr[i].origin,
                     wr[i].local_rows);
      }
    }

    // Drains: each plain output's core rows go straight to the host — the
    // host is the streamed output's resting place, which is exactly what
    // makes the next task's uploads classify as refills.
    win.drain_begin = static_cast<std::uint32_t>(dp.copies.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].is_input || reqs[i].whole || !wr[i].active ||
          wr[i].core.empty()) {
        continue;
      }
      Datum* d = specs[i].datum;
      PlannedCopy c;
      c.pattern_index = static_cast<int>(i);
      c.aligned = true;
      c.datum = d;
      c.src_location = loc;
      c.rows = wr[i].core;
      c.src_buffer = bufs[i];
      c.src_offset =
          static_cast<std::size_t>(static_cast<long>(wr[i].core.begin) -
                                   wr[i].origin) *
          d->row_bytes();
      c.dst_host = d->host_row(wr[i].core.begin);
      c.bytes = wr[i].core.size() * d->row_bytes();
      add_copy(c);
      monitor_.mark_written(d, SegmentLocationMonitor::kHost, wr[i].core);
      ++host_content_stamp_[d->key()];
    }
    win.drain_end = static_cast<std::uint32_t>(dp.copies.size());
  }
  dw.copies.resize(dp.copies.size());
  dw.window_events = node_.create_events(static_cast<int>(3 * nwindows));
}

// --- Fault tolerance & device-loss recovery (DESIGN.md §5.11) ----------------

void Scheduler::set_fault_tolerance_enabled(bool on) {
  if (on == fault_tolerance_) {
    return;
  }
  if (tasks_scheduled() != 0) {
    throw std::logic_error(
        "Scheduler: toggle fault tolerance before scheduling tasks (the host "
        "mirrors must cover every output from the first task on)");
  }
  fault_tolerance_ = on;
}

void Scheduler::kill_device(int slot) {
  if (slot < 0 || slot >= slots()) {
    throw std::invalid_argument("kill_device: slot " + std::to_string(slot) +
                                " out of range");
  }
  if (!fault_tolerance_) {
    throw std::logic_error(
        "kill_device: fault tolerance is disabled — without host mirrors a "
        "device loss is unrecoverable (set_fault_tolerance_enabled)");
  }
  if (dead_[static_cast<std::size_t>(slot)]) {
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
    if (!dead_[static_cast<std::size_t>(slot)] &&
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
      avail_[{d->key(), sloc}].collect(post.core, waits);
      mirror_to_host(d, s, *alloc, post.core, std::move(waits));
    }
  }
}

void Scheduler::mirror_to_host(const Datum* datum, int slot,
                               const MemoryAnalyzer::Alloc& alloc,
                               RowInterval rows,
                               std::vector<sim::EventId> waits) {
  const int loc = SegmentLocationMonitor::loc(slot);
  const sim::EventId ev = node_.create_event();
  access_[{datum->key(), loc}].add_reader(alloc.local(rows), ev);
  auto& host_access = access_[{datum->key(), SegmentLocationMonitor::kHost}];
  host_access.collect(rows, waits);
  host_access.write(rows, ev);
  avail_[{datum->key(), SegmentLocationMonitor::kHost}].update(rows, ev);
  monitor_.mark_copied(datum, SegmentLocationMonitor::kHost, rows);
  if (sanitizer_ != nullptr) {
    sanitizer_->on_copy(datum, loc, SegmentLocationMonitor::kHost, rows);
  }
  ++host_content_stamp_[datum->key()];
  submit_to_host(slot, copy_streams2_[static_cast<std::size_t>(slot)],
                 std::move(waits), datum->host_row(rows.begin), alloc.buffer,
                 alloc.row_offset(static_cast<long>(rows.begin)),
                 rows.size() * alloc.row_bytes, ev);
}

template <typename Enqueue>
void Scheduler::issue(int slot, Enqueue&& enqueue) {
  if (dead_[static_cast<std::size_t>(slot)]) {
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
                               sim::EventId done) {
  ++stats_.transfers.copies_issued;
  TransferPlanner::account(
      stats_.transfers, node_.topology(),
      sim::Endpoint::dev(devices_[static_cast<std::size_t>(slot)]),
      sim::Endpoint::host(), false, bytes);
  issue(slot, [&] {
    for (sim::EventId w : waits) {
      node_.wait_event_generation(stream, w, 1);
    }
    node_.memcpy_d2h(stream, dst, src, src_off, bytes);
    node_.record_event(done, stream);
  });
}

void Scheduler::recover_device(int victim, KillStage stage) {
  if (dead_[static_cast<std::size_t>(victim)]) {
    return;
  }
  // Drain-completes loss model: the kill takes effect at the next sync
  // point, so everything already enqueued — including this dispatch's
  // commands and the survivors' mirrors — finishes first. Every cached shape
  // was partitioned over the old live set.
  invalidate_plans();
  const double t0_ms = node_.now_ms();

  dead_[static_cast<std::size_t>(victim)] = true;
  live_.clear();
  for (int s = 0; s < slots(); ++s) {
    if (!dead_[static_cast<std::size_t>(s)]) {
      live_.push_back(s);
    }
  }
  if (live_.empty()) {
    throw std::runtime_error("device-loss recovery: all devices lost");
  }

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
  for (auto& [key, map] : avail_) {
    if (key.second == vloc) {
      map = IntervalEventMap{};
    }
  }
  for (auto& [key, map] : access_) {
    if (key.second == vloc) {
      map = AccessIntervalMap{};
    }
  }
  analyzer_.drop_slot(victim);
  for (auto& [key, buf] : reduce_staging_) {
    node_.free_device(buf);
  }
  reduce_staging_.clear();
  for (auto& [key, buf] : combine_staging_) {
    node_.free_device(buf);
  }
  combine_staging_.clear();
  ++stats_.recovery.devices_lost;

  // Repairs run synchronously on the caller's thread, directly on the
  // node's streams: recovery ends with a synchronize, so no event wiring
  // against later tasks is needed.
  std::vector<sim::Buffer*> temps;
  if (stage != KillStage::PreGather && last_task_.valid) {
    repair_structured(victim, stage, temps);
  }
  repair_aggregations(victim, temps);
  node_.synchronize();
  for (sim::Buffer* b : temps) {
    node_.free_device(b);
  }
  stats_.recovery.recovery_sim_us += (node_.now_ms() - t0_ms) * 1000.0;
  last_task_.valid = false;
}

void Scheduler::repair_structured(int victim, KillStage stage,
                                  std::vector<sim::Buffer*>& temps) {
  const PlanShape& sh = *last_task_.shape;
  int victim_seg = -1;
  for (std::size_t i = 0; i < last_task_.live.size(); ++i) {
    if (last_task_.live[i] == victim) {
      victim_seg = static_cast<int>(i);
      break;
    }
  }
  if (victim_seg < 0) {
    return; // the victim held no segment of the last task
  }
  const DevicePlan& vdp = sh.devices[static_cast<std::size_t>(victim)];
  if (!vdp.active) {
    return;
  }
  bool any_agg = false, any_plain = false;
  for (const PatternSpec& s : sh.specs) {
    if (s.is_input) {
      continue;
    }
    (s.agg == AggregationKind::None ? any_plain : any_agg) = true;
  }
  if (any_agg && any_plain) {
    throw std::runtime_error(
        "device-loss recovery: the interrupted task mixes aggregated and "
        "plain outputs — unrecoverable");
  }
  if (any_agg) {
    return; // nothing mirrored was lost; repair_aggregations covers it
  }
  // Out-of-core interplay (DESIGN.md §5.16): when the host already covers
  // every output row of the victim's segment, the mirrors ARE the result and
  // nothing needs re-execution — spilled segments are restored from the host
  // for free. In-core mid-task kills leave the victim's freshly written rows
  // host-stale (its mirror is suppressed), so this triggers only when
  // something else made them host-resident: an eviction write-back, or the
  // drains of a streamed victim killed after its windows ran. A streamed
  // victim killed at CopiesIssued never drained, although its plan already
  // recorded the host as the rows' resting place.
  bool host_covers =
      vdp.windows.empty() || stage != KillStage::CopiesIssued;
  for (std::size_t i = 0; host_covers && i < sh.specs.size(); ++i) {
    const PatternSpec& s = sh.specs[i];
    if (s.is_input) {
      continue;
    }
    const SegmentReq req = compute_requirement(s, sh.partition, victim_seg);
    if (!req.active || req.core.empty()) {
      continue;
    }
    if (!monitor_.up_to_date(s.datum, SegmentLocationMonitor::kHost)
             .covers(req.core)) {
      host_covers = false;
      break;
    }
  }
  if (host_covers) {
    ++stats_.recovery.segments_restored_from_host;
    return;
  }
  // Which datums the task writes in place (input == output): their host
  // rows still hold pre-task values at the victim's core — exactly what the
  // lost kernel read, provided it only read its own core (radius 0).
  std::vector<const void*> inplace;
  for (const PatternSpec& s : sh.specs) {
    if (!s.is_input) {
      inplace.push_back(s.datum->key());
    }
  }

  const RowInterval vblocks =
      sh.partition.block_rows[static_cast<std::size_t>(victim_seg)];
  const std::size_t nblocks = vblocks.size();
  if (nblocks == 0) {
    return;
  }
  const std::size_t nchunks = std::min(live_.size(), nblocks);

  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t b0 = vblocks.begin + c * nblocks / nchunks;
    const std::size_t b1 = vblocks.begin + (c + 1) * nblocks / nchunks;
    const int s = live_[c % live_.size()];
    const sim::StreamId stream = compute_streams_[static_cast<std::size_t>(s)];

    // Re-derive the chunk's requirements as a single-segment partition so
    // the segmenters emit exactly the rows (core + halos) the chunk needs.
    const TaskPartition cp = narrow_partition(sh.partition, {b0, b1});

    LaunchBinding chunk;
    std::vector<SegmentReq> reqs;
    for (const PatternSpec& spec : sh.specs) {
      reqs.push_back(compute_requirement(spec, cp, 0));
      const SegmentReq& req = reqs.back();
      const bool in_place =
          spec.is_input && std::find(inplace.begin(), inplace.end(),
                                     spec.datum->key()) != inplace.end();
      bind_operand(chunk, spec.datum, req.core,
                   req.active ? stage_from_host(spec, req, s, stream, temps,
                                                in_place)
                              : nullptr,
                   req.origin, req.local_rows);
    }

    // The grid narrows to the chunk's block rows; device/device_count stay
    // the victim's, so the kernel's index sweep is bit-identical to the lost
    // launch's.
    maps::GridContext gc = vdp.grid;
    gc.block_row_offset = static_cast<unsigned>(b0);
    gc.block_rows = static_cast<unsigned>(b1 - b0);
    const double frac =
        static_cast<double>(b1 - b0) / static_cast<double>(nblocks);
    node_.launch(stream, scale_launch_stats(vdp.stats, frac),
                 last_task_.factory(s, gc, chunk.views));

    // Results land on the host (the recovery target): core rows of every
    // output, d2h'd from the temp buffer.
    for (std::size_t i = 0; i < sh.specs.size(); ++i) {
      const Datum* d = sh.specs[i].datum;
      const SegmentReq& req = reqs[i];
      if (sh.specs[i].is_input || !req.active || req.core.empty()) {
        continue;
      }
      node_.memcpy_d2h(
          stream, d->host_row(req.core.begin), chunk.buffers[i],
          static_cast<std::size_t>(static_cast<long>(req.core.begin) -
                                   req.origin) *
              d->row_bytes(),
          req.core.size() * d->row_bytes());
      monitor_.mark_written(d, SegmentLocationMonitor::kHost, req.core);
      if (sanitizer_ != nullptr) {
        sanitizer_->on_write(d, SegmentLocationMonitor::kHost, req.core);
      }
      ++host_content_stamp_[d->key()];
    }
    ++stats_.recovery.segments_reexecuted;
  }
}

sim::Buffer* Scheduler::stage_from_host(const PatternSpec& spec,
                                        const SegmentReq& req, int slot,
                                        sim::StreamId stream,
                                        std::vector<sim::Buffer*>& temps,
                                        bool pre_task_core) {
  const Datum* d = spec.datum;
  const std::size_t row_bytes = d->row_bytes();
  sim::Buffer* buf = node_.malloc_device(
      devices_[static_cast<std::size_t>(slot)], req.local_rows * row_bytes);
  temps.push_back(buf);
  for (const CopyRegion& region : req.input_regions) {
    if (region.zero_fill) {
      node_.memset_device(
          stream, buf,
          req.whole ? 0
                    : static_cast<std::size_t>(region.local_row) * row_bytes,
          0, req.whole ? buf->size() : row_bytes);
      continue;
    }
    if (pre_task_core) {
      // Host rows at the victim's core are PRE-task values — the right
      // input only when the lost kernel read nothing but its own core.
      if (!(region.global.begin >= req.core.begin &&
            region.global.end <= req.core.end)) {
        throw std::runtime_error(
            "device-loss recovery: in-place task reads beyond its own "
            "segment (radius > 0) — unrecoverable");
      }
    } else if (!monitor_.up_to_date(d, SegmentLocationMonitor::kHost)
                    .covers(region.global)) {
      throw std::runtime_error("device-loss recovery: host mirror of datum '" +
                               d->name() +
                               "' does not cover the lost segment's inputs");
    }
    node_.memcpy_h2d(stream, buf,
                     static_cast<std::size_t>(region.local_row) * row_bytes,
                     d->host_row(region.global.begin),
                     region.global.size() * row_bytes);
    ++stats_.recovery.copies_rerouted;
  }
  return buf;
}

void Scheduler::repair_aggregations(int victim,
                                    std::vector<sim::Buffer*>& temps) {
  for (auto& [key, log] : agg_log_) {
    const Datum* d = log.datum;
    const auto* pending = monitor_.pending_aggregation(d);
    if (pending == nullptr) {
      continue; // already resolved (gathered / scattered); nothing pending
    }
    if (std::find(pending->writer_slots.begin(), pending->writer_slots.end(),
                  victim) == pending->writer_slots.end()) {
      continue; // the victim held no partial of this datum
    }
    if (pending->kind != AggregationKind::Sum || !pending->op) {
      throw std::runtime_error(
          "device-loss recovery: only Sum-aggregated pending outputs are "
          "recoverable (datum '" +
          d->name() + "')");
    }
    if (!log.factory) {
      throw std::runtime_error(
          "device-loss recovery: the pending partial of datum '" + d->name() +
          "' was produced by an unmodified routine — unrecoverable; Gather "
          "before killing");
    }
    for (const auto& [ikey, stamp] : log.input_stamps) {
      auto it = host_content_stamp_.find(ikey);
      const std::uint64_t cur =
          it == host_content_stamp_.end() ? 0 : it->second;
      if (cur != stamp) {
        throw std::runtime_error(
            "device-loss recovery: host inputs of the pending aggregation on "
            "datum '" +
            d->name() + "' were overwritten since dispatch — unrecoverable");
      }
    }
    const PlanShape& sh = *log.shape;
    int victim_seg = -1;
    for (std::size_t i = 0; i < log.live.size(); ++i) {
      if (log.live[i] == victim) {
        victim_seg = static_cast<int>(i);
        break;
      }
    }
    if (victim_seg < 0) {
      continue;
    }
    const DevicePlan& vdp = sh.devices[static_cast<std::size_t>(victim)];
    if (!vdp.active) {
      continue;
    }
    // Survivor: a live writer still holding its own partial of this datum.
    int s = -1;
    for (int cand : live_) {
      if (std::find(pending->writer_slots.begin(),
                    pending->writer_slots.end(),
                    cand) != pending->writer_slots.end() &&
          analyzer_.find(d, cand) != nullptr) {
        s = cand;
        break;
      }
    }
    if (s < 0) {
      throw std::runtime_error(
          "device-loss recovery: no surviving holder of the pending partial "
          "of datum '" +
          d->name() + "'");
    }
    const sim::StreamId stream = compute_streams_[static_cast<std::size_t>(s)];

    // Re-execute the victim's whole segment of the logged task into temps.
    LaunchBinding segment;
    sim::Buffer* out_temp = nullptr;
    for (const PatternSpec& spec : sh.specs) {
      const SegmentReq req =
          compute_requirement(spec, sh.partition, victim_seg);
      sim::Buffer* buf =
          req.active ? stage_from_host(spec, req, s, stream, temps, false)
                     : nullptr;
      if (buf != nullptr && !spec.is_input && spec.datum == d) {
        if (!req.whole) {
          throw std::runtime_error(
              "device-loss recovery: pending partial of datum '" + d->name() +
              "' is not a whole-datum duplicate — unrecoverable");
        }
        out_temp = buf;
      }
      bind_operand(segment, spec.datum, req.core, buf, req.origin,
                   req.local_rows);
    }
    if (out_temp == nullptr) {
      continue; // the logged task no longer writes this datum
    }
    node_.launch(stream, vdp.stats, log.factory(s, vdp.grid, segment.views));

    // Fold the re-executed partial into the survivor's: int Sum is
    // commutative and associative, so the later Gather/ReduceScatter sums
    // the same multiset of partials and stays bit-identical.
    const auto* s_alloc = analyzer_.find(d, s);
    SumFold fold;
    fold.label = "fault_recovery_combine";
    fold.stream = stream;
    fold.staged = 1;
    fold.staging = out_temp;
    fold.dst = s_alloc->buffer;
    fold.dst_off = s_alloc->row_offset(0);
    fold.elems = d->rows() * d->row_elems();
    fold.elem_size = d->elem_size();
    fold.op = pending->op;
    pull_and_sum(node_, copy_streams_[static_cast<std::size_t>(s)],
                 copy_streams2_[static_cast<std::size_t>(s)], fold);
    monitor_.remove_pending_writer(d, victim);
    ++stats_.recovery.segments_reexecuted;
  }
}

void Scheduler::apply_copy_faults(TaskPlan& plan) {
  if (!copy_fault_hook_) {
    return;
  }
  const PlanShape& sh = *plan.shape;
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    DeviceWiring& dw = plan.wiring[slot];
    for (std::size_t i = 0; i < dp.copies.size(); ++i) {
      const PlannedCopy& c = dp.copies[i];
      CopyFaultInfo info;
      info.datum = c.datum;
      info.src_location = c.src_location;
      info.dst_location = c.dst_location;
      info.rows = c.rows;
      info.zero_fill = c.zero_fill;
      info.aligned = c.aligned;
      info.task = plan.handle;
      if (copy_fault_hook_(info)) {
        dw.copies[i].dropped = true;
      }
    }
  }
}

const char* Scheduler::task_label(const PlanShape& shape) {
  for (const DevicePlan& dp : shape.devices) {
    if (dp.active && !dp.stats.label.empty()) {
      return dp.stats.label.c_str();
    }
  }
  return "task";
}

void Scheduler::sanitize_dispatch(const TaskPlan& plan) {
  const PlanShape& sh = *plan.shape;
  sanitizer_->begin_context(plan.handle, task_label(sh));

  // 1. Copies, in plan order (slot-major, pattern order within a slot) —
  // the same program order Algorithm 2 planned them in, so intra-task copy
  // chains (a later slot sourcing from an earlier slot's fresh replica)
  // validate correctly. While walking, record which global rows each
  // pattern's Wrap/Clamp halo slots were refilled with this dispatch.
  std::vector<std::vector<IntervalSet>> halo_cover(sh.devices.size());
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    halo_cover[slot].resize(sh.specs.size());
    const DeviceWiring& dw = plan.wiring[slot];
    for (std::size_t i = 0; i < dp.copies.size(); ++i) {
      const PlannedCopy& c = dp.copies[i];
      if (c.zero_fill || dw.copies[i].dropped) {
        continue;
      }
      if (c.dst_host != nullptr) {
        // A streamed window's drain: its rows rest on the host, fresh.
        sanitizer_->on_write(c.datum, c.dst_location, c.rows);
      } else if (c.aligned) {
        sanitizer_->on_copy(c.datum, c.src_location, c.dst_location, c.rows);
      } else {
        sanitizer_->on_halo_source(c.datum, c.src_location, c.rows);
        halo_cover[slot][static_cast<std::size_t>(c.pattern_index)].add(
            c.rows);
      }
    }
  }

  // 1b. Every inferred copy landing inside a strip's read span must be
  // listed in that strip's copy gates — otherwise the strip could launch
  // before its halo/chunk arrives. Purely structural, so it catches a broken
  // build and a broken replay identically.
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    const int loc = SegmentLocationMonitor::loc(static_cast<int>(slot));
    for (const SubKernel& sub : dp.sub) {
      for (std::size_t ci = 0; ci < dp.copies.size(); ++ci) {
        const PlannedCopy& c = dp.copies[ci];
        if (c.zero_fill) {
          continue; // ordered through the access map, not the copy gates
        }
        const StripSpan& sp =
            sub.spans[static_cast<std::size_t>(c.pattern_index)];
        if (intersect(c.dst_local, sp.read_local).empty()) {
          continue;
        }
        if (!std::binary_search(sub.copy_waits.begin(), sub.copy_waits.end(),
                                static_cast<std::uint32_t>(ci))) {
          sanitizer_->report_ungated_strip(c.datum, loc, sp.read_local,
                                           c.dst_local);
        }
      }
    }
  }

  // 2. "Before each kernel executes": every input rectangle must be at the
  // latest version — aligned rectangles against the shadow map, halo-slot
  // rectangles against this dispatch's boundary refills.
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    const int loc = SegmentLocationMonitor::loc(static_cast<int>(slot));
    for (std::size_t i = 0; i < dp.post.size(); ++i) {
      const PatternPost& post = dp.post[i];
      if (!post.active || !post.is_input) {
        continue;
      }
      for (const RowInterval& iv : post.reads) {
        sanitizer_->on_read(post.datum, loc, iv);
      }
      for (const RowInterval& iv : post.halo_reads) {
        if (!halo_cover[slot][i].covers(iv)) {
          sanitizer_->report_missing_halo(post.datum, loc, iv);
        }
      }
    }
  }

  // 3. Kernel outputs: aligned outputs advance their core rows to a fresh
  // version; private (duplicated) partials are handled by the aggregation
  // state below.
  for (std::size_t slot = 0; slot < sh.devices.size(); ++slot) {
    const DevicePlan& dp = sh.devices[slot];
    if (!dp.active) {
      continue;
    }
    const int loc = SegmentLocationMonitor::loc(static_cast<int>(slot));
    for (const PatternPost& post : dp.post) {
      if (post.active && !post.is_input && !post.private_copy) {
        sanitizer_->on_write(post.datum, loc, post.core);
      }
    }
  }

  // 4. Reductive/unstructured outputs leave partial copies everywhere.
  for (const PatternSpec& s : sh.specs) {
    if (!s.is_input && s.agg != AggregationKind::None) {
      sanitizer_->on_pending_aggregation(s.datum);
    }
  }
}

void Scheduler::record_task_logs(const std::shared_ptr<TaskPlan>& plan,
                                 const BodyFactory& factory) {
  last_task_.valid = static_cast<bool>(factory);
  last_task_.shape = plan->shape;
  last_task_.factory = factory;
  last_task_.live = live_;
  for (const PatternSpec& s : plan->shape->specs) {
    if (s.is_input || s.agg == AggregationKind::None) {
      continue;
    }
    AggLog log;
    log.datum = s.datum;
    log.shape = plan->shape;
    log.factory = factory;
    log.live = live_;
    for (const PatternSpec& in : plan->shape->specs) {
      if (!in.is_input) {
        continue;
      }
      auto it = host_content_stamp_.find(in.datum->key());
      log.input_stamps.emplace_back(
          in.datum->key(), it == host_content_stamp_.end() ? 0 : it->second);
    }
    agg_log_[s.datum->key()] = std::move(log);
  }
}

TaskHandle Scheduler::dispatch(std::shared_ptr<TaskPlan> plan,
                               const BodyFactory& factory,
                               UnmodifiedRoutine routine, void* context,
                               std::vector<std::vector<std::byte>> consts) {
  const PlanShape& sh = *plan->shape;
  apply_copy_faults(*plan);
  if (sanitizer_ != nullptr) {
    sanitize_dispatch(*plan);
  }

  // Fault tolerance: log the dispatch for recovery, then let the injector
  // choose a victim. At most one device dies per dispatch; the kill takes
  // effect at the next sync point (drain-completes loss model), so the
  // commands are still issued — truncated after the copies for a
  // CopiesIssued loss — and recovery runs once they drain. Routines cannot be
  // re-executed per segment, so only MAPS kernels consult the injector.
  int victim = -1;
  KillStage stage = KillStage::CopiesIssued;
  if (fault_tolerance_) {
    record_task_logs(plan, factory);
    if (injector_ && factory) {
      const char* label = task_label(sh);
      for (int s : live_) {
        if (!sh.devices[static_cast<std::size_t>(s)].active) {
          continue;
        }
        if (injector_(
                FaultPoint{s, KillStage::CopiesIssued, plan->handle, label})) {
          victim = s;
          stage = KillStage::CopiesIssued;
          break;
        }
        if (injector_(
                FaultPoint{s, KillStage::KernelIssued, plan->handle, label})) {
          victim = s;
          stage = KillStage::KernelIssued;
          break;
        }
      }
    }
  }

  node_.advance_host_us(kTaskOverheadUs +
                        kPerDeviceOverheadUs * sh.active_slots);
  for (int slot = 0; slot < slots(); ++slot) {
    const DevicePlan& dp = sh.devices[static_cast<std::size_t>(slot)];
    if (!dp.active) {
      continue;
    }
    // One body per launch — window or strip (the factory narrows the grid
    // to its block rows); none for routines.
    std::vector<std::function<void()>> bodies;
    if (factory) {
      for (const WindowPass& win : dp.windows) {
        bodies.push_back(factory(slot, win.grid, win.views));
      }
      for (const SubKernel& sub : dp.sub) {
        bodies.push_back(factory(slot, sub.grid, dp.views));
      }
    }
    const bool copies_only =
        slot == victim && stage == KillStage::CopiesIssued;
    issue(slot, [&] {
      enqueue_device_commands(*plan, slot, std::move(bodies), routine,
                              context, consts, copies_only);
    });
  }
  if (sh.streamed) {
    // A failed issue left some window unrecorded: report it, not the drain's
    // deadlock.
    rethrow_issue_error();
    node_.synchronize();
    for (sim::Buffer* buf : sh.window_temps) {
      node_.free_device(buf);
    }
  }
  if (fault_tolerance_) {
    // The victim's outputs die with it: for CopiesIssued they were never
    // computed, for KernelIssued they were computed but the loss precedes
    // the mirror — either way recovery re-derives them from the mirrors.
    // Streamed devices mirror nothing: their drains already rest on the
    // host.
    enqueue_host_mirrors(*plan, victim);
  }
  if (victim >= 0) {
    recover_device(victim, stage);
  }
  return plan->handle;
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
  if (fault_tolerance_ && injector_) {
    const std::vector<int> alive = live_;
    for (int s : alive) {
      if (injector_(FaultPoint{s, KillStage::PreGather, 0, "gather"})) {
        recover_device(s, KillStage::PreGather);
        break;
      }
    }
  }

  const auto* pending = monitor_.pending_aggregation(&datum);
  std::vector<sim::EventId> ready_events;

  if (pending != nullptr) {
    // §3.2: duplicated outputs are gathered from every device and
    // post-processed on the host.
    struct Staged {
      int slot;
      std::shared_ptr<std::vector<std::byte>> bytes;
      std::size_t rows;
    };
    auto staged = std::make_shared<std::vector<Staged>>();
    for (int slot : pending->writer_slots) {
      const auto* alloc = analyzer_.find(&datum, slot);
      if (alloc == nullptr) {
        continue;
      }
      auto host_bytes =
          std::make_shared<std::vector<std::byte>>(alloc->buffer->size());
      staged->push_back(Staged{slot, host_bytes, alloc->rows});
      const sim::EventId ev = node_.create_event();
      ready_events.push_back(ev);
      std::vector<sim::EventId> producers;
      avail_[{datum.key(), SegmentLocationMonitor::loc(slot)}].collect(
          RowInterval{0, datum.rows()}, producers);
      access_[{datum.key(), SegmentLocationMonitor::loc(slot)}].add_reader(
          RowInterval{0, alloc->rows}, ev);
      // `staged` keeps the bytes alive: the aggregation below holds it
      // until after this copy lands.
      submit_to_host(slot, copy_streams_[static_cast<std::size_t>(slot)],
                     std::move(producers), host_bytes->data(), alloc->buffer,
                     0, alloc->buffer->size(), ev);
    }

    const sim::EventId host_ready = node_.create_event();
    // Host-side aggregation cost scales with the staged volume (~25 GB/s:
    // a multi-threaded combine over resident pages).
    double staged_bytes = 0;
    for (const auto& st : *staged) {
      staged_bytes += static_cast<double>(st.bytes->size());
    }
    const double agg_cost_us = 10.0 + staged_bytes * 0.04e-3;
    const AggregationKind kind = pending->kind;
    auto op = pending->op;
    auto counts_it = append_counts_.find(datum.key());
    auto counts = counts_it == append_counts_.end()
                      ? nullptr
                      : counts_it->second;
    auto& gathered = gathered_counts_[datum.key()];
    if (!gathered) {
      gathered = std::make_shared<std::size_t>(0);
    }
    auto gathered_out = gathered;
    Datum* dptr = &datum;
    const std::size_t lead = static_cast<std::size_t>(live_.front());
    const sim::StreamId agg_stream = copy_streams_[lead];
    issue(static_cast<int>(lead), [&] {
      for (sim::EventId ev : ready_events) {
        node_.wait_event_generation(agg_stream, ev, 1);
      }
      node_.host_func(
          agg_stream,
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
      node_.record_event(host_ready, agg_stream);
    });
    avail_[{datum.key(), SegmentLocationMonitor::kHost}].update(
        RowInterval{0, datum.rows()}, host_ready);
    monitor_.clear_pending_aggregation(&datum);
    monitor_.mark_copied(&datum, SegmentLocationMonitor::kHost,
                         RowInterval{0, datum.rows()});
    ++host_content_stamp_[datum.key()];
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
  ++host_content_stamp_[datum.key()];
  for (const auto& op : ops) {
    if (op.src_location == SegmentLocationMonitor::kHost) {
      continue;
    }
    const int slot = op.src_location - 1;
    const auto* alloc = analyzer_.find(&datum, slot);
    if (alloc == nullptr) {
      throw std::logic_error("gather: missing allocation");
    }
    const sim::EventId ev = node_.create_event();
    ready_events.push_back(ev);
    const sim::StreamId stream = copy_streams_[static_cast<std::size_t>(slot)];
    std::vector<sim::EventId> producers;
    avail_[{datum.key(), op.src_location}].collect(op.rows, producers);
    // The d2h both reads the device rows and overwrites the host rows.
    access_[{datum.key(), op.src_location}].add_reader(alloc->local(op.rows),
                                                       ev);
    auto& host_access = access_[{datum.key(), SegmentLocationMonitor::kHost}];
    host_access.collect(op.rows, producers);
    host_access.write(op.rows, ev);
    submit_to_host(slot, stream, std::move(producers),
                   datum.host_row(op.rows.begin), alloc->buffer,
                   alloc->row_offset(static_cast<long>(op.rows.begin)),
                   op.rows.size() * alloc->row_bytes, ev);
    monitor_.mark_copied(&datum, SegmentLocationMonitor::kHost, op.rows);
    if (sanitizer_ != nullptr) {
      sanitizer_->on_copy(&datum, op.src_location,
                          SegmentLocationMonitor::kHost, op.rows);
    }
  }
  // Single event covering all gather pieces, so later reads of the host
  // buffer have one dependency.
  const sim::EventId host_ready = node_.create_event();
  const std::size_t lead = static_cast<std::size_t>(live_.front());
  const sim::StreamId agg_stream = copy_streams_[lead];
  issue(static_cast<int>(lead), [&] {
    for (sim::EventId ev : ready_events) {
      node_.wait_event_generation(agg_stream, ev, 1);
    }
    node_.record_event(host_ready, agg_stream);
  });
  avail_[{datum.key(), SegmentLocationMonitor::kHost}].update(
      RowInterval{0, datum.rows()}, host_ready);
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
  ++host_content_stamp_[datum.key()];
  if (sanitizer_ != nullptr) {
    sanitizer_->on_host_write(&datum);
  }
  // Host-code writes happen at the current host clock; nothing to chain on.
  avail_[{datum.key(), SegmentLocationMonitor::kHost}] = IntervalEventMap{};
  access_[{datum.key(), SegmentLocationMonitor::kHost}] = AccessIntervalMap{};
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
      f.stream = reduce_streams_[static_cast<std::size_t>(dst)];
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
        avail_[{datum.key(), src_loc}].collect(rows, pull.waits);
        pull.done = node_.create_event();
        access_[{datum.key(), src_loc}].add_reader(src_alloc->local(rows),
                                                   pull.done);
        ++stats_.transfers.copies_issued;
        TransferPlanner::account(stats_.transfers, topo,
                                 sim::Endpoint::dev(src_dev),
                                 sim::Endpoint::dev(dst_dev), false,
                                 seg_bytes);
        // Network crossings go in pieces, exactly like routed input
        // transfers; the pieces partition the same segment over the same
        // link, so byte totals are unchanged.
        if (planner_active() && copy_chunk_bytes_ > 0 &&
            topo.network_pipelining && !topo.peer_enabled(src_dev, dst_dev) &&
            seg_bytes > copy_chunk_bytes_) {
          pull.chunk_bytes = copy_chunk_bytes_;
          const std::uint32_t depth = static_cast<std::uint32_t>(
              (seg_bytes + copy_chunk_bytes_ - 1) / copy_chunk_bytes_);
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
      avail_[{datum.key(), dst_loc}].collect(rows, f.waits);
      access_[{datum.key(), dst_loc}].collect(dst_local, f.waits);
      issue(dst, [&] {
        pull_and_sum(node_, copy_streams_[static_cast<std::size_t>(dst)],
                     copy_streams2_[static_cast<std::size_t>(dst)], f);
      });
      avail_[{datum.key(), dst_loc}].update(rows, f.done);
      access_[{datum.key(), dst_loc}].write(dst_local, f.done);
      return f.done;
    };

    for (const auto& group : combine_groups) {
      const int c = group.front();
      reduce_rows(c, std::vector<int>(group.begin() + 1, group.end()),
                  combine_staging_[{datum.key(), t * slots() + c}],
                  seg_bytes * (group.size() - 1), "reduce_scatter_combine");
    }
    // The target sums every remaining partial (possibly none) into its own.
    const sim::EventId sum_done =
        reduce_rows(t, sources, reduce_staging_[{datum.key(), t}],
                    seg_bytes * (writers.size() - 1), "reduce_scatter_sum");
    monitor_.mark_written(&datum, t_loc, rows);
    if (sanitizer_ != nullptr) {
      sanitizer_->on_write(&datum, t_loc, rows);
    }

    // Fault tolerance: the reduced segment is a brand-new value that exists
    // only on its target device; mirror it so the host invariant (fresh copy
    // of every non-pending datum) holds for the scattered result too.
    if (fault_tolerance_) {
      if (!datum.bound()) {
        throw std::runtime_error("fault tolerance: datum '" + datum.name() +
                                 "' needs a bound host buffer to mirror to");
      }
      mirror_to_host(&datum, t, *dst_alloc, rows, {sum_done});
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
}

std::size_t Scheduler::gathered_count(const Datum& datum) const {
  auto it = gathered_counts_.find(datum.key());
  return it == gathered_counts_.end() ? 0 : *it->second;
}

} // namespace maps::multi

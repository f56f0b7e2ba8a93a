#include "sim/node.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/cost_model.hpp"

namespace sim {

// One enqueued stream command: a compact record with its costs fixed at
// enqueue. Bodies and labels live in the Node's side tables; unused fields
// stay at their defaults.
struct Node::Command {
  enum class Kind : std::uint8_t {
    Kernel, Copy, HostFunc, RecordEvent, WaitEvent
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  Kind kind = Kind::Kernel;
  /// Copy: legs at legs_[first_leg] (0: `use` for the whole duration).
  std::uint8_t nlegs = 0;
  /// Copy: path class, for the byte accounting.
  LinkClass link = LinkClass::IntraDevice;
  std::uint32_t body = kNone;  ///< bodies_ index
  std::uint32_t label = kNone; ///< Kernel: labels_ index (traced only)
  std::uint32_t first_leg = 0;
  /// RecordEvent / WaitEvent
  EventId event = -1;
  std::uint64_t event_generation = 0;

  /// Host time at enqueue; the command cannot start earlier (the host had
  /// not issued it yet).
  double issue_floor_s = 0.0;
  double duration_s = 0.0;
  double setup_s = 0.0; ///< Copy: share that may overlap a busy link

  // Copy
  Endpoint src, dst;
  std::size_t bytes = 0;
  Topology::LinkUse use;
};

struct Node::StreamState {
  int device = 0;
  double last_completion_s = 0.0;

  bool empty() const { return begin == end; }
  std::size_t size() const { return end - begin; }
  Command& front() { return segments[begin / kSegment][begin % kSegment]; }
  const Command& front() const {
    return segments[begin / kSegment][begin % kSegment];
  }
  void push(const Command& cmd) {
    const std::size_t seg = end / kSegment;
    if (seg == segments.size()) {
      segments.emplace_back().reserve(kSegment);
    }
    segments[seg].push_back(cmd);
    ++end;
  }
  void pop_front() {
    if (++begin == end) {
      for (std::size_t seg = 0; seg * kSegment < end; ++seg) {
        segments[seg].clear();
      }
      begin = end = 0;
    }
  }

private:
  /// Pending commands are positions [begin, end) over fixed-capacity
  /// segments. A segment never reallocates, so a long backlog moves no
  /// command; emptying the queue (every drain does) keeps the segments, so
  /// steady-state enqueues allocate nothing.
  static constexpr std::size_t kSegment = 64;
  std::vector<std::vector<Command>> segments;
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct Node::EventState {
  /// Number of record commands enqueued so far; waits capture this.
  std::uint64_t enqueued_generation = 0;
  /// Highest generation whose record command was already *processed*.
  std::uint64_t processed_generation = 0;
  /// Simulated completion time of generation 1 (0 until processed). Later
  /// generations of a re-recorded event live in `later_completion_s_`, so
  /// recording an event allocates nothing and the table (one entry per
  /// event ever created) stays small.
  double first_completion_s = 0.0;
};

struct Node::DeviceEngines {
  double compute_free_s = 0.0;
  double copy_free_s[2] = {0.0, 0.0};
};

struct Node::LinkState {
  // Host links, one pair per PCIe bus (indexed by bus).
  double uplink_free_s = 0.0;
  double downlink_free_s = 0.0;
  // Full-duplex inter-socket link, one pair per cluster node (indexed by
  // cluster node; [0] ascending bus direction, [1] descending).
  double socket_free_s[2] = {0.0, 0.0};
  // Full-duplex NIC, one per cluster node (indexed by cluster node): every
  // transfer leaving the node serializes on nic_send, every transfer
  // entering it on nic_recv, regardless of link class.
  double nic_send_free_s = 0.0;
  double nic_recv_free_s = 0.0;
};

Node::Node(std::vector<DeviceSpec> specs, Topology topo, ExecMode mode)
    : specs_(std::move(specs)), topo_(std::move(topo)), mode_(mode) {
  if (specs_.empty()) {
    throw std::invalid_argument("Node requires at least one device");
  }
  if (topo_.device_count() != static_cast<int>(specs_.size())) {
    throw std::invalid_argument("Topology/device-list size mismatch");
  }
  static_assert(sizeof(EventState) <= 24,
                "the event table grows with every task: keep entries small");
  static_assert(std::is_trivially_destructible_v<Command>,
                "a drain pops commands without running destructors");
  static_assert(sizeof(Command) <= 96,
                "every queued command is a record: keep it compact");
  const bool functional = mode_ == ExecMode::Functional;
  engines_.resize(specs_.size());
  links_.resize(static_cast<std::size_t>(
      std::max(topo_.bus_count(), topo_.cluster_nodes())));
  for (int d = 0; d < device_count(); ++d) {
    allocators_.push_back(std::make_unique<DeviceAllocator>(
        d, specs_[static_cast<std::size_t>(d)].global_mem_bytes, functional));
  }
  stats_.bytes_between.assign(
      specs_.size() + 1, std::vector<std::uint64_t>(specs_.size() + 1, 0));
  stats_.device_compute_seconds.assign(specs_.size(), 0.0);
  for (int d = 0; d < device_count(); ++d) {
    default_streams_.push_back(create_stream(d));
  }
}

Node::Node(std::vector<DeviceSpec> specs, ExecMode mode)
    : Node(specs, Topology::pcie3_pairs(static_cast<int>(specs.size())),
           mode) {}

Node::~Node() = default;

const DeviceSpec& Node::spec(int device) const {
  return specs_.at(static_cast<std::size_t>(device));
}

Buffer* Node::malloc_device(int device, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocators_.at(static_cast<std::size_t>(device))->allocate(bytes);
}

void Node::free_device(Buffer* buffer) {
  if (buffer == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  allocators_.at(static_cast<std::size_t>(buffer->device()))->free(buffer);
}

std::size_t Node::device_mem_used(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocators_.at(static_cast<std::size_t>(device))->used();
}

std::size_t Node::device_mem_capacity(int device) const {
  return spec(device).global_mem_bytes;
}

StreamId Node::create_stream(int device) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device < 0 || device >= device_count()) {
    throw std::out_of_range("create_stream: bad device");
  }
  StreamState& st = streams_.emplace_back();
  st.device = device;
  st.last_completion_s = host_time_s_;
  return static_cast<StreamId>(streams_.size() - 1);
}

StreamId Node::default_stream(int device) const {
  return default_streams_.at(static_cast<std::size_t>(device));
}

int Node::stream_device(StreamId stream) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streams_.at(static_cast<std::size_t>(stream)).device;
}

EventId Node::create_event() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(EventState{});
  return static_cast<EventId>(events_.size() - 1);
}

EventId Node::create_events(int n) {
  std::lock_guard<std::mutex> lock(mutex_);
  const EventId first = static_cast<EventId>(events_.size());
  events_.resize(events_.size() + static_cast<std::size_t>(n));
  return first;
}

namespace {
void copy_2d(std::byte* dst, std::size_t dst_pitch, const std::byte* src,
             std::size_t src_pitch, std::size_t row_bytes, std::size_t height) {
  for (std::size_t r = 0; r < height; ++r) {
    std::memmove(dst + r * dst_pitch, src + r * src_pitch, row_bytes);
  }
}

/// A copy's data mover, made only where it runs: a TimingOnly node never
/// runs one, and wrapping its captures may allocate.
template <typename F> std::function<void()> functional_body(bool on, F&& f) {
  return on ? std::function<void()>(std::forward<F>(f)) : nullptr;
}

/// Bytes a pitched 2D region spans from its first byte.
std::size_t span_2d(std::size_t pitch, std::size_t row_bytes,
                    std::size_t height) {
  return height == 0 ? 0 : (height - 1) * pitch + row_bytes;
}
} // namespace

std::uint32_t Node::store_body(std::function<void()>& body) {
  if (!body || !functional()) {
    return Command::kNone;
  }
  bodies_.push_back(std::move(body));
  return static_cast<std::uint32_t>(bodies_.size() - 1);
}

void Node::push_locked(StreamState& st, Command& cmd) {
  cmd.issue_floor_s = host_time_s_;
  st.push(cmd);
}

void Node::enqueue_copy(StreamId stream, Endpoint src, Endpoint dst,
                        std::size_t bytes, bool host_staged,
                        std::function<void()> body,
                        double duration_override_s) {
  Command c;
  c.kind = Command::Kind::Copy;
  c.src = src;
  c.dst = dst;
  c.bytes = bytes;
  c.link = topo_.link_class(src, dst, host_staged);
  c.setup_s = copy_setup_seconds(src, dst, host_staged);
  Topology::CopyLeg legs[3];
  int nlegs = 0;
  if (duration_override_s >= 0) {
    // An override replaces the whole cost model, legs included.
    c.duration_s = duration_override_s;
  } else {
    c.duration_s = copy_duration(src, dst, bytes, host_staged);
    nlegs = topo_.copy_legs(src, dst, bytes, host_staged, legs);
  }
  if (nlegs == 0) {
    c.use = topo_.link_use(src, dst, host_staged);
  }
  c.nlegs = static_cast<std::uint8_t>(nlegs);
  std::lock_guard<std::mutex> lock(mutex_);
  StreamState& st = streams_.at(static_cast<std::size_t>(stream));
  c.first_leg = static_cast<std::uint32_t>(legs_.size());
  legs_.insert(legs_.end(), legs, legs + nlegs);
  c.body = store_body(body);
  push_locked(st, c);
}

void Node::memcpy_h2d(StreamId stream, Buffer* dst, std::size_t dst_off,
                      const void* src, std::size_t bytes) {
  assert(dst != nullptr && dst_off + bytes <= dst->size());
  enqueue_copy(stream, Endpoint::host(), Endpoint::dev(dst->device()), bytes,
               false, functional_body(functional(), [=] {
                 std::memcpy(dst->data() + dst_off, src, bytes);
               }));
}

void Node::memcpy_d2h(StreamId stream, void* dst, Buffer* src,
                      std::size_t src_off, std::size_t bytes) {
  assert(src != nullptr && src_off + bytes <= src->size());
  enqueue_copy(stream, Endpoint::dev(src->device()), Endpoint::host(), bytes,
               false, functional_body(functional(), [=] {
                 std::memcpy(dst, src->data() + src_off, bytes);
               }));
}

void Node::memcpy_p2p(StreamId stream, Buffer* dst, std::size_t dst_off,
                      Buffer* src, std::size_t src_off, std::size_t bytes) {
  assert(src != nullptr && dst != nullptr);
  assert(src_off + bytes <= src->size() && dst_off + bytes <= dst->size());
  // Without peer access (devices on different cluster nodes) the transfer
  // stages through the hosts and the network.
  enqueue_copy(stream, Endpoint::dev(src->device()),
               Endpoint::dev(dst->device()), bytes,
               !topo_.peer_enabled(src->device(), dst->device()),
               functional_body(functional(), [=] {
                 std::memmove(dst->data() + dst_off, src->data() + src_off,
                              bytes);
               }));
}

void Node::memcpy_p2p_host_staged(StreamId stream, Buffer* dst,
                                  std::size_t dst_off, Buffer* src,
                                  std::size_t src_off, std::size_t bytes) {
  assert(src != nullptr && dst != nullptr);
  assert(src_off + bytes <= src->size() && dst_off + bytes <= dst->size());
  enqueue_copy(stream, Endpoint::dev(src->device()),
               Endpoint::dev(dst->device()), bytes, true,
               functional_body(functional(), [=] {
                 std::memmove(dst->data() + dst_off, src->data() + src_off,
                              bytes);
               }));
}

void Node::memcpy_2d_h2d(StreamId stream, Buffer* dst, std::size_t dst_off,
                         std::size_t dst_pitch, const void* src,
                         std::size_t src_pitch, std::size_t row_bytes,
                         std::size_t height) {
  assert(dst != nullptr &&
         dst_off + span_2d(dst_pitch, row_bytes, height) <= dst->size());
  enqueue_copy(stream, Endpoint::host(), Endpoint::dev(dst->device()),
               row_bytes * height, false,
               functional_body(functional(), [=] {
                 copy_2d(dst->data() + dst_off, dst_pitch,
                         static_cast<const std::byte*>(src), src_pitch,
                         row_bytes, height);
               }));
}

void Node::memcpy_2d_d2h(StreamId stream, void* dst, std::size_t dst_pitch,
                         Buffer* src, std::size_t src_off,
                         std::size_t src_pitch, std::size_t row_bytes,
                         std::size_t height) {
  assert(src != nullptr &&
         src_off + span_2d(src_pitch, row_bytes, height) <= src->size());
  enqueue_copy(stream, Endpoint::dev(src->device()), Endpoint::host(),
               row_bytes * height, false,
               functional_body(functional(), [=] {
                 copy_2d(static_cast<std::byte*>(dst), dst_pitch,
                         src->data() + src_off, src_pitch, row_bytes, height);
               }));
}

void Node::memcpy_2d_p2p(StreamId stream, Buffer* dst, std::size_t dst_off,
                         std::size_t dst_pitch, Buffer* src,
                         std::size_t src_off, std::size_t src_pitch,
                         std::size_t row_bytes, std::size_t height) {
  assert(src != nullptr && dst != nullptr);
  assert(src_off + span_2d(src_pitch, row_bytes, height) <= src->size() &&
         dst_off + span_2d(dst_pitch, row_bytes, height) <= dst->size());
  enqueue_copy(stream, Endpoint::dev(src->device()),
               Endpoint::dev(dst->device()), row_bytes * height, false,
               functional_body(functional(), [=] {
                 copy_2d(dst->data() + dst_off, dst_pitch,
                         src->data() + src_off, src_pitch, row_bytes, height);
               }));
}

void Node::memset_device(StreamId stream, Buffer* dst, std::size_t dst_off,
                         int value, std::size_t bytes) {
  assert(dst != nullptr && dst_off + bytes <= dst->size());
  // A memset occupies a copy engine.
  enqueue_copy(stream, Endpoint::dev(dst->device()),
               Endpoint::dev(dst->device()), bytes, false,
               functional_body(functional(), [=] {
                 std::memset(dst->data() + dst_off, value, bytes);
               }));
}

void Node::stage_host_traffic(StreamId stream, std::size_t bytes,
                              double seconds) {
  enqueue_copy(stream, Endpoint::host(), Endpoint::dev(stream_device(stream)),
               bytes, false, nullptr, seconds);
}

void Node::launch(StreamId stream, const LaunchStats& stats,
                  std::function<void()> body) {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamState& st = streams_.at(static_cast<std::size_t>(stream));
  Command c;
  c.kind = Command::Kind::Kernel;
  c.duration_s =
      kernel_seconds(specs_[static_cast<std::size_t>(st.device)], stats);
  if (traced()) {
    c.label = static_cast<std::uint32_t>(labels_.size());
    labels_.push_back(stats.label);
  }
  c.body = store_body(body);
  push_locked(st, c);
}

void Node::host_func(StreamId stream, std::function<void()> fn,
                     double cost_us) {
  Command c;
  c.kind = Command::Kind::HostFunc;
  c.duration_s = cost_us * 1e-6;
  std::lock_guard<std::mutex> lock(mutex_);
  StreamState& st = streams_.at(static_cast<std::size_t>(stream));
  c.body = store_body(fn);
  push_locked(st, c);
}

std::uint64_t Node::record_event(EventId event, StreamId stream) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& ev = events_.at(static_cast<std::size_t>(event));
  StreamState& st = streams_.at(static_cast<std::size_t>(stream));
  Command c;
  c.kind = Command::Kind::RecordEvent;
  c.event = event;
  c.event_generation = ev.enqueued_generation + 1;
  push_locked(st, c);
  return ++ev.enqueued_generation;
}

void Node::wait_event(StreamId stream, EventId event) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto& ev = events_.at(static_cast<std::size_t>(event));
  if (ev.enqueued_generation == 0) {
    return; // CUDA semantics: waiting on a never-recorded event is a no-op
  }
  Command c;
  c.kind = Command::Kind::WaitEvent;
  c.event = event;
  c.event_generation = ev.enqueued_generation;
  push_locked(streams_.at(static_cast<std::size_t>(stream)), c);
}

void Node::wait_event_generation(StreamId stream, EventId event,
                                 std::uint64_t generation) {
  if (generation == 0) {
    throw std::invalid_argument(
        "wait_event_generation: generations are 1-based");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  events_.at(static_cast<std::size_t>(event)); // bounds check
  Command c;
  c.kind = Command::Kind::WaitEvent;
  c.event = event;
  c.event_generation = generation;
  push_locked(streams_.at(static_cast<std::size_t>(stream)), c);
}

double Node::copy_duration(Endpoint src, Endpoint dst, std::size_t bytes,
                           bool host_staged) const {
  // Device-local operations (memsets, intra-device copies) never touch
  // the interconnect: they run at global-memory bandwidth.
  if (!src.is_host() && !dst.is_host() && src.device == dst.device &&
      !host_staged) {
    const auto& spec = specs_[static_cast<std::size_t>(src.device)];
    return 3e-6 + static_cast<double>(bytes) /
                      (spec.mem_bandwidth_gbps * 1e9 / 2.0);
  }
  return copy_seconds(topo_, src, dst, bytes, host_staged);
}

double Node::copy_setup_seconds(Endpoint src, Endpoint dst,
                                bool host_staged) const {
  if (src.is_host() && dst.is_host()) {
    return 0.0;
  }
  if (!src.is_host() && !dst.is_host() && src.device == dst.device &&
      !host_staged) {
    return 3e-6;
  }
  // A staged transfer's first hop (device -> host) sets the pipelining
  // window; the rest of its duration genuinely occupies both host links.
  if (host_staged) {
    return topo_.latency_us(src, Endpoint::host()) * 1e-6;
  }
  return topo_.latency_us(src, dst) * 1e-6;
}

double Node::link_free_use(const Topology::LinkUse& use) const {
  double free_s = 0.0;
  if (use.uplink_bus >= 0) {
    free_s = std::max(
        free_s, links_[static_cast<std::size_t>(use.uplink_bus)].uplink_free_s);
  }
  if (use.downlink_bus >= 0) {
    free_s = std::max(free_s, links_[static_cast<std::size_t>(
                                         use.downlink_bus)].downlink_free_s);
  }
  if (use.socket_node >= 0) {
    free_s = std::max(free_s,
                      links_[static_cast<std::size_t>(use.socket_node)]
                          .socket_free_s[use.socket_dir]);
  }
  if (use.nic_send_node >= 0) {
    free_s = std::max(
        free_s,
        links_[static_cast<std::size_t>(use.nic_send_node)].nic_send_free_s);
  }
  if (use.nic_recv_node >= 0) {
    free_s = std::max(
        free_s,
        links_[static_cast<std::size_t>(use.nic_recv_node)].nic_recv_free_s);
  }
  return free_s;
}

void Node::reserve_use(const Topology::LinkUse& use, double until,
                       double duration) {
  if (use.uplink_bus >= 0) {
    auto& free_s = links_[static_cast<std::size_t>(use.uplink_bus)].uplink_free_s;
    free_s = std::max(free_s, until);
    stats_.host_uplink_busy_seconds += duration;
  }
  if (use.downlink_bus >= 0) {
    auto& free_s =
        links_[static_cast<std::size_t>(use.downlink_bus)].downlink_free_s;
    free_s = std::max(free_s, until);
    stats_.host_downlink_busy_seconds += duration;
  }
  if (use.socket_node >= 0) {
    auto& free_s = links_[static_cast<std::size_t>(use.socket_node)]
                       .socket_free_s[use.socket_dir];
    free_s = std::max(free_s, until);
    stats_.socket_link_busy_seconds += duration;
  }
  if (use.nic_send_node >= 0) {
    auto& free_s =
        links_[static_cast<std::size_t>(use.nic_send_node)].nic_send_free_s;
    free_s = std::max(free_s, until);
    stats_.nic_send_busy_seconds += duration;
  }
  if (use.nic_recv_node >= 0) {
    auto& free_s =
        links_[static_cast<std::size_t>(use.nic_recv_node)].nic_recv_free_s;
    free_s = std::max(free_s, until);
    stats_.nic_recv_busy_seconds += duration;
  }
}

double Node::link_free_time(const Command& cmd) const {
  if (cmd.nlegs > 0) {
    // A leg's resource must be free by the time the leg starts, not by the
    // time the transfer starts: earlier legs of this transfer cover the gap.
    double start_s = 0.0;
    for (std::uint32_t i = cmd.first_leg; i < cmd.first_leg + cmd.nlegs; ++i) {
      start_s = std::max(start_s, link_free_use(legs_[i].use) - legs_[i].offset_s);
    }
    return start_s;
  }
  return link_free_use(cmd.use);
}

void Node::reserve_links(const Command& cmd, double completion) {
  if (cmd.nlegs > 0) {
    const double start = completion - cmd.duration_s;
    for (std::uint32_t i = cmd.first_leg; i < cmd.first_leg + cmd.nlegs; ++i) {
      reserve_use(legs_[i].use, start + legs_[i].offset_s + legs_[i].duration_s,
                  legs_[i].duration_s);
    }
    return;
  }
  reserve_use(cmd.use, completion, cmd.duration_s);
}

void Node::account(const Command& cmd, int device) {
  const double duration = cmd.duration_s;
  switch (cmd.kind) {
  case Command::Kind::Kernel:
    ++stats_.kernels_launched;
    stats_.kernel_seconds += duration;
    stats_.device_compute_seconds[static_cast<std::size_t>(device)] += duration;
    break;
  case Command::Kind::Copy: {
    ++stats_.copies;
    stats_.copy_seconds += duration;
    const std::size_t si =
        cmd.src.is_host() ? 0 : static_cast<std::size_t>(cmd.src.device) + 1;
    const std::size_t di =
        cmd.dst.is_host() ? 0 : static_cast<std::size_t>(cmd.dst.device) + 1;
    stats_.bytes_between[si][di] += cmd.bytes;
    switch (cmd.link) {
    case LinkClass::IntraDevice:
      break; // never leaves the device: no interconnect traffic
    case LinkClass::PeerSameBus:
      stats_.bytes_p2p += cmd.bytes;
      stats_.bytes_p2p_same_bus += cmd.bytes;
      break;
    case LinkClass::PeerCrossBus:
      stats_.bytes_p2p += cmd.bytes;
      stats_.bytes_p2p_cross_bus += cmd.bytes;
      break;
    case LinkClass::HostToDevice:
      stats_.bytes_h2d += cmd.bytes;
      break;
    case LinkClass::DeviceToHost:
      stats_.bytes_d2h += cmd.bytes;
      break;
    case LinkClass::HostStaged:
      stats_.bytes_host_staged += cmd.bytes;
      break;
    case LinkClass::NetworkSend:
    case LinkClass::NetworkRecv:
    case LinkClass::NetworkStaged:
      stats_.bytes_network += cmd.bytes;
      break;
    }
    break;
  }
  case Command::Kind::HostFunc:
    ++stats_.host_funcs;
    break;
  default:
    break;
  }
}

bool Node::head_parked(const StreamState& st) const {
  const Command& cmd = st.front();
  return cmd.kind == Command::Kind::WaitEvent &&
         events_[static_cast<std::size_t>(cmd.event)].processed_generation <
             cmd.event_generation;
}

double Node::event_completion(EventId event, std::uint64_t generation) const {
  if (generation == 1) {
    return events_[static_cast<std::size_t>(event)].first_completion_s;
  }
  // A wait is released once any generation >= its own was processed, so a
  // generation recorded out of order may still be unprocessed: it reads 0
  // until its record runs, exactly as an unset inline slot does.
  const auto it = later_completion_s_.find(event);
  if (it == later_completion_s_.end() || it->second.size() < generation - 1) {
    return 0.0;
  }
  return it->second[static_cast<std::size_t>(generation - 2)];
}

double Node::head_ready(const StreamState& st, int* engine) const {
  const Command& cmd = st.front();
  double ready = std::max(st.last_completion_s, cmd.issue_floor_s);
  if (cmd.kind == Command::Kind::WaitEvent) {
    ready = std::max(ready, event_completion(cmd.event, cmd.event_generation));
  } else if (cmd.kind == Command::Kind::Kernel) {
    ready = std::max(
        ready, engines_[static_cast<std::size_t>(st.device)].compute_free_s);
  } else if (cmd.kind == Command::Kind::Copy) {
    const auto& eng = engines_[static_cast<std::size_t>(st.device)];
    const int free_engine = eng.copy_free_s[0] <= eng.copy_free_s[1] ? 0 : 1;
    ready = std::max(ready, eng.copy_free_s[free_engine]);
    if (engine != nullptr) {
      *engine = free_engine;
    }
    // Transfers sharing a physical link (host uplink/downlink, the
    // inter-socket hop) serialize on it; in-pair P2P stays engine-bound.
    // DMA setup latency pipelines with the predecessor's data phase (the
    // bus is throughput-bound, not command-bound), so a queued copy may
    // begin its setup while the link drains.
    ready = std::max(ready, link_free_time(cmd) - cmd.setup_s);
  }
  return ready;
}

void Node::push_ready(double key, StreamId stream) {
  ready_heap_.push_back({key, stream});
  std::push_heap(ready_heap_.begin(), ready_heap_.end(), std::greater<>{});
}

void Node::schedule_head(StreamId stream) {
  const StreamState& st = streams_[static_cast<std::size_t>(stream)];
  if (st.empty()) {
    return;
  }
  if (head_parked(st)) {
    parked_.push_back(stream);
  } else {
    push_ready(head_ready(st), stream);
  }
}

TraceEvent Node::trace_event(const Command& cmd, StreamId stream, int device,
                             double start, double end) const {
  TraceEvent te;
  te.stream = stream;
  te.device = device;
  switch (cmd.kind) {
  case Command::Kind::Kernel:
    te.kind = 'K';
    if (cmd.label != Command::kNone) {
      te.label = labels_[cmd.label];
    }
    break;
  case Command::Kind::Copy:
    te.kind = 'C';
    te.label = (cmd.src.is_host() ? std::string("H") : std::to_string(cmd.src.device)) +
               "->" + (cmd.dst.is_host() ? std::string("H") : std::to_string(cmd.dst.device)) +
               " " + std::to_string(cmd.bytes) + "B";
    break;
  case Command::Kind::HostFunc: te.kind = 'H'; break;
  case Command::Kind::RecordEvent: te.kind = 'R'; te.label = "ev" + std::to_string(cmd.event); break;
  case Command::Kind::WaitEvent: te.kind = 'W'; te.label = "ev" + std::to_string(cmd.event); break;
  }
  te.start = start;
  te.end = end;
  return te;
}

void Node::drain_locked() {
  // Deterministic list scheduler: repeatedly pick, among all stream heads
  // whose dependencies are satisfied, the command with the earliest start
  // time (ties broken by stream id), execute it functionally and advance the
  // simulated clock state. The ready heap and the parked list (see the
  // execution model in node.hpp) are rebuilt here because a throwing body
  // can leave them stale.
  ready_heap_.clear();
  parked_.clear();
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    schedule_head(static_cast<StreamId>(s));
  }
  while (!ready_heap_.empty()) {
    std::pop_heap(ready_heap_.begin(), ready_heap_.end(), std::greater<>{});
    const auto [key, stream] = ready_heap_.back();
    ready_heap_.pop_back();
    auto& st = streams_[static_cast<std::size_t>(stream)];
    const Command cmd = st.front();
    // A record or wait head starts at its key. Its stream's last completion
    // and its issue floor are fixed while it is the head. A wait's event
    // completion moves only when a generation released out of order is
    // recorded later, and that record, popped ahead of the wait and taking
    // no time, completes no later than the wait's key.
    int engine = -1;
    double start = key;
    if (cmd.kind != Command::Kind::RecordEvent &&
        cmd.kind != Command::Kind::WaitEvent) {
      start = head_ready(st, &engine);
    }
    assert(start >= key);
    if (start > key) {
      push_ready(start, stream);
      continue;
    }

    const double completion = start + cmd.duration_s;
    if (cmd.kind == Command::Kind::Kernel) {
      engines_[static_cast<std::size_t>(st.device)].compute_free_s = completion;
    } else if (cmd.kind == Command::Kind::Copy) {
      engines_[static_cast<std::size_t>(st.device)].copy_free_s[engine] =
          completion;
      reserve_links(cmd, completion);
    } else if (cmd.kind == Command::Kind::RecordEvent) {
      auto& ev = events_[static_cast<std::size_t>(cmd.event)];
      if (cmd.event_generation == 1) {
        ev.first_completion_s = completion;
      } else {
        auto& later = later_completion_s_[cmd.event];
        later.resize(std::max<std::size_t>(
                         later.size(),
                         static_cast<std::size_t>(cmd.event_generation - 1)),
                     0.0);
        later[static_cast<std::size_t>(cmd.event_generation - 2)] = completion;
      }
      ev.processed_generation =
          std::max(ev.processed_generation, cmd.event_generation);
      // Release the parked heads this record satisfies; the rest stay put.
      std::size_t kept = 0;
      for (const StreamId waiter : parked_) {
        const StreamState& ws = streams_[static_cast<std::size_t>(waiter)];
        if (head_parked(ws)) {
          parked_[kept++] = waiter;
        } else {
          push_ready(head_ready(ws), waiter);
        }
      }
      parked_.resize(kept);
    }
    st.last_completion_s = completion;
    host_time_s_ = std::max(host_time_s_, completion);
    account(cmd, st.device);

    // The command is consumed before any callback runs, so an observer or
    // body that throws never leaves it to be processed twice.
    st.pop_front();
    schedule_head(stream);

    if (traced()) {
      TraceEvent te = trace_event(cmd, stream, st.device, start, completion);
      if (exec_observer_) {
        exec_observer_(te);
      }
      if (trace_enabled_) {
        trace_.push_back(std::move(te));
      }
    }
    if (cmd.body == Command::kNone) {
      continue;
    }
    std::function<void()> body = std::move(bodies_[cmd.body]);
    if (functional_exec_ != nullptr) {
      if (cmd.kind == Command::Kind::Kernel) {
        // Defer the kernel sweep so the event loop keeps scheduling while
        // it runs. Joining the device first keeps same-device kernels
        // strictly ordered (at most one pending body per device); kernels
        // only touch their own device's buffers, so cross-device overlap
        // is safe.
        functional_exec_->join_device(st.device);
        functional_exec_->run_kernel_body(st.device, std::move(body));
        continue;
      }
      // Copies, memsets and host functions read/write device and host
      // memory across devices: every pending kernel body must land first.
      functional_exec_->join_all();
    }
    body(); // Functional mode: run the kernel/copy/host function
  }

  // Either fully drained or deadlocked on unrecorded events.
  bool pending = false;
  std::string diag;
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    if (!streams_[s].empty()) {
      pending = true;
      diag += " stream " + std::to_string(s) + " (device " +
              std::to_string(streams_[s].device) + ", " +
              std::to_string(streams_[s].size()) + " cmds)";
    }
  }
  // Quiesce the asynchronous body backend on BOTH exits: after a drain
  // every functional effect must be host-visible, and a deadlock report
  // must not leave bodies running behind the caller's back.
  if (functional_exec_ != nullptr) {
    functional_exec_->join_all();
  }
  if (pending) {
    throw std::runtime_error(
        "sim::Node deadlock: streams blocked on unprocessed events:" + diag);
  }
  bodies_.clear();
  labels_.clear();
  legs_.clear();
}

void Node::synchronize() {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_locked();
}

void Node::synchronize_stream(StreamId stream) {
  (void)stream;
  synchronize();
}

double Node::now_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return host_time_s_ * 1e3;
}

void Node::advance_host_us(double us) {
  std::lock_guard<std::mutex> lock(mutex_);
  host_time_s_ += us * 1e-6;
}

void Node::enable_trace(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_enabled_ = on;
}

void Node::clear_trace() {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.clear();
}

void Node::set_exec_observer(std::function<void(const TraceEvent&)> observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  exec_observer_ = std::move(observer);
}

void Node::set_functional_executor(FunctionalExecutor* executor) {
  std::lock_guard<std::mutex> lock(mutex_);
  functional_exec_ = functional() ? executor : nullptr;
}

void Node::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = SimStats{};
  stats_.bytes_between.assign(
      specs_.size() + 1, std::vector<std::uint64_t>(specs_.size() + 1, 0));
  stats_.device_compute_seconds.assign(specs_.size(), 0.0);
}

const char* to_string(Arch arch) {
  switch (arch) {
  case Arch::Kepler:
    return "Kepler";
  case Arch::Maxwell:
    return "Maxwell";
  }
  return "?";
}

} // namespace sim

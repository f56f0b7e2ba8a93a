#include "multi/transfer_planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/cost_model.hpp"

namespace maps::multi {

TransferPlanner::TransferPlanner(const SegmentLocationMonitor& monitor,
                                 const sim::Topology& topo,
                                 std::vector<int> devices)
    : monitor_(monitor), topo_(topo), devices_(std::move(devices)) {
  uplink_busy_.resize(static_cast<std::size_t>(topo_.bus_count()), 0.0);
  downlink_busy_.resize(static_cast<std::size_t>(topo_.bus_count()), 0.0);
  socket_busy_.resize(static_cast<std::size_t>(topo_.cluster_nodes()),
                      {0.0, 0.0});
  engine_busy_.resize(devices_.size(), {0.0, 0.0});
  nic_send_busy_.resize(static_cast<std::size_t>(topo_.cluster_nodes()), 0.0);
  nic_recv_busy_.resize(static_cast<std::size_t>(topo_.cluster_nodes()), 0.0);
  loc_node_.resize(devices_.size() + 1, 0);
  node_locs_.resize(static_cast<std::size_t>(topo_.cluster_nodes()));
  for (std::size_t slot = 0; slot < devices_.size(); ++slot) {
    const int node = topo_.cluster_node_of(devices_[slot]);
    loc_node_[slot + 1] = node;
    node_locs_[static_cast<std::size_t>(node)].push_back(
        static_cast<int>(slot) + 1);
  }
}

void TransferPlanner::begin_task() {
  std::fill(uplink_busy_.begin(), uplink_busy_.end(), 0.0);
  std::fill(downlink_busy_.begin(), downlink_busy_.end(), 0.0);
  std::fill(socket_busy_.begin(), socket_busy_.end(),
            std::array<double, 2>{0.0, 0.0});
  std::fill(engine_busy_.begin(), engine_busy_.end(),
            std::array<double, 2>{0.0, 0.0});
  std::fill(nic_send_busy_.begin(), nic_send_busy_.end(), 0.0);
  std::fill(nic_recv_busy_.begin(), nic_recv_busy_.end(), 0.0);
  fresh_.clear();
  gateway_rotation_ = 0;
}

sim::Endpoint TransferPlanner::endpoint(int location) const {
  if (location == SegmentLocationMonitor::kHost) {
    return sim::Endpoint::host();
  }
  return sim::Endpoint::dev(devices_[static_cast<std::size_t>(location - 1)]);
}

double TransferPlanner::link_free(const sim::Topology::LinkUse& use) const {
  double free_s = 0.0;
  if (use.uplink_bus >= 0) {
    free_s = std::max(free_s,
                      uplink_busy_[static_cast<std::size_t>(use.uplink_bus)]);
  }
  if (use.downlink_bus >= 0) {
    free_s = std::max(
        free_s, downlink_busy_[static_cast<std::size_t>(use.downlink_bus)]);
  }
  if (use.socket_node >= 0) {
    free_s = std::max(
        free_s, socket_busy_[static_cast<std::size_t>(use.socket_node)]
                            [static_cast<std::size_t>(use.socket_dir)]);
  }
  if (use.nic_send_node >= 0) {
    free_s = std::max(
        free_s, nic_send_busy_[static_cast<std::size_t>(use.nic_send_node)]);
  }
  if (use.nic_recv_node >= 0) {
    free_s = std::max(
        free_s, nic_recv_busy_[static_cast<std::size_t>(use.nic_recv_node)]);
  }
  return free_s;
}

void TransferPlanner::reserve_links(const sim::Topology::LinkUse& use,
                                    double until) {
  // max() rather than plain assignment: per-leg reservations of one shared
  // resource may commit out of completion order across ops, and a busy-until
  // estimate must never move backwards.
  const auto hold = [until](double& busy) { busy = std::max(busy, until); };
  if (use.uplink_bus >= 0) {
    hold(uplink_busy_[static_cast<std::size_t>(use.uplink_bus)]);
  }
  if (use.downlink_bus >= 0) {
    hold(downlink_busy_[static_cast<std::size_t>(use.downlink_bus)]);
  }
  if (use.socket_node >= 0) {
    hold(socket_busy_[static_cast<std::size_t>(use.socket_node)]
                     [static_cast<std::size_t>(use.socket_dir)]);
  }
  if (use.nic_send_node >= 0) {
    hold(nic_send_busy_[static_cast<std::size_t>(use.nic_send_node)]);
  }
  if (use.nic_recv_node >= 0) {
    hold(nic_recv_busy_[static_cast<std::size_t>(use.nic_recv_node)]);
  }
}

std::pair<double, std::uint32_t>
TransferPlanner::source_state(const FreshState* fs, int loc,
                              const RowInterval& rows) const {
  if (fs == nullptr) {
    return {0.0, 0};
  }
  double ready = 0.0;
  std::uint32_t depth = 0;
  for (const Fresh& f : fs->per_loc[static_cast<std::size_t>(loc)]) {
    if (f.rows.begin < rows.end && rows.begin < f.rows.end) {
      ready = std::max(ready, f.ready_s);
      depth = std::max(depth, f.depth);
    }
  }
  return {ready, depth};
}

void TransferPlanner::collect_candidates(const FreshState* fs, int op_src,
                                         int target_location) {
  cand_buf_.clear();
  const int locations = static_cast<int>(devices_.size()) + 1;
  if (topo_.cluster_nodes() <= 1) {
    // Single node: every location is a candidate, exactly the PR 3 scan.
    for (int l = 0; l < locations; ++l) {
      if (l != target_location) {
        cand_buf_.push_back(l);
      }
    }
    return;
  }
  cand_buf_.push_back(SegmentLocationMonitor::kHost);
  cand_buf_.push_back(op_src);
  const int target_node = loc_node_[static_cast<std::size_t>(target_location)];
  for (int l : node_locs_[static_cast<std::size_t>(target_node)]) {
    cand_buf_.push_back(l);
  }
  if (fs != nullptr) {
    // One fresh-replica gateway per remote node, rotated across the ops of a
    // task: when a node holds several fresh replicas, successive ops are
    // offered different holders, spreading that node's NIC egress and bus
    // downlink load instead of funneling every forward through the first
    // replica. Enough for the earliest-finish rule to build inter-node
    // forwarding trees without scanning every device (coverage of the
    // specific rows is re-checked by route(); a gateway that misses them
    // simply loses the comparison). The rotation counter advances once per
    // op and resets per task, so planning stays deterministic.
    const std::uint64_t rot = gateway_rotation_++;
    std::size_t i = 0;
    while (i < fs->fresh_locs.size()) {
      const int node = loc_node_[static_cast<std::size_t>(fs->fresh_locs[i])];
      std::size_t j = i;
      while (j < fs->fresh_locs.size() &&
             loc_node_[static_cast<std::size_t>(fs->fresh_locs[j])] == node) {
        ++j;
      }
      if (node != target_node) {
        cand_buf_.push_back(
            fs->fresh_locs[i + static_cast<std::size_t>(rot % (j - i))]);
      }
      i = j;
    }
  }
  std::sort(cand_buf_.begin(), cand_buf_.end());
  cand_buf_.erase(std::unique(cand_buf_.begin(), cand_buf_.end()),
                  cand_buf_.end());
  cand_buf_.erase(
      std::remove(cand_buf_.begin(), cand_buf_.end(), target_location),
      cand_buf_.end());
}

void TransferPlanner::account(TransferStats& stats, const sim::Topology& topo,
                              sim::Endpoint src, sim::Endpoint dst,
                              bool host_staged, std::uint64_t bytes) {
  switch (topo.link_class(src, dst, host_staged)) {
  case sim::LinkClass::IntraDevice:
    break; // never leaves the device: no interconnect traffic
  case sim::LinkClass::PeerSameBus:
    stats.bytes_p2p_same_bus += bytes;
    break;
  case sim::LinkClass::PeerCrossBus:
    stats.bytes_p2p_cross_bus += bytes;
    break;
  case sim::LinkClass::HostToDevice:
    stats.bytes_h2d += bytes;
    break;
  case sim::LinkClass::DeviceToHost:
    stats.bytes_d2h += bytes;
    break;
  case sim::LinkClass::HostStaged:
    stats.bytes_host_staged += bytes;
    break;
  case sim::LinkClass::NetworkSend:
    stats.bytes_net_send += bytes;
    break;
  case sim::LinkClass::NetworkRecv:
    stats.bytes_net_recv += bytes;
    break;
  case sim::LinkClass::NetworkStaged:
    stats.bytes_net_staged += bytes;
    break;
  }
}

std::vector<SegmentLocationMonitor::CopyOp>
TransferPlanner::route(const Datum* datum, int target_location,
                       std::size_t row_bytes,
                       std::vector<SegmentLocationMonitor::CopyOp> ops,
                       TransferStats& stats) {
  stats.copies_planned += static_cast<std::uint32_t>(ops.size());
  const int target_slot = target_location - 1;
  const sim::Endpoint dst = endpoint(target_location);

  // Split ops at the boundaries of this task's freshly-routed replicas: the
  // monitor may hand us one wide op whose source rows become ready at
  // different times (some original, some still in flight). Each span routes
  // independently so it stalls only on its own source; the coalescing pass
  // below re-merges spans that end up equal. The boundary list is maintained
  // incrementally as replicas are committed (FreshState::cuts), so this pass
  // costs O(cuts), not a rescan of every location's replica list.
  const auto fresh_it = fresh_.find(datum->key());
  const FreshState* fs = fresh_it == fresh_.end() ? nullptr : &fresh_it->second;
  if (fs != nullptr && !fs->cuts.empty()) {
    const auto& cuts = fs->cuts;
    std::vector<SegmentLocationMonitor::CopyOp> split;
    split.reserve(ops.size());
    for (const auto& op : ops) {
      SegmentLocationMonitor::CopyOp piece = op;
      for (std::size_t cut : cuts) {
        if (cut > piece.rows.begin && cut < piece.rows.end) {
          SegmentLocationMonitor::CopyOp head = piece;
          head.rows.end = cut;
          split.push_back(head);
          piece.rows.begin = cut;
        }
      }
      split.push_back(piece);
    }
    ops = std::move(split);
  }

  // Source-readiness of each op's chosen source (0 for data already in
  // place): the coalescing pass below only merges ops that become available
  // together, so a merged transfer never stalls an early piece on a late one.
  std::vector<double> src_ready(ops.size(), 0.0);

  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    auto& op = ops[oi];
    if (op.src_location == target_location) {
      // Wrap/Clamp halo refilled from the target's own holdings: an
      // intra-device copy is already the cheapest possible path.
      continue;
    }
    const std::uint64_t bytes = op.rows.size() * row_bytes;

    double best_finish = std::numeric_limits<double>::infinity();
    double best_duration = 0.0;
    int best_loc = -1;
    int best_dev = std::numeric_limits<int>::max();
    int best_rank = 0;
    std::uint32_t best_depth = 0;
    double best_ready = 0.0;
    bool best_network = false;
    bool best_staged = false;
    bool best_bounce = false;
    sim::Topology::LinkUse best_use;

    // With pipelined crossings on, cross-bus in-node copies get a second
    // candidate path: the host-RAM bounce. The inter-socket link is the one
    // resource every cross-bus delivery of an in-node fan-out shares; the
    // bounce pays two PCIe hops plus software latency but occupies per-bus
    // links instead, so under socket saturation the earliest-finish rule
    // spills deliveries onto the idle host links. Off-cluster (and with
    // pipelining off) the candidate set is unchanged — single-node plans and
    // the PR 8 reservation model stay bit-identical.
    const bool balance_paths =
        topo_.cluster_nodes() > 1 && topo_.network_pipelining;

    collect_candidates(fs, op.src_location, target_location);
    stats.candidates_scanned += cand_buf_.size();
    for (int l : cand_buf_) {
      // The monitor's own pick is always a valid candidate; any other
      // location qualifies iff its up-to-date holdings cover the rows
      // (including replicas this task routed to it moments ago — the build
      // marks those copied in the monitor as it plans).
      if (l != op.src_location &&
          !monitor_.up_to_date(datum, l).covers(op.rows)) {
        continue;
      }
      const sim::Endpoint src = endpoint(l);
      const bool forced = !src.is_host() && !dst.is_host() &&
                          !topo_.peer_enabled(src.device, dst.device);
      const bool can_bounce =
          balance_paths && !forced && !src.is_host() && !dst.is_host() &&
          topo_.link_class(src, dst) == sim::LinkClass::PeerCrossBus;
      const auto [ready, depth] = source_state(fs, l, op.rows);
      for (int variant = 0; variant < (can_bounce ? 2 : 1); ++variant) {
      const bool bounce = variant == 1;
      const bool staged = forced || bounce;
      const sim::Topology::LinkUse use = topo_.link_use(src, dst, staged);
      // Mirror the simulator: setup latency pipelines with whatever is still
      // draining the shared link, so only the data phase queues behind it.
      const double setup =
          (staged ? topo_.latency_us(src, sim::Endpoint::host())
                  : topo_.latency_us(src, dst)) *
          1e-6;
      // Network crossings are costed leg-wise, mirroring the simulator's
      // pipelined occupancy model: each hop's resource need only be free by
      // that hop's offset into the transfer, so a chunk piece queues behind
      // its predecessor's matching hop, not its whole duration.
      sim::Topology::CopyLeg legs[3];
      const int nlegs = topo_.copy_legs(src, dst, bytes, staged, legs);
      double lf = 0.0;
      if (nlegs > 0) {
        for (int li = 0; li < nlegs; ++li) {
          lf = std::max(lf, link_free(legs[li].use) - legs[li].offset_s);
        }
      } else {
        lf = link_free(use);
      }
      double start = std::max({ready, lf - setup, 0.0});
      if (target_slot >= 0) {
        const auto& eng = engine_busy_[static_cast<std::size_t>(target_slot)];
        start = std::max(start, std::min(eng[0], eng[1]));
      }
      // The simulator's own duration model, network hop included — the
      // planner must see the same cross-node cost the event loop will
      // charge, or it would rank remote sources too cheap.
      const double duration = sim::copy_seconds(topo_, src, dst, bytes, staged);
      const double finish = start + duration;
      const sim::LinkClass cls = topo_.link_class(src, dst, staged);
      const int rank = sim::Topology::link_rank(cls);
      // Ties break on physical device index, not location index: two fresh
      // gateways finishing at the same sim time must pick the same source
      // under any slot->device placement, or plan-cache replay could
      // diverge from a rebuilt plan after a placement reorder.
      const int cand_dev = src.is_host() ? -1 : src.device;
      if (finish < best_finish ||
          (finish == best_finish &&
           (rank < best_rank || (rank == best_rank && cand_dev < best_dev)))) {
        best_finish = finish;
        best_duration = duration;
        best_loc = l;
        best_dev = cand_dev;
        best_rank = rank;
        best_depth = depth;
        best_ready = ready;
        best_network = sim::Topology::crosses_network(cls);
        best_staged = staged;
        best_bounce = bounce;
        best_use = use;
      }
      }
    }

    if (best_loc < 0) {
      continue; // defensive: keep the monitor's op untouched
    }
    src_ready[oi] = best_ready;
    if (best_loc != op.src_location) {
      ++stats.copies_rerouted;
      op.src_location = best_loc;
    }
    op.via_host = best_bounce;
    if (best_network) {
      ++stats.staged_routes_planned;
    }
    // Commit the choice to the load tracker so later ops (of this and every
    // following slot in the task) see this transfer occupying its links and
    // one of the destination's copy engines. Network crossings reserve per
    // leg — each hop's resource is released when that hop ends, matching
    // what the event loop will do.
    {
      sim::Topology::CopyLeg legs[3];
      const int nlegs = topo_.copy_legs(endpoint(best_loc), dst, bytes,
                                        best_staged, legs);
      if (nlegs > 0) {
        const double start = best_finish - best_duration;
        for (int li = 0; li < nlegs; ++li) {
          reserve_links(legs[li].use,
                        start + legs[li].offset_s + legs[li].duration_s);
        }
      } else {
        reserve_links(best_use, best_finish);
      }
    }
    if (target_slot >= 0) {
      auto& eng = engine_busy_[static_cast<std::size_t>(target_slot)];
      (eng[0] <= eng[1] ? eng[0] : eng[1]) = best_finish;
    }
    FreshState& fstate = fresh_[datum->key()];
    if (fstate.per_loc.empty()) {
      fstate.per_loc.resize(devices_.size() + 1);
    }
    fstate.per_loc[static_cast<std::size_t>(target_location)].push_back(
        Fresh{op.rows, best_finish, best_depth + 1});
    // Maintain the digests: the sorted location list feeds the remote
    // gateway scan, the sorted boundary list feeds the op-splitting pass.
    auto lit = std::lower_bound(fstate.fresh_locs.begin(),
                                fstate.fresh_locs.end(), target_location);
    if (lit == fstate.fresh_locs.end() || *lit != target_location) {
      fstate.fresh_locs.insert(lit, target_location);
    }
    for (const std::size_t cut : {op.rows.begin, op.rows.end}) {
      auto cit =
          std::lower_bound(fstate.cuts.begin(), fstate.cuts.end(), cut);
      if (cit == fstate.cuts.end() || *cit != cut) {
        fstate.cuts.insert(cit, cut);
      }
    }
    stats.max_fanout_depth = std::max(stats.max_fanout_depth, best_depth + 1);
  }

  // Re-canonicalize: routing may have moved ops between sources, so re-sort
  // and merge rows that are now adjacent with the same source (the monitor
  // guarantees the rows themselves are disjoint). Ops whose sources become
  // ready at different times stay separate: a merged transfer starts only
  // when its latest piece exists, which would stall the early pieces.
  std::vector<std::size_t> order(ops.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ops[a].src_location != ops[b].src_location
               ? ops[a].src_location < ops[b].src_location
               : ops[a].rows.begin < ops[b].rows.begin;
  });
  std::vector<SegmentLocationMonitor::CopyOp> merged;
  merged.reserve(ops.size());
  double merged_ready = 0.0;
  for (std::size_t i : order) {
    const auto& op = ops[i];
    if (!merged.empty() && merged.back().src_location == op.src_location &&
        merged.back().via_host == op.via_host &&
        merged.back().rows.end == op.rows.begin &&
        std::abs(src_ready[i] - merged_ready) < 1e-9 &&
        (max_coalesce_bytes_ == 0 ||
         (merged.back().rows.size() + op.rows.size()) * row_bytes <=
             max_coalesce_bytes_)) {
      merged.back().rows.end = op.rows.end;
      ++stats.copies_coalesced;
    } else {
      merged.push_back(op);
      merged_ready = src_ready[i];
    }
  }
  return merged;
}

std::vector<sym::Copy>
TransferPlanner::symbolic_route(const sym::Family& family,
                                const sym::MonitorState& state,
                                std::vector<sym::Copy> ops) {
  // Replicas created by copies routed earlier in the same task are candidate
  // forwarding sources for later ones (the emergent fan-out shape of the
  // concrete planner's fresh-replica table). Readiness ordering is a timing
  // concern the symbolic model does not carry — only provable coverage.
  std::map<int, std::map<int, std::vector<sym::Interval>>> task_fresh;
  const auto holds = [&](int datum, int loc, const sym::Interval& rows) {
    auto it = state.find(datum);
    if (it != state.end()) {
      const auto& sets = it->second.fresh;
      if (loc < static_cast<int>(sets.size())) {
        for (const sym::Interval& f : sets[static_cast<std::size_t>(loc)]) {
          if (provably_contains(family, f, rows)) {
            return true;
          }
        }
      }
    }
    for (const sym::Interval& f : task_fresh[datum][loc]) {
      if (provably_contains(family, f, rows)) {
        return true;
      }
    }
    return false;
  };
  for (sym::Copy& op : ops) {
    if (!op.zero_fill && op.src_location == 0) {
      // Host staging is the costliest class under the contention model; the
      // greedy rule reroutes to any device replica that provably holds the
      // rows (deterministic first-match, mirroring the tie-break on
      // location index). Destination, rows and alignment stay untouched.
      for (int dev = 1; dev <= family.slots; ++dev) {
        if (dev != op.dst_location && holds(op.datum, dev, op.rows)) {
          op.src_location = dev;
          op.rerouted = true;
          break;
        }
      }
    }
    if (op.aligned && !op.zero_fill) {
      task_fresh[op.datum][op.dst_location].push_back(op.rows);
    }
  }
  return ops;
}

std::vector<SegmentLocationMonitor::CopyOp>
TransferPlanner::chunk(std::vector<SegmentLocationMonitor::CopyOp> ops,
                       int target_location, std::size_t row_bytes,
                       std::size_t chunk_bytes, bool all,
                       TransferStats& stats) const {
  const std::size_t chunk_rows =
      std::max<std::size_t>(1, chunk_bytes / row_bytes);
  const int dst_node = topo_.cluster_node_of(endpoint(target_location).device);
  const auto crosses = [&](const SegmentLocationMonitor::CopyOp& op) {
    return topo_.cluster_node_of(endpoint(op.src_location).device) != dst_node;
  };
  const auto splits = [&](const SegmentLocationMonitor::CopyOp& op) {
    return op.rows.size() > chunk_rows && (all || crosses(op));
  };
  if (std::none_of(ops.begin(), ops.end(), splits)) {
    return ops;
  }
  std::vector<SegmentLocationMonitor::CopyOp> pieces;
  pieces.reserve(ops.size());
  for (const auto& op : ops) {
    if (!splits(op)) {
      pieces.push_back(op);
      continue;
    }
    const std::uint32_t depth = static_cast<std::uint32_t>(
        (op.rows.size() + chunk_rows - 1) / chunk_rows);
    stats.max_pipeline_depth = std::max(stats.max_pipeline_depth, depth);
    (crosses(op) ? stats.bytes_chunked_network
                 : stats.bytes_chunked_intranode) += op.rows.size() * row_bytes;
    for (std::size_t b = op.rows.begin; b < op.rows.end; b += chunk_rows) {
      auto piece = op;
      piece.rows = RowInterval{b, std::min(b + chunk_rows, op.rows.end)};
      pieces.push_back(piece);
    }
    stats.copies_chunked += depth - 1;
  }
  return pieces;
}

} // namespace maps::multi

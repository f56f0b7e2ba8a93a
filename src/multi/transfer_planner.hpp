// Transfer routing layer between the Segment Location Monitor and the
// Scheduler.
//
// Algorithm 2 answers *what* must move (which rows are missing at the target
// and who holds them); this layer decides *how* the movement is routed over
// the node's interconnect. The monitor's own source choice is purely
// positional — first covering location wins — which is oblivious to the
// topology's link classes (in-pair P2P vs cross-bus P2P vs host PCIe) and to
// the load the current task has already placed on each shared link. Under
// the simulator's contention model (per-bus host links, a full-duplex
// inter-socket link; see sim/topology.hpp) that obliviousness costs real
// simulated time: a one-to-many replication naively crosses the shared link
// once per *target*, when crossing once per *bus* and forwarding in-pair is
// strictly cheaper.
//
// The planner re-sources every CopyOp with a greedy earliest-finish rule
// over all locations whose up-to-date holdings cover the op's rows:
//
//   finish(src) = max(replica_ready(src), shared_links_free(src->dst),
//                     dst_copy_engines_free) + transfer_time(src->dst)
//
// with deterministic tie-breaking on (link class rank, location index).
// Because the scheduler plans device slots sequentially and marks routed
// replicas copied in the monitor as it goes, a replica the planner just
// routed to one device immediately becomes a candidate source for the next
// device — multicast fan-out trees (cross the shared bus once, forward
// within the pair) *emerge* from the cost rule rather than being prescribed.
// The per-task load tracker is what makes this work: the second h2d of a
// broadcast sees the uplink busy and the pair-mate's fresh replica cheap.
//
// Finally, ops that end up adjacent with the same source are coalesced into
// one transfer (each op pays the per-transfer latency in the simulator).
//
// On cluster topologies (sim::Topology::cluster) the same rule becomes
// hierarchical. The load model gains the per-node NICs, the duration
// estimate gains the network hop (mirroring sim::copy_seconds exactly), and
// the candidate set per op shrinks from every location to: the monitor's own
// pick, the host, the destination node's locations, and one fresh-replica
// gateway per remote node. Under NIC contention the earliest-finish rule
// then crosses the network once per destination *node* — the first transfer
// into a node pays the NIC hop, after which that node's replica is the
// cheapest source for its neighbours — and remote gateways with fresh
// replicas forward across their own NICs, so one-to-many distributions form
// inter-node trees instead of serializing on the head node's egress NIC.
// The reduce dual (Scheduler::ReduceScatter) pre-combines partials within
// each node before its combined segment crosses the network once.
//
// Everything here is deterministic and runs at plan-build time only: routed
// plans are baked into the immutable PlanShape, flow through the scheduler's
// plan cache unchanged, and replay without consulting the planner again.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "multi/datum.hpp"
#include "multi/location_monitor.hpp"
#include "multi/symbolic_verifier.hpp"
#include "sim/topology.hpp"

namespace maps::multi {

/// Transfer accounting of one task (or, summed, of a run). Byte counters
/// classify planned input transfers by the physical path they take; the copy
/// counters expose what routing and coalescing did to Algorithm 2's raw op
/// list.
struct TransferStats {
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t bytes_p2p_same_bus = 0;
  std::uint64_t bytes_p2p_cross_bus = 0;
  std::uint64_t bytes_host_staged = 0;
  // Network link classes (cluster topologies only; see sim::LinkClass).
  // Transfers are classified by the full path they take, so cross-node
  // traffic lands here rather than in the single-node counters above.
  std::uint64_t bytes_net_send = 0;   ///< remote device -> head host
  std::uint64_t bytes_net_recv = 0;   ///< head host -> remote device
  std::uint64_t bytes_net_staged = 0; ///< device -> device across nodes

  std::uint32_t copies_planned = 0;   ///< raw Algorithm-2 ops before routing
  std::uint32_t copies_issued = 0;    ///< transfers actually dispatched
  std::uint32_t copies_rerouted = 0;  ///< ops whose source the planner changed
  std::uint32_t copies_coalesced = 0; ///< ops merged into an adjacent one
  std::uint32_t copies_chunked = 0;   ///< extra pieces from row-range chunking
  std::uint32_t max_fanout_depth = 0; ///< longest replica-forwarding chain
  /// Deepest chunk pipeline of any single routed transfer: the number of
  /// chunk pieces one oversize op was split into (1 = unchunked). Network
  /// crossings pipeline their D2H / NIC / H2D hops at this depth.
  std::uint32_t max_pipeline_depth = 0;
  /// Chunk-piece bytes by class: pieces whose route crosses the inter-node
  /// network (the pipelining win lives here) vs pieces staying within one
  /// node. Both are also counted in the per-link-class byte counters above;
  /// chunking must never change bytes_total().
  std::uint64_t bytes_chunked_network = 0;
  std::uint64_t bytes_chunked_intranode = 0;
  /// Routed ops whose chosen source crosses the inter-node network: the
  /// hierarchical planner's claim — one crossing per destination node, not
  /// per destination device — is asserted against this counter.
  std::uint32_t staged_routes_planned = 0;
  /// Source candidates examined by route(), summed over ops. The planner's
  /// per-op scan is O(gpus-per-node + nodes) on a cluster, not O(devices);
  /// benches gate the asymptotics on this deterministic counter instead of
  /// noisy wall-clock time.
  std::uint64_t candidates_scanned = 0;

  /// Sum of every byte category — the total data the task actually moves.
  /// Routing, coalescing and chunking may reclassify bytes between
  /// categories but must never change this total.
  std::uint64_t bytes_total() const {
    return bytes_h2d + bytes_d2h + bytes_p2p_same_bus + bytes_p2p_cross_bus +
           bytes_host_staged + bytes_net_send + bytes_net_recv +
           bytes_net_staged;
  }

  void add(const TransferStats& o) {
    bytes_h2d += o.bytes_h2d;
    bytes_d2h += o.bytes_d2h;
    bytes_p2p_same_bus += o.bytes_p2p_same_bus;
    bytes_p2p_cross_bus += o.bytes_p2p_cross_bus;
    bytes_host_staged += o.bytes_host_staged;
    bytes_net_send += o.bytes_net_send;
    bytes_net_recv += o.bytes_net_recv;
    bytes_net_staged += o.bytes_net_staged;
    copies_planned += o.copies_planned;
    copies_issued += o.copies_issued;
    copies_rerouted += o.copies_rerouted;
    copies_coalesced += o.copies_coalesced;
    copies_chunked += o.copies_chunked;
    max_fanout_depth = std::max(max_fanout_depth, o.max_fanout_depth);
    max_pipeline_depth = std::max(max_pipeline_depth, o.max_pipeline_depth);
    bytes_chunked_network += o.bytes_chunked_network;
    bytes_chunked_intranode += o.bytes_chunked_intranode;
    staged_routes_planned += o.staged_routes_planned;
    candidates_scanned += o.candidates_scanned;
  }
};

/// Out-of-core spill/refill accounting (DESIGN.md §5.16). Spill routes —
/// dirty-segment write-backs under the device-memory budget and the refills
/// that rematerialize evicted rows — are ordinary planned copies, but they
/// are policy traffic rather than algorithmic data movement, so they carry
/// their own TransferStats instead of blending into the per-task transfer
/// counters — `spill` isolates what the budget cost on top of the data
/// movement the program inherently needs.
struct SpillStats {
  std::uint64_t evictions = 0;      ///< device allocations evicted (LRU)
  std::uint64_t refills = 0;        ///< planned copies refilling evicted rows
  std::uint64_t bytes_spilled = 0;  ///< dirty bytes written back on eviction
  std::uint64_t bytes_refilled = 0; ///< bytes of refill copies
  std::uint64_t pass_count = 0;     ///< row-window passes of streamed tasks
  std::uint64_t streamed_tasks = 0; ///< tasks run multi-pass over windows
  /// Path classification of the spill/refill traffic itself (write-backs are
  /// d2h, refills h2d or p2p when a peer still holds the rows). Invariant:
  /// transfers.bytes_total() == bytes_spilled + bytes_refilled.
  TransferStats transfers;

  void add(const SpillStats& o) {
    evictions += o.evictions;
    refills += o.refills;
    bytes_spilled += o.bytes_spilled;
    bytes_refilled += o.bytes_refilled;
    pass_count += o.pass_count;
    streamed_tasks += o.streamed_tasks;
    transfers.add(o.transfers);
  }
};

class TransferPlanner {
public:
  /// `devices` maps scheduler slots to sim device indices (location 1 + slot
  /// corresponds to devices[slot]).
  TransferPlanner(const SegmentLocationMonitor& monitor,
                  const sim::Topology& topo, std::vector<int> devices);

  /// Resets the per-task load tracker and fresh-replica table. Called once
  /// per plan build; route() calls within one task share the load state so
  /// the cost estimates see the task's own earlier transfers.
  void begin_task();

  /// Re-sources, load-balances and coalesces one target's copy ops. `ops`
  /// must come from SegmentLocationMonitor::plan_copies for the same datum
  /// and target; the returned list moves exactly the same rows (possibly
  /// from different sources, possibly merged). Routing statistics are
  /// accumulated into `stats`; byte accounting is the caller's job (it knows
  /// the final staging mode).
  std::vector<SegmentLocationMonitor::CopyOp>
  route(const Datum* datum, int target_location, std::size_t row_bytes,
        std::vector<SegmentLocationMonitor::CopyOp> ops, TransferStats& stats);

  /// Row-range chunking: splits each op of more than `chunk_bytes` into
  /// row-range pieces so consumers with row-granular reads (interior and
  /// boundary strips, forwarding copies in a fan-out tree) start as soon as
  /// their piece lands; on clusters the pieces of one network crossing also
  /// pipeline their D2H / NIC / H2D legs. `all` chunks every oversize op,
  /// otherwise only network crossings. Purely structural — the pieces move
  /// the same rows over the same link — so byte totals are unchanged; the
  /// chunking counters accumulate into `stats`.
  std::vector<SegmentLocationMonitor::CopyOp>
  chunk(std::vector<SegmentLocationMonitor::CopyOp> ops, int target_location,
        std::size_t row_bytes, std::size_t chunk_bytes, bool all,
        TransferStats& stats) const;

  /// Classifies one planned transfer and adds its bytes to the matching
  /// counter of `stats`. Shared by the planner-on and planner-off paths so
  /// the byte attribution is identical in both.
  static void account(TransferStats& stats, const sim::Topology& topo,
                      sim::Endpoint src, sim::Endpoint dst, bool host_staged,
                      std::uint64_t bytes);

  /// Symbolic mirror of route() for the transfer-inference verifier: given
  /// the copies Algorithm 2 planned symbolically, re-sources each one the
  /// way the greedy earliest-finish rule prefers (device replicas beat host
  /// staging, and replicas created by earlier copies of the same task are
  /// candidate forwarding sources — the multicast fan-out shape), but ONLY
  /// to locations whose holdings provably cover the rows for every member
  /// of the partition family. Routing's correctness contract — destination
  /// rows, alignment and zero-fill classification are never rewritten, so
  /// coverage of the read set is invariant under routing — holds by
  /// construction here and is re-proved downstream: the verifier checks
  /// coverage on the *routed* set, so a routing bug that dropped or moved
  /// destination rows would surface as an uncovered rectangle.
  static std::vector<sym::Copy> symbolic_route(const sym::Family& family,
                                               const sym::MonitorState& state,
                                               std::vector<sym::Copy> ops);

  /// Upper bound on the size of a coalesced op (0 = unlimited). The
  /// scheduler sets this to its copy-chunk threshold when compute–transfer
  /// overlap is on, so the coalescing pass never re-merges row ranges that
  /// must gate different interior/boundary strips independently.
  void set_max_coalesce_bytes(std::size_t bytes) {
    max_coalesce_bytes_ = bytes;
  }

private:
  /// A replica created by a copy routed earlier in the *current* task:
  /// usable as a source, but only ready once its transfer finishes.
  struct Fresh {
    RowInterval rows;
    double ready_s = 0.0;
    std::uint32_t depth = 0; ///< forwarding-chain length that produced it
  };

  /// Per-datum fresh-replica state for one task. Beyond the per-location
  /// replica lists this keeps two incrementally-maintained digests so
  /// route() stays sub-linear in device count: the sorted-unique row
  /// boundaries of every replica (op splitting consults them directly
  /// instead of rescanning all locations), and the sorted list of locations
  /// that hold any fresh replica (the hierarchical candidate set picks one
  /// gateway per remote cluster node from it).
  struct FreshState {
    std::vector<std::vector<Fresh>> per_loc;
    std::vector<int> fresh_locs;    ///< ascending locations with replicas
    std::vector<std::size_t> cuts;  ///< sorted unique replica row boundaries
  };

  sim::Endpoint endpoint(int location) const;
  double link_free(const sim::Topology::LinkUse& use) const;
  void reserve_links(const sim::Topology::LinkUse& use, double until);
  /// Estimated ready time and chain depth of `rows` at `loc` (0/0 for
  /// replicas that existed before this task).
  std::pair<double, std::uint32_t> source_state(const FreshState* fs, int loc,
                                                const RowInterval& rows) const;
  /// Candidate source locations for one op targeting `target_location`:
  /// every location on a single node; on a cluster, the monitor's own pick,
  /// the host, the target node's locations, and one fresh-replica gateway
  /// per remote node — O(gpus-per-node + nodes), not O(devices).
  void collect_candidates(const FreshState* fs, int op_src,
                          int target_location);

  const SegmentLocationMonitor& monitor_;
  const sim::Topology& topo_;
  std::vector<int> devices_;
  /// Cluster node of each location (index 0 = host = head node).
  std::vector<int> loc_node_;
  /// Locations per cluster node (host excluded; ascending within a node).
  std::vector<std::vector<int>> node_locs_;

  // Per-task shared-link and destination-engine load estimates, in seconds
  // of estimated busy-until time relative to the task's start. These mirror
  // the simulator's LinkState/DeviceEngines bookkeeping in miniature; they
  // only need to be accurate *relative to each other* for the greedy rule to
  // pick the right source.
  std::vector<double> uplink_busy_;   ///< per bus
  std::vector<double> downlink_busy_; ///< per bus
  std::vector<std::array<double, 2>> socket_busy_; ///< per node, per direction
  std::vector<std::array<double, 2>> engine_busy_; ///< per slot, two engines
  std::vector<double> nic_send_busy_; ///< per cluster node (egress NIC)
  std::vector<double> nic_recv_busy_; ///< per cluster node (ingress NIC)
  /// Fresh replicas routed this task: datum key -> per-location state.
  std::unordered_map<const void*, FreshState> fresh_;
  /// Rotates which fresh replica of a remote node is offered as that node's
  /// gateway, so concurrent ops spread their NIC egress load across the
  /// node's replica holders instead of all forwarding from the first one.
  /// Reset per task (begin_task) so identical tasks plan identically — a
  /// plan-cache requirement.
  std::uint64_t gateway_rotation_ = 0;
  std::vector<int> cand_buf_; ///< scratch for collect_candidates
  std::size_t max_coalesce_bytes_ = 0; ///< 0 = no cap (see setter)
};

} // namespace maps::multi

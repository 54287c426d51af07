// Simulated network: nodes, links, message delivery.
//
// Models the paper's data-center interconnect at the fidelity the
// evaluation depends on: per-link propagation latency (which drives the
// latency-feasibility mask), per-link bandwidth with FIFO serialization
// (which drives transfer times and hence the power-trace peaks), and
// per-node traffic counters (which drive the communication-complexity
// comparisons between CDPSM, LDDM and DONAR).
//
// Storage is flat, because a send is the simulator's hottest path, and
// O(nodes + traffic) rather than O(pairs), because a deployment has millions
// of clients but only the pairs that carry a request ever need a link:
//  - Per-node state (handler index, traffic counters, link table) lives in
//    one vector indexed by NodeId.  Handlers live in a side table: a
//    contiguous range of nodes (every client) shares one entry, so a node
//    carries no closure of its own.
//  - A pair without an override takes its parameters from the link model
//    the network's owner installs, asked again on every send, so it follows
//    whatever state the model reads (the pipeline's latency matrix and
//    replica bandwidths).  set_default_link installs the constant model.
//  - A link-table entry exists only for a set_link override or for a
//    directed pair that has carried traffic; it holds the override (if any)
//    and the link's FIFO busy-until time, so a send does one lookup.  Both
//    directions of a pair live in the table of the higher-numbered
//    endpoint, sorted by the other one: with clients numbered after the
//    replicas, a client's table holds its few replica links, and a
//    replica's table does not grow with every client it answers (where
//    each first reply would be an insertion into a long sorted vector).
//    Set-up loops that walk ascending pairs only append.
//  - A message in flight waits in a reusable slot, so its delivery event
//    captures only {this, slot} and fits std::function's inline buffer: a
//    send allocates nothing once the slot array and the event heap have
//    grown to the run's peak.
#pragma once

#include <any>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/sim.hpp"
#include "net/slot_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::net {

using NodeId = std::uint32_t;

/// A message in flight.  `type` is interpreted by the receiving agent
/// (core defines its protocol enums); `bytes` drives transmission delay and
/// the traffic counters; `payload` carries typed content without copying
/// through a codec on every hop (the codec in net/wire.hpp is used to size
/// messages and at the transport boundary in live mode).
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  int type = 0;
  std::size_t bytes = 0;
  std::any payload;
};

/// Static link properties.
struct LinkParams {
  Milliseconds latency = 0.5;
  /// Link rate in MB/s (paper: ~100 MB/s Ethernet).
  double bandwidth_mbps = 100.0;
  /// Independent per-message drop probability (0 = reliable, the default;
  /// the paper's TCP transport retransmits, but heartbeats and other
  /// datagram-style traffic see real loss — see cluster ring tests).
  double loss_probability = 0.0;
};

/// Per-node traffic statistics.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Per-message-type traffic totals (sent side).  Always on: the runtime
/// derives its coordination-traffic report from these instead of keeping a
/// parallel hand tally, and the telemetry exporters mirror them.
struct TypeTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Message handler: invoked at delivery time on the destination node.
using Handler = std::function<void(const Message&)>;

/// Parameters of the directed link from -> to, for a pair without a
/// set_link override.
using LinkModel = std::function<LinkParams(NodeId from, NodeId to)>;

class SimNetwork {
 public:
  explicit SimNetwork(Simulator& sim) : sim_(sim) {}

  /// Seed the loss process (only consumed on links with loss_probability
  /// > 0, so reliable topologies stay bit-identical across seeds).
  void seed_loss(std::uint64_t seed) { loss_rng_.reseed(seed); }

  /// Register (or replace) the handler for `node`.
  void attach(NodeId node, Handler handler);
  /// Register one shared handler for every node in [first, first + count)
  /// (it reads Message::to to tell them apart).  A later attach or detach
  /// of one node in the range changes only that node's registration.
  void attach_range(NodeId first, std::size_t count, Handler handler);

  /// Remove a node: pending deliveries to it are dropped (crash semantics).
  void detach(NodeId node);

  [[nodiscard]] bool attached(NodeId node) const;

  /// Parameters for every pair without an explicit override; the model is
  /// asked on each send and link() query, never cached.
  void set_link_model(LinkModel model) { link_model_ = std::move(model); }
  /// The constant link model.
  void set_default_link(LinkParams params);
  /// Directed per-pair override.
  void set_link(NodeId from, NodeId to, LinkParams params);
  /// The pair's override, else the model's parameters; creates no entry.
  [[nodiscard]] LinkParams link(NodeId from, NodeId to) const;

  /// Send `message` (from/to must be set).  Delivery is scheduled after
  /// propagation latency plus transmission time; messages on the same
  /// directed link serialize FIFO behind each other (a busy link delays
  /// later sends).  Messages to detached nodes are silently dropped at
  /// delivery time, like packets to a crashed host.
  void send(Message message);

  /// Transmission + propagation delay a fresh message of `bytes` would see
  /// right now on from->to (ignoring queueing).
  [[nodiscard]] SimTime nominal_delay(NodeId from, NodeId to,
                                      std::size_t bytes) const;

  /// Traffic counters for `node`; a node that never sent or received
  /// returns the zero struct *without* growing any internal state (read-only
  /// queries on a const network must stay read-only — the old mutable-map
  /// lazy insert meant a telemetry sweep over candidate ids permanently
  /// inflated the stats table).
  [[nodiscard]] TrafficStats stats(NodeId node) const;
  [[nodiscard]] TrafficStats total_stats() const;
  /// Number of nodes that sent or received at least one message
  /// (regression hook for the no-insert-on-read guarantee above).
  [[nodiscard]] std::size_t tracked_nodes() const;
  /// Number of link-table entries: overrides plus pairs that have carried
  /// traffic (regression hook for the O(nodes + traffic) storage above).
  [[nodiscard]] std::size_t tracked_links() const;
  /// Messages dropped by lossy links so far.
  [[nodiscard]] std::uint64_t messages_lost() const { return lost_; }

  /// Sent-side totals keyed by Message::type.
  [[nodiscard]] const std::map<int, TypeTraffic>& traffic_by_type() const {
    return traffic_by_type_;
  }
  /// Aggregate of traffic_by_type over [first_type, last_type].
  [[nodiscard]] TypeTraffic traffic_in_range(int first_type,
                                             int last_type) const;

  /// Human-readable label for a message type in telemetry metric names
  /// (the protocol layer registers its enum names; unnamed types export as
  /// "type<k>").  Must be called before traffic of that type flows for the
  /// per-type counters to pick the label up.
  void set_type_name(int type, std::string name);

  /// Wire message/byte counters and the link queueing-delay histogram.
  void attach_telemetry(telemetry::Telemetry& telemetry);

  /// Causal flow tracing: while nonzero (and a tracer is attached and
  /// enabled), every send records a flow-begin on the sender's track and a
  /// flow-end at delivery on the receiver's, linked to `parent` (the
  /// enclosing round span).  The pipeline brackets a round's coordination
  /// fan-out with this; heartbeats and other background traffic keep
  /// parent 0 and record no flows.
  void set_flow_parent(std::uint64_t parent) { flow_parent_ = parent; }

  [[nodiscard]] Simulator& sim() { return sim_; }

 private:
  /// One directed link, kept in the table of its higher-numbered endpoint
  /// (see the storage notes above).
  struct Link {
    /// The lower-numbered endpoint (the owner itself on a self-link).
    NodeId peer = 0;
    /// The owner is the sender.
    bool outbound = false;
    /// False until set_link: the link then follows link_model_.
    bool overridden = false;
    LinkParams params;
    /// FIFO serialization: the time the link finishes its last transmission.
    SimTime busy_until = 0.0;
  };
  static constexpr std::uint32_t kDetached =
      std::numeric_limits<std::uint32_t>::max();
  struct Node {
    /// Index into handlers_, or kDetached.
    std::uint32_t handler = kDetached;
    TrafficStats traffic;
    /// Links to and from lower-numbered nodes, sorted by (peer, outbound).
    std::vector<Link> links;
  };
  /// A handler and the number of nodes registered to it; the entry is
  /// reused once that drops to zero.
  struct SharedHandler {
    /// Empty while it runs: deliver() moves it to the stack so the handler
    /// may attach, detach or grow the tables safely.
    Handler fn;
    std::uint32_t nodes = 0;
    bool running = false;
  };
  struct InFlight {
    Message message;
    std::uint64_t flow_id = 0;
  };

  Node& node(NodeId id);
  [[nodiscard]] const Link* find_link(NodeId from, NodeId to) const;
  Link& link_entry(NodeId from, NodeId to);
  std::uint32_t add_handler(Handler handler, std::size_t nodes);
  void release_handler(std::uint32_t index);
  void deliver(std::uint32_t slot);
  [[nodiscard]] std::array<telemetry::Counter, 2>& type_metrics(int type);

  Simulator& sim_;
  Rng loss_rng_{0x1055ee7dULL};
  std::uint64_t lost_ = 0;
  LinkModel link_model_ = [](NodeId, NodeId) { return LinkParams{}; };
  std::vector<Node> nodes_;
  std::vector<SharedHandler> handlers_;
  std::vector<std::uint32_t> free_handlers_;
  SlotPool<InFlight> in_flight_;
  std::map<int, TypeTraffic> traffic_by_type_;
  std::map<int, std::string> type_names_;

  std::uint64_t flow_parent_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;  // null = sink handles only
  telemetry::Counter messages_sent_metric_;
  telemetry::Counter bytes_sent_metric_;
  telemetry::Counter messages_delivered_metric_;
  telemetry::Counter messages_lost_metric_;
  telemetry::Histogram queue_delay_metric_;
  /// Per type: [0] = messages, [1] = bytes.
  std::map<int, std::array<telemetry::Counter, 2>> type_metrics_;
};

}  // namespace edr::net

#include "net/network.hpp"

#include <algorithm>
#include <utility>

namespace edr::net {

namespace {

/// Where the directed link from -> to is kept: in the table of its
/// higher-numbered endpoint, the owner.
struct LinkSlot {
  NodeId owner;
  NodeId peer;
  bool outbound;
};

LinkSlot slot_of(NodeId from, NodeId to) {
  return from > to ? LinkSlot{from, to, true} : LinkSlot{to, from, false};
}

/// A table's sort order: by peer, the owner's outbound link first, so a
/// set-up loop that sets both directions of ascending pairs only appends.
std::uint64_t order(NodeId peer, bool outbound) {
  return std::uint64_t{peer} << 1 | (outbound ? 0U : 1U);
}

template <typename Link>
std::uint64_t order(const Link& link) {
  return order(link.peer, link.outbound);
}

/// First link in a table whose order is not below `key`.
template <typename Links>
auto lower_bound_order(Links& links, std::uint64_t key) {
  return std::lower_bound(
      links.begin(), links.end(), key,
      [](const auto& link, std::uint64_t k) { return order(link) < k; });
}

}  // namespace

SimNetwork::Node& SimNetwork::node(NodeId id) {
  if (id >= nodes_.size()) nodes_.resize(std::size_t{id} + 1);
  return nodes_[id];
}

std::uint32_t SimNetwork::add_handler(Handler handler, std::size_t nodes) {
  std::uint32_t index = 0;
  if (free_handlers_.empty()) {
    index = static_cast<std::uint32_t>(handlers_.size());
    handlers_.emplace_back();
  } else {
    index = free_handlers_.back();
    free_handlers_.pop_back();
  }
  handlers_[index].fn = std::move(handler);
  handlers_[index].nodes = static_cast<std::uint32_t>(nodes);
  return index;
}

void SimNetwork::release_handler(std::uint32_t index) {
  SharedHandler& shared = handlers_[index];
  // A running handler is freed by deliver() once it returns.
  if (--shared.nodes > 0 || shared.running) return;
  shared.fn = nullptr;
  free_handlers_.push_back(index);
}

void SimNetwork::attach(NodeId id, Handler handler) {
  attach_range(id, 1, std::move(handler));
}

void SimNetwork::attach_range(NodeId first, std::size_t count,
                              Handler handler) {
  if (count == 0) return;
  const std::uint32_t index = add_handler(std::move(handler), count);
  if (first + count > nodes_.size()) nodes_.resize(first + count);
  for (std::size_t id = first; id < first + count; ++id) {
    Node& n = nodes_[id];
    if (n.handler != kDetached) release_handler(n.handler);
    n.handler = index;
  }
}

void SimNetwork::detach(NodeId id) {
  if (id >= nodes_.size() || nodes_[id].handler == kDetached) return;
  release_handler(nodes_[id].handler);
  nodes_[id].handler = kDetached;
}

bool SimNetwork::attached(NodeId id) const {
  return id < nodes_.size() && nodes_[id].handler != kDetached;
}

const SimNetwork::Link* SimNetwork::find_link(NodeId from, NodeId to) const {
  const LinkSlot slot = slot_of(from, to);
  if (slot.owner >= nodes_.size()) return nullptr;
  const auto& links = nodes_[slot.owner].links;
  const std::uint64_t key = order(slot.peer, slot.outbound);
  const auto it = lower_bound_order(links, key);
  return it != links.end() && order(*it) == key ? &*it : nullptr;
}

SimNetwork::Link& SimNetwork::link_entry(NodeId from, NodeId to) {
  const LinkSlot slot = slot_of(from, to);
  auto& links = node(slot.owner).links;
  const std::uint64_t key = order(slot.peer, slot.outbound);
  // Set-up loops add links in ascending order: append, no search.
  auto it = !links.empty() && key <= order(links.back())
                ? lower_bound_order(links, key)
                : links.end();
  if (it != links.end() && order(*it) == key) return *it;
  it = links.insert(it, Link{});
  it->peer = slot.peer;
  it->outbound = slot.outbound;
  return *it;
}

void SimNetwork::set_default_link(LinkParams params) {
  link_model_ = [params](NodeId, NodeId) { return params; };
}

void SimNetwork::set_link(NodeId from, NodeId to, LinkParams params) {
  Link& link = link_entry(from, to);
  link.overridden = true;
  link.params = params;
}

LinkParams SimNetwork::link(NodeId from, NodeId to) const {
  const Link* found = find_link(from, to);
  return found != nullptr && found->overridden ? found->params
                                               : link_model_(from, to);
}

SimTime SimNetwork::nominal_delay(NodeId from, NodeId to,
                                  std::size_t bytes) const {
  const LinkParams params = link(from, to);
  const double transmission =
      params.bandwidth_mbps > 0.0
          ? static_cast<double>(bytes) / (params.bandwidth_mbps * 1e6)
          : 0.0;
  return seconds(params.latency) + transmission;
}

void SimNetwork::send(Message message) {
  auto& sender = node(message.from).traffic;
  sender.messages_sent += 1;
  sender.bytes_sent += message.bytes;
  auto& by_type = traffic_by_type_[message.type];
  by_type.messages += 1;
  by_type.bytes += message.bytes;
  messages_sent_metric_.add(1);
  bytes_sent_metric_.add(message.bytes);
  if (telemetry_ != nullptr) {
    auto& per_type = type_metrics(message.type);
    per_type[0].add(1);
    per_type[1].add(message.bytes);
  }

  Link& link = link_entry(message.from, message.to);
  const LinkParams params =
      link.overridden ? link.params : link_model_(message.from, message.to);
  const double transmission =
      params.bandwidth_mbps > 0.0
          ? static_cast<double>(message.bytes) / (params.bandwidth_mbps * 1e6)
          : 0.0;

  // FIFO serialization on the directed link: transmission starts when the
  // link frees up.
  const SimTime start = std::max(sim_.now(), link.busy_until);
  queue_delay_metric_.observe(start - sim_.now());
  link.busy_until = start + transmission;
  const SimTime delivery = link.busy_until + seconds(params.latency);

  // Flow arrow tail on the sender's track; the head is recorded at
  // delivery so the viewer draws send -> receive across the two tracks.
  std::uint64_t flow_id = 0;
  if (flow_parent_ != 0 && telemetry_ != nullptr &&
      telemetry_->tracer().enabled()) {
    auto& tracer = telemetry_->tracer();
    flow_id = tracer.new_id();
    const auto name_it = type_names_.find(message.type);
    tracer.flow_begin(flow_id,
                      name_it != type_names_.end() ? name_it->second
                                                   : "message",
                      "net", message.from, flow_parent_);
  }

  // Loss happens on the wire: the sender already paid the transmission
  // slot, the receiver just never sees the frame.
  if (params.loss_probability > 0.0 &&
      loss_rng_.uniform() < params.loss_probability) {
    ++lost_;
    messages_lost_metric_.add(1);
    return;
  }

  const std::uint32_t slot = in_flight_.put({std::move(message), flow_id});
  sim_.schedule_at(delivery, [this, slot] { deliver(slot); });
}

void SimNetwork::deliver(std::uint32_t slot) {
  // Take the message out first: the handler may send, which can reuse the
  // slot or grow the pool.
  const auto [message, flow_id] = in_flight_.take(slot);

  if (!attached(message.to)) return;  // crashed host: drop
  Node& receiver = nodes_[message.to];
  receiver.traffic.messages_received += 1;
  receiver.traffic.bytes_received += message.bytes;
  messages_delivered_metric_.add(1);
  if (flow_id != 0 && telemetry_ != nullptr) {
    const auto name_it = type_names_.find(message.type);
    telemetry_->tracer().flow_end(
        flow_id, name_it != type_names_.end() ? name_it->second : "message",
        "net", message.to);
  }
  // The handler runs from the stack, so attach/detach calls it makes
  // (including on its own nodes, or ones that grow the tables) cannot free
  // it mid-call.  It goes back unless every node it served let go of it.
  const std::uint32_t index = receiver.handler;
  handlers_[index].running = true;
  Handler handler = std::move(handlers_[index].fn);
  handler(message);
  SharedHandler& after = handlers_[index];
  after.running = false;
  if (after.nodes > 0)
    after.fn = std::move(handler);
  else
    free_handlers_.push_back(index);
}

TypeTraffic SimNetwork::traffic_in_range(int first_type,
                                         int last_type) const {
  TypeTraffic total;
  for (auto it = traffic_by_type_.lower_bound(first_type);
       it != traffic_by_type_.end() && it->first <= last_type; ++it) {
    total.messages += it->second.messages;
    total.bytes += it->second.bytes;
  }
  return total;
}

void SimNetwork::set_type_name(int type, std::string name) {
  type_names_[type] = std::move(name);
}

void SimNetwork::attach_telemetry(telemetry::Telemetry& telemetry) {
  telemetry_ = &telemetry;
  auto& metrics = telemetry.metrics();
  messages_sent_metric_ = metrics.counter("net.messages_sent");
  bytes_sent_metric_ = metrics.counter("net.bytes_sent");
  messages_delivered_metric_ = metrics.counter("net.messages_delivered");
  messages_lost_metric_ = metrics.counter("net.messages_lost");
  queue_delay_metric_ = metrics.histogram(
      "net.link_queue_delay_s", telemetry::MetricsRegistry::latency_bounds_s());
}

std::array<telemetry::Counter, 2>& SimNetwork::type_metrics(int type) {
  const auto it = type_metrics_.find(type);
  if (it != type_metrics_.end()) return it->second;
  const auto name_it = type_names_.find(type);
  const std::string label = name_it != type_names_.end()
                                ? name_it->second
                                : "type" + std::to_string(type);
  auto& metrics = telemetry_->metrics();
  return type_metrics_
      .emplace(type,
               std::array<telemetry::Counter, 2>{
                   metrics.counter("net.sent." + label + ".messages"),
                   metrics.counter("net.sent." + label + ".bytes")})
      .first->second;
}

TrafficStats SimNetwork::stats(NodeId id) const {
  return id < nodes_.size() ? nodes_[id].traffic : TrafficStats{};
}

TrafficStats SimNetwork::total_stats() const {
  TrafficStats total;
  for (const auto& n : nodes_) {
    total.messages_sent += n.traffic.messages_sent;
    total.messages_received += n.traffic.messages_received;
    total.bytes_sent += n.traffic.bytes_sent;
    total.bytes_received += n.traffic.bytes_received;
  }
  return total;
}

std::size_t SimNetwork::tracked_links() const {
  std::size_t links = 0;
  for (const auto& n : nodes_) links += n.links.size();
  return links;
}

std::size_t SimNetwork::tracked_nodes() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(), [](const Node& n) {
        return n.traffic.messages_sent + n.traffic.messages_received > 0;
      }));
}

}  // namespace edr::net

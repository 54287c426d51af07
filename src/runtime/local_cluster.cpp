#include "runtime/local_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace edr::runtime {

namespace {

/// Decorates a MessageBus with a kill switch: a killed node's sends fail
/// and it never hears a peer again, exactly what a SIGKILLed process
/// presents to the world.  The replica's own thread is handed a synthetic
/// shutdown so it exits promptly (the dead process is gone immediately;
/// only its *peers* need to discover that the hard way).
class KillableBus final : public MessageBus {
 public:
  KillableBus(std::unique_ptr<MessageBus> inner,
              std::shared_ptr<std::atomic<bool>> killed)
      : inner_(std::move(inner)), killed_(std::move(killed)) {}

  [[nodiscard]] net::NodeId self() const override { return inner_->self(); }

  bool post(net::Message message) override {
    if (killed_->load(std::memory_order_relaxed)) return false;
    return inner_->post(std::move(message));
  }

  std::optional<net::Message> receive_for(double timeout_s) override {
    if (killed_->load(std::memory_order_relaxed)) {
      // The wire already went silent (posts fail, the transport is shut);
      // hand the replica a synthetic shutdown so its thread exits now
      // instead of burning the idle timeout — a SIGKILLed process is gone
      // immediately too.
      net::Message shutdown;
      shutdown.from = inner_->self();
      shutdown.to = inner_->self();
      shutdown.type = kShutdown;
      return shutdown;
    }
    return inner_->receive_for(timeout_s);
  }

  void connect_peer(net::NodeId peer, const std::string& host,
                    std::uint16_t port) override {
    if (!killed_->load(std::memory_order_relaxed))
      inner_->connect_peer(peer, host, port);
  }

  [[nodiscard]] std::size_t max_frame_bytes() const override {
    return inner_->max_frame_bytes();
  }

 private:
  std::unique_ptr<MessageBus> inner_;
  std::shared_ptr<std::atomic<bool>> killed_;
};

}  // namespace

LocalCluster::LocalCluster(LiveConfig config, LocalClusterOptions options)
    : config_(std::move(config)), options_(std::move(options)) {
  const auto n = config_.num_replicas();
  if (n == 0) throw std::invalid_argument("LocalCluster: no replicas");
  // Frame faults and connection resets act on a TcpTransport; over inproc
  // they would silently do nothing.
  for (const auto& action : options_.chaos.actions)
    if (options_.transport == LiveTransport::kInproc &&
        action.kind != ChaosKind::kKill && action.kind != ChaosKind::kRestart)
      throw std::invalid_argument(std::string{"LocalCluster: chaos action "} +
                                  to_string(action.kind) +
                                  " needs the tcp transport");
  coordinator_id_ = static_cast<net::NodeId>(n);
  nodes_.resize(n);

  if (options_.transport == LiveTransport::kInproc) {
    inproc_ = std::make_unique<net::InprocTransport>(n + 1);
    coordinator_bus_ = std::make_unique<InprocBus>(*inproc_, coordinator_id_,
                                                   options_.max_frame_bytes);
  } else {
    net::TcpTransport::Options tcp_options;
    tcp_options.max_frame_bytes = options_.max_frame_bytes;
    coordinator_tcp_ = std::make_unique<net::TcpTransport>(coordinator_id_,
                                                           tcp_options);
    coordinator_port_ = coordinator_tcp_->listen(0);
    coordinator_bus_ = std::make_unique<TcpBus>(*coordinator_tcp_);
  }
}

LocalCluster::~LocalCluster() {
  for (auto& node : nodes_) {
    if (node.killed) node.killed->store(true);
    if (node.tcp) node.tcp->shutdown();
  }
  if (inproc_) inproc_->close_all();
  if (coordinator_tcp_) coordinator_tcp_->shutdown();
  for (auto& node : nodes_)
    if (node.thread.joinable()) node.thread.join();
  for (auto& node : graveyard_)
    if (node.thread.joinable()) node.thread.join();
}

void LocalCluster::start_replica(net::NodeId id) {
  Node& node = nodes_[id];
  node.killed = std::make_shared<std::atomic<bool>>(false);
  ReplicaOptions replica_options = options_.replica;

  std::unique_ptr<MessageBus> inner;
  if (options_.transport == LiveTransport::kInproc) {
    inner = std::make_unique<InprocBus>(*inproc_, id,
                                        options_.max_frame_bytes);
  } else {
    net::TcpTransport::Options tcp_options;
    tcp_options.max_frame_bytes = options_.max_frame_bytes;
    node.tcp = std::make_unique<net::TcpTransport>(id, tcp_options);
    replica_options.listen_port = node.tcp->listen(0);
    node.tcp->add_peer(coordinator_id_, "127.0.0.1", coordinator_port_);
    inner = std::make_unique<TcpBus>(*node.tcp);
  }
  node.bus = std::make_unique<KillableBus>(std::move(inner), node.killed);
  node.replica = std::make_unique<LiveReplica>(*node.bus, coordinator_id_,
                                               replica_options);
  if (observing()) {
    ObserverOptions observer_options = options_.observer;
    observer_options.metrics_port = 0;  // ephemeral: N endpoints, one host
    node.observer = std::make_unique<RuntimeObserver>(
        id, "replica " + std::to_string(id), observer_options);
    node.replica->set_observer(node.observer.get());
  }
  node.thread = std::thread{[replica = node.replica.get()] {
    try {
      replica->run();
    } catch (const std::exception&) {
      // A replica dying on a protocol error looks like a crash to the
      // rest of the cluster, which is exactly what the runtime handles.
    }
  }};
}

LiveRunResult LocalCluster::run() {
  if (ran_) throw std::logic_error("LocalCluster::run: already ran");
  ran_ = true;

  for (std::size_t n = 0; n < nodes_.size(); ++n)
    start_replica(static_cast<net::NodeId>(n));

  CoordinatorOptions coordinator_options = options_.coordinator;
  auto user_hook = coordinator_options.on_epoch_start;
  coordinator_options.on_epoch_start = [this,
                                        user_hook](std::uint32_t epoch) {
    apply_chaos(epoch);
    if (user_hook) user_hook(epoch);
  };

  LiveCoordinator coordinator{*coordinator_bus_, config_,
                              coordinator_options};
  if (observing()) {
    coordinator_observer_ = std::make_unique<RuntimeObserver>(
        coordinator_id_, "coordinator", options_.observer);
    coordinator.set_observer(coordinator_observer_.get());
  }
  coordinator_ = &coordinator;
  LiveRunResult result = coordinator.run();
  if (options_.observer.tracing)
    merged_trace_json_ = coordinator.merged_trace_json();
  coordinator_ = nullptr;

  // Orderly teardown: the coordinator already said kShutdown; closing the
  // transports unblocks anything still waiting.
  for (auto& node : nodes_) {
    if (node.killed) node.killed->store(true);
    if (node.tcp) node.tcp->shutdown();
  }
  if (inproc_) inproc_->close_all();
  for (auto& node : nodes_)
    if (node.thread.joinable()) node.thread.join();
  for (auto& node : graveyard_)
    if (node.thread.joinable()) node.thread.join();
  graveyard_.clear();
  return result;
}

void LocalCluster::kill_replica(net::NodeId replica) {
  if (replica >= nodes_.size()) return;
  Node& node = nodes_[replica];
  if (node.killed) node.killed->store(true);
  if (options_.transport == LiveTransport::kInproc) {
    if (inproc_) inproc_->close(replica);  // queued frames die with it
  } else if (node.tcp) {
    node.tcp->shutdown();  // peers learn from the dead sockets
  }
}

void LocalCluster::restart_replica(net::NodeId replica) {
  if (replica >= nodes_.size()) return;
  Node& node = nodes_[replica];
  if (node.killed && !node.killed->load()) kill_replica(replica);
  // Move the dead node's remains aside (the thread exits on the synthetic
  // shutdown; its transport must stay alive until joined) and boot a
  // fresh replica in its slot.
  graveyard_.push_back(std::move(node));
  node = Node{};
  if (options_.transport == LiveTransport::kInproc && inproc_)
    inproc_->reopen(replica);
  start_replica(replica);
}

void LocalCluster::reset_connection(net::NodeId replica, net::NodeId peer) {
  if (replica < nodes_.size() && nodes_[replica].tcp)
    nodes_[replica].tcp->reset_connection(peer);
}

void LocalCluster::set_fault_hook(net::NodeId replica, net::FaultHook hook) {
  if (replica < nodes_.size() && nodes_[replica].tcp)
    nodes_[replica].tcp->set_fault_hook(std::move(hook));
}

void LocalCluster::apply_chaos(std::uint32_t epoch) {
  for (const auto& action : options_.chaos.actions) {
    if (action.epoch != epoch) continue;
    // The fault lands in the same timeline the coordinator writes its
    // membership transitions into — the post-mortem's causal spine.
    if (coordinator_ != nullptr)
      coordinator_->log_event("fault", to_string(action.kind),
                              action.replica);
    switch (action.kind) {
      case ChaosKind::kKill:
        kill_replica(action.replica);
        break;
      case ChaosKind::kRestart:
        restart_replica(action.replica);
        break;
      case ChaosKind::kResetConnection:
        reset_connection(action.replica, action.peer);
        break;
      case ChaosKind::kClearFaults:
        set_fault_hook(action.replica, nullptr);
        break;
      case ChaosKind::kDropFrames:
      case ChaosKind::kDelayFrames:
      case ChaosKind::kDuplicateFrames: {
        const auto period = static_cast<std::uint64_t>(std::max<long long>(
            1, std::llround(1.0 / std::max(action.probability, 1e-9))));
        auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
        const ChaosAction fault = action;
        set_fault_hook(
            action.replica,
            [fault, period, counter](const net::Message& msg) {
              net::FaultAction result;
              if (fault.message_type >= 0 && msg.type != fault.message_type)
                return result;
              if (counter->fetch_add(1, std::memory_order_relaxed) % period !=
                  period - 1)
                return result;
              switch (fault.kind) {
                case ChaosKind::kDropFrames:
                  result.drop = true;
                  break;
                case ChaosKind::kDelayFrames:
                  result.delay_ms = fault.delay_ms;
                  break;
                case ChaosKind::kDuplicateFrames:
                  result.duplicate = true;
                  break;
                default:
                  break;
              }
              return result;
            });
        break;
      }
    }
  }
}

}  // namespace edr::runtime

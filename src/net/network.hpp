// Root object of a simulation: owns the scheduler, RNG, and topology.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace cebinae {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1) : rng_(seed) {}

  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] RandomStream& rng() { return rng_; }
  // Per-network metrics registry: instrumented components (sockets, qdiscs)
  // observe into its named histograms; Scenario's trace rows read them.
  // Never shared across Networks, so parallel scenarios stay isolated.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  Node& add_node();
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  struct LinkDevices {
    Device& ab;  // egress of a toward b
    Device& ba;  // egress of b toward a
  };

  // Create a full-duplex link between `a` and `b`. Each direction gets its
  // own queue disc; either may be nullptr to get an effectively unlimited
  // FIFO (used for uncongested reverse paths).
  LinkDevices link(Node& a, Node& b, std::uint64_t rate_bps, Time delay,
                   std::unique_ptr<QueueDisc> q_ab, std::unique_ptr<QueueDisc> q_ba);

  // Install shortest-path (hop count) first hops on every node. Call after
  // the topology is built, and again after linking more. A host is a node
  // with exactly one link whose far end has two or more; it routes through
  // that link and keeps no table. Every other node is a switch: its table
  // comes from a BFS per switch destination, and for a host it copies its
  // first hop toward the host's switch (DESIGN.md §11 "Forwarding").
  void build_routes();

 private:
  struct Edge {
    NodeId a;
    NodeId b;
    Device* ab;
    Device* ba;
  };

  // Destruction order: nodes (and their devices, whose queue discs and delay
  // lines release the slab slots of the packets they hold) go first. Pending events only capture component
  // pointers and are destroyed with the scheduler without running.
  Scheduler sched_;
  RandomStream rng_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace cebinae

#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "queueing/fifo_queue.hpp"

namespace cebinae {

Node& Network::add_node() {
  nodes_.push_back(std::make_unique<Node>(static_cast<NodeId>(nodes_.size())));
  return *nodes_.back();
}

Network::LinkDevices Network::link(Node& a, Node& b, std::uint64_t rate_bps, Time delay,
                                   std::unique_ptr<QueueDisc> q_ab,
                                   std::unique_ptr<QueueDisc> q_ba) {
  if (!q_ab) q_ab = std::make_unique<FifoQueue>(FifoQueue::unlimited());
  if (!q_ba) q_ba = std::make_unique<FifoQueue>(FifoQueue::unlimited());

  Device& dab =
      a.add_device(std::make_unique<Device>(sched_, a, rate_bps, delay, std::move(q_ab)));
  Device& dba =
      b.add_device(std::make_unique<Device>(sched_, b, rate_bps, delay, std::move(q_ba)));
  dab.set_peer(dba);
  dba.set_peer(dab);
  edges_.push_back(Edge{a.id(), b.id(), &dab, &dba});
  return LinkDevices{dab, dba};
}

void Network::build_routes() {
  const std::size_t n = nodes_.size();
  // Adjacency: for each node, (neighbor, the neighbor's egress device back
  // toward this node).
  std::vector<std::vector<std::pair<NodeId, Device*>>> adj(n);
  for (const Edge& e : edges_) {
    adj[e.a].emplace_back(e.b, e.ba);
    adj[e.b].emplace_back(e.a, e.ab);
  }

  // Size every table once: growing them destination by destination leaves
  // each with up to 2x spare capacity, partly resident.
  for (auto& node : nodes_) node->size_routes(n);

  // BFS from every destination; the tree edge used to reach a node is that
  // node's first hop toward the destination. Of parallel links, the first
  // one linked is the first in both nodes' lists, so it carries the route.
  std::vector<int> dist(n);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  for (NodeId dst = 0; dst < static_cast<NodeId>(n); ++dst) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[dst] = 0;
    frontier.assign(1, dst);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId cur = frontier[head];
      for (const auto& [nbr, back] : adj[cur]) {
        if (dist[nbr] != -1) continue;
        dist[nbr] = dist[cur] + 1;
        nodes_[nbr]->set_route(dst, *back);
        frontier.push_back(nbr);
      }
    }
  }
}

}  // namespace cebinae

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
  std::vector<std::size_t> links(n, 0);
  for (const Edge& e : edges_) {
    ++links[e.a];
    ++links[e.b];
  }
  // uplink[h]: host h's device toward its switch; nullptr for a switch.
  std::vector<Device*> uplink(n, nullptr);
  for (const Edge& e : edges_) {
    if (links[e.a] == 1 && links[e.b] >= 2) uplink[e.a] = e.ab;
    if (links[e.b] == 1 && links[e.a] >= 2) uplink[e.b] = e.ba;
  }
  std::vector<NodeId> switches;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (uplink[v] == nullptr) switches.push_back(v);
  }

  // Adjacency among switches: for each, (neighbor, the neighbor's egress
  // device back toward this node), in link order. A host is a leaf, so no
  // shortest path between switches passes through one.
  std::vector<std::vector<std::pair<NodeId, Device*>>> adj(n);
  for (const Edge& e : edges_) {
    if (uplink[e.a] != nullptr || uplink[e.b] != nullptr) continue;
    adj[e.a].emplace_back(e.b, e.ba);
    adj[e.b].emplace_back(e.a, e.ab);
  }

  // BFS from every switch destination; the tree edge used to reach a node
  // is that node's first hop toward the destination. Of parallel links, the
  // first one linked is the first in both nodes' lists, so it carries the
  // route.
  std::vector<std::vector<Device*>> table(n);
  for (const NodeId v : switches) table[v].assign(n, nullptr);
  std::vector<bool> seen(n);
  std::vector<NodeId> frontier;
  frontier.reserve(switches.size());
  for (const NodeId dst : switches) {
    std::fill(seen.begin(), seen.end(), false);
    seen[dst] = true;
    frontier.assign(1, dst);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      for (const auto& [nbr, back] : adj[frontier[head]]) {
        if (seen[nbr]) continue;
        seen[nbr] = true;
        table[nbr][dst] = back;
        frontier.push_back(nbr);
      }
    }
  }

  // A BFS from host d reaches only its switch s first, then expands exactly
  // as the BFS from s does, so every other node's first hop toward d is its
  // first hop toward s; s itself sends over its link to d.
  const auto route_host = [&](NodeId d, NodeId s, Device* down) {
    for (const NodeId v : switches) table[v][d] = table[v][s];
    table[s][d] = down;
  };
  for (const Edge& e : edges_) {
    if (uplink[e.a] == e.ab) route_host(e.a, e.b, e.ba);
    if (uplink[e.b] == e.ba) route_host(e.b, e.a, e.ab);
  }

  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (uplink[v] == nullptr) {
      nodes_[v]->set_routes(std::move(table[v]));
    } else {
      nodes_[v]->set_uplink(*uplink[v]);
    }
  }
}

}  // namespace cebinae

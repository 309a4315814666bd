// Topology builders for the paper's evaluation scenarios.
//
// Both the dumbbell (single bottleneck) and the 'Parking Lot' of Fig. 11 are
// instances of a switch chain: N+1 switches joined by N bottleneck links,
// with sender/receiver host pairs attached at arbitrary entry/exit switches.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "queueing/queue_disc.hpp"

namespace cebinae {

struct ChainTopology {
  std::vector<Node*> switches;      // size = links + 1
  std::vector<Device*> bottlenecks; // device of switches[i] toward switches[i+1]
};

// Builds the switch chain. `qdisc_factory(i)` supplies the egress queue disc
// for bottleneck link i (the forward direction); reverse directions get
// unlimited FIFOs (ACK paths are uncongested in all scenarios).
[[nodiscard]] ChainTopology build_chain(
    Network& net, int links, std::uint64_t rate_bps, Time link_delay,
    const std::function<std::unique_ptr<QueueDisc>(int link)>& qdisc_factory);

struct HostPair {
  Node* src = nullptr;
  Node* dst = nullptr;
};

// Attaches a host pair whose traffic enters the chain at switches[enter] and
// leaves at switches[exit] (exit > enter). Access-link delays control the
// flow's RTT.
[[nodiscard]] HostPair attach_hosts(Network& net, ChainTopology& topo, int enter, int exit,
                                    std::uint64_t access_rate_bps, Time src_access_delay,
                                    Time dst_access_delay);

}  // namespace cebinae

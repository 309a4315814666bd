#include "topology/topology.hpp"

#include <cassert>

#include "queueing/fifo_queue.hpp"

namespace cebinae {

ChainTopology build_chain(
    Network& net, int links, std::uint64_t rate_bps, Time link_delay,
    const std::function<std::unique_ptr<QueueDisc>(int link)>& qdisc_factory) {
  assert(links >= 1);
  ChainTopology topo;
  for (int i = 0; i <= links; ++i) topo.switches.push_back(&net.add_node());
  for (int i = 0; i < links; ++i) {
    auto devices = net.link(*topo.switches[i], *topo.switches[i + 1], rate_bps, link_delay,
                            qdisc_factory(i), /*q_ba=*/nullptr);
    topo.bottlenecks.push_back(&devices.ab);
  }
  return topo;
}

HostPair attach_hosts(Network& net, ChainTopology& topo, int enter, int exit,
                      std::uint64_t access_rate_bps, Time src_access_delay,
                      Time dst_access_delay) {
  assert(enter >= 0 && exit > enter &&
         exit < static_cast<int>(topo.switches.size()));
  HostPair pair;
  pair.src = &net.add_node();
  pair.dst = &net.add_node();
  net.link(*pair.src, *topo.switches[enter], access_rate_bps, src_access_delay,
           /*q_ab=*/nullptr, /*q_ba=*/nullptr);
  net.link(*topo.switches[exit], *pair.dst, access_rate_bps, dst_access_delay,
           /*q_ab=*/nullptr, /*q_ba=*/nullptr);
  return pair;
}

}  // namespace cebinae

#include "testbed/emulation.hpp"

#include <type_traits>

#include "common/contracts.hpp"
#include "testbed/wiring.hpp"

namespace mifo::testbed {

template <typename NetT>
void BasicEmulation<NetT>::enable_mifo(const std::vector<AsId>& ases,
                                       const dp::RouterConfig& base_config,
                                       SimTime daemon_interval) {
  for (const AsId as : ases) {
    MIFO_EXPECTS(as.value() < daemons.size());
    for (const RouterId r : wirings[as.value()].routers) {
      dp::RouterConfig cfg = base_config;
      cfg.mifo_enabled = true;
      net->router(r).config() = cfg;
    }
    core::MifoDaemon* daemon = daemons[as.value()].get();
    const auto tick = [daemon](dp::Network& n, SimTime now) {
      daemon->tick(n, now);
    };
    if constexpr (std::is_same_v<NetT, dp::ShardedNetwork>) {
      net->add_periodic(as, daemon_interval, tick);
    } else {
      net->add_periodic(daemon_interval, tick);
    }
  }
}

template <typename NetT>
const HostAttachment& BasicEmulation<NetT>::attachment(HostId h) const {
  for (const auto& a : hosts) {
    if (a.host == h) return a;
  }
  MIFO_EXPECTS(false && "unknown host");
  return hosts.front();  // unreachable
}

template struct BasicEmulation<dp::Network>;
template struct BasicEmulation<dp::ShardedNetwork>;

EmulationBuilder::EmulationBuilder(const topo::AsGraph& g,
                                   std::vector<bool> expand,
                                   BuildParams params)
    : g_(g), expand_(std::move(expand)), params_(params) {
  MIFO_EXPECTS(expand_.size() == g.num_ases());
}

HostId EmulationBuilder::attach_host(AsId as) {
  MIFO_EXPECTS(as.value() < g_.num_ases());
  pending_hosts_.push_back(as);
  return HostId(static_cast<std::uint32_t>(pending_hosts_.size() - 1));
}

Emulation EmulationBuilder::finalize() {
  return build(std::make_unique<dp::Network>());
}

ShardedEmulation EmulationBuilder::finalize(std::size_t num_shards,
                                            dp::ShardConfig cfg) {
  return build(std::make_unique<dp::ShardedNetwork>(num_shards, cfg));
}

template <typename NetT>
BasicEmulation<NetT> EmulationBuilder::build(std::unique_ptr<NetT> net) {
  BasicEmulation<NetT> em;
  em.net = std::move(net);
  em.plan = std::make_unique<bgp::IbgpPlan>(g_, expand_);

  std::vector<std::vector<core::PrefixRoutes>> prefix_routes;
  wire_network(*em.net, g_, *em.plan, params_, pending_hosts_, em.wirings,
               em.hosts, prefix_routes);

  // Daemons (constructed for every AS; only ticked once enabled).
  em.daemons.reserve(g_.num_ases());
  for (std::size_t i = 0; i < g_.num_ases(); ++i) {
    em.daemons.push_back(std::make_unique<core::MifoDaemon>(
        em.wirings[i], std::move(prefix_routes[i])));
  }
  return em;
}

}  // namespace mifo::testbed

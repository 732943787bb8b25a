// Network wiring behind EmulationBuilder's one build path (emulation.cpp),
// and the per-prefix FIB/daemon programming the live route controller
// reuses.
//
// `NetT` is dp::Network or dp::ShardedNetwork — both expose the same
// construction surface (add_router/connect_ebgp/connect_ibgp/add_host/
// connect_host/host_addr/router). One template for both engines is what
// makes the differential guarantee meaningful: the serial oracle and the
// sharded plane are wired, programmed and given their daemons by the *same*
// code, so an outcome difference can only come from the engines.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/ibgp.hpp"
#include "bgp/route_store.hpp"
#include "common/contracts.hpp"
#include "core/daemon.hpp"
#include "testbed/emulation.hpp"
#include "topo/as_graph.hpp"

namespace mifo::testbed {

/// Programs one host prefix into every AS but its owner from `routes`, the
/// converged routes towards the owner: each router's FIB default leads to
/// the border router facing the AS's best next hop, and
/// `on_routes(as, pr)` receives the AS's PrefixRoutes — the default
/// neighbor plus every other neighbor with a RIB row, in `g.neighbors`
/// order. An AS without a best route loses the FIB entries and receives
/// std::nullopt. The builder's install pass and chaos::RouteController's
/// reprogramming both run through here, so the FIBs and daemons always hold
/// exactly the routes they were programmed from. The owner's local delivery
/// never moves and is left alone.
template <typename NetT, typename OnRoutes>
void program_prefix(NetT& net, const topo::AsGraph& g,
                    std::span<const core::AsWiring> wirings,
                    const HostAttachment& att, const bgp::RouteStore& routes,
                    OnRoutes&& on_routes) {
  for (std::size_t x = 0; x < g.num_ases(); ++x) {
    const AsId as(static_cast<std::uint32_t>(x));
    if (as == att.as) continue;
    const core::AsWiring& w = wirings[x];
    const bgp::Route& best = routes.best(as);
    if (!best.valid()) {
      for (const RouterId r : w.routers) net.router(r).fib().remove(att.addr);
      on_routes(as, std::optional<core::PrefixRoutes>{});
      continue;
    }
    const auto* eg = w.egress_to(best.next_hop);
    MIFO_ASSERT(eg != nullptr);
    for (const RouterId r : w.routers) {
      const PortId via =
          r == eg->router ? eg->port : w.intra_port(r, eg->router);
      MIFO_ASSERT(via.valid());
      net.router(r).fib().set_route(att.addr, via);
    }
    core::PrefixRoutes pr;
    pr.prefix = att.addr;
    pr.default_neighbor = best.next_hop;
    for (const auto& nb : g.neighbors(as)) {
      if (nb.as != best.next_hop && routes.rib_from(as, nb.as)) {
        pr.alternatives.push_back(nb.as);
      }
    }
    on_routes(as, std::optional<core::PrefixRoutes>(std::move(pr)));
  }
}

/// Wires routers, eBGP/iBGP links and hosts into `net` per the IbgpPlan and
/// programs BGP-derived FIBs for every pending host. Fills `wirings`,
/// `hosts` and the per-AS `prefix_routes` the MIFO daemons are built from.
template <typename NetT>
void wire_network(NetT& net, const topo::AsGraph& g, const bgp::IbgpPlan& plan,
                  const BuildParams& params,
                  const std::vector<AsId>& pending_hosts,
                  std::vector<core::AsWiring>& wirings,
                  std::vector<HostAttachment>& hosts,
                  std::vector<std::vector<core::PrefixRoutes>>& prefix_routes) {
  // Routers (ids in the network match the plan's router ids).
  for (std::size_t i = 0; i < plan.num_routers(); ++i) {
    const auto& br = plan.router(RouterId(static_cast<std::uint32_t>(i)));
    const RouterId created = net.add_router(br.as);
    MIFO_ASSERT(created == br.id);
  }

  wirings.resize(g.num_ases());
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    wirings[i].as = as;
    wirings[i].routers = plan.routers_of(as);
  }

  // eBGP links: one physical link per AS adjacency, between the two facing
  // border routers.
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId a(static_cast<std::uint32_t>(i));
    for (const auto& nb : g.neighbors(a)) {
      if (!(a < nb.as)) continue;  // each adjacency once
      const RouterId ra = plan.border_towards(a, nb.as);
      const RouterId rb = plan.border_towards(nb.as, a);
      const auto [pa, pb] = net.connect_ebgp(ra, rb, nb.rel, params.ebgp_rate,
                                             params.ebgp_delay);
      wirings[a.value()].egresses.push_back(
          core::AsWiring::Egress{nb.as, ra, pa, nb.rel});
      wirings[nb.as.value()].egresses.push_back(
          core::AsWiring::Egress{a, rb, pb, topo::reverse(nb.rel)});
    }
  }

  // iBGP full mesh inside expanded ASes.
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const auto& routers = wirings[i].routers;
    for (std::size_t x = 0; x < routers.size(); ++x) {
      for (std::size_t y = x + 1; y < routers.size(); ++y) {
        const auto [px, py] = net.connect_ibgp(routers[x], routers[y],
                                               params.ibgp_rate,
                                               params.ibgp_delay);
        wirings[i].intra.push_back(
            core::AsWiring::IntraPort{routers[x], routers[y], px});
        wirings[i].intra.push_back(
            core::AsWiring::IntraPort{routers[y], routers[x], py});
      }
    }
  }

  // Hosts.
  std::unordered_map<std::uint32_t, PortId> host_port;  // host -> router port
  for (const AsId as : pending_hosts) {
    const RouterId attach = plan.routers_of(as).front();
    const HostId h = net.add_host();
    const PortId rp =
        net.connect_host(attach, h, params.host_rate, params.host_delay);
    host_port.emplace(h.value(), rp);
    hosts.push_back(HostAttachment{h, as, attach, net.host_addr(h)});
  }

  // FIBs + per-AS prefix knowledge, one destination prefix per host.
  prefix_routes.assign(g.num_ases(), {});
  for (const auto& att : hosts) {
    // Local delivery: towards the attachment router, then the host port.
    const core::AsWiring& owner = wirings[att.as.value()];
    for (const RouterId r : owner.routers) {
      const PortId via = r == att.router ? host_port.at(att.host.value())
                                         : owner.intra_port(r, att.router);
      MIFO_ASSERT(via.valid());
      net.router(r).fib().set_route(att.addr, via);
    }
    prefix_routes[att.as.value()].push_back(
        core::PrefixRoutes{att.addr, AsId::invalid(), {}});
    program_prefix(
        net, g, wirings, att, bgp::RouteStore(g, att.as),
        [&](AsId as, std::optional<core::PrefixRoutes> pr) {
          if (pr) prefix_routes[as.value()].push_back(std::move(*pr));
        });
  }
}

}  // namespace mifo::testbed

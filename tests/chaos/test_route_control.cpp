// RouteController tests — BGP withdrawal/re-announcement and session churn
// propagated into a live emulation: withdrawing an origin must empty every
// AS's routes in the delta table and tear both the default route and any
// daemon-programmed alt_port out of every remote FIB; re-announcing must
// restore end-to-end reachability; a session going down must move every
// FIB off the dead port, and the FIBs must always match the delta table's
// segment. The alt-missing-from-rib lint is the tripwire: if eviction ever
// skips the alt, the lint must fire.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "chaos/route_control.hpp"
#include "core/daemon.hpp"
#include "testbed/emulation.hpp"
#include "topo/generator.hpp"
#include "verify/lint.hpp"

namespace mifo::chaos {
namespace {

struct Fixture {
  topo::AsGraph g;
  testbed::Emulation em;

  static Fixture make(std::uint64_t seed, bool mifo) {
    topo::GeneratorParams gp;
    gp.num_ases = 24;
    gp.num_tier1 = 3;
    gp.seed = seed;
    Fixture f{topo::generate_topology(gp), {}};
    testbed::EmulationBuilder builder(f.g,
                                      std::vector<bool>(f.g.num_ases(), false));
    builder.attach_host(AsId(2));
    builder.attach_host(
        AsId(static_cast<std::uint32_t>(f.g.num_ases() - 1)));
    builder.attach_host(
        AsId(static_cast<std::uint32_t>(f.g.num_ases() / 2)));
    f.em = builder.finalize();
    if (mifo) {
      std::vector<AsId> all;
      for (std::uint32_t i = 0; i < f.g.num_ases(); ++i) {
        all.push_back(AsId(i));
      }
      f.em.enable_mifo(all, dp::RouterConfig{});
    }
    return f;
  }

  /// Every AS but the owner forwards `att`'s prefix exactly as the delta
  /// table's current segment says: towards the border router facing its
  /// best next hop, or not at all when it has no route; its daemon holds
  /// the same default neighbor.
  void expect_fibs_match_segment(const RouteController& ctl,
                                 const testbed::HostAttachment& att) const {
    const auto seg = ctl.delta().segment(att.as);
    ASSERT_NE(seg, nullptr);
    for (std::uint32_t x = 0; x < g.num_ases(); ++x) {
      const AsId as(x);
      if (as == att.as) continue;
      const bgp::Route& best = seg->store.best(as);
      const core::AsWiring& w = em.wirings[x];
      const auto prefixes = em.daemons[x]->prefixes();
      const auto pr = std::find_if(
          prefixes.begin(), prefixes.end(),
          [&](const core::PrefixRoutes& p) { return p.prefix == att.addr; });
      if (!best.valid()) {
        EXPECT_EQ(pr, prefixes.end()) << "AS" << x;
        for (const RouterId r : w.routers) {
          EXPECT_FALSE(em.net->router(r).fib().contains(att.addr))
              << "AS" << x << " r" << r.value();
        }
        continue;
      }
      ASSERT_NE(pr, prefixes.end()) << "AS" << x;
      EXPECT_EQ(pr->default_neighbor, best.next_hop) << "AS" << x;
      const auto* eg = w.egress_to(best.next_hop);
      ASSERT_NE(eg, nullptr);
      for (const RouterId r : w.routers) {
        const auto fe = em.net->router(r).fib().lookup(att.addr);
        ASSERT_TRUE(fe.has_value()) << "AS" << x << " r" << r.value();
        EXPECT_EQ(fe->out_port,
                  r == eg->router ? eg->port : w.intra_port(r, eg->router))
            << "AS" << x << " r" << r.value();
      }
    }
  }

  [[nodiscard]] std::size_t routers_with_route(dp::Addr dst) const {
    std::size_t n = 0;
    for (std::uint32_t r = 0; r < em.net->num_routers(); ++r) {
      n += em.net->router(RouterId(r)).fib().lookup(dst).has_value() ? 1 : 0;
    }
    return n;
  }
};

TEST(RouteControl, WithdrawEvictsRibAndFib) {
  auto f = Fixture::make(7, /*mifo=*/false);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];

  // Converged baseline: every router routes the prefix, every AS holds a
  // best path to the origin.
  EXPECT_EQ(f.routers_with_route(victim.addr), f.em.net->num_routers());
  for (std::uint32_t as = 0; as < f.g.num_ases(); ++as) {
    EXPECT_TRUE(ctl.delta().segment(victim.as)->store.best(AsId(as)).valid())
        << "AS" << as;
  }

  ASSERT_TRUE(ctl.withdraw(victim.as));
  EXPECT_TRUE(ctl.withdrawn(victim.as));

  // Every RIB emptied (the origin dropped its Self route with the
  // withdrawal); only the origin router keeps local host delivery. The
  // other prefixes are untouched.
  for (std::uint32_t as = 0; as < f.g.num_ases(); ++as) {
    EXPECT_FALSE(ctl.delta().segment(victim.as)->store.best(AsId(as)).valid())
        << "AS" << as;
  }
  EXPECT_EQ(f.routers_with_route(victim.addr), 1u);
  EXPECT_EQ(f.routers_with_route(f.em.hosts[1].addr),
            f.em.net->num_routers());

  // Idempotence / non-owners.
  EXPECT_FALSE(ctl.withdraw(victim.as));
  AsId non_owner = AsId::invalid();
  for (std::uint32_t as = 0; as < f.g.num_ases() && !non_owner.valid();
       ++as) {
    bool owns = false;
    for (const auto& att : f.em.hosts) owns = owns || att.as == AsId(as);
    if (!owns) non_owner = AsId(as);
  }
  ASSERT_TRUE(non_owner.valid());
  EXPECT_FALSE(ctl.withdraw(non_owner));
}

TEST(RouteControl, ReannounceRestoresReachability) {
  auto f = Fixture::make(9, /*mifo=*/false);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];

  ASSERT_TRUE(ctl.withdraw(victim.as));
  EXPECT_FALSE(ctl.reannounce(f.em.hosts[1].as));  // not withdrawn
  ASSERT_TRUE(ctl.reannounce(victim.as));
  EXPECT_FALSE(ctl.withdrawn(victim.as));
  EXPECT_EQ(f.routers_with_route(victim.addr), f.em.net->num_routers());

  // End-to-end proof: a flow towards the restored prefix completes.
  dp::FlowParams fp;
  fp.src = f.em.hosts[1].host;
  fp.dst = victim.host;
  fp.size = 200 * 1000;
  f.em.net->start_flow(fp);
  f.em.net->run_to_completion(30.0);
  EXPECT_TRUE(f.em.net->flows()[0].done);
  EXPECT_EQ(ctl.delta_events(), 2u);
  f.expect_fibs_match_segment(ctl, victim);
}

TEST(RouteControl, WithdrawEvictsDaemonProgrammedAlt) {
  auto f = Fixture::make(11, /*mifo=*/true);
  dp::Network& net = *f.em.net;
  // Let every daemon tick once so alts are programmed where RIBs allow.
  net.run_until(0.03);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];

  ASSERT_TRUE(ctl.withdraw(victim.as));

  // No remote FIB may retain a default or alt for the withdrawn prefix
  // (the alt rides on the entry; Fib::remove drops both).
  for (std::uint32_t r = 0; r < net.num_routers(); ++r) {
    if (net.router(RouterId(r)).as() == victim.as) continue;
    EXPECT_FALSE(net.router(RouterId(r)).fib().lookup(victim.addr))
        << "router " << r;
  }

  // And the lint pass agrees: nothing dangles.
  std::vector<std::pair<dp::Addr, AsId>> owners;
  for (const auto& att : f.em.hosts) owners.emplace_back(att.addr, att.as);
  const auto issues =
      verify::lint_deployment(net, f.g, f.em.daemons, owners);
  for (const auto& iss : issues) {
    EXPECT_NE(iss.kind, verify::LintKind::AltMissingFromRib)
        << iss.to_string();
  }

  ASSERT_TRUE(ctl.reannounce(victim.as));
  EXPECT_EQ(f.routers_with_route(victim.addr), net.num_routers());
}

TEST(RouteControl, SkippedAltEvictionTripsTheLint) {
  // Negative control for the tripwire: reinstall a default+alt for a
  // withdrawn prefix behind the controller's back — the daemon no longer
  // knows the prefix, so alt-missing-from-rib MUST fire.
  auto f = Fixture::make(13, /*mifo=*/true);
  dp::Network& net = *f.em.net;
  net.run_until(0.03);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];
  ASSERT_TRUE(ctl.withdraw(victim.as));

  // Find a router outside the origin AS with >= 2 eBGP ports and fake the
  // "forgot to evict" state.
  bool planted = false;
  for (std::uint32_t r = 0; r < net.num_routers() && !planted; ++r) {
    dp::Router& router = net.router(RouterId(r));
    if (router.as() == victim.as) continue;
    PortId def = PortId::invalid();
    PortId alt = PortId::invalid();
    for (std::uint32_t p = 0; p < router.num_ports(); ++p) {
      if (router.port(PortId(p)).kind != dp::PortKind::Ebgp) continue;
      if (!def.valid()) {
        def = PortId(p);
      } else if (!alt.valid() && router.port(PortId(p)).neighbor_as !=
                                     router.port(def).neighbor_as) {
        alt = PortId(p);
      }
    }
    if (!def.valid() || !alt.valid()) continue;
    router.fib().set_route(victim.addr, def);
    router.fib().set_alt(victim.addr, alt);
    planted = true;
  }
  ASSERT_TRUE(planted);

  std::vector<std::pair<dp::Addr, AsId>> owners;
  for (const auto& att : f.em.hosts) owners.emplace_back(att.addr, att.as);
  const auto issues =
      verify::lint_deployment(net, f.g, f.em.daemons, owners);
  bool fired = false;
  for (const auto& iss : issues) {
    fired = fired || iss.kind == verify::LintKind::AltMissingFromRib;
  }
  EXPECT_TRUE(fired) << "lint failed to catch a stale alt after withdrawal";
}

TEST(RouteControl, DeltaMirrorTracksWithdrawalsAndSessions) {
  auto f = Fixture::make(17, /*mifo=*/true);
  f.em.net->run_until(0.03);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];

  // The delta table starts converged: every host prefix tracked, no mismatches.
  EXPECT_TRUE(ctl.delta().tracks(victim.as));
  EXPECT_TRUE(ctl.delta().differential_check().empty());
  EXPECT_EQ(ctl.delta_events(), 0u);

  // Withdraw: exactly one destination recomputed, the table agrees with
  // a from-scratch rebuild, and the published segment is empty.
  ASSERT_TRUE(ctl.withdraw(victim.as));
  EXPECT_EQ(ctl.delta_events(), 1u);
  EXPECT_TRUE(ctl.last_delta_stats().applied);
  EXPECT_EQ(ctl.last_delta_stats().recomputed, 1u);
  EXPECT_TRUE(ctl.delta().withdrawn(victim.as));
  EXPECT_EQ(ctl.delta().segment(victim.as)->store.num_reachable(), 0u);
  EXPECT_TRUE(ctl.delta().differential_check().empty());

  ASSERT_TRUE(ctl.reannounce(victim.as));
  EXPECT_EQ(ctl.delta_events(), 2u);
  EXPECT_FALSE(ctl.delta().withdrawn(victim.as));
  EXPECT_GT(ctl.delta().segment(victim.as)->store.num_reachable(), 0u);

  // Session flap: the table masks the edge, stays oracle-identical, and
  // the recomputed set is a strict subset of the tracked universe unless
  // every tracked destination actually held a row across the edge.
  const AsId a = victim.as;
  const AsId b = f.g.neighbors(a).front().as;
  ASSERT_TRUE(ctl.session_down(a, b));
  EXPECT_EQ(ctl.delta_events(), 3u);
  EXPECT_TRUE(ctl.delta().session_disabled(a, b));
  EXPECT_TRUE(ctl.delta().differential_check().empty());
  const auto& st = ctl.last_delta_stats();
  EXPECT_EQ(st.recomputed + st.patched + st.unchanged, st.destinations);
  EXPECT_EQ(ctl.delta_recomputed(),
            1u + 1u + ctl.last_delta_stats().recomputed);
  EXPECT_EQ(ctl.delta_patched(), ctl.last_delta_stats().patched);

  ASSERT_TRUE(ctl.session_up(a, b));
  EXPECT_FALSE(ctl.delta().session_disabled(a, b));
  EXPECT_TRUE(ctl.delta().differential_check().empty());

  // Duplicate session events are no-ops at the controller level too.
  ASSERT_TRUE(ctl.session_down(a, b));
  EXPECT_FALSE(ctl.session_down(b, a));
  ASSERT_TRUE(ctl.session_up(b, a));
}

/// The first hop (x, y) on `src`'s best path towards `dest` at which x
/// keeps another route should the session x–y go down; invalid pair when
/// none exists.
std::pair<AsId, AsId> reroutable_hop(const bgp::RouteStore& routes, AsId src,
                                     AsId dest) {
  for (AsId x = src; x != dest && routes.best(x).valid();
       x = routes.best(x).next_hop) {
    if (routes.rib(x).size() >= 2) return {x, routes.best(x).next_hop};
  }
  return {AsId::invalid(), AsId::invalid()};
}

TEST(RouteControl, SessionDownMovesFibsOffTheDeadPort) {
  for (const std::uint64_t seed : {7u, 9u, 11u, 13u, 17u}) {
    auto f = Fixture::make(seed, /*mifo=*/false);
    RouteController ctl(f.em, f.g);
    // A host pair whose default path crosses a session its near end can
    // route around.
    const testbed::HostAttachment* src = nullptr;
    const testbed::HostAttachment* dst = nullptr;
    std::pair<AsId, AsId> hop{AsId::invalid(), AsId::invalid()};
    for (const auto& s : f.em.hosts) {
      for (const auto& d : f.em.hosts) {
        if (src != nullptr || s.as == d.as) continue;
        hop = reroutable_hop(ctl.delta().segment(d.as)->store, s.as, d.as);
        if (hop.first.valid()) {
          src = &s;
          dst = &d;
        }
      }
    }
    if (src == nullptr) continue;
    const auto [a, b] = hop;

    dp::Network& net = *f.em.net;
    ASSERT_TRUE(ctl.session_down(a, b));
    const auto* eg_ab = f.em.wirings[a.value()].egress_to(b);
    const auto* eg_ba = f.em.wirings[b.value()].egress_to(a);
    ASSERT_TRUE(eg_ab != nullptr && eg_ba != nullptr);
    net.set_port_up(eg_ab->router, eg_ab->port, false);
    net.set_port_up(eg_ba->router, eg_ba->port, false);

    // No router of either end forwards a tracked prefix out of the dead
    // egress: where the segment keeps a route it leads elsewhere, where it
    // keeps none the entry is gone.
    for (const auto* eg : {eg_ab, eg_ba}) {
      const dp::Router& r = net.router(eg->router);
      for (const auto& att : f.em.hosts) {
        if (att.as == r.as()) continue;
        const auto fe = r.fib().lookup(att.addr);
        const bool routed =
            ctl.delta().segment(att.as)->store.best(r.as()).valid();
        EXPECT_EQ(fe.has_value(), routed) << "AS" << r.as().value();
        if (fe) {
          EXPECT_NE(fe->out_port, eg->port) << "AS" << r.as().value();
        }
      }
    }
    for (const auto& att : f.em.hosts) f.expect_fibs_match_segment(ctl, att);

    // End-to-end: the flow whose default crossed the dead link completes.
    ASSERT_TRUE(ctl.delta().segment(dst->as)->store.best(src->as).valid());
    dp::FlowParams fp;
    fp.src = src->host;
    fp.dst = dst->host;
    fp.size = 200 * 1000;
    net.start_flow(fp);
    net.run_to_completion(30.0);
    EXPECT_TRUE(net.flows()[0].done) << "seed " << seed;
    return;
  }
  FAIL() << "no seed has a host pair whose default path can be rerouted";
}

TEST(RouteControl, ReannounceOverADownSessionMatchesTheMaskedSegment) {
  auto f = Fixture::make(7, /*mifo=*/true);
  f.em.net->run_until(0.03);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];
  // A session the victim's routes cross: the first hop of another host's
  // default path towards it.
  const AsId a = f.em.hosts[1].as;
  const AsId b = ctl.delta().segment(victim.as)->store.best(a).next_hop;
  ASSERT_TRUE(b.valid());

  ASSERT_TRUE(ctl.withdraw(victim.as));
  ASSERT_TRUE(ctl.session_down(a, b));
  ASSERT_TRUE(ctl.reannounce(victim.as));

  // The reinstalled routes avoid the dead session, at every AS.
  EXPECT_NE(ctl.delta().segment(victim.as)->store.best(a).next_hop, b);
  for (const auto& att : f.em.hosts) f.expect_fibs_match_segment(ctl, att);
  EXPECT_TRUE(ctl.delta().differential_check().empty());
}

}  // namespace
}  // namespace mifo::chaos

#include "core/daemon.hpp"

#include <gtest/gtest.h>

#include "dataplane/change_log.hpp"

namespace mifo::core {
namespace {

// AS 0 with three border routers: Ra faces AS1 (default), Rb faces AS2,
// Rc faces AS3 (both alternatives). Full iBGP mesh.
struct DaemonFixture : ::testing::Test {
  dp::Network net;
  RouterId ra, rb, rc, x1, x2, x3;
  PortId e1, e2, e3;  // eBGP egress ports on ra/rb/rc
  AsWiring wiring;
  static constexpr dp::Addr kPrefix = 0x80000123;

  void SetUp() override {
    ra = net.add_router(AsId(0));
    rb = net.add_router(AsId(0));
    rc = net.add_router(AsId(0));
    x1 = net.add_router(AsId(1));
    x2 = net.add_router(AsId(2));
    x3 = net.add_router(AsId(3));
    e1 = net.connect_ebgp(ra, x1, topo::Rel::Peer).first;
    e2 = net.connect_ebgp(rb, x2, topo::Rel::Peer).first;
    e3 = net.connect_ebgp(rc, x3, topo::Rel::Peer).first;

    wiring.as = AsId(0);
    wiring.routers = {ra, rb, rc};
    wiring.egresses = {{AsId(1), ra, e1, topo::Rel::Peer},
                       {AsId(2), rb, e2, topo::Rel::Peer},
                       {AsId(3), rc, e3, topo::Rel::Peer}};
    for (auto [a, b] : {std::pair{ra, rb}, {ra, rc}, {rb, rc}}) {
      const auto [pa, pb] = net.connect_ibgp(a, b);
      wiring.intra.push_back({a, b, pa});
      wiring.intra.push_back({b, a, pb});
    }

    // Default route for the prefix: egress via ra/e1.
    net.router(ra).fib().set_route(kPrefix, e1);
    net.router(rb).fib().set_route(kPrefix, wiring.intra_port(rb, ra));
    net.router(rc).fib().set_route(kPrefix, wiring.intra_port(rc, ra));
  }

  std::vector<PrefixRoutes> prefixes() {
    return {PrefixRoutes{kPrefix, AsId(1), {AsId(2), AsId(3)}}};
  }

  void load_egress(PortId port, RouterId router, std::uint64_t bytes) {
    net.router(router).port(port).bytes_sent_total += bytes;
  }
};

TEST_F(DaemonFixture, WiringLookupHelpers) {
  EXPECT_EQ(wiring.egress_to(AsId(2))->router, rb);
  EXPECT_EQ(wiring.egress_to(AsId(9)), nullptr);
  EXPECT_TRUE(wiring.intra_port(ra, rb).valid());
  EXPECT_FALSE(wiring.intra_port(ra, ra).valid());
}

TEST_F(DaemonFixture, ElectsAlternativeAndProgramsAllFibs) {
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);
  // Ties broken towards the lower AS id: AS2.
  EXPECT_EQ(daemon.elected_alt(kPrefix), AsId(2));
  // rb (the alt egress) points at its own eBGP port; others at intra links
  // towards rb.
  EXPECT_EQ(net.router(rb).fib().lookup(kPrefix)->alt_port, e2);
  EXPECT_EQ(net.router(ra).fib().lookup(kPrefix)->alt_port,
            wiring.intra_port(ra, rb));
  EXPECT_EQ(net.router(rc).fib().lookup(kPrefix)->alt_port,
            wiring.intra_port(rc, rb));
}

TEST_F(DaemonFixture, GreedyPrefersMostSpareCapacity) {
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);  // primes the monitor
  // Load AS2's egress at ~800 Mbps over the next window; AS3 stays idle.
  load_egress(e2, rb, 10'000'000);
  daemon.tick(net, 0.1);
  EXPECT_EQ(daemon.elected_alt(kPrefix), AsId(3));
  EXPECT_EQ(net.router(rc).fib().lookup(kPrefix)->alt_port, e3);
  EXPECT_EQ(net.router(ra).fib().lookup(kPrefix)->alt_port,
            wiring.intra_port(ra, rc));
}

TEST_F(DaemonFixture, ReElectionFollowsLoadShifts) {
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);
  load_egress(e2, rb, 10'000'000);
  daemon.tick(net, 0.1);
  ASSERT_EQ(daemon.elected_alt(kPrefix), AsId(3));
  // Load moves to AS3's egress; AS2 drains.
  load_egress(e3, rc, 10'000'000);
  daemon.tick(net, 0.2);
  EXPECT_EQ(daemon.elected_alt(kPrefix), AsId(2));
}

TEST_F(DaemonFixture, PrefixWithoutAlternativesLeftAlone) {
  std::vector<PrefixRoutes> pr{PrefixRoutes{kPrefix, AsId(1), {}}};
  MifoDaemon daemon(wiring, pr);
  daemon.tick(net, 0.0);
  EXPECT_FALSE(daemon.elected_alt(kPrefix).valid());
  EXPECT_FALSE(net.router(ra).fib().lookup(kPrefix)->alt_port.valid());
}

TEST_F(DaemonFixture, LocalPrefixNeverGetsAltPort) {
  std::vector<PrefixRoutes> pr{
      PrefixRoutes{kPrefix, AsId::invalid(), {AsId(2)}}};
  MifoDaemon daemon(wiring, pr);
  daemon.tick(net, 0.0);
  EXPECT_FALSE(net.router(ra).fib().lookup(kPrefix)->alt_port.valid());
}

TEST_F(DaemonFixture, IdenticalUpdateKeepsTheAltAndLogsNothing) {
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);
  ASSERT_EQ(daemon.elected_alt(kPrefix), AsId(2));
  dp::ChangeLog log;
  net.attach_change_log(&log);

  // The route controller hands over the same knowledge again: nothing
  // moved, so the elected alt stays programmed and no record is written.
  daemon.update_prefix(net, prefixes().front());
  EXPECT_EQ(daemon.elected_alt(kPrefix), AsId(2));
  EXPECT_EQ(net.router(rb).fib().lookup(kPrefix)->alt_port, e2);
  EXPECT_TRUE(log.empty());

  // Changed knowledge clears the alt and records the daemon change.
  daemon.update_prefix(net, PrefixRoutes{kPrefix, AsId(1), {AsId(3)}});
  EXPECT_FALSE(daemon.elected_alt(kPrefix).valid());
  EXPECT_FALSE(net.router(rb).fib().lookup(kPrefix)->alt_port.valid());
  ASSERT_EQ(log.daemons.size(), 1u);
  EXPECT_EQ(log.daemons.front().prefix, kPrefix);
  net.attach_change_log(nullptr);
}

TEST_F(DaemonFixture, TickRunsFlowReevaluation) {
  // A pin on ra with idle egresses must be released by the tick.
  net.router(ra).config().mifo_enabled = true;
  net.router(ra).fib().set_alt(kPrefix, wiring.intra_port(ra, rb));
  // Congest, then handle one packet to create a pin.
  for (int i = 0; i < 61; ++i) {
    dp::Packet filler;
    filler.dst = kPrefix;
    filler.flow = FlowId(99);
    filler.size_bytes = 1000;
    net.transmit_router(ra, e1, filler);
  }
  dp::Packet p;
  p.dst = kPrefix;
  p.flow = FlowId(7);
  p.size_bytes = 1000;
  p.mifo_tag = true;
  net.router(ra).handle_packet(net, p, PortId::invalid());
  ASSERT_EQ(net.router(ra).pinned_alt_flows(), 1u);

  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);  // prime: rates measure 0 -> egresses idle
  EXPECT_EQ(net.router(ra).pinned_alt_flows(), 0u);
}

}  // namespace
}  // namespace mifo::core

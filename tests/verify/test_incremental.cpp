// Differential property tests for the incremental verifier: after any
// random single-event mutation (alt reprogram, entry eviction, RIB
// withdrawal, config flip, link flap, daemon reconvergence tick), the
// merged incremental result must be verdict-, counterexample- and
// lint-identical to a from-scratch run of the full provers on the same
// state. The full provers are the oracle; the cache must never be able to
// serve a stale proof.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/change_log.hpp"
#include "testbed/emulation.hpp"
#include "topo/generator.hpp"
#include "verify/changeset.hpp"
#include "verify/deflection_graph.hpp"
#include "verify/incremental.hpp"
#include "verify/lint.hpp"
#include "verify/valley.hpp"

namespace mifo {
namespace {

struct Deployment {
  testbed::Emulation em;
  topo::AsGraph g;
  std::vector<std::pair<dp::Addr, AsId>> owners;
};

Deployment deploy(std::uint64_t seed, std::size_t num_ases) {
  topo::GeneratorParams gp;
  gp.num_ases = num_ases;
  gp.num_tier1 = 5;
  gp.seed = seed;
  Deployment d;
  d.g = topo::generate_topology(gp);
  testbed::EmulationBuilder builder(d.g, std::vector<bool>(num_ases, false));
  constexpr std::size_t kDests = 4;
  for (std::size_t i = 0; i < kDests; ++i) {
    builder.attach_host(
        AsId(static_cast<std::uint32_t>(i * (num_ases - 1) / (kDests - 1))));
  }
  d.em = builder.finalize();
  dp::Network& net = *d.em.net;
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    net.router(RouterId(static_cast<std::uint32_t>(i)))
        .config()
        .mifo_enabled = true;
  }
  for (const auto& daemon : d.em.daemons) daemon->tick(net, 0.0);
  for (const auto& att : d.em.hosts) d.owners.emplace_back(att.addr, att.as);
  return d;
}

std::vector<std::string> rendered(const auto& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const auto& f : findings) out.push_back(f.to_string());
  return out;
}

struct FullRun {
  verify::LoopCheck loop;
  verify::ValleyCheck valley;
  std::vector<verify::LintIssue> lints;
};

FullRun full_run(const Deployment& d) {
  const dp::Network& net = *d.em.net;
  return {verify::check_loop_freedom(net), verify::check_valley_freedom(net),
          verify::lint_deployment(net, d.g, d.em.daemons, d.owners)};
}

// Element-identical, not just verdict-identical: cycles, valley violations
// and lints are all produced per destination and both sides merge
// destination-ascending, so everything compares as sequences.
void expect_identical(const verify::IncrementalResult& inc, const FullRun& full,
                      const std::string& context) {
  EXPECT_EQ(inc.loop.loop_free, full.loop.loop_free) << context;
  EXPECT_EQ(rendered(inc.loop.cycles), rendered(full.loop.cycles)) << context;
  EXPECT_EQ(inc.valley.valley_free, full.valley.valley_free) << context;
  EXPECT_EQ(rendered(inc.valley.violations), rendered(full.valley.violations))
      << context;
  EXPECT_EQ(rendered(inc.lint), rendered(full.lints)) << context;
}

TEST(Incremental, ColdPassProvesEverythingAndMatchesFull) {
  Deployment d = deploy(21, 30);
  dp::Network& net = *d.em.net;
  dp::ChangeLog log;
  net.attach_change_log(&log);

  verify::IncrementalVerifier inc;
  verify::ChangeSet cs;
  const auto cold = inc.check(net, d.g, d.em.daemons, d.owners, cs);
  EXPECT_EQ(cold.stats.destinations, d.owners.size());
  EXPECT_EQ(cold.stats.dirty_destinations, cold.stats.destinations);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_GT(cold.stats.states_explored, 0u);
  EXPECT_EQ(inc.cached_destinations(), d.owners.size());
  expect_identical(cold, full_run(d), "cold pass");

  // A warm pass with no changes at all is pure cache: zero exploration,
  // same merged result.
  const auto warm = inc.check(net, d.g, d.em.daemons, d.owners, cs);
  EXPECT_EQ(warm.stats.dirty_destinations, 0u);
  EXPECT_EQ(warm.stats.cache_hits, warm.stats.destinations);
  EXPECT_EQ(warm.stats.states_explored, 0u);
  expect_identical(warm, full_run(d), "warm no-op pass");
}

TEST(Incremental, PortFlipsAndNoOpTicksAreFree) {
  Deployment d = deploy(22, 30);
  dp::Network& net = *d.em.net;
  dp::ChangeLog log;
  net.attach_change_log(&log);

  verify::IncrementalVerifier inc;
  verify::ChangeSet cs;
  (void)inc.check(net, d.g, d.em.daemons, d.owners, cs);

  // The daemon rewrites the same alt ports every tick; value-change-only
  // hooks must keep the log empty so the snapshot is pure cache.
  for (const auto& daemon : d.em.daemons) daemon->tick(net, 0.01);
  EXPECT_TRUE(log.empty()) << "steady-state tick dirtied the change log";

  // Link flaps without FIB reaction dirty nothing either: the deflection
  // graph never reads Port::up (only the blackhole analysis does, and it
  // is off by default).
  for (std::size_t as = 0; as < d.em.wirings.size(); as += 4) {
    for (const auto& eg : d.em.wirings[as].egresses) {
      net.set_port_up(eg.router, eg.port, false);
    }
  }
  EXPECT_FALSE(log.empty());
  cs.drain(log);
  const auto r = inc.check(net, d.g, d.em.daemons, d.owners, cs);
  cs.clear();
  EXPECT_EQ(r.stats.dirty_destinations, 0u);
  EXPECT_EQ(r.stats.cache_hits, r.stats.destinations);
  EXPECT_EQ(r.stats.states_explored, 0u);
  expect_identical(r, full_run(d), "after link flaps");
}

TEST(Incremental, VanishedDestinationIsDroppedFromTheMerge) {
  Deployment d = deploy(23, 20);
  dp::Network& net = *d.em.net;
  dp::ChangeLog log;
  net.attach_change_log(&log);

  verify::IncrementalVerifier inc;
  verify::ChangeSet cs;
  (void)inc.check(net, d.g, d.em.daemons, d.owners, cs);

  // Withdraw one prefix everywhere: RIB knowledge and every FIB entry go.
  const dp::Addr gone = d.owners.front().first;
  for (const auto& daemon : d.em.daemons) daemon->remove_prefix(net, gone);
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    net.router(RouterId(static_cast<std::uint32_t>(i))).fib().remove(gone);
  }
  cs.drain(log);
  const auto r = inc.check(net, d.g, d.em.daemons, d.owners, cs);
  cs.clear();
  EXPECT_EQ(r.stats.destinations, d.owners.size() - 1);
  EXPECT_EQ(inc.cached_destinations(), d.owners.size() - 1);
  expect_identical(r, full_run(d), "after full withdrawal");
}

class IncrementalProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The satellite's core claim: a long random single-event mutation sequence
// never lets the incremental verdict drift from the from-scratch oracle.
TEST_P(IncrementalProperty, RandomMutationSequenceNeverDiverges) {
  const std::uint64_t seed = GetParam();
  Deployment d = deploy(seed, seed % 2 == 0 ? 40 : 24);
  dp::Network& net = *d.em.net;
  dp::ChangeLog log;
  net.attach_change_log(&log);

  verify::IncrementalVerifier inc;
  verify::ChangeSet cs;
  (void)inc.check(net, d.g, d.em.daemons, d.owners, cs);

  Rng rng(seed * 7919 + 3);
  const std::size_t num_ases = d.em.wirings.size();
  std::size_t mutations = 0;
  for (int step = 0; step < 30; ++step) {
    const AsId as(static_cast<std::uint32_t>(rng.bounded(num_ases)));
    const auto& w = d.em.wirings[as.value()];
    const dp::Addr dst = d.owners[rng.bounded(d.owners.size())].first;
    switch (rng.bounded(6)) {
      case 0: {  // arbitrary alt reprogram — may very well create a cycle
        if (w.egresses.empty()) continue;
        const auto& eg = w.egresses[rng.bounded(w.egresses.size())];
        if (!net.router(eg.router).fib().contains(dst)) continue;
        net.router(eg.router).fib().set_alt(dst, eg.port);
        break;
      }
      case 1: {  // alt eviction
        if (w.egresses.empty()) continue;
        const RouterId r = w.egresses.front().router;
        if (!net.router(r).fib().contains(dst)) continue;
        net.router(r).fib().clear_alt(dst);
        break;
      }
      case 2: {  // whole-entry eviction (stranding upstreams is fine here —
                 // blackhole analysis is off, loop/valley/lint must agree)
        if (w.egresses.empty()) continue;
        const RouterId r = w.egresses.front().router;
        if (!net.router(r).fib().remove(dst)) continue;
        break;
      }
      case 3:  // RIB withdrawal at one daemon (lints react to RIB state)
        d.em.daemons[as.value()]->remove_prefix(net, dst);
        break;
      case 4: {  // config flip — bypasses hooks, mutator records it
        if (w.egresses.empty()) continue;
        const RouterId r = w.egresses.front().router;
        net.router(r).config().enforce_tag_check =
            !net.router(r).config().enforce_tag_check;
        log.note_config(r);
        break;
      }
      case 5: {  // link flap
        if (w.egresses.empty()) continue;
        const auto& eg = w.egresses[rng.bounded(w.egresses.size())];
        net.set_port_up(eg.router, eg.port, rng.bernoulli(0.5));
        break;
      }
    }
    // Occasionally let the control plane reconverge, like the chaos
    // engine's reconv delay does; the daemons then rewrite only what the
    // mutations actually changed.
    if (rng.bernoulli(0.25)) {
      for (const auto& daemon : d.em.daemons) {
        daemon->tick(net, 0.02 * (step + 1));
      }
    }
    ++mutations;

    cs.drain(log);
    const auto r = inc.check(net, d.g, d.em.daemons, d.owners, cs);
    cs.clear();
    EXPECT_EQ(r.stats.dirty_destinations + r.stats.cache_hits,
              r.stats.destinations);
    expect_identical(r, full_run(d),
                     "seed " + std::to_string(seed) + " step " +
                         std::to_string(step));
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
  EXPECT_GT(mutations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace mifo

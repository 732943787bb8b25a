// Chaos-engine tests: scripted scenarios against a live MIFO emulation.
// Every event kind must apply, every quiescent snapshot must stay
// verifier-clean on a healthy deployment, recovery latencies must be
// accounted, a planted Eq. 3 violation must surface as a concrete
// counterexample, and the whole run must be bit-deterministic.

#include <gtest/gtest.h>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "testbed/emulation.hpp"
#include "topo/generator.hpp"

namespace mifo::chaos {
namespace {

struct Fixture {
  topo::AsGraph g;
  testbed::Emulation em;

  static Fixture make(std::uint64_t seed) {
    topo::GeneratorParams gp;
    gp.num_ases = 30;
    gp.num_tier1 = 4;  // guarantees the peering triangle PlantValley needs
    gp.seed = seed;
    Fixture f{topo::generate_topology(gp), {}};
    testbed::EmulationBuilder builder(f.g,
                                      std::vector<bool>(f.g.num_ases(), false));
    builder.attach_host(AsId(10));
    builder.attach_host(
        AsId(static_cast<std::uint32_t>(f.g.num_ases() - 1)));
    f.em = builder.finalize();
    std::vector<AsId> all;
    for (std::uint32_t i = 0; i < f.g.num_ases(); ++i) {
      all.push_back(AsId(i));
    }
    f.em.enable_mifo(all, dp::RouterConfig{});
    return f;
  }

  void start_flow(Bytes size = 500 * 1000, SimTime at = 0.0) {
    dp::FlowParams fp;
    fp.src = em.hosts[0].host;
    fp.dst = em.hosts[1].host;
    fp.size = size;
    fp.start = at;
    em.net->start_flow(fp);
  }
};

Plan parse_or_die(const std::string& text) {
  std::string error;
  auto plan = parse_plan(text, error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(Plan{});
}

TEST(ChaosEngineDeathTest, PlanNamingAnAsOutsideTheGraphIsAPrecondition) {
  Fixture f = Fixture::make(5);
  const Plan plan = parse_or_die("duration 0.2\nat 0.1 ibgp-drop 99999\n");
  Engine engine(f.em, f.g);
  EXPECT_DEATH((void)engine.run(plan), "Precondition");
}

TEST(ChaosEngine, LinkFlapStaysSafeAndFlowsComplete) {
  Fixture f = Fixture::make(5);
  f.start_flow(2 * kMegaByte);
  const AsId a = f.em.hosts[0].as;
  const AsId b = f.g.neighbors(a).front().as;
  const Plan plan = parse_or_die(
      "duration 0.6\n"
      "fail 0.1 mttr 0.15 link " +
      std::to_string(a.value()) + " " + std::to_string(b.value()) + "\n");

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  EXPECT_TRUE(report.safe);
  EXPECT_EQ(report.events_applied, 2u);
  EXPECT_EQ(report.violations.size(), 0u);
  EXPECT_GT(report.checks_run, 0u);
  EXPECT_EQ(report.checks_run, report.checks_clean);
  // The fail->recover pair resolved to a concrete recovery latency.
  ASSERT_EQ(report.log.size(), 2u);
  EXPECT_GE(report.log[0].recovery_latency, 0.0);

  f.em.net->run_to_completion(60.0);
  for (const auto& fl : f.em.net->flows()) EXPECT_TRUE(fl.done);
}

TEST(ChaosEngine, WithdrawReannounceRoundTripKeepsDelivery) {
  Fixture f = Fixture::make(6);
  const AsId owner = f.em.hosts[1].as;
  const Plan plan = parse_or_die(
      "duration 0.5\n"
      "fail 0.1 mttr 0.1 prefix " +
      std::to_string(owner.value()) + "\n");
  f.start_flow(kMegaByte);

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  EXPECT_TRUE(report.safe) << [&] {
    std::string all;
    for (const auto& v : report.violations) all += v.description + "\n";
    return all;
  }();
  EXPECT_EQ(report.events_applied, 2u);
  EXPECT_TRUE(report.log[0].applied);
  EXPECT_TRUE(report.log[1].applied);

  // Reachability is fully restored after the round trip.
  f.em.net->run_to_completion(60.0);
  EXPECT_TRUE(f.em.net->flows()[0].done);
  EXPECT_FALSE(engine.route_controller().withdrawn(owner));
}

TEST(ChaosEngine, FreezeRestartAndIbgpStalenessApply) {
  Fixture f = Fixture::make(8);
  const AsId frozen = f.em.hosts[0].as;
  const AsId stale = f.em.hosts[1].as;
  const Plan plan = parse_or_die(
      "duration 0.6\n"
      "fail 0.1 mttr 0.1 ibgp " + std::to_string(stale.value()) +
      "\n"
      "fail 0.3 mttr 0.1 router " +
      std::to_string(frozen.value()) + "\n");

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  EXPECT_TRUE(report.safe);
  EXPECT_EQ(report.events_applied, 4u);
  for (const auto& ae : report.log) {
    EXPECT_TRUE(ae.applied) << ae.event.to_string();
    EXPECT_TRUE(ae.clean_immediate) << ae.event.to_string();
    EXPECT_TRUE(ae.clean_reconverged) << ae.event.to_string();
  }
  // Daemons are live again after the restart.
  EXPECT_FALSE(f.em.daemons[frozen.value()]->frozen());
  EXPECT_FALSE(f.em.daemons[stale.value()]->stale());
}

TEST(ChaosEngine, BurstInjectsFlows) {
  Fixture f = Fixture::make(9);
  const std::size_t before = f.em.net->flows().size();
  Plan plan;
  plan.duration = 0.4;
  Event ev;
  ev.t = 0.1;
  ev.kind = EventKind::Burst;
  ev.a = f.em.hosts[0].as;
  ev.b = f.em.hosts[1].as;
  ev.value = 0.5;  // MB per flow
  ev.count = 3;
  plan.events.push_back(ev);

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  EXPECT_TRUE(report.safe);
  EXPECT_EQ(report.events_applied, 1u);
  EXPECT_EQ(f.em.net->flows().size(), before + 3);
  f.em.net->run_to_completion(60.0);
  for (const auto& fl : f.em.net->flows()) EXPECT_TRUE(fl.done);
}

TEST(ChaosEngine, PlantedValleyYieldsConcreteCounterexample) {
  Fixture f = Fixture::make(12);
  Plan plan;
  plan.duration = 0.3;
  Event ev;
  ev.t = 0.1;
  ev.kind = EventKind::PlantValley;
  plan.events.push_back(ev);

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  ASSERT_EQ(report.log.size(), 1u);
  ASSERT_TRUE(report.log[0].applied) << report.log[0].detail;
  EXPECT_FALSE(report.safe);
  EXPECT_LT(report.checks_clean, report.checks_run);
  ASSERT_FALSE(report.violations.empty());
  bool has_cycle = false;
  for (const auto& v : report.violations) {
    has_cycle = has_cycle || v.description.find("cycle") != std::string::npos;
    EXPECT_EQ(v.event_index, 0u);  // attributed to the planting event
  }
  EXPECT_TRUE(has_cycle) << "expected a concrete counterexample cycle";
}

TEST(ChaosEngine, ReportJsonIsDeterministic) {
  const auto run_once = [] {
    Fixture f = Fixture::make(21);
    f.start_flow(kMegaByte);
    GenParams gp;
    gp.seed = 21;
    gp.duration = 0.8;
    gp.rate = 6.0;
    gp.prefix_owners = {f.em.hosts[0].as, f.em.hosts[1].as};
    const Plan plan = generate_plan(f.g, gp);
    Engine engine(f.em, f.g);
    return engine.run(plan).to_json().dump(2);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mifo::chaos

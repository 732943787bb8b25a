// Chaos-plan tests: DSL parse/format round-trips, paired-failure and
// periodic expansion, malformed input, and the seeded generator's
// determinism and structural invariants (docs/CHAOS.md).

#include <gtest/gtest.h>

#include "chaos/plan.hpp"
#include "topo/generator.hpp"

namespace mifo::chaos {
namespace {

TEST(ChaosPlan, ParsesEveryDirectiveKind) {
  const std::string text =
      "# a scripted scenario\n"
      "duration 2.0\n"
      "at 0.1 link-down 1 2\n"
      "at 0.2 link-up 1 2\n"
      "at 0.3 degrade 3 4 0.25\n"
      "at 0.4 restore 3 4\n"
      "at 0.5 withdraw 5\n"
      "at 0.6 reannounce 5\n"
      "at 0.7 ibgp-drop 6\n"
      "at 0.8 ibgp-restore 6\n"
      "at 0.9 freeze 7\n"
      "at 1.0 restart 7\n"
      "at 1.1 burst 8 9 4 2.5\n"
      "at 1.2 plant-valley\n";
  std::string error;
  const auto plan = parse_plan(text, error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_DOUBLE_EQ(plan->duration, 2.0);
  ASSERT_EQ(plan->events.size(), 12u);
  EXPECT_EQ(plan->events.front().kind, EventKind::LinkDown);
  EXPECT_EQ(plan->events.back().kind, EventKind::PlantValley);
  const Event& burst = plan->events[10];
  EXPECT_EQ(burst.kind, EventKind::Burst);
  EXPECT_EQ(burst.a, AsId(8));
  EXPECT_EQ(burst.b, AsId(9));
  EXPECT_EQ(burst.count, 4u);
  EXPECT_DOUBLE_EQ(burst.value, 2.5);
}

TEST(ChaosPlan, FormatParseRoundTripIsIdentity) {
  const std::string text =
      "duration 1.5\n"
      "at 0.2 degrade 1 2 0.5\n"
      "at 0.4 withdraw 3\n"
      "at 0.6 burst 0 3 2 1.0\n"
      "at 0.9 restore 1 2\n";
  std::string error;
  const auto plan = parse_plan(text, error);
  ASSERT_TRUE(plan.has_value()) << error;
  const std::string once = format_plan(*plan);
  const auto reparsed = parse_plan(once, error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(format_plan(*reparsed), once);
  ASSERT_EQ(reparsed->events.size(), plan->events.size());
  for (std::size_t i = 0; i < plan->events.size(); ++i) {
    EXPECT_EQ(reparsed->events[i].kind, plan->events[i].kind) << i;
    EXPECT_DOUBLE_EQ(reparsed->events[i].t, plan->events[i].t) << i;
  }
}

TEST(ChaosPlan, FailDirectiveExpandsToPairedEvents) {
  std::string error;
  const auto plan = parse_plan(
      "duration 1\n"
      "fail 0.2 mttr 0.3 link 1 2\n"
      "fail 0.4 mttr 0.2 prefix 5\n"
      "fail 0.5 mttr 0.1 ibgp 6\n"
      "fail 0.6 mttr 0.1 router 7\n",
      error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 8u);
  // Sorted by time, each failure followed by its recovery at t + mttr.
  EXPECT_EQ(plan->events[0].kind, EventKind::LinkDown);
  EXPECT_DOUBLE_EQ(plan->events[0].t, 0.2);
  EXPECT_EQ(plan->events[1].kind, EventKind::Withdraw);
  const auto find = [&](EventKind k) -> const Event* {
    for (const auto& e : plan->events) {
      if (e.kind == k) return &e;
    }
    return nullptr;
  };
  ASSERT_NE(find(EventKind::LinkUp), nullptr);
  EXPECT_DOUBLE_EQ(find(EventKind::LinkUp)->t, 0.5);
  ASSERT_NE(find(EventKind::Reannounce), nullptr);
  EXPECT_DOUBLE_EQ(find(EventKind::Reannounce)->t, 0.6);
  ASSERT_NE(find(EventKind::IbgpRestore), nullptr);
  ASSERT_NE(find(EventKind::RouterRestart), nullptr);
  for (std::size_t i = 1; i < plan->events.size(); ++i) {
    EXPECT_LE(plan->events[i - 1].t, plan->events[i].t);
  }
}

TEST(ChaosPlan, EveryDirectiveExpandsUntilDuration) {
  std::string error;
  const auto plan = parse_plan(
      "duration 1\n"
      "every 0.1 0.2 ibgp-drop 3\n",
      error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_GE(plan->events.size(), 4u);
  SimTime prev = -1.0;
  for (const auto& e : plan->events) {
    EXPECT_EQ(e.kind, EventKind::IbgpDrop);
    EXPECT_EQ(e.a, AsId(3));
    EXPECT_GT(e.t, prev);
    EXPECT_LT(e.t, plan->duration);
    prev = e.t;
  }
  EXPECT_DOUBLE_EQ(plan->events.front().t, 0.1);
}

TEST(ChaosPlan, MalformedInputYieldsErrorNotPlan) {
  std::string error;
  EXPECT_FALSE(parse_plan("at 0.1 link-down 1\n", error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_plan("frobnicate 1 2\n", error).has_value());
  EXPECT_FALSE(parse_plan("at x link-down 1 2\n", error).has_value());
  EXPECT_FALSE(parse_plan("fail 0.1 mttr 0.1 teapot 1\n", error).has_value());
}

TEST(ChaosPlan, CheckRejectsEventsNamingAsesOutsideTheGraph) {
  topo::GeneratorParams gp;
  gp.num_ases = 20;
  gp.seed = 1;
  const topo::AsGraph g = topo::generate_topology(gp);
  std::string error;
  const auto every_kind = parse_plan(
      "at 0.1 link-down 0 19\nat 0.2 degrade 0 19 0.5\n"
      "at 0.3 ibgp-drop 19\nat 0.4 burst 0 19 2 1.0\nat 0.5 plant-valley\n",
      error);
  ASSERT_TRUE(every_kind.has_value()) << error;
  EXPECT_TRUE(check_plan(*every_kind, g, error)) << error;

  for (const char* line :
       {"at 0.1 link-down 0 99999\n", "at 0.1 degrade 0 99999 0.5\n",
        "at 0.1 ibgp-drop 99999\n", "at 0.1 restore 20 0\n",
        "at 0.1 withdraw 20\n", "at 0.1 freeze 4294967295\n",
        "at 0.1 burst 0 20 1 1.0\n", "fail 0.1 mttr 0.2 router 20\n"}) {
    SCOPED_TRACE(line);
    const auto plan = parse_plan(std::string("duration 1\n") + line, error);
    ASSERT_TRUE(plan.has_value()) << error;
    error.clear();
    EXPECT_FALSE(check_plan(*plan, g, error));
    EXPECT_NE(error.find("outside the topology's 20 ASes"), std::string::npos)
        << error;
  }
}

TEST(ChaosPlan, RecoveryKindPairing) {
  EXPECT_EQ(recovery_of(EventKind::LinkDown), EventKind::LinkUp);
  EXPECT_EQ(recovery_of(EventKind::Degrade), EventKind::Restore);
  EXPECT_EQ(recovery_of(EventKind::Withdraw), EventKind::Reannounce);
  EXPECT_EQ(recovery_of(EventKind::IbgpDrop), EventKind::IbgpRestore);
  EXPECT_EQ(recovery_of(EventKind::RouterFreeze), EventKind::RouterRestart);
  EXPECT_FALSE(recovery_of(EventKind::Burst).has_value());
  EXPECT_FALSE(recovery_of(EventKind::LinkUp).has_value());
  EXPECT_TRUE(is_recovery(EventKind::Reannounce));
  EXPECT_FALSE(is_recovery(EventKind::Withdraw));
}

TEST(ChaosPlan, NormalizeSortsStably) {
  Plan p;
  p.duration = 1.0;
  Event a;
  a.t = 0.5;
  a.kind = EventKind::IbgpDrop;
  Event b;
  b.t = 0.1;
  b.kind = EventKind::LinkDown;
  Event c;
  c.t = 0.5;
  c.kind = EventKind::Burst;
  p.events = {a, b, c};
  p.normalize();
  EXPECT_EQ(p.events[0].kind, EventKind::LinkDown);
  EXPECT_EQ(p.events[1].kind, EventKind::IbgpDrop);  // stable: a before c
  EXPECT_EQ(p.events[2].kind, EventKind::Burst);
}

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, DeterministicAndWellFormed) {
  topo::GeneratorParams tp;
  tp.num_ases = 30;
  tp.num_tier1 = 3;
  tp.seed = GetParam();
  const auto g = topo::generate_topology(tp);

  GenParams gp;
  gp.seed = GetParam();
  gp.duration = 2.0;
  gp.rate = 8.0;
  gp.prefix_owners = {AsId(0), AsId(5), AsId(20)};
  const Plan p1 = generate_plan(g, gp);
  const Plan p2 = generate_plan(g, gp);
  EXPECT_EQ(format_plan(p1), format_plan(p2));

  GenParams other = gp;
  other.seed = GetParam() + 1000;
  EXPECT_NE(format_plan(p1), format_plan(generate_plan(g, other)));

  // Structural invariants: sorted, inside the duration, every failure has
  // its recovery later in the plan, link subjects are real adjacencies.
  SimTime prev = 0.0;
  for (const auto& e : p1.events) {
    EXPECT_GE(e.t, prev);
    EXPECT_GE(e.t, 0.0);
    EXPECT_LT(e.t, p1.duration);
    prev = e.t;
    if (e.kind == EventKind::LinkDown || e.kind == EventKind::Degrade) {
      EXPECT_TRUE(g.adjacent(e.a, e.b))
          << e.a.value() << " " << e.b.value();
    }
    if (e.kind == EventKind::Withdraw) {
      bool owner = false;
      for (const AsId o : gp.prefix_owners) owner = owner || o == e.a;
      EXPECT_TRUE(owner);
    }
  }
  for (std::size_t i = 0; i < p1.events.size(); ++i) {
    const auto rec = recovery_of(p1.events[i].kind);
    if (!rec.has_value()) continue;
    bool paired = false;
    for (std::size_t j = i + 1; j < p1.events.size() && !paired; ++j) {
      paired = p1.events[j].kind == *rec &&
               p1.events[j].a == p1.events[i].a &&
               p1.events[j].b == p1.events[i].b;
    }
    EXPECT_TRUE(paired) << p1.events[i].to_string();
  }

  // The generated plan survives a DSL round-trip.
  std::string error;
  const auto reparsed = parse_plan(format_plan(p1), error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->events.size(), p1.events.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(1, 2, 3, 7, 11));

}  // namespace
}  // namespace mifo::chaos

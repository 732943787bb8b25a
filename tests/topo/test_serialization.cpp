#include "topo/serialization.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "topo/analysis.hpp"
#include "topo/generator.hpp"

namespace mifo::topo {
namespace {

AsGraph parse_ok(const std::string& text) {
  std::string error;
  std::optional<AsGraph> g = parse_string(text, error);
  EXPECT_TRUE(g.has_value()) << error;
  return g ? std::move(*g) : AsGraph();
}

TEST(Serialization, RoundTripSmallGraph) {
  AsGraph g(3);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_peering(AsId(1), AsId(2));
  g.info(AsId(0)).tier = 1;
  g.info(AsId(2)).content_provider = true;

  const AsGraph parsed = parse_ok(serialize_to_string(g));
  EXPECT_EQ(parsed.num_ases(), 3u);
  EXPECT_EQ(parsed.rel(AsId(0), AsId(1)), Rel::Customer);
  EXPECT_EQ(parsed.rel(AsId(1), AsId(0)), Rel::Provider);
  EXPECT_EQ(parsed.rel(AsId(1), AsId(2)), Rel::Peer);
  EXPECT_EQ(parsed.info(AsId(0)).tier, 1);
  EXPECT_TRUE(parsed.info(AsId(2)).content_provider);
}

TEST(Serialization, RoundTripGeneratedTopology) {
  GeneratorParams p;
  p.num_ases = 500;
  p.seed = 11;
  const AsGraph g = generate_topology(p);
  const AsGraph parsed = parse_ok(serialize_to_string(g));

  ASSERT_EQ(parsed.num_ases(), g.num_ases());
  EXPECT_EQ(parsed.num_adjacencies(), g.num_adjacencies());
  EXPECT_EQ(parsed.num_pc_adjacencies(), g.num_pc_adjacencies());
  EXPECT_EQ(parsed.num_peer_adjacencies(), g.num_peer_adjacencies());
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(i);
    ASSERT_EQ(parsed.degree(as), g.degree(as)) << "AS " << i;
    for (const auto& nb : g.neighbors(as)) {
      EXPECT_EQ(parsed.rel(as, nb.as), nb.rel);
    }
    EXPECT_EQ(parsed.info(as).tier, g.info(as).tier);
    EXPECT_EQ(parsed.info(as).content_provider, g.info(as).content_provider);
  }
}

TEST(Serialization, ParseIgnoresCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "0 1 p2c\n"
      "# another\n"
      "1 2 peer\n";
  const AsGraph g = parse_ok(text);
  EXPECT_EQ(g.num_ases(), 3u);
  EXPECT_EQ(g.rel(AsId(0), AsId(1)), Rel::Customer);
  EXPECT_EQ(g.rel(AsId(2), AsId(1)), Rel::Peer);
}

TEST(Serialization, ParseGrowsToLargestId) {
  const AsGraph g = parse_ok("0 9 peer\n");
  EXPECT_EQ(g.num_ases(), 10u);
}

TEST(Serialization, DeclaredNodeCountCreatesIsolatedAses) {
  const AsGraph g = parse_ok("# nodes 5\n0 1 p2c\n");
  EXPECT_EQ(g.num_ases(), 5u);
  EXPECT_EQ(g.degree(AsId(4)), 0u);
}

TEST(Serialization, MalformedLinesFailWithTheirLineNumber) {
  struct Case {
    const char* text;
    const char* error;
  };
  // Ids at or above kMaxParsedAses are rejected before the graph is sized
  // from them, so none of these cases allocates a large graph.
  const std::string cap = std::to_string(kMaxParsedAses);
  const std::string over_cap = cap + " 0 p2c\n";
  const std::string nodes_over_cap = "# nodes " + cap + "1\n";
  const Case cases[] = {
      {"0 0 p2c\n", "line 1: link: self-loop on AS 0"},
      {"0 1 bogus\n", "line 1: link: unknown kind 'bogus'"},
      {"# nodes 5\n0 1\n", "line 2: link: expected '<as_a> <as_b> p2c|peer'"},
      {"0\n", "line 1: link: expected an AS id"},
      {"x 1 p2c\n", "line 1: link: expected an AS id"},
      {"0 1 p2c\n4294967295 0 p2c\n",
       "line 2: link: AS id 4294967295 exceeds the limit"},
      {"0 -1 peer\n", "line 1: link: AS id"},
      {over_cap.c_str(), "line 1: link: AS id"},
      {"0 99999999999999999999 p2c\n", "line 1: link: expected an AS id"},
      {nodes_over_cap.c_str(), "line 1: # nodes: expected a count"},
      {"# nodes many\n", "line 1: # nodes: expected a count"},
      {"# tier 4294967295 1\n", "line 1: # tier: AS id"},
      {"# tier 2\n", "line 1: # tier: expected a tier"},
      {"# tier 2 7\n", "line 1: # tier: expected a tier"},
      {"# cp\n", "line 1: # cp: expected an AS id"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    std::string error;
    EXPECT_FALSE(parse_string(c.text, error).has_value());
    EXPECT_EQ(error.rfind(c.error, 0), 0u) << error;
  }
}

TEST(Serialization, ParseSkipsWhitespaceOnlyLines) {
  const AsGraph g = parse_ok("0 1 p2c\n   \n\t\n1 2 peer\n");
  EXPECT_EQ(g.num_ases(), 3u);
}

}  // namespace
}  // namespace mifo::topo

// RIB explorer: generate (or load) a topology, save it to the CAIDA-style
// text format, and inspect BGP routing state and MIFO's alternative paths
// for chosen AS pairs — the "zero overhead" path diversity of Section II-B.
//
//   ./examples/rib_explorer                       # generated topology
//   ./examples/rib_explorer topo.txt              # load from file
//   ./examples/rib_explorer topo.txt 17 3         # paths from AS17 to AS3

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "bgp/path_count.hpp"
#include "bgp/routing.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"
#include "topo/serialization.hpp"

using namespace mifo;

int main(int argc, char** argv) {
  topo::AsGraph g;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::string error;
    auto parsed = topo::parse(in, error);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
      return 1;
    }
    g = std::move(*parsed);
    std::printf("loaded %s: %s\n", argv[1],
                topo::attributes_report(topo::attributes(g)).c_str());
  } else {
    topo::GeneratorParams gp;
    gp.num_ases = 200;
    gp.seed = 7;
    g = topo::generate_topology(gp);
    std::ofstream out("mifo_topology.txt");
    topo::serialize(g, out);
    std::printf("generated %s and saved to mifo_topology.txt\n",
                topo::attributes_report(topo::attributes(g)).c_str());
  }

  const AsId src(argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2]))
                          : static_cast<std::uint32_t>(g.num_ases() - 1));
  const AsId dst(argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3]))
                          : 0);
  if (src.value() >= g.num_ases() || dst.value() >= g.num_ases()) {
    std::fprintf(stderr, "AS ids out of range (0..%zu)\n", g.num_ases() - 1);
    return 1;
  }

  const auto routes = bgp::compute_routes(g, dst);
  std::printf("\nBGP state towards AS%u:\n", dst.value());
  const auto path = bgp::as_path(g, routes, src);
  if (path.empty()) {
    std::printf("  AS%u cannot reach AS%u\n", src.value(), dst.value());
    return 0;
  }
  std::printf("  default path:");
  for (const AsId as : path) std::printf(" %u", as.value());
  std::printf("\n  RIB of AS%u (%s):\n", src.value(),
              "what each neighbor exports");
  for (const auto& r : bgp::rib_of(g, routes, src)) {
    std::printf("    via AS%-6u class=%-8s as-path-len=%u\n",
                r.next_hop.value(), bgp::to_string(r.cls), r.path_len);
  }

  const auto order = topo::pc_topological_order(g);
  const std::vector<bool> all(g.num_ases(), true);
  const auto counts =
      bgp::count_mifo_paths(g, bgp::RouteStore(g, routes), order, all);
  std::printf("  MIFO-realizable forwarding paths (full deployment): %.0f\n",
              counts.paths_from(src));
  return 0;
}

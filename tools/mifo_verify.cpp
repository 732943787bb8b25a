// mifo-verify — static forwarding-state verifier (docs/VERIFICATION.md).
//
// Builds a concrete deployment (generated or loaded topology -> border
// routers, BGP-derived FIBs, one daemon tick to program alt ports), then
// statically proves per-destination loop-freedom of the installed state and
// lints FIB/RIB consistency — no packets are run. Every run proves through
// the dirty-set engine: a cold pass, then any mutation, then a warm pass
// that re-proves only what the mutation dirtied, cross-checked against the
// from-scratch full provers.
//
//   mifo-verify --gen 300 --seed 11            # generated power-law topology
//   mifo-verify --topo mifo_topology.txt       # CAIDA-style text dump
//   mifo-verify --gen 120 --mutate-valley      # plant an Eq.3 violation;
//                                              # expects a reported cycle
//   mifo-verify --gen 120 --mutate-blackhole   # strand a prefix at a transit
//                                              # router; expects a blackhole
//
// Exit status: 0 = loop-free, valley-free and lint-clean, 1 = usage/input
// error, 2 = cycle / valley / blackhole found, lint issues, or an
// incremental-vs-full differential mismatch.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "dataplane/change_log.hpp"
#include "testbed/emulation.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"
#include "topo/serialization.hpp"
#include "verify/changeset.hpp"
#include "verify/deflection_graph.hpp"
#include "verify/incremental.hpp"
#include "verify/lint.hpp"

using namespace mifo;

namespace {

struct Options {
  std::string topo_file;
  std::size_t gen_ases = 200;
  std::uint64_t seed = 1;
  std::size_t dests = 8;
  bool expand_tier1 = false;
  bool mutate_valley = false;
  bool mutate_blackhole = false;
  bool blackhole = false;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--topo FILE | --gen N] [--seed S] [--dests K]\n"
      "          [--expand-tier1] [--blackhole]\n"
      "          [--mutate-valley] [--mutate-blackhole] [-q]\n"
      "  --topo FILE      load a CAIDA-style topology dump\n"
      "  --gen N          generate an N-AS power-law topology (default 200)\n"
      "  --seed S         generator seed (default 1)\n"
      "  --dests K        destination prefixes to verify (default 8)\n"
      "  --expand-tier1   per-adjacency border routers in tier-1 ASes\n"
      "  --blackhole      also run the reachability/blackhole analysis\n"
      "  --mutate-valley  plant an Eq.3-violating deflection ring and\n"
      "                   expect the verifier to report the cycle\n"
      "  --mutate-blackhole  strand one prefix at a transit router and\n"
      "                   expect the blackhole analysis to report it\n"
      "  -q               verdict only\n",
      argv0);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto take = [](const auto& parsed, auto& out) {
      if (parsed) out = *parsed;
      return parsed.has_value();
    };
    if (arg == "--topo") {
      const char* v = next();
      if (!v) return false;
      opt.topo_file = v;
    } else if (arg == "--gen") {
      const char* v = next();
      if (!v || !take(parse_u64(v), opt.gen_ases)) return false;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v || !take(parse_u64(v), opt.seed)) return false;
    } else if (arg == "--dests") {
      const char* v = next();
      if (!v || !take(parse_u64(v), opt.dests)) return false;
    } else if (arg == "--expand-tier1") {
      opt.expand_tier1 = true;
    } else if (arg == "--mutate-valley") {
      opt.mutate_valley = true;
    } else if (arg == "--mutate-blackhole") {
      opt.mutate_blackhole = true;
      opt.blackhole = true;
    } else if (arg == "--blackhole") {
      opt.blackhole = true;
    } else if (arg == "-q") {
      opt.quiet = true;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  return opt.gen_ases >= 4 && opt.dests >= 1;
}

/// Three mutually-peered ASes (a peering triangle) — the Fig. 2(a) shape
/// the --mutate-valley demo wires into a deflection ring.
std::vector<AsId> find_peering_triangle(const topo::AsGraph& g) {
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId a(static_cast<std::uint32_t>(i));
    const auto nbs = g.neighbors(a);
    for (std::size_t x = 0; x < nbs.size(); ++x) {
      if (nbs[x].rel != topo::Rel::Peer || !(a < nbs[x].as)) continue;
      for (std::size_t y = x + 1; y < nbs.size(); ++y) {
        if (nbs[y].rel != topo::Rel::Peer || !(a < nbs[y].as)) continue;
        if (g.rel(nbs[x].as, nbs[y].as) == topo::Rel::Peer) {
          return {a, nbs[x].as, nbs[y].as};
        }
      }
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(argv[0]);
    return 1;
  }

  topo::AsGraph g;
  if (!opt.topo_file.empty()) {
    std::ifstream in(opt.topo_file);
    if (!in) {
      std::fprintf(stderr, "mifo-verify: cannot open %s\n",
                   opt.topo_file.c_str());
      return 1;
    }
    std::string error;
    auto parsed = topo::parse(in, error);
    if (parsed && parsed->num_ases() < 2) {
      error = "verification needs at least 2 ASes";
      parsed.reset();
    }
    if (!parsed) {
      std::fprintf(stderr, "mifo-verify: %s: %s\n", opt.topo_file.c_str(),
                   error.c_str());
      return 1;
    }
    g = std::move(*parsed);
  } else {
    topo::GeneratorParams gp;
    gp.num_ases = opt.gen_ases;
    gp.seed = opt.seed;
    g = topo::generate_topology(gp);
  }
  if (!opt.quiet) {
    std::printf("topology: %s\n",
                topo::attributes_report(topo::attributes(g)).c_str());
  }

  // Destination prefixes: one host per chosen AS, spread across the id
  // space (deterministic; includes AS 0 and the last AS).
  const std::size_t n = g.num_ases();
  std::vector<bool> expand(n, false);
  if (opt.expand_tier1 && !opt.mutate_valley) {
    for (std::size_t i = 0; i < n; ++i) {
      expand[i] = g.info(AsId(static_cast<std::uint32_t>(i))).tier == 1;
    }
  }
  testbed::EmulationBuilder builder(g, expand);
  const std::size_t num_dests = std::min(opt.dests, n);
  for (std::size_t i = 0; i < num_dests; ++i) {
    const std::size_t as = i * (n - 1) / (num_dests > 1 ? num_dests - 1 : 1);
    builder.attach_host(AsId(static_cast<std::uint32_t>(as)));
  }
  auto em = builder.finalize();
  dp::Network& net = *em.net;

  // Full MIFO deployment: flag every router, then one daemon tick per AS to
  // program the alt ports exactly as a live system would.
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    net.router(RouterId(static_cast<std::uint32_t>(i)))
        .config()
        .mifo_enabled = true;
  }
  for (const auto& daemon : em.daemons) daemon->tick(net, 0.0);

  std::vector<std::pair<dp::Addr, AsId>> owners;
  owners.reserve(em.hosts.size());
  for (const auto& att : em.hosts) owners.emplace_back(att.addr, att.as);

  // Cold pass: prove everything through the dirty-set engine, then let the
  // mutation hooks record what changes; the warm pass below re-proves only
  // the dirtied destinations and must match the full provers exactly.
  dp::ChangeLog change_log;
  verify::ChangeSet changes;
  verify::IncrementalVerifier inc(verify::IncrementalConfig{
      .lint = true, .valley = true, .blackhole = opt.blackhole});
  net.attach_change_log(&change_log);
  const auto cold = inc.check(net, g, em.daemons, owners, changes);
  if (!opt.quiet) {
    std::printf("incremental: cold pass proved %zu destinations "
                "(%zu states explored)\n",
                cold.stats.dirty_destinations, cold.stats.states_explored);
  }

  if (opt.mutate_valley) {
    const std::vector<AsId> ring = find_peering_triangle(g);
    if (ring.size() != 3) {
      std::fprintf(stderr,
                   "mifo-verify: no peering triangle to mutate in this "
                   "topology\n");
      return 1;
    }
    // Point each ring AS's alt_port clockwise along the peering ring for
    // one destination prefix, and disable the Tag-Check on those routers —
    // the precise state Eq. 3 exists to forbid (Fig. 2(a)). The prefix must
    // be owned outside the ring, else local delivery terminates the walk.
    dp::Addr dst = dp::kInvalidAddr;
    for (const auto& att : em.hosts) {
      if (att.as != ring[0] && att.as != ring[1] && att.as != ring[2]) {
        dst = att.addr;
        break;
      }
    }
    if (dst == dp::kInvalidAddr) {
      std::fprintf(stderr, "mifo-verify: no prefix owned outside the ring\n");
      return 1;
    }
    for (int i = 0; i < 3; ++i) {
      const AsId as = ring[i];
      const AsId nxt = ring[(i + 1) % 3];
      const auto* eg = em.wirings[as.value()].egress_to(nxt);
      if (eg == nullptr || !net.router(eg->router).fib().contains(dst)) {
        std::fprintf(stderr, "mifo-verify: mutation target unreachable\n");
        return 1;
      }
      net.router(eg->router).fib().set_alt(dst, eg->port);
      net.router(eg->router).config().enforce_tag_check = false;
      // The config write bypasses the hooked mutators; record it by hand so
      // the warm pass re-proves the ring routers' destinations.
      change_log.note_config(eg->router);
    }
    if (!opt.quiet) {
      std::printf("mutated: Tag-Check disabled on peering ring AS%u-AS%u-"
                  "AS%u, alt ports wired clockwise for dst=%u\n",
                  ring[0].value(), ring[1].value(), ring[2].value(), dst);
    }
  }

  if (opt.mutate_blackhole) {
    // Strand one prefix: remove the FIB entry at a router some neighbor's
    // default path forwards through. Traffic entering upstream reaches a
    // router with no route — the exact no-route blackhole the reachability
    // analysis exists to catch.
    bool planted = false;
    for (const auto& att : em.hosts) {
      const dp::Addr dst = att.addr;
      for (std::size_t r = 0; r < net.num_routers() && !planted; ++r) {
        const dp::Router& router =
            net.router(RouterId(static_cast<std::uint32_t>(r)));
        const auto fe = router.fib().lookup(dst);
        if (!fe) continue;
        const dp::Port& def = router.port(fe->out_port);
        if (def.kind != dp::PortKind::Ebgp || !def.peer.is_router()) continue;
        const RouterId victim(def.peer.id);
        if (!net.router(victim).fib().contains(dst)) continue;
        net.router(victim).fib().remove(dst);
        planted = true;
        if (!opt.quiet) {
          std::printf("mutated: FIB entry for dst=%u removed at r%u (r%zu "
                      "still forwards to it)\n",
                      dst, victim.value(), r);
        }
      }
      if (planted) break;
    }
    if (!planted) {
      std::fprintf(stderr, "mifo-verify: no transit FIB entry to strand\n");
      return 1;
    }
  }

  std::size_t alt_routes = 0;
  for (const dp::Router& r : net.routers()) {
    alt_routes += r.fib().num_alt_routes();
  }

  // Warm pass: the verdicts come from here, and the untouched full provers
  // act as the oracle.
  changes.drain(change_log);
  const auto warm = inc.check(net, g, em.daemons, owners, changes);
  changes.clear();
  if (!opt.quiet) {
    std::printf("incremental: warm pass re-proved %zu/%zu destinations "
                "(%zu cache hits, %zu states explored)\n",
                warm.stats.dirty_destinations, warm.stats.destinations,
                warm.stats.cache_hits, warm.stats.states_explored);
  }
  const std::string diff = verify::first_difference(
      warm, verify::check_from_scratch(net, g, em.daemons, owners,
                                       inc.config()));
  const bool differential_ok = diff.empty();
  std::printf("differential: incremental verdicts %s the full provers%s%s\n",
              differential_ok ? "identical to" : "DIVERGED from",
              differential_ok ? "" : ": ", diff.c_str());

  auto issues = verify::lint_topology(g);
  issues.insert(issues.end(), warm.lint.begin(), warm.lint.end());

  if (!opt.quiet) {
    std::printf("deployment: %zu routers, %zu prefixes, %zu alt routes "
                "installed\n",
                net.num_routers(), warm.loop.stats.destinations, alt_routes);
    std::printf("deflection graph: %zu states, %zu edges explored\n",
                warm.loop.stats.states, warm.loop.stats.edges);
    for (const auto& issue : issues) {
      std::printf("lint: %s\n", issue.to_string().c_str());
    }
  }

  for (const auto& cycle : warm.loop.cycles) {
    std::printf("COUNTEREXAMPLE %s\n", cycle.to_string().c_str());
  }
  for (const auto& v : warm.valley.violations) {
    std::printf("COUNTEREXAMPLE valley %s\n", v.to_string().c_str());
  }
  for (const auto& b : warm.reach.blackholes) {
    std::printf("COUNTEREXAMPLE %s\n", b.to_string().c_str());
  }
  const bool clean = warm.loop.loop_free && warm.valley.valley_free &&
                     warm.reach.clean && issues.empty() && differential_ok;
  if (clean) {
    std::printf("verdict: LOOP-FREE (%zu destinations, lint clean)\n",
                warm.loop.stats.destinations);
    return 0;
  }
  const char* verdict = "LINT-DIRTY";
  if (!warm.loop.loop_free) {
    verdict = "CYCLE-FOUND";
  } else if (!warm.valley.valley_free) {
    verdict = "VALLEY-FOUND";
  } else if (!warm.reach.clean) {
    verdict = "BLACKHOLE-FOUND";
  } else if (!differential_ok) {
    verdict = "DIFFERENTIAL-MISMATCH";
  }
  std::printf("verdict: %s (%zu cycles, %zu valleys, %zu blackholes, "
              "%zu lint issues)\n",
              verdict, warm.loop.cycles.size(),
              warm.valley.violations.size(), warm.reach.blackholes.size(),
              issues.size());
  return 2;
}

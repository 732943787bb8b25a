#include "verify/lint.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <sstream>

#include "bgp/route_store.hpp"
#include "topo/analysis.hpp"
#include "verify/deflection_graph.hpp"

namespace mifo::verify {

const char* to_string(LintKind k) {
  switch (k) {
    case LintKind::AltEqualsDefault:
      return "alt-equals-default";
    case LintKind::AltMissingFromRib:
      return "alt-missing-from-rib";
    case LintKind::ExportViolation:
      return "export-violation";
    case LintKind::AsymmetricRelationship:
      return "asymmetric-relationship";
  }
  return "?";
}

std::string LintIssue::to_string() const {
  std::ostringstream os;
  os << "[" << verify::to_string(kind) << "]";
  if (as.valid()) os << " AS" << as.value();
  if (router.valid()) os << " r" << router.value();
  if (dst != dp::kInvalidAddr) os << " dst=" << dst;
  os << ": " << detail;
  return os.str();
}

std::vector<LintIssue> lint_topology(const topo::AsGraph& g) {
  std::vector<LintIssue> issues;
  for (const auto& asym : topo::relationship_asymmetries(g)) {
    LintIssue issue;
    issue.kind = LintKind::AsymmetricRelationship;
    issue.as = asym.a;
    std::ostringstream os;
    os << "AS" << asym.a.value() << " sees AS" << asym.b.value() << " as "
       << topo::to_string(asym.a_sees_b) << " but the reverse direction is "
       << (asym.b_sees_a ? topo::to_string(*asym.b_sees_a) : "missing");
    issue.detail = os.str();
    issues.push_back(std::move(issue));
  }
  return issues;
}

std::vector<LintIssue> lint_destination(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners, dp::Addr dst) {
  std::vector<LintIssue> issues;
  const auto own = std::find_if(
      prefix_owners.begin(), prefix_owners.end(),
      [dst](const auto& po) { return po.first == dst; });
  const AsId owner =
      own == prefix_owners.end() ? AsId::invalid() : own->second;
  // The converged routes towards the owner (the RIB ground truth the
  // daemons were fed), built on first use and shared by every AS.
  std::optional<bgp::RouteStore> routes;

  for (const auto& daemon : daemons) {
    if (!daemon) continue;
    const core::AsWiring& w = daemon->wiring();
    const auto prefixes = daemon->prefixes();
    const auto pr_it = std::find_if(
        prefixes.begin(), prefixes.end(),
        [dst](const core::PrefixRoutes& p) { return p.prefix == dst; });
    const core::PrefixRoutes* pr =
        pr_it == prefixes.end() ? nullptr : &*pr_it;

    // Gao–Rexford export-rule check of the daemon's advertised-route
    // knowledge: every claimed alternative must be a neighbor that would
    // genuinely export a route for the prefix.
    if (pr != nullptr && owner.valid() && owner != w.as) {
      if (!routes) routes.emplace(g, owner);
      for (const AsId alt : pr->alternatives) {
        if (alt == pr->default_neighbor) {
          LintIssue issue;
          issue.kind = LintKind::AltEqualsDefault;
          issue.as = w.as;
          issue.dst = dst;
          issue.detail = "RIB alternative duplicates the default neighbor AS" +
                         std::to_string(alt.value());
          issues.push_back(std::move(issue));
          continue;
        }
        if (!routes->rib_from(w.as, alt)) {
          LintIssue issue;
          issue.kind = LintKind::ExportViolation;
          issue.as = w.as;
          issue.dst = dst;
          issue.detail =
              "AS" + std::to_string(alt.value()) +
              " would not export a route for this prefix (Gao-Rexford)";
          issues.push_back(std::move(issue));
        }
      }
    }

    // Per-router FIB state against the daemon's RIB knowledge.
    for (const RouterId r : w.routers) {
      const dp::Router& router = net.router(r);
      const auto fe = router.fib().lookup(dst);
      if (!fe || !fe->alt_port.valid()) continue;
      if (fe->alt_port == fe->out_port) {
        LintIssue issue;
        issue.kind = LintKind::AltEqualsDefault;
        issue.as = w.as;
        issue.router = r;
        issue.dst = dst;
        issue.detail = "alt_port equals the default out_port";
        issues.push_back(std::move(issue));
        continue;
      }
      const dp::Port& alt = router.port(fe->alt_port);
      if (alt.kind != dp::PortKind::Ebgp) continue;
      const dp::Port& def = router.port(fe->out_port);
      if (def.kind == dp::PortKind::Ebgp &&
          def.neighbor_as == alt.neighbor_as) {
        LintIssue issue;
        issue.kind = LintKind::AltEqualsDefault;
        issue.as = w.as;
        issue.router = r;
        issue.dst = dst;
        issue.detail = "alt_port exits to the default's neighbor AS" +
                       std::to_string(alt.neighbor_as.value());
        issues.push_back(std::move(issue));
        continue;
      }
      const bool in_rib =
          pr != nullptr &&
          std::find(pr->alternatives.begin(), pr->alternatives.end(),
                    alt.neighbor_as) != pr->alternatives.end();
      if (!in_rib) {
        LintIssue issue;
        issue.kind = LintKind::AltMissingFromRib;
        issue.as = w.as;
        issue.router = r;
        issue.dst = dst;
        issue.detail = "alt_port exits to AS" +
                       std::to_string(alt.neighbor_as.value()) +
                       ", which is not a RIB alternative for this prefix";
        issues.push_back(std::move(issue));
      }
    }
  }
  return issues;
}

std::vector<LintIssue> lint_deployment(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners) {
  std::vector<LintIssue> issues;
  for (const dp::Addr dst : fib_destinations(net)) {
    auto one = lint_destination(net, g, daemons, prefix_owners, dst);
    issues.insert(issues.end(), std::make_move_iterator(one.begin()),
                  std::make_move_iterator(one.end()));
  }
  return issues;
}

}  // namespace mifo::verify

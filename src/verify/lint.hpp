// Static FIB/RIB consistency lints (the verifier's second half).
//
// The deflection-graph check proves loop-freedom; these lints catch the
// installed-state corruption that *erodes* MIFO's usefulness without
// necessarily looping: alternatives the RIB never advertised, alternatives
// that duplicate the default, daemon RIB knowledge that violates the
// Gao–Rexford export rule, and topologies whose two link directions
// disagree about the business relationship.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/daemon.hpp"
#include "dataplane/network.hpp"
#include "topo/as_graph.hpp"

namespace mifo::verify {

enum class LintKind : std::uint8_t {
  /// A FIB entry's alt_port equals its out_port (or exits to the same
  /// neighbor AS as the default) — a "spare" path with zero diversity.
  AltEqualsDefault,
  /// An eBGP alt_port exits towards an AS that is not among the RIB
  /// alternatives the daemon knows for that prefix.
  AltMissingFromRib,
  /// A daemon RIB alternative the Gao–Rexford export rule says the
  /// neighbor would never have advertised.
  ExportViolation,
  /// The two directions of an adjacency disagree about the relationship.
  AsymmetricRelationship,
};

[[nodiscard]] const char* to_string(LintKind k);

struct LintIssue {
  LintKind kind = LintKind::AltEqualsDefault;
  AsId as = AsId::invalid();
  RouterId router = RouterId::invalid();
  dp::Addr dst = dp::kInvalidAddr;
  std::string detail;
  [[nodiscard]] std::string to_string() const;
};

/// Pure-topology lints (relationship asymmetry).
[[nodiscard]] std::vector<LintIssue> lint_topology(const topo::AsGraph& g);

/// Deployment lints of one destination prefix over live router FIBs and
/// daemon RIB state: `Fib::lookup(dst)` on every router and the daemons'
/// knowledge of that prefix. `prefix_owners` maps each destination prefix
/// to the AS originating it (the testbed's host attachments); a prefix
/// absent from the map only gets the RIB-independent checks. `g` is the
/// graph the daemons' routes were computed on. Every deployment lint names
/// the destination it concerns, so the incremental verifier re-lints dirty
/// destinations with this function alone.
[[nodiscard]] std::vector<LintIssue> lint_destination(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners, dp::Addr dst);

/// Deployment lints of every destination: lint_destination over
/// fib_destinations(net) in ascending order, concatenated.
[[nodiscard]] std::vector<LintIssue> lint_deployment(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners);

}  // namespace mifo::verify

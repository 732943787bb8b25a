// Live BGP route churn for a running emulation.
//
// The testbed builder installs FIBs once, from a converged bgp::RouteStore
// per host prefix. Chaos needs the control plane to *move*: withdrawing an
// origin must tear the FIB entries (default and daemon-programmed alt) out
// of the data plane, a session going down must move every AS whose best
// route crossed it onto its next-best neighbor, and the reverse events must
// put the routes back.
//
// RouteController keeps one routing truth: a bgp::DeltaRoutingTable over the
// prefix-owning destinations (DESIGN.md §5.1b). Every withdraw / reannounce
// / session event goes through DeltaRoutingTable::apply, and each
// destination in the event's touched set is reprogrammed from its published
// segment by testbed::program_prefix — the same function the builder's
// install pass runs, so the FIB defaults and the daemons' PrefixRoutes are
// always the routes the delta table holds. A withdrawn prefix's all-invalid
// segment evicts it everywhere but at its owner. The from-scratch rebuild
// (DeltaRoutingTable::rebuild_full) stays the differential oracle, and
// per-event DeltaStats feed the chaos engine's recovery spans.
#pragma once

#include <memory>

#include "bgp/delta.hpp"
#include "testbed/emulation.hpp"
#include "topo/as_graph.hpp"

namespace mifo::chaos {

class RouteController {
 public:
  /// Tracks every prefix-owning AS of `em`, whose FIBs the builder already
  /// programmed from the same converged routes. `em` and `g` (the graph
  /// `em` was built from) must outlive the controller.
  RouteController(testbed::Emulation& em, const topo::AsGraph& g);

  /// Withdraws all prefixes originated by `owner`: evicts the FIB entries
  /// (default route and any alt riding on it) from every other AS's routers
  /// and drops the prefix from their daemons. Returns false when `owner`
  /// owns no prefix or is already withdrawn.
  bool withdraw(AsId owner);

  /// Re-announces `owner`'s prefixes and reinstalls FIB entries and daemon
  /// PrefixRoutes from the recomputed routes (over any session still down).
  /// Returns false when `owner` owns no prefix or is not currently
  /// withdrawn.
  bool reannounce(AsId owner);

  [[nodiscard]] bool withdrawn(AsId owner) const {
    return delta_->withdrawn(owner);
  }
  /// BGP messages exchanged by live route control. Route control runs no
  /// message-level BGP speaker, so this is always 0; it stays for the
  /// benchmark's message-count column.
  [[nodiscard]] std::size_t messages_processed() const { return 0; }

  /// Marks the eBGP session `a`–`b` down (up) and reprograms every
  /// destination whose routes the event changed: only the destinations
  /// whose best tree the edge carries are recomputed, RIB-row-only changes
  /// are view-patched. The packet plane's port state is the chaos engine's
  /// business. Returns false when the event is a no-op (not adjacent,
  /// already in that state).
  bool session_down(AsId a, AsId b);
  bool session_up(AsId a, AsId b);

  /// The delta-maintained per-destination route segments (DESIGN.md §5.1b).
  [[nodiscard]] const bgp::DeltaRoutingTable& delta() const { return *delta_; }
  [[nodiscard]] bgp::DeltaRoutingTable& delta() { return *delta_; }

  /// Stats of the most recent applied delta event, and running totals.
  [[nodiscard]] const bgp::DeltaStats& last_delta_stats() const {
    return last_delta_;
  }
  [[nodiscard]] std::size_t delta_events() const { return delta_events_; }
  [[nodiscard]] std::size_t delta_recomputed() const {
    return delta_recomputed_;
  }
  [[nodiscard]] std::size_t delta_patched() const { return delta_patched_; }
  [[nodiscard]] std::size_t delta_unchanged() const {
    return delta_unchanged_;
  }

 private:
  /// Applies `ev` to the delta table and reprograms its touched
  /// destinations; returns whether the event was applied.
  bool apply(const bgp::RouteEvent& ev);
  void reprogram(AsId dest);

  testbed::Emulation* em_;
  const topo::AsGraph* g_;
  std::unique_ptr<bgp::DeltaRoutingTable> delta_;
  bgp::DeltaStats last_delta_;
  std::size_t delta_events_ = 0;
  std::size_t delta_recomputed_ = 0;
  std::size_t delta_patched_ = 0;
  std::size_t delta_unchanged_ = 0;
};

}  // namespace mifo::chaos

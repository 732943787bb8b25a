// The MIFO daemon (paper Section V, Fig. 10).
//
// One daemon instance runs per AS. On every tick it
//   1. samples the spare capacity of the AS's inter-AS links (LinkMonitor —
//    the XORP module's "constantly collects available link capacity"),
//   2. elects, per destination prefix, the alternative next-hop AS with the
//      most spare capacity (the greedy selection of Section III-C),
//   3. programs the `alt_port` of every router FIB in the AS so the
//      forwarding engine can deflect at line speed, and
//   4. runs the routers' flow re-evaluation (hysteresis back to defaults).
#pragma once

#include <span>
#include <vector>

#include "core/link_monitor.hpp"
#include "dataplane/network.hpp"
#include "topo/relationship.hpp"

namespace mifo::core {

/// Static wiring of one AS in the packet plane, produced by the network
/// builder: its routers, its external attachments, and the intra-AS mesh.
struct AsWiring {
  AsId as;
  std::vector<RouterId> routers;

  struct Egress {
    AsId neighbor;       ///< external AS
    RouterId router;     ///< our border router facing it
    PortId port;         ///< the eBGP port on that router
    topo::Rel rel;       ///< what the neighbor is to this AS
  };
  std::vector<Egress> egresses;

  struct IntraPort {
    RouterId from;
    RouterId to;
    PortId port;  ///< port on `from` towards `to`
  };
  std::vector<IntraPort> intra;

  [[nodiscard]] const Egress* egress_to(AsId neighbor) const;
  [[nodiscard]] PortId intra_port(RouterId from, RouterId to) const;
};

/// One prefix's AS-level routing knowledge inside this AS (from the BGP
/// RIB): the default next-hop AS plus the alternative neighbors that export
/// a route for it.
struct PrefixRoutes {
  dp::Addr prefix = dp::kInvalidAddr;
  AsId default_neighbor = AsId::invalid();  ///< invalid => local delivery
  std::vector<AsId> alternatives;           ///< RIB neighbors != default

  bool operator==(const PrefixRoutes&) const = default;
};

class MifoDaemon {
 public:
  MifoDaemon(AsWiring wiring, std::vector<PrefixRoutes> prefixes)
      : wiring_(std::move(wiring)), prefixes_(std::move(prefixes)) {}

  /// Periodic daemon work; wire into Network::add_periodic.
  void tick(dp::Network& net, SimTime now);

  /// The alternative neighbor currently elected for a prefix (invalid when
  /// none programmed). Exposed for tests and examples.
  [[nodiscard]] AsId elected_alt(dp::Addr prefix) const;

  [[nodiscard]] const AsWiring& wiring() const { return wiring_; }

  /// Read-only view of the per-prefix RIB knowledge this daemon programs
  /// alt ports from — the verifier's FIB/RIB consistency lints read this.
  [[nodiscard]] std::span<const PrefixRoutes> prefixes() const {
    return prefixes_;
  }

  // --- churn hooks (chaos engine / route controller) -------------------------
  /// Replace (or add) the RIB knowledge for one prefix, e.g. after a BGP
  /// re-announcement changed the default or the alternative set. Any alt
  /// programmed from the old knowledge is cleared; the next tick re-elects.
  /// Knowledge equal to what the daemon already holds changes nothing: the
  /// elected alt stays and no ChangeLog record is written.
  void update_prefix(dp::Network& net, PrefixRoutes pr);

  /// Drop all knowledge of a withdrawn prefix and clear the alt ports it had
  /// programmed (the FIB default eviction is the route controller's job).
  void remove_prefix(dp::Network& net, dp::Addr prefix);

  /// A frozen daemon skips its ticks entirely (router/XORP process crash);
  /// forwarding continues on whatever state was last programmed.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// With the iBGP session dropped, border routers stop exchanging fresh
  /// spare-capacity measurements: elections keep running on the last adverts
  /// received before the drop (stale state, the paper's failure mode).
  void set_stale(bool stale) { stale_ = stale; }
  [[nodiscard]] bool stale() const { return stale_; }

 private:
  void program_alt(dp::Network& net, const PrefixRoutes& pr, AsId choice);
  void clear_alt(dp::Network& net, dp::Addr prefix);

  AsWiring wiring_;
  std::vector<PrefixRoutes> prefixes_;
  LinkMonitor monitor_;
  std::vector<std::pair<dp::Addr, AsId>> elected_;
  bool frozen_ = false;
  bool stale_ = false;
};

}  // namespace mifo::core

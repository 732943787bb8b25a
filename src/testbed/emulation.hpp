// Builds a runnable packet-level network from an AS graph: border routers
// per the IbgpPlan, eBGP links, full-mesh iBGP links, host attachments,
// BGP-derived FIBs, and one MIFO daemon per AS.
//
// This is the substitute for the paper's 15-machine testbed: every
// "machine" becomes a dp::Router (kernel forwarding engine) and the daemons
// play the XORP MIFO module. One emulation type and one builder serve both
// packet engines — the serial dp::Network (the oracle) and the sharded
// dp::ShardedNetwork (DESIGN.md §6) — so the two are wired, programmed and
// MIFO-enabled by the same code; the caller picks the engine through the
// finalize() overload it calls.
#pragma once

#include <memory>
#include <vector>

#include "bgp/ibgp.hpp"
#include "core/daemon.hpp"
#include "dataplane/network.hpp"
#include "dataplane/shard.hpp"
#include "topo/as_graph.hpp"

namespace mifo::testbed {

struct BuildParams {
  Mbps ebgp_rate = kGigabit;  ///< paper: Gigabit Ethernet everywhere
  SimTime ebgp_delay = 50e-6;
  Mbps ibgp_rate = kGigabit;
  SimTime ibgp_delay = 20e-6;
  Mbps host_rate = kGigabit;  ///< paper: all machines on Gigabit Ethernet
  SimTime host_delay = 20e-6;
};

struct HostAttachment {
  HostId host;
  AsId as;
  RouterId router;
  dp::Addr addr = dp::kInvalidAddr;
};

/// The finished emulation on packet engine `NetT` (dp::Network or
/// dp::ShardedNetwork). Movable: the registered daemon ticks point at the
/// heap-owned daemons, which a move leaves in place.
template <typename NetT>
struct BasicEmulation {
  std::unique_ptr<NetT> net;
  std::unique_ptr<bgp::IbgpPlan> plan;
  std::vector<HostAttachment> hosts;
  std::vector<core::AsWiring> wirings;                     // indexed by AS id
  std::vector<std::unique_ptr<core::MifoDaemon>> daemons;  // indexed by AS id

  /// Turns MIFO on for the given ASes: flags every router, registers the
  /// AS's daemon tick. On the sharded engine the tick runs on the shard
  /// that owns the AS, where its routers' monitor state lives — no
  /// cross-shard reads. Call once, before running.
  void enable_mifo(const std::vector<AsId>& ases,
                   const dp::RouterConfig& base_config,
                   SimTime daemon_interval = 0.01);

  [[nodiscard]] const HostAttachment& attachment(HostId h) const;
};

using Emulation = BasicEmulation<dp::Network>;
using ShardedEmulation = BasicEmulation<dp::ShardedNetwork>;

class EmulationBuilder {
 public:
  /// `expand[i]` = build one border router per adjacency of AS i (otherwise
  /// the AS collapses to a single router).
  EmulationBuilder(const topo::AsGraph& g, std::vector<bool> expand,
                   BuildParams params = {});

  /// Attach a host to the AS (to its first router). Must precede finalize.
  HostId attach_host(AsId as);

  /// Wires everything and computes/programs the FIBs on the serial engine.
  /// Call one finalize, once.
  [[nodiscard]] Emulation finalize();
  /// The same deployment on `num_shards` forwarding workers.
  [[nodiscard]] ShardedEmulation finalize(std::size_t num_shards,
                                          dp::ShardConfig cfg = {});

 private:
  template <typename NetT>
  [[nodiscard]] BasicEmulation<NetT> build(std::unique_ptr<NetT> net);

  const topo::AsGraph& g_;
  std::vector<bool> expand_;
  BuildParams params_;
  std::vector<AsId> pending_hosts_;
};

}  // namespace mifo::testbed

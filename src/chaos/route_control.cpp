#include "chaos/route_control.hpp"

#include <optional>
#include <vector>

#include "testbed/wiring.hpp"

namespace mifo::chaos {

namespace {

std::vector<AsId> host_ases(const testbed::Emulation& em) {
  std::vector<AsId> dests;
  for (const auto& att : em.hosts) dests.push_back(att.as);
  return dests;
}

}  // namespace

RouteController::RouteController(testbed::Emulation& em,
                                 const topo::AsGraph& g)
    : em_(&em),
      g_(&g),
      delta_(std::make_unique<bgp::DeltaRoutingTable>(g, host_ases(em))) {}

bool RouteController::apply(const bgp::RouteEvent& ev) {
  last_delta_ = delta_->apply(ev);
  if (!last_delta_.applied) return false;
  ++delta_events_;
  delta_recomputed_ += last_delta_.recomputed;
  delta_patched_ += last_delta_.patched;
  delta_unchanged_ += last_delta_.unchanged;
  for (const AsId dest : last_delta_.touched_dests) reprogram(dest);
  return true;
}

void RouteController::reprogram(AsId dest) {
  dp::Network& net = *em_->net;
  const auto seg = delta_->segment(dest);
  for (const auto& att : em_->hosts) {
    if (att.as != dest) continue;
    testbed::program_prefix(
        net, *g_, em_->wirings, att, seg->store,
        [&](AsId as, std::optional<core::PrefixRoutes> pr) {
          core::MifoDaemon& daemon = *em_->daemons[as.value()];
          if (pr) {
            daemon.update_prefix(net, std::move(*pr));
          } else {
            daemon.remove_prefix(net, att.addr);
          }
        });
  }
}

bool RouteController::withdraw(AsId owner) {
  return apply(bgp::RouteEvent::withdraw(owner));
}

bool RouteController::reannounce(AsId owner) {
  return apply(bgp::RouteEvent::reannounce(owner));
}

bool RouteController::session_down(AsId a, AsId b) {
  return apply(bgp::RouteEvent::session_down(a, b));
}

bool RouteController::session_up(AsId a, AsId b) {
  return apply(bgp::RouteEvent::session_up(a, b));
}

}  // namespace mifo::chaos

// Packet-accounting invariants on the Fig. 11 emulation: after any
// dp::Network run, the engine-level counters must be mutually consistent
// (forwarded >= deflected >= encapsulated) and every host-injected packet
// must be accounted for exactly once — delivered, mis-delivered, stale, or
// in one drop bucket — with nothing silently lost in a queue.

#include <gtest/gtest.h>

#include <cstdint>

#include "dataplane/network.hpp"
#include "obs/registry.hpp"
#include "testbed/fig11.hpp"

namespace mifo::testbed {
namespace {

/// Builds the Fig. 11 emulation with hosts at AS1/AS2 (sources) and two at
/// AS5 (sinks), streams `flows_per_pair` concurrent flows through the
/// shared AS3->AS4 bottleneck, and drains the network.
struct RunResult {
  Emulation em;
  std::uint64_t drop_sum = 0;
};

RunResult run_fig11_workload(bool mifo, std::size_t flows_per_pair = 4,
                             Bytes flow_size = 2 * kMegaByte) {
  const auto g = fig11_graph();
  const Fig11Ids ids;
  RunResult r{fig11_builder(g).finalize(), 0};
  dp::Network& net = *r.em.net;
  const HostId s1 = r.em.hosts[0].host;
  const HostId s2 = r.em.hosts[1].host;
  const HostId d1 = r.em.hosts[2].host;
  const HostId d2 = r.em.hosts[3].host;

  if (mifo) r.em.enable_mifo({ids.as3}, dp::RouterConfig{});

  // All flows start at t=0: both pairs contend for AS3->AS4 at once, which
  // is what makes MIFO deflect (and encapsulate towards its iBGP peer).
  for (std::size_t i = 0; i < flows_per_pair; ++i) {
    for (const auto& [src, dst] : {std::pair{s1, d1}, std::pair{s2, d2}}) {
      dp::FlowParams fp;
      fp.src = src;
      fp.dst = dst;
      fp.size = flow_size;
      fp.start = 0.0;
      net.start_flow(fp);
    }
  }
  net.run_to_completion(600.0);

  for (const auto& [reason, count] : net.drop_breakdown()) {
    (void)reason;
    r.drop_sum += count;
  }
  return r;
}

void expect_invariants(const dp::Network& net, std::uint64_t drop_sum) {
  const dp::RouterCounters c = net.total_counters();
  // Every deflection is also a forward; every encapsulation is a
  // deflection to an iBGP peer.
  EXPECT_GE(c.forwarded, c.deflected);
  EXPECT_GE(c.deflected, c.encapsulated);
  // The run drained: nothing parked in a router or host queue.
  EXPECT_EQ(net.queued_pkts(), 0u);
  // Conservation: drop_breakdown() covers every terminal fate except
  // clean delivery (it includes misdelivered and stale_flow buckets).
  EXPECT_EQ(net.injected_pkts(), net.delivered_pkts() + drop_sum);
  EXPECT_EQ(net.misdelivered_pkts(), 0u);
  EXPECT_EQ(net.stale_flow_pkts(), 0u);
}

TEST(CountersConsistency, BgpRunAccountsForEveryPacket) {
  const RunResult r = run_fig11_workload(/*mifo=*/false);
  const dp::Network& net = *r.em.net;
  expect_invariants(net, r.drop_sum);
  // Plain BGP never touches the MIFO machinery.
  const dp::RouterCounters c = net.total_counters();
  EXPECT_EQ(c.deflected, 0u);
  EXPECT_EQ(c.encapsulated, 0u);
  EXPECT_GT(net.injected_pkts(), 0u);
  EXPECT_GT(net.delivered_pkts(), 0u);
  for (const auto& f : net.flows()) EXPECT_TRUE(f.done);
}

TEST(CountersConsistency, MifoRunAccountsForEveryPacket) {
  const RunResult r = run_fig11_workload(/*mifo=*/true);
  const dp::Network& net = *r.em.net;
  expect_invariants(net, r.drop_sum);
  // The bottleneck actually triggered Algorithm 1: deflections happened,
  // and Rd's alternative lives behind an iBGP peer, so encap happened too.
  const dp::RouterCounters c = net.total_counters();
  EXPECT_GT(c.deflected, 0u);
  EXPECT_GT(c.encapsulated, 0u);
  for (const auto& f : net.flows()) EXPECT_TRUE(f.done);
}

TEST(CountersConsistency, PublishMetricsMirrorsRawCounters) {
  const RunResult r = run_fig11_workload(/*mifo=*/true);
  const dp::Network& net = *r.em.net;

  obs::Registry reg;
  net.publish_metrics(reg, "run=fig11");
  const obs::Snapshot snap = reg.snapshot();

  const dp::RouterCounters c = net.total_counters();
  const auto value = [&](const std::string& name,
                         const std::string& labels = "run=fig11") {
    return snap.value_or(name, -1.0, labels);
  };
  EXPECT_EQ(value("dp.forwarded"), static_cast<double>(c.forwarded));
  EXPECT_EQ(value("dp.deflected"), static_cast<double>(c.deflected));
  EXPECT_EQ(value("dp.encapsulated"), static_cast<double>(c.encapsulated));
  EXPECT_EQ(value("dp.injected"), static_cast<double>(net.injected_pkts()));
  EXPECT_EQ(value("dp.delivered"), static_cast<double>(net.delivered_pkts()));
  double drop_metric_sum = 0.0;
  for (const auto& [reason, count] : net.drop_breakdown()) {
    const double v = value("dp.drops", "run=fig11,reason=" + reason);
    EXPECT_EQ(v, static_cast<double>(count)) << reason;
    drop_metric_sum += v;
  }
  // The exported drops reproduce the conservation identity verbatim.
  EXPECT_EQ(value("dp.injected"), value("dp.delivered") + drop_metric_sum);
}

}  // namespace
}  // namespace mifo::testbed

// Event-driven flow-level (fluid) simulator for the AS topology.
//
// Replaces the paper's NS-3 runs for the Figs. 5/6/8/9 experiments: flows
// arrive by a Poisson process, rates follow max–min fair sharing of the
// 1 Gbps inter-AS links, and the routing policy (BGP / MIRO / MIFO) decides
// each flow's AS-level path at admission and on periodic re-evaluation
// ticks (the MIFO daemon period). Path switches and alternative-path usage
// are recorded per flow for the load-balancing and stability figures.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/route_store.hpp"
#include "core/walk.hpp"
#include "miro/miro.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "sim/maxmin.hpp"
#include "topo/as_graph.hpp"
#include "traffic/spec.hpp"
#include "traffic/workload.hpp"

namespace mifo::sim {

enum class RoutingMode : std::uint8_t { Bgp, Miro, Mifo };

[[nodiscard]] constexpr const char* to_string(RoutingMode m) {
  switch (m) {
    case RoutingMode::Bgp:
      return "BGP";
    case RoutingMode::Miro:
      return "MIRO";
    case RoutingMode::Mifo:
      return "MIFO";
  }
  return "?";
}

struct SimConfig {
  RoutingMode mode = RoutingMode::Bgp;
  Mbps link_capacity = kGigabit;  ///< paper: all links 1 Gbps
  /// Utilization of the default egress at which MIFO deflects.
  double congest_threshold = 0.7;
  /// Greedy-selection knobs (see core::WalkConfig; swept by ablation A3).
  double spare_margin = 0.2;
  std::uint16_t max_extra_hops = 1;
  core::AltSelection alt_selection = core::AltSelection::LocalGreedy;
  /// Default-path utilization under which a deflected flow resumes it.
  double low_watermark = 0.5;
  /// Path re-evaluation period (the daemon tick).
  SimTime reeval_interval = 0.1;
  /// Per-flow ceiling (access-link speed); the paper's flows cannot exceed
  /// one link's capacity.
  Mbps flow_rate_cap = kGigabit;
  /// Workers for the pre-run route-cache warmup; 0 defers to MIFO_THREADS /
  /// hardware_concurrency. Results are bit-identical at any setting (route
  /// computation is pure per destination; only cache fill order varies).
  std::size_t threads = 0;
  miro::MiroConfig miro{};
};

struct FlowRecord {
  traffic::FlowSpec spec;
  SimTime finish = -1.0;
  bool completed = false;
  bool unreachable = false;
  std::uint32_t path_switches = 0;
  /// Whether the flow was ever carried over a non-default path.
  bool used_alternative = false;

  [[nodiscard]] Mbps throughput() const {
    const SimTime d = finish - spec.arrival;
    return (completed && d > 0.0) ? to_megabits(spec.size) / d : 0.0;
  }
};

/// Knobs for the open-loop streaming event loop (run_stream).
struct StreamConfig {
  /// Goodput-epoch length for the per-epoch LoadSeries.
  SimTime epoch = 0.5;
  /// Run the from-scratch oracle after EVERY solver event and assert
  /// bitwise-identical rates (the differential acceptance gate; makes each
  /// event O(active flows)).
  bool differential = false;
  /// Record the wall-clock latency of every incremental re-solve into
  /// StreamResult::solve_seconds (nondeterministic timing data — keep it
  /// out of byte-compared artifact sections).
  bool measure_solve_latency = false;
  /// Hard stop: flows still active at this sim time are left incomplete
  /// and the result is marked truncated. 0 = run until the stream drains.
  SimTime max_time = 0.0;
};

/// Outcome of one open-loop streaming run.
struct StreamResult {
  std::vector<FlowRecord> records;    ///< one per generated flow
  obs::LoadSeries load;               ///< per-epoch goodput series
  IncrementalMaxMin::Stats solver;    ///< incremental-solver work counters
  std::uint64_t peak_active = 0;      ///< max concurrent flows observed
  SimTime duration = 0.0;             ///< sim time the stream ran
  bool truncated = false;             ///< hit StreamConfig::max_time
  /// Per-event incremental re-solve wall times (only when
  /// StreamConfig::measure_solve_latency; excludes differential checking).
  std::vector<double> solve_seconds;
};

class FluidSim {
 public:
  FluidSim(const topo::AsGraph& g, SimConfig cfg);

  /// MIFO/MIRO capability mask (defaults to all-false, i.e. plain BGP).
  void set_deployment(std::vector<bool> deployed);

  /// Runs the whole trace to completion and returns one record per flow.
  [[nodiscard]] std::vector<FlowRecord> run(
      std::vector<traffic::FlowSpec> specs);

  /// Open-loop streaming run: pulls arrivals from the workload engine one
  /// event at a time (millions of flows never materialize as a vector) and
  /// re-solves rates incrementally per arrival/departure via
  /// IncrementalMaxMin — the companion to run(), whose per-event
  /// from-scratch solve is retained as the differential oracle.
  [[nodiscard]] StreamResult run_stream(traffic::WorkloadEngine& workload,
                                        const StreamConfig& sc);
  /// Same event loop over a pre-generated trace (tests / replays).
  [[nodiscard]] StreamResult run_stream(std::vector<traffic::FlowSpec> specs,
                                        const StreamConfig& sc);

  /// Schedule a capacity change on one directed link: at time `t` its
  /// capacity becomes `factor * SimConfig::link_capacity`. The factor is
  /// clamped to [1e-3, 10] — a "down" link keeps a sliver of capacity so
  /// utilization stays finite and flows pinned to it crawl rather than
  /// divide by zero. Call before run(); run() applies events in time order
  /// and resets all capacities to link_capacity at its start.
  void schedule_capacity_event(SimTime t, LinkId link, double factor);

  /// Converged routes towards `dest` (cached CSR store; exposed for tests).
  [[nodiscard]] const bgp::RouteStore& routes_for(AsId dest);

  // --- observability ---------------------------------------------------------
  /// Attach a metrics registry; solver counters (sim.arrivals, sim.ticks,
  /// sim.solver_runs, …) accumulate into a private shard tagged with
  /// `labels` (e.g. "mode=MIFO,ratio=0.5"). The registry must outlive the
  /// sim; snapshot after run(), not concurrently.
  void attach_registry(obs::Registry& reg, const std::string& labels);

  /// Periodically record aggregate link-utilization samples during run()
  /// (mean/max utilization over loaded links, congested fraction, total
  /// spare, active flow count). 0 disables (the default).
  void enable_sampling(SimTime interval) { sample_interval_ = interval; }
  [[nodiscard]] const obs::UtilSeries& samples() const { return samples_; }

 private:
  /// Computes (in parallel, across SimConfig::threads workers) the route
  /// trees of every uncached destination appearing in `specs`, so the event
  /// loop never stalls on a cache miss. The lazy serial path in routes_for
  /// remains the fallback; warmed results are byte-for-byte what it would
  /// have produced.
  void warm_route_cache(std::span<const traffic::FlowSpec> specs);
  struct ActiveFlow {
    std::uint32_t record = 0;           ///< index into records
    std::uint32_t dest_as = 0;
    std::vector<std::uint32_t> links;   ///< current path (directed links)
    std::vector<std::uint32_t> deflt;   ///< default-path links
    double remaining_mb = 0.0;          ///< megabits left
    double rate = 0.0;
    bool deflected = false;
  };

  [[nodiscard]] double utilization(std::uint32_t link) const;
  [[nodiscard]] core::WalkResult route_flow(AsId src, AsId dest);
  /// Shared streaming event loop behind both run_stream overloads:
  /// `source` yields arrivals in nondecreasing time order, `offered` (may
  /// be null) reports the analytic offered load for the epoch series.
  [[nodiscard]] StreamResult run_stream_impl(
      const std::function<bool(traffic::FlowSpec&)>& source,
      const std::function<double(SimTime)>& offered, const StreamConfig& sc);
  void warm_route_cache_dests(std::vector<std::uint32_t> dests);
  void recompute_rates();
  void reevaluate_paths(std::vector<FlowRecord>& records);
  void take_sample(SimTime t);

  struct CapacityEvent {
    SimTime t = 0.0;
    std::uint32_t link = 0;
    double factor = 1.0;
  };

  const topo::AsGraph& g_;
  SimConfig cfg_;
  std::vector<bool> deployed_;
  std::vector<CapacityEvent> cap_events_;
  std::unordered_map<std::uint32_t, std::unique_ptr<bgp::RouteStore>> cache_;
  std::size_t cache_bytes_ = 0;  ///< resident footprint of cache_ stores
  std::vector<double> capacity_;  ///< per directed link
  std::vector<double> alloc_;    ///< per directed link, allocated Mbps
  std::vector<ActiveFlow> active_;
  /// Solver scratch reused across ticks (allocation-free steady state).
  MaxMinWorkspace maxmin_ws_;
  /// Per-tick views into the active flows' link vectors for MaxMinInput.
  std::vector<std::span<const std::uint32_t>> flow_links_view_;

  // Observability (all optional; zero-cost when unattached/disabled).
  obs::Registry::Shard* shard_ = nullptr;
  obs::MetricId m_arrivals_ = 0;
  obs::MetricId m_unreachable_ = 0;
  obs::MetricId m_completions_ = 0;
  obs::MetricId m_ticks_ = 0;
  obs::MetricId m_solver_runs_ = 0;
  obs::MetricId m_reroutes_ = 0;
  obs::MetricId m_cache_bytes_ = 0;
  // Streaming-run metrics (gauges track the latest epoch edge; counters
  // accumulate IncrementalMaxMin work).
  obs::MetricId m_active_flows_ = 0;
  obs::MetricId m_offered_load_ = 0;
  obs::MetricId m_solver_components_ = 0;
  obs::MetricId m_solver_incidences_ = 0;
  obs::MetricId m_solver_full_incidences_ = 0;
  obs::MetricId m_solver_diff_checks_ = 0;
  SimTime sample_interval_ = 0.0;
  SimTime next_sample_ = 0.0;
  obs::UtilSeries samples_;
};

}  // namespace mifo::sim

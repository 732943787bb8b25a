#include "sim/fluid_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"

namespace mifo::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRemEps = 1e-6;   // megabits (~0.1 byte)
constexpr double kTimeEps = 1e-12;

/// One admitted flow. The event loop fills the routing fields at admission
/// and decides path moves; the engine owns the rate fields.
struct Flow {
  std::uint32_t record = 0;           ///< index into the run's records
  std::vector<std::uint32_t> links;   ///< current path (directed links)
  std::vector<std::uint32_t> deflt;   ///< default-path links
  double remaining_mb = 0.0;          ///< megabits left (as of update_t)
  SimTime update_t = 0.0;             ///< incremental: last settlement time
  double rate = 0.0;
  std::uint32_t gen = 0;              ///< incremental: completion-heap stamp
  bool deflected = false;
  bool live = false;
};

std::vector<std::uint32_t> link_ids(const core::WalkResult& w) {
  std::vector<std::uint32_t> links;
  links.reserve(w.links.size());
  for (const LinkId l : w.links) links.push_back(l.value());
  return links;
}

/// Sorts a pre-generated trace by arrival and replays it in that order.
std::function<bool(traffic::FlowSpec&)> replay(
    std::vector<traffic::FlowSpec>& specs) {
  std::sort(specs.begin(), specs.end(),
            [](const traffic::FlowSpec& a, const traffic::FlowSpec& b) {
              return a.arrival < b.arrival;
            });
  return [&specs, next = std::size_t{0}](traffic::FlowSpec& out) mutable {
    if (next >= specs.size()) return false;
    out = specs[next++];
    return true;
  };
}

// The two rate engines. Both expose the same small interface to
// FluidSim::event_loop (a template parameter, so no call is virtual):
//   flows                     flow table the loop iterates (skip !live)
//   active(), total_rate()    live flows and the sum of their rates
//   next_completion(t)        earliest predicted completion
//   advance(t, t_next)        moves the clock (and fluid) to t_next
//   complete_due(done)        retires finished flows, done(flow) first
//   add(flow)                 admits a routed flow
//   set_path(i, links)        moves flow i; the loop then re-charges it at
//                             its old rate and calls propagate()
//   set_capacity(link, cap)   capacity_ already holds the new value
//   end_instant(changed)      closes every event instant
//   finish(res)               solver counters into the result
// Mutations other than set_path propagate their rate changes themselves.

/// run()'s arithmetic: fluid drains eagerly every step, a flow completes
/// once remaining_mb <= kRemEps, completions swap-remove, and an instant at
/// which anything changed ends in one whole-population max_min_rates solve
/// (flows moved by a tick stay charged at their old rate until then).
class BatchEngine {
 public:
  BatchEngine(std::vector<double>& alloc, const std::vector<double>& capacity,
              Mbps flow_cap, const StreamConfig& /*sc*/)
      : alloc_(alloc), capacity_(capacity), flow_cap_(flow_cap) {}

  std::vector<Flow> flows;  ///< dense: every entry is live

  [[nodiscard]] std::size_t active() const { return flows.size(); }
  [[nodiscard]] double total_rate() const {
    double sum = 0.0;
    for (const Flow& f : flows) sum += f.rate;
    return sum;
  }
  [[nodiscard]] SimTime next_completion(SimTime t) const {
    SimTime t_comp = kInf;
    for (const Flow& f : flows) {
      if (f.rate > 0.0) t_comp = std::min(t_comp, t + f.remaining_mb / f.rate);
    }
    return t_comp;
  }
  void advance(SimTime t, SimTime t_next) {
    const SimTime dt = std::max(0.0, t_next - t);
    if (dt <= 0.0) return;
    for (Flow& f : flows) f.remaining_mb -= f.rate * dt;
  }
  template <class Done>
  void complete_due(Done&& done) {
    for (std::size_t i = 0; i < flows.size();) {
      if (flows[i].remaining_mb <= kRemEps) {
        done(flows[i]);
        flows[i] = std::move(flows.back());
        flows.pop_back();
      } else {
        ++i;
      }
    }
  }
  void add(Flow f) {
    f.live = true;
    flows.push_back(std::move(f));
  }
  void set_path(std::size_t i, std::vector<std::uint32_t> links) {
    flows[i].links = std::move(links);
  }
  void propagate() {}
  void set_capacity(std::uint32_t /*link*/, double /*cap*/) {}
  void end_instant(bool changed) {
    if (changed) solve();
  }
  void finish(StreamResult& res) const { res.solver.events = solves_; }

 private:
  void solve() {
    // Clear previous allocations (only links that were touched).
    for (const Flow& f : flows) {
      for (const std::uint32_t l : f.links) alloc_[l] = 0.0;
    }
    views_.clear();
    views_.reserve(flows.size());
    for (const Flow& f : flows) views_.emplace_back(f.links);

    MaxMinInput in;
    in.flow_links = views_;
    in.link_capacity = capacity_;
    in.flow_cap = flow_cap_;
    in.num_links = capacity_.size();
    const std::span<const double> rates = max_min_rates(in, ws_);

    for (std::size_t i = 0; i < flows.size(); ++i) {
      flows[i].rate = rates[i];
      for (const std::uint32_t l : flows[i].links) alloc_[l] += rates[i];
    }
    ++solves_;
  }

  std::vector<double>& alloc_;
  const std::vector<double>& capacity_;
  Mbps flow_cap_;
  MaxMinWorkspace ws_;  ///< solver scratch reused across instants
  std::vector<std::span<const std::uint32_t>> views_;  ///< flows' links
  std::uint64_t solves_ = 0;
};

/// run_stream()'s arithmetic: IncrementalMaxMin re-solves only the
/// bottleneck component a mutation touches, fluid state settles lazily
/// (remaining_mb is exact as of update_t, so an event only touches the
/// flows whose rates moved), and completions come off a generation-stamped
/// heap: predictions are exact while a rate holds, and any rate change
/// bumps the flow's generation, orphaning its stale entries.
class IncrementalEngine {
 public:
  IncrementalEngine(std::vector<double>& alloc,
                    const std::vector<double>& capacity, Mbps flow_cap,
                    const StreamConfig& sc)
      : alloc_(alloc),
        solver_(capacity, flow_cap),
        differential_(sc.differential),
        measure_(sc.measure_solve_latency) {}

  std::vector<Flow> flows;  ///< indexed by solver slot

  [[nodiscard]] std::size_t active() const { return active_; }
  [[nodiscard]] double total_rate() const { return total_rate_; }
  [[nodiscard]] SimTime next_completion(SimTime /*t*/) const {
    return heap_.empty() ? kInf : heap_.top().t;
  }
  /// Settlement is lazy: only the clock moves.
  void advance(SimTime /*t*/, SimTime t_next) { now_ = t_next; }
  template <class Done>
  void complete_due(Done&& done) {
    while (!heap_.empty() && heap_.top().t <= now_ + kTimeEps) {
      const Pending e = heap_.top();
      heap_.pop();
      Flow& f = flows[e.slot];
      if (!f.live || e.gen != f.gen) continue;
      done(f);
      total_rate_ -= f.rate;
      f.live = false;
      ++f.gen;
      --active_;
      timed([&] { solver_.remove_flow(e.slot); });
      propagate();
    }
  }
  void add(Flow f) {
    IncrementalMaxMin::Slot slot = IncrementalMaxMin::kInvalidSlot;
    timed([&] { slot = solver_.add_flow(f.links); });
    if (flows.size() <= slot) flows.resize(slot + 1);
    const std::span<const std::uint32_t> dd = solver_.links_of(slot);
    f.links.assign(dd.begin(), dd.end());
    f.update_t = now_;
    f.gen = flows[slot].gen + 1;  // orphan the slot's stale entries
    f.live = true;
    flows[slot] = std::move(f);
    ++active_;
    propagate();
    MIFO_ASSERT(flows[slot].rate > 0.0);  // nonempty path ⇒ positive share
  }
  void set_path(std::size_t i, std::vector<std::uint32_t> links) {
    const auto slot = static_cast<IncrementalMaxMin::Slot>(i);
    timed([&] { solver_.update_path(slot, links); });
    const std::span<const std::uint32_t> dd = solver_.links_of(slot);
    flows[i].links.assign(dd.begin(), dd.end());
  }
  /// Settles each flow the last mutation re-rated at its old rate, shifts
  /// link allocations by the delta and re-predicts its completion.
  void propagate() {
    for (const IncrementalMaxMin::RateChange& ch : solver_.changes()) {
      Flow& f = flows[ch.slot];
      f.remaining_mb -= f.rate * (now_ - f.update_t);
      f.update_t = now_;
      const double delta = ch.new_rate - ch.old_rate;
      for (const std::uint32_t l : f.links) alloc_[l] += delta;
      total_rate_ += delta;
      f.rate = ch.new_rate;
      ++f.gen;
      if (f.rate > 0.0) {
        heap_.push(Pending{now_ + std::max(0.0, f.remaining_mb) / f.rate,
                           ch.slot, f.gen});
      }
    }
    if (differential_) (void)solver_.check_differential();
  }
  void set_capacity(std::uint32_t link, double cap) {
    timed([&] { solver_.set_capacity(link, cap); });
    propagate();
  }
  void end_instant(bool /*changed*/) {}
  void finish(StreamResult& res) {
    res.solver = solver_.stats();
    res.solve_seconds = std::move(solve_seconds_);
  }

 private:
  struct Pending {
    SimTime t = 0.0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.slot != b.slot) return a.slot > b.slot;
      return a.gen > b.gen;
    }
  };

  template <class Op>
  void timed(Op&& op) {
    if (!measure_) {
      op();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    op();
    const auto t1 = std::chrono::steady_clock::now();
    solve_seconds_.push_back(std::chrono::duration<double>(t1 - t0).count());
  }

  std::vector<double>& alloc_;
  IncrementalMaxMin solver_;
  bool differential_;
  bool measure_;
  std::priority_queue<Pending, std::vector<Pending>, Later> heap_;
  SimTime now_ = 0.0;
  std::size_t active_ = 0;
  double total_rate_ = 0.0;  ///< Σ live rates (goodput integrand)
  std::vector<double> solve_seconds_;
};

}  // namespace

FluidSim::FluidSim(const topo::AsGraph& g, SimConfig cfg)
    : g_(g), cfg_(cfg) {
  MIFO_EXPECTS(cfg.link_capacity > 0.0);
  MIFO_EXPECTS(cfg.congest_threshold > 0.0 && cfg.congest_threshold <= 1.0);
  MIFO_EXPECTS(cfg.low_watermark >= 0.0 &&
               cfg.low_watermark <= cfg.congest_threshold);
  MIFO_EXPECTS(cfg.reeval_interval > 0.0);
  deployed_.assign(g.num_ases(), false);
  capacity_.assign(g.num_directed_links(), cfg.link_capacity);
  alloc_.assign(g.num_directed_links(), 0.0);
}

void FluidSim::set_deployment(std::vector<bool> deployed) {
  MIFO_EXPECTS(deployed.size() == g_.num_ases());
  deployed_ = std::move(deployed);
}

void FluidSim::attach_registry(obs::Registry& reg, const std::string& labels) {
  m_arrivals_ = reg.counter("sim.arrivals", labels);
  m_unreachable_ = reg.counter("sim.unreachable", labels);
  m_completions_ = reg.counter("sim.completions", labels);
  m_ticks_ = reg.counter("sim.ticks", labels);
  m_solver_runs_ = reg.counter("sim.solver_runs", labels);
  m_reroutes_ = reg.counter("sim.reroutes", labels);
  m_cache_bytes_ = reg.gauge("sim.route_cache_bytes", labels);
  m_active_flows_ = reg.gauge("sim.active_flows", labels);
  m_offered_load_ = reg.gauge("sim.offered_load_mbps", labels);
  m_solver_components_ = reg.counter("sim.solver_components", labels);
  m_solver_incidences_ = reg.counter("sim.solver_incidences", labels);
  m_solver_full_incidences_ =
      reg.counter("sim.solver_full_incidences", labels);
  m_solver_diff_checks_ = reg.counter("sim.solver_diff_checks", labels);
  shard_ = &reg.create_shard();
  shard_->set(m_cache_bytes_, static_cast<double>(cache_bytes_));
}

const bgp::RouteStore& FluidSim::routes_for(AsId dest) {
  auto it = cache_.find(dest.value());
  if (it == cache_.end()) {
    it = cache_
             .emplace(dest.value(),
                      std::make_unique<bgp::RouteStore>(g_, dest))
             .first;
    cache_bytes_ += it->second->bytes();
    if (shard_) shard_->set(m_cache_bytes_, static_cast<double>(cache_bytes_));
  }
  return *it->second;
}

void FluidSim::warm_route_cache(std::span<const traffic::FlowSpec> specs) {
  std::vector<std::uint32_t> dests;
  dests.reserve(specs.size());
  for (const auto& s : specs) dests.push_back(s.dst.value());
  warm_route_cache_dests(std::move(dests));
}

void FluidSim::warm_route_cache_dests(std::vector<std::uint32_t> dests) {
  // Unique destinations not yet cached, in sorted order (deterministic).
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  std::erase_if(dests,
                [this](std::uint32_t d) { return cache_.contains(d); });

  const std::size_t threads =
      cfg_.threads != 0 ? cfg_.threads : default_thread_count();
  if (threads <= 1 || dests.size() < 2) return;  // lazy serial path suffices

  // compute_routes is pure per destination, so each slot is independent;
  // the cache itself is only touched from this thread, after the join.
  std::vector<std::unique_ptr<bgp::RouteStore>> computed(dests.size());
  ThreadPool pool(std::min(threads, dests.size()));
  parallel_for(pool, dests.size(), [this, &dests, &computed](std::size_t i) {
    computed[i] = std::make_unique<bgp::RouteStore>(g_, AsId(dests[i]));
  });
  for (std::size_t i = 0; i < dests.size(); ++i) {
    cache_bytes_ += computed[i]->bytes();
    cache_.emplace(dests[i], std::move(computed[i]));
  }
  if (shard_) shard_->set(m_cache_bytes_, static_cast<double>(cache_bytes_));
}

void FluidSim::schedule_capacity_event(SimTime t, LinkId link, double factor) {
  MIFO_EXPECTS(t >= 0.0);
  MIFO_EXPECTS(link.value() < g_.num_directed_links());
  cap_events_.push_back(
      CapacityEvent{t, link.value(), std::clamp(factor, 1e-3, 10.0)});
}

double FluidSim::utilization(std::uint32_t link) const {
  return alloc_[link] / capacity_[link];
}

core::WalkResult FluidSim::route_flow(AsId src, AsId dest) {
  const bgp::RouteStore& routes = routes_for(dest);
  switch (cfg_.mode) {
    case RoutingMode::Bgp:
      return core::bgp_walk(g_, routes, src);
    case RoutingMode::Mifo: {
      core::WalkConfig wc;
      wc.congest_threshold = cfg_.congest_threshold;
      wc.min_spare_margin = cfg_.spare_margin;
      wc.max_extra_hops = cfg_.max_extra_hops;
      wc.selection = cfg_.alt_selection;
      return core::mifo_walk(
          g_, routes, deployed_, src,
          [this](LinkId l) { return utilization(l.value()); }, wc);
    }
    case RoutingMode::Miro: {
      core::WalkResult def = core::bgp_walk(g_, routes, src);
      if (!def.reachable) return def;
      double worst = 0.0;
      for (const LinkId l : def.links) {
        worst = std::max(worst, utilization(l.value()));
      }
      if (worst < cfg_.congest_threshold) return def;
      // Source-only deflection over the (pre-negotiated, static) tunnels:
      // take the most-preferred alternative whose own first hop is not
      // congested. MIRO tunnels are negotiated on the control plane; the
      // source has no end-to-end load visibility.
      const auto alts =
          miro::alternatives(g_, routes, src, deployed_, cfg_.miro);
      for (const auto& alt : alts) {
        const LinkId first = g_.link(src, alt.next_hop);
        if (utilization(first.value()) >= cfg_.congest_threshold) continue;
        const auto path = miro::alt_path(g_, routes, src, alt.next_hop);
        if (path.empty()) continue;
        core::WalkResult cand;
        cand.reachable = true;
        cand.path = path;
        cand.links = core::links_of_path(g_, path);
        cand.deflections = 1;
        return cand;
      }
      return def;
    }
  }
  return {};
}

obs::UtilSample FluidSim::scan_links(SimTime t, std::size_t active) const {
  obs::UtilSample s;
  s.t = t;
  double sum = 0.0;
  std::uint32_t loaded = 0;
  std::uint32_t congested = 0;
  for (std::size_t l = 0; l < alloc_.size(); ++l) {
    if (alloc_[l] <= 0.0) continue;
    const double u = alloc_[l] / capacity_[l];
    ++loaded;
    sum += u;
    s.max_util = std::max(s.max_util, u);
    if (u >= cfg_.congest_threshold) ++congested;
    s.total_spare_mbps += std::max(0.0, capacity_[l] - alloc_[l]);
  }
  s.mean_util = loaded != 0 ? sum / loaded : 0.0;
  s.frac_congested =
      loaded != 0 ? static_cast<double>(congested) / loaded : 0.0;
  s.active_flows = active;
  return s;
}

template <class Engine>
void FluidSim::reevaluate(Engine& eng, std::vector<FlowRecord>& records) {
  for (std::size_t i = 0; i < eng.flows.size(); ++i) {
    Flow& f = eng.flows[i];
    if (!f.live) continue;
    FlowRecord& rec = records[f.record];

    // Evaluate congestion as the flow's border routers would see it:
    // without the flow's own contribution. A lone flow saturating a link is
    // not congestion worth fleeing — counting it makes every full link
    // "congested" under max–min and the flow would oscillate between its
    // default and an alternative forever.
    for (const std::uint32_t l : f.links) alloc_[l] -= f.rate;

    const auto any_at = [this](const std::vector<std::uint32_t>& links,
                               double threshold) {
      return std::any_of(links.begin(), links.end(), [&](std::uint32_t l) {
        return utilization(l) >= threshold;
      });
    };
    // A flow on its default path leaves it once any link is congested. A
    // deflected flow resumes the default once it has drained (hysteresis)
    // and does NOT hop between alternatives: under max–min sharing every
    // loaded bottleneck sits at full utilization, so alternative-fleeing
    // would re-shuffle the whole population every tick. The paper's
    // stability numbers (Fig. 9: two thirds of switching flows switch
    // exactly once) reflect this deflect-once/return-once discipline.
    const bool should_reroute =
        f.deflected ? !any_at(f.deflt, cfg_.low_watermark)
                    : any_at(f.links, cfg_.congest_threshold);

    bool moved = false;
    if (should_reroute) {
      const core::WalkResult w = route_flow(rec.spec.src, rec.spec.dst);
      MIFO_ASSERT(w.reachable);  // it was reachable at admission
      std::vector<std::uint32_t> links = link_ids(w);
      if (links != f.links) {
        eng.set_path(i, std::move(links));
        f.deflected = w.deflections > 0;
        ++rec.path_switches;
        rec.used_alternative = rec.used_alternative || f.deflected;
        if (shard_) shard_->add(m_reroutes_);
        moved = true;
      }
    }

    // Re-charge the (possibly moved) flow at its current rate so later
    // flows in this tick see the shifted load.
    for (const std::uint32_t l : f.links) alloc_[l] += f.rate;
    if (moved) eng.propagate();
  }
}

template <class Engine>
StreamResult FluidSim::event_loop(
    const std::function<bool(traffic::FlowSpec&)>& source,
    std::size_t num_flows, const std::function<double(SimTime)>& offered,
    const StreamConfig& sc) {
  // Start every run from a clean slate so back-to-back runs on one sim are
  // independent: exact zero allocations (completions tear allocations down
  // flow by flow and can leave floating-point residues), pristine
  // capacities (capacity events mutate them mid-run), events sorted.
  std::fill(alloc_.begin(), alloc_.end(), 0.0);
  std::fill(capacity_.begin(), capacity_.end(), cfg_.link_capacity);
  std::stable_sort(cap_events_.begin(), cap_events_.end(),
                   [](const CapacityEvent& a, const CapacityEvent& b) {
                     return a.t < b.t;
                   });
  samples_.clear();
  Engine eng(alloc_, capacity_, cfg_.flow_rate_cap, sc);
  StreamResult res;
  res.records.reserve(num_flows);

  std::size_t ci = 0;
  SimTime t = 0.0;
  SimTime next_tick = cfg_.reeval_interval;
  SimTime next_sample = sample_interval_;
  const bool epochs = sc.epoch > 0.0;
  SimTime epoch_end = sc.epoch;
  double epoch_mb = 0.0;
  std::uint64_t epoch_arrivals = 0;
  std::uint64_t epoch_completions = 0;

  const auto emit_epoch = [&](SimTime edge, SimTime length) {
    const obs::UtilSample scan = scan_links(edge, eng.active());
    obs::LoadSample s;
    s.t = edge;
    s.goodput_mbps = length > 0.0 ? epoch_mb / length : 0.0;
    s.offered_mbps = offered ? offered(edge) : 0.0;
    s.max_util = scan.max_util;
    s.frac_congested = scan.frac_congested;
    s.active_flows = scan.active_flows;
    s.arrivals = epoch_arrivals;
    s.completions = epoch_completions;
    res.load.push_back(s);
    if (shard_) {
      shard_->set(m_active_flows_, static_cast<double>(s.active_flows));
      shard_->set(m_offered_load_, s.offered_mbps);
    }
    epoch_mb = 0.0;
    epoch_arrivals = 0;
    epoch_completions = 0;
  };

  // Admission: route the flow, remember its default path, hand it to the
  // engine. Returns whether it was reachable (and so admitted).
  const auto admit = [&](const traffic::FlowSpec& spec) {
    FlowRecord& rec = res.records.emplace_back();
    rec.spec = spec;
    const core::WalkResult w = route_flow(spec.src, spec.dst);
    if (!w.reachable) {
      rec.unreachable = true;
      if (shard_) shard_->add(m_unreachable_);
      return false;
    }
    if (shard_) shard_->add(m_arrivals_);
    Flow f;
    f.record = static_cast<std::uint32_t>(res.records.size() - 1);
    f.links = link_ids(w);
    f.deflt = link_ids(core::bgp_walk(g_, routes_for(spec.dst), spec.src));
    f.remaining_mb = to_megabits(spec.size);
    f.deflected = w.deflections > 0;
    if (f.deflected) {
      // The initial deflection is the flow's first path switch.
      rec.path_switches = 1;
      rec.used_alternative = true;
    }
    ++epoch_arrivals;
    eng.add(std::move(f));
    res.peak_active = std::max<std::uint64_t>(res.peak_active, eng.active());
    return true;
  };

  traffic::FlowSpec pending;
  bool have = source(pending);

  while (have || eng.active() > 0) {
    const SimTime t_arr = have ? pending.arrival : kInf;
    const SimTime t_comp = eng.next_completion(t);
    SimTime t_tick = kInf;
    if (cfg_.mode != RoutingMode::Bgp && eng.active() > 0) {
      // Ticks pause while nothing is active; after an idle gap they resume
      // on the interval grid after t instead of replaying missed ticks.
      if (next_tick < t - kTimeEps) {
        next_tick = (std::floor(t / cfg_.reeval_interval) + 1.0) *
                    cfg_.reeval_interval;
        if (next_tick <= t + kTimeEps) next_tick += cfg_.reeval_interval;
      }
      t_tick = next_tick;
    }
    // Pending capacity events only matter while flows exist to reshare; an
    // event before the next arrival with nothing active applies then too,
    // keeping event/arrival interleaving exact.
    const SimTime t_ev = ci < cap_events_.size() ? cap_events_[ci].t : kInf;
    SimTime t_next = std::min({t_arr, t_comp, t_tick, t_ev});
    MIFO_ASSERT(t_next < kInf);
    bool stop = false;
    if (sc.max_time > 0.0 && t_next > sc.max_time) {
      t_next = std::max(t, sc.max_time);
      stop = true;
    }
    MIFO_ASSERT(t_next >= t - kTimeEps);

    // Fluid advance. Samples and epoch edges inside [t, t_next] describe
    // the interval just advanced: alloc_ still holds the rates in force.
    eng.advance(t, t_next);
    while (sample_interval_ > 0.0 && next_sample <= t_next + kTimeEps) {
      samples_.push_back(scan_links(next_sample, eng.active()));
      next_sample += sample_interval_;
    }
    if (epochs) {
      // Integrate goodput across every epoch edge inside [t, t_next].
      SimTime cursor = t;
      while (epoch_end <= t_next + kTimeEps) {
        epoch_mb += eng.total_rate() * std::max(0.0, epoch_end - cursor);
        cursor = epoch_end;
        emit_epoch(epoch_end, sc.epoch);
        epoch_end += sc.epoch;
      }
      epoch_mb += eng.total_rate() * std::max(0.0, t_next - cursor);
    }
    t = t_next;
    if (stop) {
      res.truncated = eng.active() > 0;
      break;
    }

    bool changed = false;

    // Capacity events (link down/up/degrade) due now.
    while (ci < cap_events_.size() && cap_events_[ci].t <= t + kTimeEps) {
      const std::uint32_t link = cap_events_[ci].link;
      capacity_[link] = cfg_.link_capacity * cap_events_[ci].factor;
      eng.set_capacity(link, capacity_[link]);
      changed = true;
      ++ci;
    }

    eng.complete_due([&](const Flow& f) {
      FlowRecord& rec = res.records[f.record];
      rec.completed = true;
      rec.finish = t;
      if (shard_) shard_->add(m_completions_);
      for (const std::uint32_t l : f.links) alloc_[l] -= f.rate;
      ++epoch_completions;
      changed = true;
    });

    while (have && pending.arrival <= t + kTimeEps) {
      changed = admit(pending) || changed;
      have = source(pending);
    }

    if (t_tick < kInf && t >= t_tick - kTimeEps) {
      if (shard_) shard_->add(m_ticks_);
      reevaluate(eng, res.records);
      changed = true;
      while (next_tick <= t + kTimeEps) next_tick += cfg_.reeval_interval;
    }

    eng.end_instant(changed);
  }

  // Close the trailing partial epoch so the goodput integral is exact.
  if (epochs) {
    const SimTime length = t - (epoch_end - sc.epoch);
    if (length > kTimeEps &&
        (epoch_mb > 0.0 || epoch_arrivals + epoch_completions > 0)) {
      emit_epoch(t, length);
    }
  }

  res.duration = t;
  eng.finish(res);
  if (shard_) {
    shard_->add(m_solver_runs_, static_cast<double>(res.solver.events));
    shard_->add(m_solver_components_,
                static_cast<double>(res.solver.components_solved));
    shard_->add(m_solver_incidences_,
                static_cast<double>(res.solver.incidences_resolved));
    shard_->add(m_solver_full_incidences_,
                static_cast<double>(res.solver.full_incidences));
    shard_->add(m_solver_diff_checks_,
                static_cast<double>(res.solver.differential_checks));
  }
  return res;
}

std::vector<FlowRecord> FluidSim::run(std::vector<traffic::FlowSpec> specs) {
  const auto source = replay(specs);
  warm_route_cache(specs);
  StreamConfig sc;
  sc.epoch = 0.0;  // run() keeps no epoch series
  return event_loop<BatchEngine>(source, specs.size(), nullptr, sc).records;
}

StreamResult FluidSim::run_stream(traffic::WorkloadEngine& workload,
                                  const StreamConfig& sc) {
  MIFO_EXPECTS(sc.epoch > 0.0);
  std::vector<std::uint32_t> dests;
  dests.reserve(workload.endpoints().size());
  for (const AsId a : workload.endpoints()) dests.push_back(a.value());
  warm_route_cache_dests(std::move(dests));
  return event_loop<IncrementalEngine>(
      [&workload](traffic::FlowSpec& out) { return workload.next(out); }, 0,
      [&workload](SimTime t) { return workload.offered_load_mbps(t); }, sc);
}

StreamResult FluidSim::run_stream(std::vector<traffic::FlowSpec> specs,
                                  const StreamConfig& sc) {
  MIFO_EXPECTS(sc.epoch > 0.0);
  const auto source = replay(specs);
  warm_route_cache(specs);
  return event_loop<IncrementalEngine>(source, specs.size(), nullptr, sc);
}

}  // namespace mifo::sim

// One round of one end-to-end benchmark workload (perfbench/README.md).
//
//   perfbench_mifo --workload churn|packet|fluid_batch|fluid_stream
//                  --seed N [--trace 0|1] [--setup-only]
//
// A round builds its inputs from the seed (set-up), runs the timed phase
// through the public API of the MIFO libraries, checks the outputs against
// oracles computed apart from the timed calls, and prints human-readable
// lines followed by one JSON line (the last line of stdout) that
// perfbench/run.py aggregates over rounds.
//
// With --trace 1 the same calls are wrapped in wall-clock spans kept in
// memory by this file (Trace below) and reported per layer when the round
// ends. A span's time is its self time: the time of nested spans (a daemon
// tick inside Network::run_until) is charged to the nested layer only.
// Untraced rounds make exactly the same calls, so the outcome digest of a
// traced and an untraced round of one seed must agree.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgp/delta.hpp"
#include "bgp/route_store.hpp"
#include "chaos/route_control.hpp"
#include "common/rng.hpp"
#include "core/walk.hpp"
#include "dataplane/change_log.hpp"
#include "dataplane/network.hpp"
#include "dataplane/shard.hpp"
#include "obs/registry.hpp"
#include "sim/fluid_sim.hpp"
#include "testbed/emulation.hpp"
#include "testbed/sharded_emulation.hpp"
#include "topo/generator.hpp"
#include "traffic/traffic.hpp"
#include "traffic/workload.hpp"
#include "verify/changeset.hpp"
#include "verify/deflection_graph.hpp"
#include "verify/incremental.hpp"
#include "verify/valley.hpp"

namespace {

using namespace mifo;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- measurement -------------------------------------------------------------

/// Per-layer spans and counts of a traced round. Disabled (the untraced
/// round), scope() returns an inert guard and nothing is recorded.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  class Span {
   public:
    Span(Trace* t, const char* layer) : t_(t), layer_(layer) {
      if (t_ != nullptr) {
        t_->child_.push_back(0.0);
        t0_ = Clock::now();
      }
    }
    ~Span() {
      if (t_ == nullptr) return;
      const double dur = since(t0_);
      const double children = t_->child_.back();
      t_->child_.pop_back();
      t_->busy_[layer_] += dur - children;
      if (t_->child_.empty()) {
        t_->covered_ += dur;
      } else {
        t_->child_.back() += dur;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace* t_;
    const char* layer_;
    Clock::time_point t0_{};
  };

  [[nodiscard]] Span scope(const char* layer) {
    return Span(on_ && !paused_ ? this : nullptr, layer);
  }
  /// While paused (the benchmark's own checks run the network on), spans
  /// record nothing.
  void set_paused(bool paused) { paused_ = paused; }
  void count(const std::string& name, double v) {
    if (on_) counts_[name] += v;
  }
  void set(const std::string& name, double v) {
    if (on_) counts_[name] = v;
  }
  [[nodiscard]] double busy(const std::string& layer) const {
    const auto it = busy_.find(layer);
    return it == busy_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double covered() const { return covered_; }

 private:
  bool on_;
  bool paused_ = false;
  std::vector<double> child_;  ///< open spans' accumulated child time
  std::map<std::string, double> busy_;
  std::map<std::string, double> counts_;
  double covered_ = 0.0;  ///< wall time under top-level spans
};

/// Wall clock of the measured phases. Paused while the benchmark checks
/// outputs, so set-up and timed-phase figures contain only program work.
class PhaseClock {
 public:
  void start() { t0_ = Clock::now(); }
  void stop() { total_ += since(t0_); }
  [[nodiscard]] double total() const { return total_; }

 private:
  Clock::time_point t0_{};
  double total_ = 0.0;
};

/// Order-sensitive 64-bit digest of simulated outcomes.
class Digest {
 public:
  void mix(std::uint64_t v) { d_ = hash_combine(d_, hash64(v)); }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return d_; }

 private:
  std::uint64_t d_ = hash64(0x70657266);
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Everything one round reports.
struct Round {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t ops = 0;          ///< operations completed in the timed phase
  double ops_s = 0.0;             ///< host seconds `ops` are measured over
  std::uint64_t attempted = 0;    ///< operations whose outcome was checked
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness-check failures
  Digest digest;
  std::map<std::string, double> detail;  ///< workload-specific figures
  std::map<std::string, double> layers;  ///< traced rounds only

  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 20) errors.push_back(what);
  }
};

std::vector<AsId> all_ases(const topo::AsGraph& g) {
  std::vector<AsId> ases;
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) ases.push_back(AsId(i));
  return ases;
}

topo::AsGraph generate(std::size_t num_ases, std::size_t num_tier1,
                       std::uint64_t seed, Trace& trace) {
  const auto span = trace.scope("topo.generate_s");
  topo::GeneratorParams gp;
  gp.num_ases = num_ases;
  if (num_tier1 != 0) gp.num_tier1 = num_tier1;
  gp.seed = seed;
  return topo::generate_topology(gp);
}

// --- the scaled deployment (churn, packet) -----------------------------------

// testbed::ScaledParams' deployment: 500 generated ASes, transit ASes of
// degree 2..16 expanded to one border router per adjacency (1269 routers),
// 0.5 ms inter-AS delay, MIFO daemons ticking every 10 ms off any round
// number. The topology seed is fixed so every benchmark seed runs on the same
// 1269-router deployment; the seed varies the events and the traffic.
constexpr std::size_t kScaledAses = 500;
constexpr std::size_t kScaledTier1 = 10;
constexpr std::size_t kScaledExpandCap = 16;
constexpr std::uint64_t kScaledTopoSeed = 42;
constexpr SimTime kDaemonInterval = 0.0100003;

testbed::BuildParams scaled_build() {
  return testbed::BuildParams{.ebgp_delay = 500e-6};
}

/// Emulation::enable_mifo, with each daemon tick timed when tracing.
void enable_mifo(testbed::Emulation& em, const topo::AsGraph& g,
                 Trace& trace) {
  if (!trace.on()) {
    em.enable_mifo(all_ases(g), dp::RouterConfig{}, kDaemonInterval);
    return;
  }
  for (const AsId as : all_ases(g)) {
    for (const RouterId r : em.wirings[as.value()].routers) {
      dp::RouterConfig cfg{};
      cfg.mifo_enabled = true;
      em.net->router(r).config() = cfg;
    }
    core::MifoDaemon* daemon = em.daemons[as.value()].get();
    em.net->add_periodic(kDaemonInterval,
                         [daemon, &trace](dp::Network& n, SimTime now) {
                           const auto span = trace.scope("core.tick_s");
                           daemon->tick(n, now);
                           trace.count("core.ticks", 1.0);
                         });
  }
}

std::uint64_t forwarded_hops(const dp::Network& net) {
  return net.total_counters().forwarded;
}

std::uint64_t drop_total(
    const std::vector<std::pair<std::string, std::uint64_t>>& drops) {
  std::uint64_t total = 0;
  for (const auto& [reason, count] : drops) total += count;
  return total;
}

// --- churn ---------------------------------------------------------------------

constexpr std::size_t kPrefixOwners = 64;
constexpr std::size_t kChurnEvents = 100;  // whole groups of 10
constexpr SimTime kChurnStart = 0.05;
constexpr SimTime kEventSlice = 0.075; // simulated time per event
constexpr SimTime kReconvDelay = 0.05; // chaos::EngineConfig::reconv_delay
constexpr std::size_t kMaxWithdrawn = 6;
constexpr std::size_t kSessionLinks = 6;
constexpr std::size_t kBackgroundFlows = 6;
constexpr std::size_t kDifferentialEvery = 50;

enum class ChurnKind : std::uint8_t { Withdraw, Reannounce, Down, Up };

struct ChurnEvent {
  ChurnKind kind = ChurnKind::Withdraw;
  AsId a = AsId::invalid();
  AsId b = AsId::invalid();
};

/// Session links for the churn stream, chosen from the fixed deployment
/// alone (never from the seed): eBGP adjacencies that carry the default
/// route of more tracked destinations than can be withdrawn at once, from
/// an AS that keeps another route to them. Taking such a session down must
/// move those ASes' routes, so each session-down event exposes whether the
/// FIBs follow the routing plane.
std::vector<std::pair<AsId, AsId>> pick_session_links(
    const topo::AsGraph& g, const bgp::DeltaRoutingTable& table) {
  struct Cand {
    std::size_t dests;
    AsId a;
    AsId b;
  };
  std::vector<Cand> cands;
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    const AsId a(i);
    for (const auto& nb : g.neighbors(a)) {
      if (!(a < nb.as)) continue;
      std::set<std::uint32_t> moved;
      for (const AsId d : table.destinations()) {
        const auto seg = table.segment(d);
        for (const auto& [x, y] : {std::pair{a, nb.as}, std::pair{nb.as, a}}) {
          if (x == d || seg->store.best(x).next_hop != y) continue;
          bool alt = false;
          for (const auto& other : g.neighbors(x)) {
            if (other.as == y) continue;
            const auto row = seg->store.rib_from(x, other.as);
            alt = alt || (row && row->valid());
          }
          if (alt) moved.insert(d.value());
        }
      }
      if (moved.size() > kMaxWithdrawn) {
        cands.push_back(Cand{moved.size(), a, nb.as});
      }
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& x, const Cand& y) {
    if (x.dests != y.dests) return x.dests > y.dests;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  std::vector<std::pair<AsId, AsId>> out;
  for (std::size_t i = 0; i < cands.size() && out.size() < kSessionLinks; ++i) {
    out.emplace_back(cands[i].a, cands[i].b);
  }
  return out;
}

/// The seeded event stream: in every group of ten events, slot 4 takes a
/// session down and slot 9 brings it back (20% session events, the links
/// in fixed rotation); the other eight are prefix withdrawals and
/// re-announcements of seeded owners (80%). Repairs come from the failed
/// set, so no event is a no-op and the run ends near its start state.
std::vector<ChurnEvent> churn_stream(
    std::uint64_t seed, const std::vector<AsId>& owners,
    const std::vector<std::pair<AsId, AsId>>& links) {
  Rng rng(hash_combine(seed, 0xc4a0c4a0ull));
  std::vector<AsId> live(owners);
  std::vector<AsId> withdrawn;
  std::vector<ChurnEvent> out;
  for (std::size_t e = 0; e < kChurnEvents; ++e) {
    const std::size_t slot = e % 10;
    const auto& link = links[(e / 10) % links.size()];
    if (slot == 4) {
      out.push_back({ChurnKind::Down, link.first, link.second});
      continue;
    }
    if (slot == 9) {
      out.push_back({ChurnKind::Up, link.first, link.second});
      continue;
    }
    bool withdraw = rng.bounded(2) == 0;
    if (withdrawn.empty()) withdraw = true;
    if (withdrawn.size() >= kMaxWithdrawn) withdraw = false;
    auto& from = withdraw ? live : withdrawn;
    auto& to = withdraw ? withdrawn : live;
    const std::size_t i = rng.bounded(from.size());
    out.push_back({withdraw ? ChurnKind::Withdraw : ChurnKind::Reannounce,
                   from[i], AsId::invalid()});
    to.push_back(from[i]);
    from[i] = from.back();
    from.pop_back();
  }
  return out;
}

std::uint64_t fib_digest(const dp::Network& net) {
  // Sum of per-entry hashes: independent of hash-map iteration order.
  std::uint64_t sum = 0;
  for (const dp::Router& r : net.routers()) {
    for (const auto& [dst, fe] : r.fib()) {
      std::uint64_t h = hash64(r.id().value());
      h = hash_combine(h, hash64(dst));
      h = hash_combine(h, hash64(fe.out_port.value()));
      h = hash_combine(h, hash64(fe.alt_port.value()));
      sum += h;
    }
  }
  return sum;
}

void run_churn(Round& R, Trace& trace, PhaseClock& setup, bool setup_only) {
  setup.start();
  const topo::AsGraph g =
      generate(kScaledAses, kScaledTier1, kScaledTopoSeed, trace);
  std::vector<AsId> owners;
  for (std::size_t i = 0; i < kPrefixOwners; ++i) {
    owners.push_back(AsId(static_cast<std::uint32_t>(
        i * (kScaledAses - 1) / (kPrefixOwners - 1))));
  }
  testbed::Emulation em;
  {
    const auto span = trace.scope("testbed.build_s");
    testbed::EmulationBuilder builder(
        g, testbed::scaled_expand_mask(g, kScaledExpandCap), scaled_build());
    for (const AsId o : owners) builder.attach_host(o);
    em = builder.finalize();
  }
  dp::Network& net = *em.net;
  enable_mifo(em, g, trace);
  std::unique_ptr<chaos::RouteController> ctl;
  {
    const auto span = trace.scope("chaos.controller_s");
    ctl = std::make_unique<chaos::RouteController>(em, g);
  }
  std::vector<std::pair<dp::Addr, AsId>> owner_addrs;
  for (const auto& att : em.hosts) owner_addrs.emplace_back(att.addr, att.as);

  // A few background flows between prefix owners keep the packet plane
  // live between events.
  Rng frng(hash_combine(R.seed, 0xb9f10755ull));
  std::vector<FlowId> bg;
  for (std::size_t k = 0; k < kBackgroundFlows; ++k) {
    dp::FlowParams fp;
    fp.src = em.hosts[frng.bounded(em.hosts.size())].host;
    do {
      fp.dst = em.hosts[frng.bounded(em.hosts.size())].host;
    } while (fp.dst == fp.src);
    fp.size = 4 * kMegaByte;
    fp.start = 0.02 + 0.9 * static_cast<double>(k);
    bg.push_back(net.start_flow(fp));
  }

  dp::ChangeLog log;
  verify::ChangeSet changes;
  verify::IncrementalVerifier inc(verify::IncrementalConfig{
      .lint = true, .valley = true, .blackhole = false});
  net.attach_change_log(&log);
  {
    const auto span = trace.scope("dataplane.run_s");
    net.run_until(kChurnStart);
  }
  {
    const auto span = trace.scope("verify.initial_s");
    changes.drain(log);
    const auto first = inc.check(net, g, em.daemons, owner_addrs, changes);
    changes.clear();
    R.check(first.loop.loop_free && first.valley.valley_free &&
                first.lint.empty(),
            "initial deployment not loop-free, valley-free and lint-clean");
  }
  setup.stop();
  if (setup_only) return;

  const auto links = pick_session_links(g, ctl->delta());
  R.check(!links.empty(), "no session link carries enough routes");
  if (links.empty()) return;
  const std::vector<ChurnEvent> events = churn_stream(R.seed, owners, links);
  R.detail["session_links"] = static_cast<double>(links.size());

  const auto snapshot_clean = [&](const verify::IncrementalResult& res) {
    return res.loop.loop_free && res.valley.valley_free && res.lint.empty();
  };
  // The delta table's touched set joins the ChangeSet at the next snapshot,
  // as chaos::Engine notes it before its immediate snapshot.
  std::vector<dp::Addr> routing_notes;
  const auto verify_now = [&]() {
    {
      const auto span = trace.scope("verify.check_s");
      changes.drain(log);
    }
    if (trace.on()) {
      // Useful share: destinations a FIB, config or daemon record dirtied,
      // out of all re-proved (routing notes alone re-prove unchanged FIBs).
      trace.count("verify.useful",
                  static_cast<double>(
                      changes.dirty_destinations(net.routers()).size()));
    }
    const auto span = trace.scope("verify.check_s");
    for (const dp::Addr addr : routing_notes) changes.note_routing(addr);
    routing_notes.clear();
    auto res = inc.check(net, g, em.daemons, owner_addrs, changes);
    changes.clear();
    return res;
  };

  PhaseClock timed;
  std::vector<double> latency_ms;
  std::vector<double> prefix_ms;
  std::vector<double> session_ms;
  const std::size_t messages0 = ctl->messages_processed();
  std::size_t route_events_seen = ctl->delta_events();
  const std::uint64_t hops0 = forwarded_hops(net);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const ChurnEvent& ev = events[e];
    const SimTime t_ev = kChurnStart + kEventSlice * static_cast<double>(e);
    timed.start();
    {
      const auto span = trace.scope("dataplane.run_s");
      net.run_until(t_ev);
    }
    const auto t_apply = Clock::now();
    bool applied = false;
    const core::AsWiring::Egress* eg_ab = nullptr;
    const core::AsWiring::Egress* eg_ba = nullptr;
    if (ev.kind == ChurnKind::Down || ev.kind == ChurnKind::Up) {
      eg_ab = em.wirings[ev.a.value()].egress_to(ev.b);
      eg_ba = em.wirings[ev.b.value()].egress_to(ev.a);
    }
    {
      const auto span = trace.scope("chaos.route_s");
      switch (ev.kind) {
        case ChurnKind::Withdraw:
          applied = ctl->withdraw(ev.a);
          break;
        case ChurnKind::Reannounce:
          applied = ctl->reannounce(ev.a);
          break;
        case ChurnKind::Down:
          applied = ctl->session_down(ev.a, ev.b);
          break;
        case ChurnKind::Up:
          applied = ctl->session_up(ev.a, ev.b);
          break;
      }
    }
    if (eg_ab != nullptr && eg_ba != nullptr) {
      const auto span = trace.scope("dataplane.port_s");
      const bool up = ev.kind == ChurnKind::Up;
      net.set_port_up(eg_ab->router, eg_ab->port, up);
      net.set_port_up(eg_ba->router, eg_ba->port, up);
    }
    bgp::DeltaStats st;
    if (ctl->delta_events() != route_events_seen) {
      route_events_seen = ctl->delta_events();
      st = ctl->last_delta_stats();
      const auto span = trace.scope("verify.check_s");
      for (const AsId dest : st.touched_dests) {
        for (const auto& [addr, as] : owner_addrs) {
          if (as == dest) routing_notes.push_back(addr);
        }
      }
    }
    const verify::IncrementalResult imm = verify_now();
    const double ms = 1e3 * since(t_apply);
    timed.stop();

    latency_ms.push_back(ms);
    const bool prefix_event =
        ev.kind == ChurnKind::Withdraw || ev.kind == ChurnKind::Reannounce;
    (prefix_event ? prefix_ms : session_ms).push_back(ms);
    trace.count("bgp.recomputed", static_cast<double>(st.recomputed));
    trace.count("bgp.patched", static_cast<double>(st.patched));
    trace.count("verify.dirty_dests",
                static_cast<double>(imm.stats.dirty_destinations));
    trace.count("verify.states", static_cast<double>(imm.stats.states_explored));
    R.check(applied, "event " + std::to_string(e) + " was a no-op");
    R.check(snapshot_clean(imm),
            "immediate snapshot after event " + std::to_string(e) +
                " not loop-free, valley-free and lint-clean");

    timed.start();
    {
      const auto span = trace.scope("dataplane.run_s");
      net.run_until(t_ev + kReconvDelay);
    }
    const verify::IncrementalResult rec = verify_now();
    timed.stop();
    trace.count("verify.dirty_dests",
                static_cast<double>(rec.stats.dirty_destinations));
    trace.count("verify.states", static_cast<double>(rec.stats.states_explored));
    R.check(snapshot_clean(rec),
            "reconvergence snapshot after event " + std::to_string(e) +
                " not loop-free, valley-free and lint-clean");

    // --- output checks (untimed) ---
    R.digest.mix(static_cast<std::uint64_t>(ev.kind));
    R.digest.mix(ev.a.value());
    R.digest.mix(ev.b.value());
    R.digest.mix(st.recomputed);
    R.digest.mix(st.patched);
    R.digest.mix(st.touched_dests.size());
    R.digest.mix(imm.stats.dirty_destinations);
    R.digest.mix(rec.stats.dirty_destinations);
    R.digest.mix(snapshot_clean(imm) && snapshot_clean(rec) ? 1 : 0);
    ++R.attempted;
    ++R.ops;
    if (ev.kind == ChurnKind::Withdraw) {
      // A withdrawn prefix leaves every FIB outside its owner AS.
      for (const auto& [addr, as] : owner_addrs) {
        if (as != ev.a) continue;
        for (const dp::Router& r : net.routers()) {
          if (r.as() == as) continue;
          if (r.fib().contains(addr)) {
            R.check(false, "withdrawn prefix of AS" +
                               std::to_string(as.value()) + " still in r" +
                               std::to_string(r.id().value()) + "'s FIB");
            break;
          }
        }
      }
    }
    if (ev.kind == ChurnKind::Down) {
      // Known fault: RouteController::session_down updates only the delta
      // table, so after reconvergence a router still forwards out of the
      // downed port although the routing plane moved its AS elsewhere.
      bool stale = false;
      for (const auto& [x, y, eg] :
           {std::tuple{ev.a, ev.b, eg_ab}, std::tuple{ev.b, ev.a, eg_ba}}) {
        const dp::Router& r = net.router(eg->router);
        for (const auto& [addr, owner] : owner_addrs) {
          if (owner == x) continue;
          const auto fe = r.fib().lookup(addr);
          if (!fe || fe->out_port != eg->port) continue;
          const bgp::Route& best = ctl->delta().segment(owner)->store.best(x);
          stale = stale || (best.valid() && best.next_hop != y);
        }
      }
      if (stale) ++R.failed;
    }
    if ((e + 1) % kDifferentialEvery == 0 || e + 1 == events.size()) {
      const auto full_loop = verify::check_loop_freedom(net);
      const auto full_valley = verify::check_valley_freedom(net);
      R.check(full_loop.loop_free == rec.loop.loop_free &&
                  full_loop.cycles.size() == rec.loop.cycles.size() &&
                  full_valley.valley_free == rec.valley.valley_free &&
                  full_valley.violations.size() ==
                      rec.valley.violations.size(),
              "incremental verdict differs from the full provers after "
              "event " + std::to_string(e));
      const auto stale_segments = ctl->delta().differential_check();
      R.check(stale_segments.empty(),
              "delta routing table differs from a from-scratch rebuild after "
              "event " + std::to_string(e));
    }
  }
  R.timed_s = timed.total();

  R.digest.mix(fib_digest(net));
  for (const AsId d : ctl->delta().destinations()) {
    for (const bgp::Route& r : ctl->delta().segment(d)->store.all_best()) {
      R.digest.mix(r.next_hop.value());
    }
  }
  for (const FlowId id : bg) {
    const dp::FlowState& f = net.flow(id);
    R.digest.mix(f.done ? 1 : 0);
    R.digest.mix_double(f.end_time);
    R.digest.mix(f.expected);
  }

  R.detail["events_per_s"] = static_cast<double>(R.ops) / R.timed_s;
  R.detail["event_p50_ms"] = percentile(latency_ms, 0.5);
  R.detail["event_p90_ms"] = percentile(latency_ms, 0.9);
  R.detail["prefix_event_p50_ms"] = percentile(prefix_ms, 0.5);
  R.detail["session_event_p50_ms"] = percentile(session_ms, 0.5);
  R.detail["routers"] = static_cast<double>(net.num_routers());
  trace.set("bgpd.messages",
            static_cast<double>(ctl->messages_processed() - messages0));
  trace.set("dataplane.hops", static_cast<double>(forwarded_hops(net) - hops0));
}

// --- packet --------------------------------------------------------------------

// Serial part: staggered 2 MB flows at 1 Gbps. Three multi-homed stub ASes
// each hold four hosts; three quarters of the flows converge on them, so
// the default egresses towards them congest and Algorithm 1 deflects. The
// rest are uniformly random pairs.
constexpr std::size_t kHotDests = 3;
constexpr std::size_t kHostsPerHot = 4;
constexpr std::size_t kHotFlows = 72;
constexpr std::size_t kRandomFlows = 24;
constexpr Bytes kPacketFlowSize = 2 * kMegaByte;
constexpr SimTime kPacketStagger = 1e-3;
constexpr SimTime kSegment = 0.25;  // testbed::run_scaled's run segment
constexpr SimTime kPacketCap = 60.0;

// Sharded part: testbed::run_scaled's scenario (topology seed 42, host
// pairs from its fixed pair seed) at 80 flows x 2 MB on 2 forwarding
// workers, against the serial oracle on the same inputs. The inputs do not
// depend on the benchmark seed: on them the sharded plane is known to
// differ from its oracle on a fixed set of flows.
constexpr std::size_t kShardPairs = 40;
constexpr std::size_t kShardFlowsPerPair = 2;
constexpr Bytes kShardFlowSize = 2 * kMegaByte;
constexpr SimTime kShardStagger = 2e-3;
constexpr std::size_t kShardWorkers = 2;

struct FlowOutcome {
  bool done = false;
  SimTime end_time = 0.0;
  std::uint32_t received = 0;
  bool operator==(const FlowOutcome&) const = default;
};

template <typename NetT, typename DonePred>
void run_segmented(NetT& net, const DonePred& all_done) {
  SimTime t = 0.0;
  while (t < kPacketCap && !all_done()) {
    t = std::min(t + kSegment, kPacketCap);
    net.run_until(t);
  }
}

std::vector<std::pair<AsId, AsId>> shard_pairs(const topo::AsGraph& g) {
  // testbed::run_scaled's make_scenario pair draw.
  Rng rng(hash64(kScaledTopoSeed ^ 0x5ca1ab1e5ca1ab1eull));
  const auto n = static_cast<std::uint64_t>(g.num_ases());
  std::vector<std::pair<AsId, AsId>> pairs;
  for (std::size_t k = 0; k < kShardPairs; ++k) {
    const auto src = static_cast<std::uint32_t>(rng.bounded(n));
    std::uint32_t dst = src;
    while (dst == src) dst = static_cast<std::uint32_t>(rng.bounded(n));
    pairs.emplace_back(AsId(src), AsId(dst));
  }
  return pairs;
}

template <typename NetT>
std::vector<FlowId> schedule_shard_flows(
    NetT& net, const std::vector<testbed::HostAttachment>& hosts) {
  std::vector<FlowId> ids;
  for (std::size_t k = 0; k < kShardPairs; ++k) {
    for (std::size_t f = 0; f < kShardFlowsPerPair; ++f) {
      dp::FlowParams fp;
      fp.src = hosts[2 * k].host;
      fp.dst = hosts[2 * k + 1].host;
      fp.size = kShardFlowSize;
      fp.start =
          static_cast<SimTime>(k * kShardFlowsPerPair + f) * kShardStagger;
      ids.push_back(net.start_flow(fp));
    }
  }
  return ids;
}

double histogram_sum_estimate(const Histogram& h) {
  // Bin-midpoint estimate (the registry keeps bin counts, not sums).
  double s = 0.0;
  for (std::size_t i = 0; i < h.bins(); ++i) {
    s += static_cast<double>(h.bin_count(i)) *
         0.5 * (h.bin_low(i) + h.bin_high(i));
  }
  return s;
}

void run_packet(Round& R, Trace& trace, PhaseClock& setup, bool setup_only) {
  setup.start();
  const topo::AsGraph g =
      generate(kScaledAses, kScaledTier1, kScaledTopoSeed, trace);
  const std::vector<bool> expand =
      testbed::scaled_expand_mask(g, kScaledExpandCap);

  // Inputs of the serial part. The hot destinations are the first stubs of
  // the fixed deployment with the fewest providers beyond one (two upstream
  // links to congest); the seed draws the flows' sources and the random
  // pairs.
  std::vector<AsId> hot;
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    if (g.provider_count(AsId(i)) >= 2 && g.customer_count(AsId(i)) == 0) {
      hot.push_back(AsId(i));
    }
  }
  std::stable_sort(hot.begin(), hot.end(), [&g](AsId x, AsId y) {
    return g.provider_count(x) < g.provider_count(y);
  });
  hot.resize(std::min(hot.size(), kHotDests));
  Rng rng(hash_combine(R.seed, 0x9ac4e7ull));
  const auto random_as = [&](AsId avoid) {
    for (;;) {
      const AsId a(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
      if (a != avoid && std::find(hot.begin(), hot.end(), a) == hot.end()) {
        return a;
      }
    }
  };
  testbed::Emulation em;
  std::vector<std::pair<HostId, HostId>> serial_pairs;
  {
    const auto span = trace.scope("testbed.build_s");
    testbed::EmulationBuilder builder(g, expand, scaled_build());
    std::vector<HostId> hot_hosts;
    for (const AsId h : hot) {
      for (std::size_t k = 0; k < kHostsPerHot; ++k) {
        hot_hosts.push_back(builder.attach_host(h));
      }
    }
    for (std::size_t f = 0; f < kHotFlows; ++f) {
      const HostId src = builder.attach_host(random_as(AsId::invalid()));
      serial_pairs.emplace_back(src, hot_hosts[f % hot_hosts.size()]);
    }
    for (std::size_t f = 0; f < kRandomFlows; ++f) {
      const AsId s = random_as(AsId::invalid());
      const AsId d = random_as(s);
      const HostId hs = builder.attach_host(s);
      const HostId hd = builder.attach_host(d);
      serial_pairs.emplace_back(hs, hd);
    }
    em = builder.finalize();
  }
  enable_mifo(em, g, trace);
  dp::Network& net = *em.net;
  std::vector<FlowId> serial_ids;
  for (std::size_t f = 0; f < serial_pairs.size(); ++f) {
    dp::FlowParams fp;
    fp.src = serial_pairs[f].first;
    fp.dst = serial_pairs[f].second;
    fp.size = kPacketFlowSize;
    fp.start = kPacketStagger * static_cast<double>(f);
    serial_ids.push_back(net.start_flow(fp));
  }

  // Sharded part's engine.
  const auto pairs = shard_pairs(g);
  testbed::ShardedEmulation sem;
  {
    const auto span = trace.scope("testbed.build_s");
    testbed::ShardedEmulationBuilder builder(g, expand, scaled_build());
    for (const auto& [src, dst] : pairs) {
      builder.attach_host(src);
      builder.attach_host(dst);
    }
    sem = builder.finalize(kShardWorkers);
  }
  sem.enable_mifo(all_ases(g), dp::RouterConfig{}, kDaemonInterval);
  const std::vector<FlowId> shard_ids = schedule_shard_flows(*sem.net, sem.hosts);
  setup.stop();
  if (setup_only) return;

  // Timed: the serial engine, then the sharded one.
  PhaseClock timed;
  timed.start();
  {
    const auto span = trace.scope("dataplane.run_s");
    run_segmented(net, [&] {
      return std::all_of(serial_ids.begin(), serial_ids.end(),
                         [&](FlowId id) { return net.flow(id).done; });
    });
  }
  timed.stop();
  const double serial_s = timed.total();
  const SimTime serial_end = net.now();
  dp::ShardedNetwork& snet = *sem.net;
  timed.start();
  {
    const auto span = trace.scope("shard.run_s");
    run_segmented(snet, [&] {
      return std::all_of(shard_ids.begin(), shard_ids.end(), [&](FlowId id) {
        return snet.sender_flow(id).done;
      });
    });
  }
  timed.stop();
  R.timed_s = timed.total();
  const double sharded_s = R.timed_s - serial_s;

  // --- checks (untimed) ---
  trace.set_paused(true);
  const std::uint64_t hops = forwarded_hops(net);
  const std::uint64_t deflected = net.total_counters().deflected;
  std::uint64_t done = 0;
  for (const FlowId id : serial_ids) {
    const dp::FlowState& f = net.flow(id);
    ++R.attempted;
    done += f.done ? 1 : 0;
    R.digest.mix(f.done ? 1 : 0);
    R.digest.mix_double(f.end_time);
    R.digest.mix(f.expected);
  }
  R.check(done == serial_ids.size(), "serial flows left incomplete");
  const std::uint64_t delivered_serial = net.delivered_pkts();
  const auto serial_drops = net.drop_breakdown();
  // Conservation once queues drain: run on with no traffic left to send.
  net.run_until(serial_end + 0.5);
  R.check(net.queued_pkts() == 0, "serial queues did not drain");
  R.check(net.injected_pkts() ==
              net.delivered_pkts() + net.misdelivered_pkts() +
                  net.stale_flow_pkts() + drop_total(net.drop_breakdown()),
          "serial packet conservation does not close");
  R.digest.mix(delivered_serial);
  for (const auto& [reason, count] : serial_drops) R.digest.mix(count);

  // The serial oracle of the sharded part, on identical inputs.
  testbed::EmulationBuilder ob(g, expand, scaled_build());
  for (const auto& [src, dst] : pairs) {
    ob.attach_host(src);
    ob.attach_host(dst);
  }
  testbed::Emulation oem = ob.finalize();
  oem.enable_mifo(all_ases(g), dp::RouterConfig{}, kDaemonInterval);
  const std::vector<FlowId> oracle_ids = schedule_shard_flows(*oem.net, oem.hosts);
  dp::Network& onet = *oem.net;
  run_segmented(onet, [&] {
    return std::all_of(oracle_ids.begin(), oracle_ids.end(),
                       [&](FlowId id) { return onet.flow(id).done; });
  });
  std::uint64_t shard_done = 0;
  std::uint64_t differing = 0;
  for (std::size_t i = 0; i < shard_ids.size(); ++i) {
    const dp::FlowState& sf = snet.sender_flow(shard_ids[i]);
    const FlowOutcome got{sf.done, sf.end_time,
                          snet.receiver_flow(shard_ids[i]).expected};
    const dp::FlowState& of = onet.flow(oracle_ids[i]);
    const FlowOutcome want{of.done, of.end_time, of.expected};
    ++R.attempted;
    shard_done += got.done ? 1 : 0;
    R.check(want.done, "oracle flow left incomplete");
    if (!(got == want)) ++differing;
    R.digest.mix(got.done ? 1 : 0);
    R.digest.mix_double(got.end_time);
    R.digest.mix(got.received);
  }
  // Known fault: the sharded plane is not bit-exact against its serial
  // oracle on these inputs (same-timestamp tie order); each differing flow
  // is a failed operation.
  R.failed += differing;
  R.check(shard_done == shard_ids.size(), "sharded flows left incomplete");
  const std::uint64_t delivered_sharded = snet.delivered_pkts();
  // The gated throughput is the serial engine's: the 2-worker run's wall
  // time depends on two cores being free at once and swings by half on a
  // shared host, so it is reported beside it, not folded in.
  R.ops = delivered_serial;
  R.ops_s = serial_s;
  R.digest.mix(delivered_sharded);

  R.detail["pkts_per_s"] = static_cast<double>(delivered_serial) / serial_s;
  R.detail["sharded_pkts_per_s"] =
      static_cast<double>(delivered_sharded) / sharded_s;
  R.detail["deflected_share"] =
      static_cast<double>(deflected) / static_cast<double>(std::max<std::uint64_t>(1, hops));
  R.detail["sharded_differing_flows"] = static_cast<double>(differing);
  R.detail["oracle_delivered_minus_sharded"] =
      static_cast<double>(onet.delivered_pkts()) -
      static_cast<double>(delivered_sharded);
  R.detail["routers"] = static_cast<double>(net.num_routers());
  trace.set("dataplane.hops", static_cast<double>(hops));
  trace.set("dataplane.drops", static_cast<double>(drop_total(serial_drops)));
  if (trace.on()) {
    obs::Registry reg;
    snet.publish_metrics(reg, "");
    const obs::Snapshot snap = reg.snapshot();
    double epochs = 0.0;
    for (const auto& e : snap.scalars) {
      if (e.name == "dp.epochs") epochs += e.value;
    }
    for (const auto& h : snap.histograms) {
      if (h.name == "dp.barrier_wait_seconds") {
        trace.set("shard.barrier_wait_s", histogram_sum_estimate(h.hist));
      }
    }
    std::uint64_t pushed = 0;
    for (const dp::RingStats& rs : snet.ring_stats()) pushed += rs.pushed;
    trace.set("shard.epochs", epochs);
    trace.set("shard.ring_pushed", static_cast<double>(pushed));
  }
}

// --- fluid ----------------------------------------------------------------------

void record_digest(const std::vector<sim::FlowRecord>& recs, Digest& d) {
  for (const sim::FlowRecord& r : recs) {
    d.mix(r.completed ? 1 : 0);
    d.mix_double(r.finish);
    d.mix(r.path_switches);
    d.mix(r.used_alternative ? 1 : 0);
  }
}

/// Checks common to both fluid loops: every flow completes and none beats
/// its access-link rate.
void check_records(Round& R, const std::vector<sim::FlowRecord>& recs,
                   Mbps cap) {
  std::size_t incomplete = 0;
  std::size_t too_fast = 0;
  for (const sim::FlowRecord& r : recs) {
    ++R.attempted;
    if (!r.completed) ++incomplete;
    if (r.throughput() > cap * (1.0 + 1e-9)) ++too_fast;
  }
  R.check(incomplete == 0,
          std::to_string(incomplete) + " flows did not complete");
  R.check(too_fast == 0,
          std::to_string(too_fast) + " flows beat their access-link rate");
}

double registry_value(const obs::Registry& reg, const std::string& name) {
  double v = 0.0;
  for (const auto& e : reg.snapshot().scalars) {
    if (e.name == name) v += e.value;
  }
  return v;
}

void warm_routes(sim::FluidSim& fs, const std::vector<AsId>& dests,
                 Trace& trace) {
  const auto span = trace.scope("sim.route_warm_s");
  for (const AsId d : dests) (void)fs.routes_for(d);
}

// Fig. 5 uniform trace at MIFO 100%: the 400-AS, 8000-flow, 800/s point with
// flows and arrival rate raised by a quarter, so more flows share each link
// (the run time grows much faster than the flow count).
constexpr std::size_t kBatchAses = 400;
constexpr std::uint64_t kFluidTopoSeed = 1;
constexpr std::size_t kBatchFlows = 10000;
constexpr std::size_t kBatchDestPool = 64;
constexpr double kBatchArrival = 1000.0;
constexpr SimTime kUtilSample = 0.05;

/// traffic::uniform_traffic's trace shape: Poisson arrivals of equal-size
/// flows, uniform sources, destinations uniform over a pool. The pool is the
/// one uniform_traffic draws for the fixed topology seed, so every benchmark
/// seed converges on the same destinations and varies only which flows
/// arrive when: the pool alone moves the run time by a quarter.
std::vector<traffic::FlowSpec> uniform_trace(const topo::AsGraph& g,
                                             std::uint64_t seed) {
  traffic::TrafficParams tp;
  tp.num_flows = 64 * kBatchDestPool;
  tp.dest_pool = kBatchDestPool;
  tp.seed = kFluidTopoSeed;
  std::vector<AsId> pool;
  for (const auto& s : traffic::uniform_traffic(g, tp)) pool.push_back(s.dst);
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  Rng rng(hash_combine(seed, 0xf165ull));
  std::vector<traffic::FlowSpec> flows;
  SimTime t = 0.0;
  for (std::size_t i = 0; i < kBatchFlows; ++i) {
    t += rng.exponential(kBatchArrival);
    const AsId dst = pool[rng.bounded(pool.size())];
    AsId src = dst;
    while (src == dst) {
      src = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
    }
    flows.push_back(traffic::FlowSpec{src, dst, tp.flow_size, t});
  }
  return flows;
}

void run_fluid_batch(Round& R, Trace& trace, PhaseClock& setup,
                     bool setup_only) {
  setup.start();
  const topo::AsGraph g = generate(kBatchAses, 0, kFluidTopoSeed, trace);
  std::vector<traffic::FlowSpec> specs;
  {
    const auto span = trace.scope("traffic.trace_s");
    specs = uniform_trace(g, R.seed);
  }
  sim::SimConfig cfg;
  cfg.mode = sim::RoutingMode::Mifo;
  cfg.threads = 1;
  sim::FluidSim fs(g, cfg);
  fs.set_deployment(std::vector<bool>(g.num_ases(), true));
  obs::Registry reg;
  if (trace.on()) fs.attach_registry(reg, "");
  fs.enable_sampling(kUtilSample);
  std::vector<AsId> dests;
  for (const auto& s : specs) dests.push_back(s.dst);
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  warm_routes(fs, dests, trace);
  setup.stop();
  if (setup_only) return;

  PhaseClock timed;
  timed.start();
  std::vector<sim::FlowRecord> recs;
  {
    const auto span = trace.scope("sim.run_s");
    recs = fs.run(std::move(specs));
  }
  timed.stop();
  R.timed_s = timed.total();

  check_records(R, recs, cfg.flow_rate_cap);
  double max_util = 0.0;
  for (const auto& s : fs.samples()) max_util = std::max(max_util, s.max_util);
  R.check(!fs.samples().empty(), "no utilization samples");
  R.check(max_util <= 1.0 + 1e-9, "a sampled link utilization exceeds 1");
  record_digest(recs, R.digest);
  std::size_t deflected = 0;
  for (const auto& r : recs) deflected += r.used_alternative ? 1 : 0;
  R.ops = recs.size();
  R.detail["flows_per_s"] = static_cast<double>(R.ops) / R.timed_s;
  R.detail["max_sampled_util"] = max_util;
  R.detail["alt_path_share"] =
      static_cast<double>(deflected) / static_cast<double>(recs.size());
  if (trace.on()) {
    trace.set("sim.solver_runs", registry_value(reg, "sim.solver_runs"));
    trace.set("sim.solver_incidences",
              registry_value(reg, "sim.solver_incidences"));
  }
}

// bench_steady_state's operating point: 1500 ASes, the 512 best-connected
// stubs as gravity endpoints, arrival rate set so the busiest BGP link sits
// at rho = 0.85, per-flow cap = offered / 12000 concurrent flows.
constexpr std::size_t kStreamAses = 1500;
constexpr std::size_t kStreamEndpoints = 512;
constexpr double kStreamRho = 0.85;
constexpr double kStreamTarget = 12000.0;
constexpr double kStreamRamps = 40.0;     // arrival horizon in ramp times
constexpr double kDiffHorizon = 0.1;      // differential run, in ramp times

traffic::WorkloadParams stream_params(std::uint64_t seed) {
  traffic::WorkloadParams wp;
  wp.seed = hash_combine(seed, 0x57e4dull);
  wp.max_endpoints = kStreamEndpoints;
  wp.pareto_alpha = 1.3;
  wp.size_min = 1 * kMegaByte;
  wp.size_max = 1000 * kMegaByte;
  return wp;
}

struct Operating {
  double lambda = 0.0;
  double flow_cap = 0.0;
  double ramp = 0.0;
};

/// bench_steady_state's calibration: expected per-link load from the
/// gravity marginals over the endpoints' BGP default paths.
Operating calibrate(const topo::AsGraph& g, std::uint64_t seed) {
  traffic::WorkloadParams wp = stream_params(seed);
  wp.arrival_rate = 1.0;
  wp.duration = 1.0;
  traffic::WorkloadEngine probe(g, wp);
  const auto& eps = probe.endpoints();
  const auto w = probe.marginals();
  sim::SimConfig cfg;
  cfg.mode = sim::RoutingMode::Bgp;
  cfg.threads = 1;
  sim::FluidSim paths(g, cfg);
  std::vector<double> load(g.num_directed_links(), 0.0);
  for (std::size_t di = 0; di < eps.size(); ++di) {
    const bgp::RouteStore& store = paths.routes_for(eps[di]);
    for (std::size_t si = 0; si < eps.size(); ++si) {
      if (si == di) continue;
      const auto walk = core::bgp_walk(g, store, eps[si]);
      if (!walk.reachable) continue;
      for (const LinkId l : walk.links) load[l.value()] += w[si] * w[di];
    }
  }
  const double share = *std::max_element(load.begin(), load.end());
  Operating op;
  const double offered = kStreamRho * kGigabit / share;
  op.lambda = offered / probe.mean_flow_megabits();
  op.flow_cap = std::clamp(offered / kStreamTarget, 0.05, kGigabit);
  op.ramp = kStreamTarget / op.lambda;
  return op;
}

sim::SimConfig stream_config(const Operating& op) {
  sim::SimConfig cfg;
  cfg.mode = sim::RoutingMode::Mifo;
  cfg.flow_rate_cap = op.flow_cap;
  cfg.threads = 1;
  cfg.reeval_interval = 1.0;  // bench_steady_state's re-evaluation period
  return cfg;
}

void run_fluid_stream(Round& R, Trace& trace, PhaseClock& setup,
                      bool setup_only) {
  setup.start();
  const topo::AsGraph g = generate(kStreamAses, 0, kFluidTopoSeed, trace);
  Operating op;
  {
    const auto span = trace.scope("sim.calibrate_s");
    op = calibrate(g, R.seed);
  }
  traffic::WorkloadParams wp = stream_params(R.seed);
  wp.arrival_rate = op.lambda;
  wp.duration = kStreamRamps * op.ramp;
  auto engine = std::make_unique<traffic::WorkloadEngine>(g, wp);
  const sim::SimConfig cfg = stream_config(op);
  sim::FluidSim fs(g, cfg);
  fs.set_deployment(std::vector<bool>(g.num_ases(), true));
  obs::Registry reg;
  if (trace.on()) fs.attach_registry(reg, "");
  warm_routes(fs, engine->endpoints(), trace);
  setup.stop();
  if (setup_only) return;

  PhaseClock timed;
  timed.start();
  std::vector<traffic::FlowSpec> specs;
  {
    const auto span = trace.scope("traffic.generate_s");
    traffic::FlowSpec s;
    while (engine->next(s)) specs.push_back(s);
  }
  sim::StreamResult res;
  {
    const auto span = trace.scope("sim.stream_s");
    sim::StreamConfig sc;
    sc.epoch = std::max(0.25, wp.duration / 80.0);
    res = fs.run_stream(std::move(specs), sc);
  }
  timed.stop();
  R.timed_s = timed.total();

  check_records(R, res.records, cfg.flow_rate_cap);
  double max_util = 0.0;
  for (const auto& s : res.load) max_util = std::max(max_util, s.max_util);
  R.check(!res.load.empty(), "no load samples");
  R.check(max_util <= 1.0 + 1e-9, "a sampled link utilization exceeds 1");
  R.check(!res.truncated, "stream truncated");
  record_digest(res.records, R.digest);
  R.digest.mix(res.peak_active);
  R.ops = res.records.size();

  // Differential: the incremental solver against the from-scratch oracle
  // after every event, on a shorter stream of the same seed (untimed).
  traffic::WorkloadParams dwp = wp;
  dwp.duration = kDiffHorizon * op.ramp;
  traffic::WorkloadEngine deng(g, dwp);
  sim::FluidSim dfs(g, cfg);
  dfs.set_deployment(std::vector<bool>(g.num_ases(), true));
  sim::StreamConfig dsc;
  dsc.differential = true;
  const sim::StreamResult dres = dfs.run_stream(deng, dsc);
  R.check(dres.solver.differential_checks > 0 &&
              dres.solver.differential_mismatches == 0,
          "incremental max-min solver differs from the from-scratch oracle");

  R.detail["flows_per_s"] = static_cast<double>(R.ops) / R.timed_s;
  R.detail["peak_active_flows"] = static_cast<double>(res.peak_active);
  R.detail["max_sampled_util"] = max_util;
  R.detail["differential_checks"] =
      static_cast<double>(dres.solver.differential_checks);
  R.detail["flow_cap_mbps"] = op.flow_cap;
  R.detail["arrivals_per_s"] = op.lambda;
  if (trace.on()) {
    trace.set("sim.solver_runs", registry_value(reg, "sim.solver_runs"));
    trace.set("sim.solver_incidences",
              registry_value(reg, "sim.solver_incidences"));
    trace.set("sim.solver_full_incidences",
              registry_value(reg, "sim.solver_full_incidences"));
  }
}

// --- output ----------------------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_str(k) + ":" + json_num(v);
  }
  return out + "}";
}

// Span layers reported per layer (BENCHMARK.json's per_layer times).
constexpr const char* kSpanLayers[] = {
    "topo.generate_s",  "testbed.build_s",  "chaos.controller_s",
    "verify.initial_s", "chaos.route_s",    "verify.check_s",
    "core.tick_s",      "dataplane.run_s",  "shard.run_s",
    "sim.route_warm_s", "sim.run_s",        "sim.stream_s",
    "traffic.generate_s"};

/// Per-layer figures of a traced round, by the names BENCHMARK.json lists.
/// A time of a layer the workload never called reads the measured cost of
/// one clock read (tens of nanoseconds, averaged over 100 reads), a stand-in
/// for zero that is still a measurement.
std::map<std::string, double> layer_metrics(const Trace& t, double wall) {
  const auto or_probe = [](double v) {
    if (v > 0.0) return v;
    const auto t0 = Clock::now();
    for (int i = 0; i < 100; ++i) (void)Clock::now();
    return since(t0) / 100.0;
  };
  const auto div = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::map<std::string, double> m;
  for (const char* name : kSpanLayers) m[name] = or_probe(t.busy(name));
  m["core.tick_us"] =
      1e6 * or_probe(div(t.busy("core.tick_s"), t.counted("core.ticks")));
  m["dataplane.ns_per_hop"] = 1e9 * or_probe(div(t.busy("dataplane.run_s"),
                                                 t.counted("dataplane.hops")));
  m["shard.barrier_wait_s"] = or_probe(t.counted("shard.barrier_wait_s"));
  for (const char* name :
       {"bgpd.messages", "bgp.recomputed", "bgp.patched", "verify.dirty_dests",
        "verify.states", "dataplane.drops", "shard.ring_pushed",
        "shard.epochs", "sim.solver_runs", "sim.solver_incidences"}) {
    m[name] = t.counted(name);
  }
  m["verify.useful_ratio"] =
      div(t.counted("verify.useful"), t.counted("verify.dirty_dests"));
  m["sim.solve_reduction"] = div(t.counted("sim.solver_full_incidences"),
                                 t.counted("sim.solver_incidences"));
  m["trace.coverage"] = t.covered() / wall;
  return m;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process image. VmHWM, not ru_maxrss: the
/// latter keeps the high-water mark of the parent's memory image that the
/// process was forked from, which a Python harness inflates by several MiB.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_mifo --workload "
               "churn|packet|fluid_batch|fluid_stream --seed N "
               "[--trace 0|1] [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Round R;
  bool have_seed = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      R.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      R.seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      R.traced = v == "1";
    } else if (a == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();

  const auto wall0 = Clock::now();
  const double cpu0 = cpu_seconds();
  Trace trace(R.traced);
  PhaseClock setup;
  if (R.workload == "churn") {
    run_churn(R, trace, setup, setup_only);
  } else if (R.workload == "packet") {
    run_packet(R, trace, setup, setup_only);
  } else if (R.workload == "fluid_batch") {
    run_fluid_batch(R, trace, setup, setup_only);
  } else if (R.workload == "fluid_stream") {
    run_fluid_stream(R, trace, setup, setup_only);
  } else {
    return usage();
  }
  R.setup_s = setup.total();
  if (R.ops_s == 0.0) R.ops_s = R.timed_s;
  const double wall = since(wall0);
  const double cpu = cpu_seconds() - cpu0;
  if (R.traced) R.layers = layer_metrics(trace, R.setup_s + R.timed_s);

  std::printf("workload %s seed %" PRIu64 " trace %d\n", R.workload.c_str(),
              R.seed, R.traced ? 1 : 0);
  std::printf("setup %.4f s, timed %.4f s, process wall %.3f s cpu %.3f s\n",
              R.setup_s, R.timed_s, wall, cpu);
  for (const auto& [k, v] : R.detail) std::printf("  %-32s %.6g\n", k.c_str(), v);
  if (R.traced) {
    for (const auto& [k, v] : R.layers) {
      std::printf("  layer %-26s %.6g\n", k.c_str(), v);
    }
  }
  std::printf("digest %016" PRIx64 "\n", R.digest.value());
  for (const auto& e : R.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::string errs = "[";
  for (const auto& e : R.errors) {
    if (errs.size() > 1) errs += ",";
    errs += json_str(e);
  }
  errs += "]";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, R.digest.value());
  std::printf(
      "{\"workload\":%s,\"seed\":%" PRIu64
      ",\"trace\":%d,\"setup_only\":%s,\"setup_s\":%s,\"timed_s\":%s,"
      "\"wall_s\":%s,\"cpu_s\":%s,\"peak_rss_mb\":%s,\"ops\":%" PRIu64
      ",\"ops_s\":%s"
      ",\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
      ",\"errors\":%s,\"digest\":\"%s\",\"detail\":%s,\"layers\":%s}\n",
      json_str(R.workload).c_str(), R.seed, R.traced ? 1 : 0,
      setup_only ? "true" : "false", json_num(R.setup_s).c_str(),
      json_num(R.timed_s).c_str(), json_num(wall).c_str(),
      json_num(cpu).c_str(), json_num(peak_rss_mib()).c_str(), R.ops,
      json_num(R.ops_s).c_str(),
      R.attempted, R.failed, errs.c_str(), digest,
      json_map(R.detail).c_str(), json_map(R.layers).c_str());
  return 0;
}

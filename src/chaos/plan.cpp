#include "chaos/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace mifo::chaos {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::LinkDown:
      return "link-down";
    case EventKind::LinkUp:
      return "link-up";
    case EventKind::Degrade:
      return "degrade";
    case EventKind::Restore:
      return "restore";
    case EventKind::Withdraw:
      return "withdraw";
    case EventKind::Reannounce:
      return "reannounce";
    case EventKind::IbgpDrop:
      return "ibgp-drop";
    case EventKind::IbgpRestore:
      return "ibgp-restore";
    case EventKind::RouterFreeze:
      return "freeze";
    case EventKind::RouterRestart:
      return "restart";
    case EventKind::Burst:
      return "burst";
    case EventKind::PlantValley:
      return "plant-valley";
    case EventKind::PlantStaleRoute:
      return "plant-stale-route";
  }
  return "?";
}

bool is_recovery(EventKind k) {
  return k == EventKind::LinkUp || k == EventKind::Restore ||
         k == EventKind::Reannounce || k == EventKind::IbgpRestore ||
         k == EventKind::RouterRestart;
}

std::optional<EventKind> recovery_of(EventKind k) {
  switch (k) {
    case EventKind::LinkDown:
      return EventKind::LinkUp;
    case EventKind::Degrade:
      return EventKind::Restore;
    case EventKind::Withdraw:
      return EventKind::Reannounce;
    case EventKind::IbgpDrop:
      return EventKind::IbgpRestore;
    case EventKind::RouterFreeze:
      return EventKind::RouterRestart;
    default:
      return std::nullopt;
  }
}

std::string Event::to_string() const {
  char buf[128];
  switch (kind) {
    case EventKind::LinkDown:
    case EventKind::LinkUp:
    case EventKind::Restore:
      std::snprintf(buf, sizeof(buf), "at %.6f %s %u %u", t,
                    chaos::to_string(kind), a.value(), b.value());
      break;
    case EventKind::Degrade:
      std::snprintf(buf, sizeof(buf), "at %.6f degrade %u %u %.6f", t,
                    a.value(), b.value(), value);
      break;
    case EventKind::Withdraw:
    case EventKind::Reannounce:
    case EventKind::IbgpDrop:
    case EventKind::IbgpRestore:
    case EventKind::RouterFreeze:
    case EventKind::RouterRestart:
      std::snprintf(buf, sizeof(buf), "at %.6f %s %u", t,
                    chaos::to_string(kind), a.value());
      break;
    case EventKind::Burst:
      std::snprintf(buf, sizeof(buf), "at %.6f burst %u %u %u %.6f", t,
                    a.value(), b.value(), count, value);
      break;
    case EventKind::PlantValley:
      std::snprintf(buf, sizeof(buf), "at %.6f plant-valley", t);
      break;
    case EventKind::PlantStaleRoute:
      std::snprintf(buf, sizeof(buf), "at %.6f plant-stale-route", t);
      break;
  }
  return buf;
}

void Plan::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) { return x.t < y.t; });
}

namespace {

/// Parses one event (everything after the time) from the token stream.
bool parse_event(std::istringstream& ls, SimTime t, Event& ev,
                 std::string& error) {
  std::string word;
  if (!(ls >> word)) {
    error = "missing event kind";
    return false;
  }
  ev.t = t;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  if (word == "link-down" || word == "link-up" || word == "restore") {
    ev.kind = word == "link-down"  ? EventKind::LinkDown
              : word == "link-up" ? EventKind::LinkUp
                                  : EventKind::Restore;
    if (!(ls >> a >> b)) {
      error = word + ": expected two AS ids";
      return false;
    }
    ev.a = AsId(a);
    ev.b = AsId(b);
  } else if (word == "degrade") {
    ev.kind = EventKind::Degrade;
    if (!(ls >> a >> b >> ev.value)) {
      error = "degrade: expected two AS ids and a factor";
      return false;
    }
    ev.a = AsId(a);
    ev.b = AsId(b);
  } else if (word == "withdraw" || word == "reannounce" ||
             word == "ibgp-drop" || word == "ibgp-restore" ||
             word == "freeze" || word == "restart") {
    ev.kind = word == "withdraw"       ? EventKind::Withdraw
              : word == "reannounce"   ? EventKind::Reannounce
              : word == "ibgp-drop"    ? EventKind::IbgpDrop
              : word == "ibgp-restore" ? EventKind::IbgpRestore
              : word == "freeze"       ? EventKind::RouterFreeze
                                       : EventKind::RouterRestart;
    if (!(ls >> a)) {
      error = word + ": expected an AS id";
      return false;
    }
    ev.a = AsId(a);
  } else if (word == "burst") {
    ev.kind = EventKind::Burst;
    if (!(ls >> a >> b >> ev.count >> ev.value)) {
      error = "burst: expected SRC DST COUNT SIZE_MB";
      return false;
    }
    ev.a = AsId(a);
    ev.b = AsId(b);
  } else if (word == "plant-valley") {
    ev.kind = EventKind::PlantValley;
  } else if (word == "plant-stale-route") {
    ev.kind = EventKind::PlantStaleRoute;
  } else {
    error = "unknown event kind: " + word;
    return false;
  }
  return true;
}

}  // namespace

std::optional<Plan> parse_plan(std::istream& in, std::string& error) {
  Plan plan;
  std::string line;
  std::size_t lineno = 0;
  // `every` directives expand against the final duration, so buffer them
  // until the whole file is read (duration may come last).
  struct Every {
    SimTime start;
    SimTime period;
    Event ev;
  };
  std::vector<Every> repeats;

  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank / comment-only line
    std::string sub_error;
    if (word == "duration") {
      if (!(ls >> plan.duration) || plan.duration <= 0.0) {
        sub_error = "duration: expected a positive time";
      }
    } else if (word == "at") {
      SimTime t = 0.0;
      Event ev;
      if (!(ls >> t) || t < 0.0) {
        sub_error = "at: expected a non-negative time";
      } else if (parse_event(ls, t, ev, sub_error)) {
        plan.events.push_back(ev);
      }
    } else if (word == "every") {
      Every rep{};
      if (!(ls >> rep.start >> rep.period) || rep.period <= 0.0) {
        sub_error = "every: expected START PERIOD";
      } else if (parse_event(ls, rep.start, rep.ev, sub_error)) {
        repeats.push_back(rep);
      }
    } else if (word == "fail") {
      SimTime t = 0.0;
      SimTime mttr = 0.0;
      std::string kw;
      std::string what;
      Event fail;
      if (!(ls >> t >> kw >> mttr >> what) || kw != "mttr" || mttr <= 0.0) {
        sub_error = "fail: expected T mttr M <link|prefix|ibgp|router> ...";
      } else {
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        fail.t = t;
        if (what == "link" && (ls >> a >> b)) {
          fail.kind = EventKind::LinkDown;
          fail.a = AsId(a);
          fail.b = AsId(b);
        } else if (what == "prefix" && (ls >> a)) {
          fail.kind = EventKind::Withdraw;
          fail.a = AsId(a);
        } else if (what == "ibgp" && (ls >> a)) {
          fail.kind = EventKind::IbgpDrop;
          fail.a = AsId(a);
        } else if (what == "router" && (ls >> a)) {
          fail.kind = EventKind::RouterFreeze;
          fail.a = AsId(a);
        } else {
          sub_error = "fail: bad subject '" + what + "'";
        }
        if (sub_error.empty()) {
          plan.events.push_back(fail);
          Event rec = fail;
          rec.t = t + mttr;
          rec.kind = *recovery_of(fail.kind);
          plan.events.push_back(rec);
        }
      }
    } else {
      sub_error = "unknown directive: " + word;
    }
    if (!sub_error.empty()) {
      error = "line " + std::to_string(lineno) + ": " + sub_error;
      return std::nullopt;
    }
  }

  for (const auto& rep : repeats) {
    for (SimTime t = rep.start; t <= plan.duration; t += rep.period) {
      Event ev = rep.ev;
      ev.t = t;
      plan.events.push_back(ev);
    }
  }
  plan.normalize();
  return plan;
}

std::optional<Plan> parse_plan(const std::string& text, std::string& error) {
  std::istringstream in(text);
  return parse_plan(in, error);
}

bool check_plan(const Plan& plan, const topo::AsGraph& g, std::string& error) {
  for (const Event& ev : plan.events) {
    std::size_t subjects = 1;
    switch (ev.kind) {
      case EventKind::LinkDown:
      case EventKind::LinkUp:
      case EventKind::Degrade:
      case EventKind::Restore:
      case EventKind::Burst:
        subjects = 2;
        break;
      case EventKind::PlantValley:
      case EventKind::PlantStaleRoute:
        subjects = 0;
        break;
      default:
        break;
    }
    const AsId ids[] = {ev.a, ev.b};
    for (std::size_t i = 0; i < subjects; ++i) {
      const AsId as = ids[i];
      if (as.valid() && as.value() < g.num_ases()) continue;
      error = "event '" + ev.to_string() + "' names AS " +
              std::to_string(as.value()) + ", outside the topology's " +
              std::to_string(g.num_ases()) + " ASes";
      return false;
    }
  }
  return true;
}

std::string format_plan(const Plan& plan) {
  std::string out = "duration " + std::to_string(plan.duration) + "\n";
  for (const Event& ev : plan.events) out += ev.to_string() + "\n";
  return out;
}

Plan generate_plan(const topo::AsGraph& g, const GenParams& params) {
  MIFO_EXPECTS(g.num_ases() >= 2);
  MIFO_EXPECTS(params.duration > 0.0);
  MIFO_EXPECTS(params.rate > 0.0);
  MIFO_EXPECTS(params.mttr > 0.0);
  Rng rng(hash_combine(params.seed, 0xc4a05));
  Plan plan;
  plan.duration = params.duration;

  const auto random_adjacency = [&](AsId& a, AsId& b) {
    // Uniform over ASes, then over that AS's adjacencies; every link is
    // reachable and the bias towards low-degree ASes' links is fine for
    // fault injection (stub links fail in the wild too).
    for (int tries = 0; tries < 64; ++tries) {
      const AsId cand(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
      const auto nbs = g.neighbors(cand);
      if (nbs.empty()) continue;
      a = cand;
      b = nbs[rng.bounded(nbs.size())].as;
      return true;
    }
    return false;
  };
  const auto random_owner = [&]() -> AsId {
    if (!params.prefix_owners.empty()) {
      return params.prefix_owners[rng.bounded(params.prefix_owners.size())];
    }
    return AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
  };

  // Poisson fault arrivals over [5% .. 70%] of the duration: the head room
  // lets the deployment warm up, the tail room guarantees every repair
  // lands before the plan ends (recovery times are clamped there).
  const SimTime t_lo = 0.05 * params.duration;
  const SimTime t_hi = 0.70 * params.duration;
  const SimTime t_rec_max = 0.90 * params.duration;
  SimTime t = t_lo;
  while (true) {
    t += rng.exponential(params.rate);
    if (t > t_hi) break;
    // Category weights: link faults dominate (they are the paper's headline
    // churn source), the rest share the remainder.
    const std::uint64_t cat = rng.bounded(8);
    Event ev;
    ev.t = t;
    const SimTime t_rec =
        std::min(t + rng.exponential(1.0 / params.mttr), t_rec_max);
    switch (cat) {
      case 0:
      case 1:
      case 2: {  // link down -> up
        if (!random_adjacency(ev.a, ev.b)) continue;
        ev.kind = EventKind::LinkDown;
        break;
      }
      case 3: {  // degrade -> restore
        if (!random_adjacency(ev.a, ev.b)) continue;
        ev.kind = EventKind::Degrade;
        ev.value = rng.uniform(0.05, 0.5);
        break;
      }
      case 4: {  // withdraw -> reannounce
        ev.kind = EventKind::Withdraw;
        ev.a = random_owner();
        break;
      }
      case 5: {  // iBGP stale window
        ev.kind = EventKind::IbgpDrop;
        ev.a = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
        break;
      }
      case 6: {  // router freeze -> restart
        ev.kind = EventKind::RouterFreeze;
        ev.a = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
        break;
      }
      default: {  // congestion burst (one-shot)
        ev.kind = EventKind::Burst;
        ev.a = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
        ev.b = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
        ev.count = params.burst_flows;
        ev.value = params.burst_mb;
        break;
      }
    }
    plan.events.push_back(ev);
    if (const auto rec_kind = recovery_of(ev.kind)) {
      Event rec = ev;
      rec.t = t_rec;
      rec.kind = *rec_kind;
      plan.events.push_back(rec);
    }
  }

  plan.normalize();
  return plan;
}

}  // namespace mifo::chaos

#include "verify/incremental.hpp"

#include <algorithm>

namespace mifo::verify {

namespace {

bool contains(std::span<const dp::Addr> sorted, dp::Addr dst) {
  return std::binary_search(sorted.begin(), sorted.end(), dst);
}

void accumulate(VerifyStats& into, const VerifyStats& from) {
  into.states += from.states;
  into.edges += from.edges;
}

std::string flag_difference(const char* label, bool inc, bool full) {
  if (inc == full) return {};
  return std::string(label) + ": incremental " + (inc ? "1" : "0") +
         ", full " + (full ? "1" : "0");
}

/// Compares two finding lists as sequences of their renderings: empty when
/// identical, else a description of the first difference.
template <typename T>
std::string sequence_difference(const char* label, const std::vector<T>& inc,
                                const std::vector<T>& full) {
  for (std::size_t i = 0; i < std::min(inc.size(), full.size()); ++i) {
    const std::string a = inc[i].to_string();
    const std::string b = full[i].to_string();
    if (a != b) {
      return std::string(label) + "[" + std::to_string(i) +
             "]: incremental '" + a + "' vs full '" + b + "'";
    }
  }
  if (inc.size() == full.size()) return {};
  return std::string(label) + ": incremental has " +
         std::to_string(inc.size()) + ", full has " +
         std::to_string(full.size());
}

}  // namespace

IncrementalResult IncrementalVerifier::check(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> owners,
    const ChangeSet& changes) {
  const std::span<const dp::Router> routers = net.routers();
  const std::vector<dp::Addr> dests = fib_destinations(routers);
  const std::vector<dp::Addr> dirty = changes.dirty_destinations(routers);
  const std::vector<dp::Addr> port_dirty =
      cfg_.blackhole ? changes.port_dirty_destinations(routers)
                     : std::vector<dp::Addr>{};

  // Destinations that vanished from every FIB contribute nothing anymore.
  std::erase_if(cache_, [&](const auto& kv) {
    return !contains(dests, kv.first);
  });

  IncrementalResult result;
  result.stats.destinations = dests.size();
  result.loop.stats.destinations = dests.size();
  result.valley.stats.destinations = dests.size();
  result.reach.stats.destinations = dests.size();

  for (const dp::Addr dst : dests) {
    auto it = cache_.find(dst);
    const bool fresh = it == cache_.end();
    const bool graph_dirty = fresh || contains(dirty, dst);
    const bool reach_dirty =
        cfg_.blackhole && (graph_dirty || contains(port_dirty, dst));

    if (graph_dirty || reach_dirty) {
      if (fresh) it = cache_.emplace(dst, DestProof{}).first;
      DestProof& proof = it->second;
      const std::span<const dp::Addr> one(&dst, 1);
      ++result.stats.dirty_destinations;

      if (graph_dirty) {
        LoopCheck lc = check_loop_freedom(routers, one);
        proof.loop_free = lc.loop_free;
        proof.cycles = std::move(lc.cycles);
        proof.loop_stats = lc.stats;
        result.stats.states_explored += lc.stats.states;
        result.stats.edges_explored += lc.stats.edges;

        if (cfg_.valley) {
          ValleyCheck vc = check_valley_freedom(routers, one);
          proof.valley_free = vc.valley_free;
          proof.valleys = std::move(vc.violations);
          result.stats.states_explored += vc.stats.states;
          result.stats.edges_explored += vc.stats.edges;
        }
        if (cfg_.lint) {
          proof.lints = lint_destination(net, g, daemons, owners, dst);
        }
      }
      if (reach_dirty) {
        ReachabilityCheck rc = check_reachability(routers, one);
        proof.reach_clean = rc.clean;
        proof.blackholes = std::move(rc.blackholes);
        result.stats.states_explored += rc.stats.states;
        result.stats.edges_explored += rc.stats.edges;
      }
    } else {
      ++result.stats.cache_hits;
    }
  }

  // Merge destination-ascending (std::map iteration order), matching the
  // full prover's fib_destinations() sweep.
  for (const auto& [dst, proof] : cache_) {
    result.loop.loop_free = result.loop.loop_free && proof.loop_free;
    result.loop.cycles.insert(result.loop.cycles.end(), proof.cycles.begin(),
                              proof.cycles.end());
    accumulate(result.loop.stats, proof.loop_stats);
    result.valley.valley_free =
        result.valley.valley_free && proof.valley_free;
    result.valley.violations.insert(result.valley.violations.end(),
                                    proof.valleys.begin(),
                                    proof.valleys.end());
    result.lint.insert(result.lint.end(), proof.lints.begin(),
                       proof.lints.end());
    result.reach.clean = result.reach.clean && proof.reach_clean;
    result.reach.blackholes.insert(result.reach.blackholes.end(),
                                   proof.blackholes.begin(),
                                   proof.blackholes.end());
  }
  return result;
}

IncrementalResult check_from_scratch(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> owners,
    const IncrementalConfig& cfg) {
  IncrementalResult full;
  full.loop = check_loop_freedom(net);
  if (cfg.valley) full.valley = check_valley_freedom(net);
  if (cfg.lint) full.lint = lint_deployment(net, g, daemons, owners);
  if (cfg.blackhole) full.reach = check_reachability(net);
  full.stats.destinations = full.loop.stats.destinations;
  full.stats.dirty_destinations = full.stats.destinations;
  for (const VerifyStats& st :
       {full.loop.stats, full.valley.stats, full.reach.stats}) {
    full.stats.states_explored += st.states;
    full.stats.edges_explored += st.edges;
  }
  return full;
}

std::string first_difference(const IncrementalResult& inc,
                             const IncrementalResult& full) {
  std::string diff =
      flag_difference("loop_free", inc.loop.loop_free, full.loop.loop_free);
  if (diff.empty()) {
    diff = sequence_difference("cycles", inc.loop.cycles, full.loop.cycles);
  }
  if (diff.empty()) {
    diff = flag_difference("valley_free", inc.valley.valley_free,
                           full.valley.valley_free);
  }
  if (diff.empty()) {
    diff = sequence_difference("valleys", inc.valley.violations,
                               full.valley.violations);
  }
  if (diff.empty()) diff = sequence_difference("lints", inc.lint, full.lint);
  if (diff.empty()) {
    diff = sequence_difference("blackholes", inc.reach.blackholes,
                               full.reach.blackholes);
  }
  return diff;
}

}  // namespace mifo::verify

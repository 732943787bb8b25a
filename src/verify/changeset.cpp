#include "verify/changeset.hpp"

#include <algorithm>
#include <sstream>

namespace mifo::verify {

namespace {

void sort_unique(std::vector<dp::Addr>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

void add_router_fib_dests(std::span<const dp::Router> routers, RouterId r,
                          std::vector<dp::Addr>& out) {
  if (!r.valid() || r.value() >= routers.size()) return;
  for (const auto& [dst, fe] : routers[r.value()].fib()) out.push_back(dst);
}

}  // namespace

std::vector<dp::Addr> ChangeSet::dirty_destinations(
    std::span<const dp::Router> routers) const {
  std::vector<dp::Addr> dirty;
  dirty.reserve(log_.fib.size() + log_.daemons.size() + routing_.size());
  for (const auto& c : log_.fib) dirty.push_back(c.dst);
  for (const auto& c : log_.daemons) dirty.push_back(c.prefix);
  for (const dp::Addr prefix : routing_) dirty.push_back(prefix);
  for (const auto& c : log_.configs) {
    add_router_fib_dests(routers, c.router, dirty);
  }
  sort_unique(dirty);
  return dirty;
}

std::vector<dp::Addr> ChangeSet::port_dirty_destinations(
    std::span<const dp::Router> routers) const {
  std::vector<dp::Addr> dirty;
  for (const auto& c : log_.ports) {
    add_router_fib_dests(routers, c.router, dirty);
  }
  sort_unique(dirty);
  return dirty;
}

std::string ChangeSet::to_string() const {
  std::ostringstream os;
  os << "fib=" << log_.fib.size() << " ports=" << log_.ports.size()
     << " configs=" << log_.configs.size()
     << " daemons=" << log_.daemons.size() << " routing=" << routing_.size();
  return os.str();
}

}  // namespace mifo::verify

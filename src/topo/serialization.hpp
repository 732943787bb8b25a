// CAIDA-style text serialization of AS graphs:
//   <as_a> <as_b> p2c    (a is b's provider)
//   <as_a> <as_b> peer
// plus optional "# tier <as> <tier>" / "# cp <as>" annotation comments.
// Round-trips through parse(serialize(g)).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>

#include "topo/as_graph.hpp"

namespace mifo::topo {

/// Upper bound on the AS count a parsed file may declare or imply (every AS
/// id must lie below it): over 20 times the paper's 44,340-AS graph, yet
/// low enough that one hostile id cannot ask for a graph of 2^32 ASes.
inline constexpr std::size_t kMaxParsedAses = std::size_t{1} << 20;

void serialize(const AsGraph& g, std::ostream& os);
[[nodiscard]] std::string serialize_to_string(const AsGraph& g);

/// Parses the format above. Returns nullopt and fills `error` ("line N:
/// ...") on the first malformed line: an unreadable or short link line, an
/// unknown link kind, a self-loop, a malformed annotation, or an AS id or
/// node count at or above kMaxParsedAses.
[[nodiscard]] std::optional<AsGraph> parse(std::istream& is,
                                           std::string& error);
[[nodiscard]] std::optional<AsGraph> parse_string(const std::string& text,
                                                  std::string& error);

}  // namespace mifo::topo

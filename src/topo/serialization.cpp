#include "topo/serialization.hpp"

#include <algorithm>
#include <sstream>

namespace mifo::topo {

void serialize(const AsGraph& g, std::ostream& os) {
  os << "# mifo-topology v1\n";
  os << "# nodes " << g.num_ases() << "\n";
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    const auto& info = g.info(as);
    if (info.tier != 3) os << "# tier " << i << " " << int(info.tier) << "\n";
    if (info.content_provider) os << "# cp " << i << "\n";
  }
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    for (const auto& nb : g.neighbors(as)) {
      if (nb.rel == Rel::Customer) {
        os << i << " " << nb.as.value() << " p2c\n";
      } else if (nb.rel == Rel::Peer && as < nb.as) {
        os << i << " " << nb.as.value() << " peer\n";
      }
    }
  }
}

std::string serialize_to_string(const AsGraph& g) {
  std::ostringstream os;
  serialize(g, os);
  return os.str();
}

std::optional<AsGraph> parse(std::istream& is, std::string& error) {
  AsGraph g;
  std::string line;
  std::size_t lineno = 0;
  struct PendingInfo {
    std::uint32_t as;
    int tier;
    bool cp;
  };
  std::vector<PendingInfo> pending;
  // Reads one AS id, rejecting ids at or above the cap before anything is
  // sized from them.
  const auto read_id = [](std::istringstream& ls, std::uint32_t& as,
                          std::string& sub_error) {
    std::uint64_t v = 0;
    if (!(ls >> v)) {
      sub_error = "expected an AS id";
      return false;
    }
    if (v >= kMaxParsedAses) {
      sub_error = "AS id " + std::to_string(v) + " exceeds the limit of " +
                  std::to_string(kMaxParsedAses) + " ASes";
      return false;
    }
    as = static_cast<std::uint32_t>(v);
    return true;
  };
  const auto ensure = [&g](std::uint32_t as) {
    if (as >= g.num_ases()) g.resize(as + 1);
  };
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;  // blank line
    std::istringstream ls(line);
    std::string sub_error;
    if (line[start] == '#') {
      std::string hash, word;
      ls >> hash >> word;
      std::uint32_t as = 0;
      if (word == "nodes") {
        std::uint64_t nodes = 0;
        if (!(ls >> nodes) || nodes > kMaxParsedAses) {
          sub_error = "# nodes: expected a count of at most " +
                      std::to_string(kMaxParsedAses);
        } else {
          g.resize(std::max(static_cast<std::size_t>(nodes), g.num_ases()));
        }
      } else if (word == "tier") {
        int tier = 0;
        if (!read_id(ls, as, sub_error)) {
          sub_error = "# tier: " + sub_error;
        } else if (!(ls >> tier) || tier < 1 || tier > 3) {
          sub_error = "# tier: expected a tier of 1, 2 or 3";
        } else {
          pending.push_back({as, tier, false});
        }
      } else if (word == "cp") {
        if (read_id(ls, as, sub_error)) {
          pending.push_back({as, -1, true});
        } else {
          sub_error = "# cp: " + sub_error;
        }
      }
    } else {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
      std::string kind;
      if (!read_id(ls, a, sub_error) || !read_id(ls, b, sub_error)) {
        sub_error = "link: " + sub_error;
      } else if (!(ls >> kind)) {
        sub_error = "link: expected '<as_a> <as_b> p2c|peer'";
      } else if (kind != "p2c" && kind != "peer") {
        sub_error = "link: unknown kind '" + kind + "'";
      } else if (a == b) {
        sub_error = "link: self-loop on AS " + std::to_string(a);
      } else {
        ensure(std::max(a, b));
        if (kind == "p2c") {
          g.add_provider_customer(AsId(a), AsId(b));
        } else {
          g.add_peering(AsId(a), AsId(b));
        }
      }
    }
    if (!sub_error.empty()) {
      error = "line " + std::to_string(lineno) + ": " + sub_error;
      return std::nullopt;
    }
  }
  for (const auto& p : pending) {
    ensure(p.as);
    if (p.tier >= 0) g.info(AsId(p.as)).tier = static_cast<std::uint8_t>(p.tier);
    if (p.cp) g.info(AsId(p.as)).content_provider = true;
  }
  return g;
}

std::optional<AsGraph> parse_string(const std::string& text,
                                    std::string& error) {
  std::istringstream is(text);
  return parse(is, error);
}

}  // namespace mifo::topo

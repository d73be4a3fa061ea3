// IPv6 forwarding table.
//
// The routing semantics under test come straight from the paper's Figure 4:
// an ISP router holds per-subscriber routes for WAN and delegated LAN
// prefixes, a CPE holds routes for its own subnet plus a default — and the
// presence or absence of an RFC 7084 "unreachable" route for the not-used
// delegated space is exactly the routing-loop vulnerability.
#pragma once

#include <string>
#include <vector>

#include "netbase/prefix_map.h"

namespace xmap::topo {

enum class RouteAction : std::uint8_t {
  kForward,      // send out `iface`
  kDeliver,      // destined to this node's stack
  kUnreachable,  // respond ICMPv6 Destination Unreachable (no route)
  kBlackhole,    // silently discard
};

struct Route {
  net::Ipv6Prefix prefix;
  RouteAction action = RouteAction::kForward;
  int iface = -1;

  friend bool operator==(const Route&, const Route&) = default;
};

class RoutingTable {
 public:
  void add(const Route& route) { map_.insert(route.prefix, route); }
  void add_forward(const net::Ipv6Prefix& prefix, int iface) {
    add(Route{prefix, RouteAction::kForward, iface});
  }
  void add_unreachable(const net::Ipv6Prefix& prefix) {
    add(Route{prefix, RouteAction::kUnreachable, -1});
  }
  void add_default(int iface) {
    add(Route{net::Ipv6Prefix{}, RouteAction::kForward, iface});
  }

  bool remove(const net::Ipv6Prefix& prefix) { return map_.erase(prefix); }

  // Longest-prefix match; nullptr when no route (not even default) matches.
  [[nodiscard]] const Route* lookup(const net::Ipv6Address& addr) const {
    return map_.lookup(addr);
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

  // Precompiles the LC-trie lookup index (otherwise built on first lookup);
  // required before sharing the table read-only across threads.
  void compile() const { map_.compile(); }

  [[nodiscard]] std::vector<Route> routes() const {
    std::vector<Route> out;
    out.reserve(size());
    map_.for_each([&out](const net::Ipv6Prefix&, const Route& r) {
      out.push_back(r);
    });
    return out;
  }

 private:
  net::PrefixMap<Route> map_;
};

}  // namespace xmap::topo

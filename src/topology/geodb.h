// Prefix -> (ASN, country) mapping, standing in for the MaxMind GeoIP
// database the paper uses to attribute routing-loop devices to ASes and
// countries (Table IX, Figures 5 and 6).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "netbase/prefix_map.h"

namespace xmap::topo {

struct GeoInfo {
  std::uint32_t asn = 0;
  std::string country;  // ISO-3166 alpha-2
  std::string as_name;

  friend bool operator==(const GeoInfo&, const GeoInfo&) = default;
};

class GeoDb {
 public:
  void add(const net::Ipv6Prefix& prefix, GeoInfo info) {
    map_.insert(prefix, std::move(info));
  }

  // Longest-prefix lookup; nullptr for unmapped space.
  [[nodiscard]] const GeoInfo* lookup(const net::Ipv6Address& addr) const {
    return map_.lookup(addr);
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

  // Visits every (prefix, GeoInfo) pair in trie (prefix) order — the
  // results store embeds the mapping as its attribution section.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each(std::forward<Fn>(fn));
  }

 private:
  net::PrefixMap<GeoInfo> map_;
};

}  // namespace xmap::topo

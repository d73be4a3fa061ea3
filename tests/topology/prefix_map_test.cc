#include "netbase/prefix_map.h"

#include <gtest/gtest.h>

#include <map>

#include "netbase/random.h"
#include "topology/routing_table.h"

namespace xmap::topo {
namespace {

using net::Ipv6Address;
using net::Ipv6Prefix;
using net::PrefixMap;

Ipv6Prefix pfx(const char* text) { return *Ipv6Prefix::parse(text); }
Ipv6Address addr(const char* text) { return *Ipv6Address::parse(text); }

TEST(PrefixMap, EmptyLookupIsNull) {
  PrefixMap<int> map;
  EXPECT_EQ(map.lookup(addr("2001:db8::1")), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(PrefixMap, ExactAndLongestMatch) {
  PrefixMap<int> map;
  map.insert(pfx("2001:db8::/32"), 1);
  map.insert(pfx("2001:db8:1::/48"), 2);
  map.insert(pfx("2001:db8:1:2::/64"), 3);
  EXPECT_EQ(*map.lookup(addr("2001:db8:ffff::1")), 1);
  EXPECT_EQ(*map.lookup(addr("2001:db8:1:ffff::1")), 2);
  EXPECT_EQ(*map.lookup(addr("2001:db8:1:2::1")), 3);
  EXPECT_EQ(map.lookup(addr("2001:db9::1")), nullptr);
  EXPECT_EQ(map.size(), 3u);
}

TEST(PrefixMap, DefaultRouteMatchesEverything) {
  PrefixMap<int> map;
  map.insert(Ipv6Prefix{}, 99);
  EXPECT_EQ(*map.lookup(addr("::1")), 99);
  EXPECT_EQ(*map.lookup(addr("ffff:ffff::1")), 99);
}

TEST(PrefixMap, InsertReplacesValue) {
  PrefixMap<int> map;
  map.insert(pfx("2001:db8::/32"), 1);
  map.insert(pfx("2001:db8::/32"), 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.lookup(addr("2001:db8::1")), 2);
}

TEST(PrefixMap, ExactLookup) {
  PrefixMap<int> map;
  map.insert(pfx("2001:db8::/32"), 1);
  EXPECT_NE(map.exact(pfx("2001:db8::/32")), nullptr);
  EXPECT_EQ(map.exact(pfx("2001:db8::/33")), nullptr);
  EXPECT_EQ(map.exact(pfx("2001:db8::/31")), nullptr);
}

TEST(PrefixMap, Erase) {
  PrefixMap<int> map;
  map.insert(pfx("2001:db8::/32"), 1);
  map.insert(pfx("2001:db8:1::/48"), 2);
  EXPECT_TRUE(map.erase(pfx("2001:db8:1::/48")));
  EXPECT_FALSE(map.erase(pfx("2001:db8:1::/48")));
  EXPECT_EQ(map.size(), 1u);
  // Covering /32 still matches.
  EXPECT_EQ(*map.lookup(addr("2001:db8:1::1")), 1);
}

TEST(PrefixMap, Host128Routes) {
  PrefixMap<int> map;
  map.insert(pfx("2001:db8::1/128"), 7);
  EXPECT_EQ(*map.lookup(addr("2001:db8::1")), 7);
  EXPECT_EQ(map.lookup(addr("2001:db8::2")), nullptr);
}

TEST(PrefixMap, ForEachVisitsAllWithCorrectPrefixes) {
  PrefixMap<int> map;
  map.insert(pfx("2001:db8::/32"), 1);
  map.insert(pfx("2001:db8:1::/48"), 2);
  map.insert(pfx("::/0"), 0);
  std::map<std::string, int> seen;
  map.for_each([&seen](const Ipv6Prefix& p, int v) {
    seen[p.to_string()] = v;
  });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen["::/0"], 0);
  EXPECT_EQ(seen["2001:db8::/32"], 1);
  EXPECT_EQ(seen["2001:db8:1::/48"], 2);
}

// Differential test: trie lookup agrees with a naive longest-match scan.
TEST(PrefixMap, MatchesNaiveImplementationOnRandomData) {
  net::Rng rng{321};
  PrefixMap<int> map;
  std::vector<std::pair<Ipv6Prefix, int>> entries;
  for (int i = 0; i < 300; ++i) {
    const int len = static_cast<int>(rng.uniform(65));
    const Ipv6Address a =
        Ipv6Address::from_value(net::Uint128{rng.next(), rng.next()});
    const Ipv6Prefix p{a, len};
    // Skip duplicate prefixes: insert() replaces, naive scan would need the
    // same dedup logic.
    bool dup = false;
    for (const auto& [q, v] : entries) dup = dup || q == p;
    if (dup) continue;
    map.insert(p, i);
    entries.emplace_back(p, i);
  }
  for (int i = 0; i < 2000; ++i) {
    const Ipv6Address probe =
        Ipv6Address::from_value(net::Uint128{rng.next(), rng.next()});
    const int* got = map.lookup(probe);
    // Naive: best (longest) matching prefix wins.
    const int* want = nullptr;
    int best_len = -1;
    for (const auto& [p, v] : entries) {
      if (p.contains(probe) && p.length() > best_len) {
        best_len = p.length();
        want = &v;
      }
    }
    if (want == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, *want);
    }
  }
}

TEST(RoutingTable, AddLookupHelpers) {
  RoutingTable table;
  table.add_forward(pfx("2001:db8::/32"), 3);
  table.add_unreachable(pfx("2001:db8:dead::/48"));
  table.add_default(0);
  EXPECT_EQ(table.size(), 3u);

  const Route* r = table.lookup(addr("2001:db8::1"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->action, RouteAction::kForward);
  EXPECT_EQ(r->iface, 3);

  r = table.lookup(addr("2001:db8:dead::1"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->action, RouteAction::kUnreachable);

  r = table.lookup(addr("9999::1"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->action, RouteAction::kForward);
  EXPECT_EQ(r->iface, 0);
}

TEST(RoutingTable, RemoveAndEnumerate) {
  RoutingTable table;
  table.add_forward(pfx("2001:db8::/32"), 1);
  table.add_forward(pfx("2001:db8:1::/48"), 2);
  EXPECT_TRUE(table.remove(pfx("2001:db8:1::/48")));
  EXPECT_FALSE(table.remove(pfx("2001:db8:1::/48")));
  const auto routes = table.routes();
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].prefix.to_string(), "2001:db8::/32");
}

}  // namespace
}  // namespace xmap::topo

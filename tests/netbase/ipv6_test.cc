#include "netbase/ipv6.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "netbase/random.h"

namespace xmap::net {
namespace {

TEST(Ipv6Address, ParseFull) {
  auto a = Ipv6Address::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8::1");
}

TEST(Ipv6Address, ParseCompressed) {
  auto a = Ipv6Address::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(0), 0x2001);
  EXPECT_EQ(a->group(1), 0x0db8);
  EXPECT_EQ(a->group(7), 1);
  for (int i = 2; i < 7; ++i) EXPECT_EQ(a->group(i), 0) << i;
}

TEST(Ipv6Address, ParseAllZeros) {
  auto a = Ipv6Address::parse("::");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_unspecified());
  EXPECT_EQ(a->to_string(), "::");
}

TEST(Ipv6Address, ParseLoopback) {
  auto a = Ipv6Address::parse("::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_loopback());
  EXPECT_EQ(a->to_string(), "::1");
}

TEST(Ipv6Address, ParseTrailingCompression) {
  auto a = Ipv6Address::parse("2001:db8::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8::");
}

TEST(Ipv6Address, ParseEmbeddedIpv4) {
  auto a = Ipv6Address::parse("::ffff:192.168.1.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(5), 0xffff);
  EXPECT_EQ(a->group(6), 0xc0a8);
  EXPECT_EQ(a->group(7), 0x0101);
}

TEST(Ipv6Address, ParseFullWithIpv4Tail) {
  auto a = Ipv6Address::parse("0:0:0:0:0:ffff:10.0.0.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(6), 0x0a00);
  EXPECT_EQ(a->group(7), 0x0001);
}

TEST(Ipv6Address, ParseSevenGroupsWithCompression) {
  auto a = Ipv6Address::parse("1:2:3:4:5:6:7::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group(6), 7);
  EXPECT_EQ(a->group(7), 0);
}

struct BadInput {
  const char* text;
  const char* why;
};

// Labels each case by its reason; without it gtest prints the raw pointer
// bytes, and test names would change between builds.
void PrintTo(const BadInput& bad, std::ostream* os) { *os << bad.why; }

class Ipv6ParseRejects : public ::testing::TestWithParam<BadInput> {};

TEST_P(Ipv6ParseRejects, Rejects) {
  EXPECT_FALSE(Ipv6Address::parse(GetParam().text).has_value())
      << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv6ParseRejects,
    ::testing::Values(
        BadInput{"", "empty"}, BadInput{":", "single colon"},
        BadInput{":::", "triple colon"},
        BadInput{"1:2:3:4:5:6:7", "seven groups, no compression"},
        BadInput{"1:2:3:4:5:6:7:8:9", "nine groups"},
        BadInput{"1:2:3:4:5:6:7:8::", "compression with eight groups"},
        BadInput{"::1::2", "two compressions"},
        BadInput{"12345::", "five hex digits"},
        BadInput{"g::1", "non-hex digit"},
        BadInput{"1:2:3:4:5:6:1.2.3.4.5", "five octets"},
        BadInput{"::256.1.1.1", "octet out of range"},
        BadInput{"::1.2.3", "three octets"},
        BadInput{"1:", "trailing colon"},
        BadInput{"2001:db8::1 ", "trailing space"}));

TEST(Ipv6Address, Rfc5952LeftmostLongestRun) {
  // Two runs of equal length: compress the leftmost.
  auto a = Ipv6Address::parse("2001:0:0:1:0:0:0:1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:0:0:1::1");
  // Longer second run: compress it.
  auto b = Ipv6Address::parse("2001:0:0:1:0:0:0:0");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->to_string(), "2001:0:0:1::");
}

TEST(Ipv6Address, Rfc5952NoSingleGroupCompression) {
  auto a = Ipv6Address::parse("2001:db8:0:1:1:1:1:1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8:0:1:1:1:1:1");
}

TEST(Ipv6Address, Rfc5952Lowercase) {
  auto a = Ipv6Address::parse("2001:DB8::ABCD");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "2001:db8::abcd");
}

TEST(Ipv6Address, ValueRoundTrip) {
  auto a = Ipv6Address::parse("2001:db8:1234:5678:9abc:def0:1357:2468");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(Ipv6Address::from_value(a->value()), *a);
  EXPECT_EQ(a->value().hi(), 0x20010db812345678ULL);
  EXPECT_EQ(a->value().lo(), 0x9abcdef013572468ULL);
  EXPECT_EQ(a->prefix64(), 0x20010db812345678ULL);
  EXPECT_EQ(a->iid(), 0x9abcdef013572468ULL);
  // Random input: from_value(value()) is the identity, value() reads the
  // bytes big-endian, and ordering is lexicographic byte order.
  Rng rng{7};
  Ipv6Address prev;
  for (int i = 0; i < 2000; ++i) {
    std::array<std::uint8_t, 16> bytes{};
    for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.next());
    // Shared leading bytes make the comparison reach deep into the key.
    for (int k = 0; k < static_cast<int>(rng.uniform(16)); ++k) {
      bytes[static_cast<std::size_t>(k)] = prev.byte(k);
    }
    const Ipv6Address addr{bytes};
    EXPECT_EQ(Ipv6Address::from_value(addr.value()), addr);
    Uint128 expect{};
    for (std::uint8_t byte : bytes) expect = (expect << 8) | Uint128{byte};
    EXPECT_EQ(addr.value(), expect);
    const bool lex_less = std::lexicographical_compare(
        prev.bytes().begin(), prev.bytes().end(), bytes.begin(), bytes.end());
    EXPECT_EQ(prev < addr, lex_less);
    EXPECT_EQ(addr < prev, !lex_less && prev != addr);
    prev = addr;
  }
}

TEST(Ipv6Address, Classification) {
  EXPECT_TRUE(Ipv6Address::parse("ff02::1")->is_multicast());
  EXPECT_TRUE(Ipv6Address::parse("fe80::1")->is_link_local());
  EXPECT_FALSE(Ipv6Address::parse("2001:db8::1")->is_multicast());
  EXPECT_FALSE(Ipv6Address::parse("2001:db8::1")->is_link_local());
  EXPECT_FALSE(Ipv6Address::parse("fec0::1")->is_link_local());
}

// The snprintf-per-group RFC 5952 formatter that Ipv6Address::format
// replaced, kept as the oracle.
std::string snprintf_oracle(const Ipv6Address& a) {
  if (a.group(0) == 0 && a.group(1) == 0 && a.group(2) == 0 &&
      a.group(3) == 0 && a.group(4) == 0 && a.group(5) == 0xffff) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "::ffff:%u.%u.%u.%u", a.byte(12),
                  a.byte(13), a.byte(14), a.byte(15));
    return std::string{buf};
  }
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (a.group(i) != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && a.group(j) == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;
  std::string out;
  for (int i = 0; i < 8; ++i) {
    if (i == best_start) {
      out += "::";
      i += best_len - 1;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    char g[8];
    std::snprintf(g, sizeof g, "%x", a.group(i));
    out += g;
  }
  return out;
}

// Zero-biased groups: half are zero, so zero runs of every length, ties
// between equal-length runs and lone zero groups all occur; the rest
// vary in digit count. Every eighth address is IPv4-mapped.
Ipv6Address zero_biased_address(Rng& rng, int i) {
  std::array<std::uint8_t, 16> b{};
  if (i % 8 == 7) {
    b[10] = b[11] = 0xff;
    for (int k = 12; k < 16; ++k) b[k] = static_cast<std::uint8_t>(rng.next());
    return Ipv6Address{b};
  }
  for (int g = 0; g < 8; ++g) {
    if (rng.uniform(2) == 0) continue;
    const std::uint64_t v = rng.next() >> (rng.uniform(4) * 4 + 48);
    b[2 * g] = static_cast<std::uint8_t>(v >> 8);
    b[2 * g + 1] = static_cast<std::uint8_t>(v);
  }
  return Ipv6Address{b};
}

TEST(Ipv6Address, RandomRoundTripPropertySweep) {
  Rng rng{99};
  for (int i = 0; i < 2000; ++i) {
    const Ipv6Address a = Ipv6Address::from_value(Uint128{rng.next(), rng.next()});
    auto reparsed = Ipv6Address::parse(a.to_string());
    ASSERT_TRUE(reparsed.has_value()) << a.to_string();
    EXPECT_EQ(*reparsed, a) << a.to_string();
    EXPECT_EQ(a.to_string(), snprintf_oracle(a));
  }
  for (const char* text :
       {"::", "::1", "1::", "::ffff:0.0.0.0", "::ffff:255.255.255.255",
        "::ffff:10.1.2.3", "1:0:0:1:0:0:1:1", "1:0:1:0:1:0:1:0",
        "0:1:0:0:1:0:0:0", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
        "0:0:0:0:0:fffe:1:2", "::fffe:0:0", "0:0:0:0:1:ffff:1:2"}) {
    const Ipv6Address a = *Ipv6Address::parse(text);
    EXPECT_EQ(a.to_string(), snprintf_oracle(a)) << text;
  }
  for (int i = 0; i < 20000; ++i) {
    const Ipv6Address a = zero_biased_address(rng, i);
    const std::string text = a.to_string();
    ASSERT_EQ(text, snprintf_oracle(a));
    ASSERT_LE(text.size(), Ipv6Address::kMaxTextLength);
    ASSERT_EQ(Ipv6Address::parse(text), a) << text;
  }
}

TEST(Ipv6Prefix, CanonicalisesHostBits) {
  auto a = Ipv6Address::parse("2001:db8:ffff:ffff::1");
  Ipv6Prefix p{*a, 32};
  EXPECT_EQ(p.to_string(), "2001:db8::/32");
}

TEST(Ipv6Prefix, ParseAndFormat) {
  auto p = Ipv6Prefix::parse("2001:db8::/32");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 32);
  EXPECT_EQ(p->to_string(), "2001:db8::/32");
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/129").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/-1").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/x").has_value());
  EXPECT_FALSE(Ipv6Prefix::parse("2001:db8::/64x").has_value());
}

TEST(Ipv6Prefix, ContainsAddress) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_TRUE(p.contains(*Ipv6Address::parse("2001:db8::1")));
  EXPECT_TRUE(p.contains(*Ipv6Address::parse("2001:db8:ffff::1")));
  EXPECT_FALSE(p.contains(*Ipv6Address::parse("2001:db9::1")));
}

TEST(Ipv6Prefix, ContainsPrefix) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_TRUE(p.contains(*Ipv6Prefix::parse("2001:db8:1::/48")));
  EXPECT_TRUE(p.contains(p));
  EXPECT_FALSE(p.contains(*Ipv6Prefix::parse("2001::/16")));
  EXPECT_FALSE(p.contains(*Ipv6Prefix::parse("2001:db9::/48")));
}

TEST(Ipv6Prefix, ZeroLengthContainsEverything) {
  Ipv6Prefix all{Ipv6Address{}, 0};
  EXPECT_TRUE(all.contains(*Ipv6Address::parse("ffff::1")));
  EXPECT_TRUE(all.contains(*Ipv6Prefix::parse("::/0")));
}

TEST(Ipv6Prefix, SubprefixCount) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_EQ(p.subprefix_count(64), Uint128::pow2(32));
  EXPECT_EQ(p.subprefix_count(33), Uint128{2});
  EXPECT_EQ(p.subprefix_count(32), Uint128{1});
  EXPECT_EQ(p.subprefix_count(31), Uint128{});
}

TEST(Ipv6Prefix, NthSubprefix) {
  auto p = *Ipv6Prefix::parse("2001:db8::/32");
  EXPECT_EQ(p.nth_subprefix(64, Uint128{0}).to_string(), "2001:db8::/64");
  EXPECT_EQ(p.nth_subprefix(64, Uint128{1}).to_string(), "2001:db8:0:1::/64");
  EXPECT_EQ(p.nth_subprefix(48, Uint128{0xffff}).to_string(),
            "2001:db8:ffff::/48");
}

TEST(Ipv6Prefix, AddressWithSuffix) {
  auto p = *Ipv6Prefix::parse("2001:db8:0:1::/64");
  EXPECT_EQ(p.address_with_suffix(Uint128{0x1234}).to_string(),
            "2001:db8:0:1::1234");
  // Suffix is masked to the host bits.
  EXPECT_EQ(p.address_with_suffix(Uint128::max()).to_string(),
            "2001:db8:0:1:ffff:ffff:ffff:ffff");
}

TEST(Ipv6Prefix, OrderingAndHash) {
  auto a = *Ipv6Prefix::parse("2001:db8::/32");
  auto b = *Ipv6Prefix::parse("2001:db8::/48");
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<Ipv6Prefix>{}(a), std::hash<Ipv6Prefix>{}(b));
  // Random prefixes: ordering is lexicographic over (address bytes,
  // length), and equal prefixes hash equally.
  Rng rng{11};
  std::vector<Ipv6Prefix> prefixes;
  for (int i = 0; i < 500; ++i) {
    const int len = static_cast<int>(rng.uniform(129));
    prefixes.emplace_back(
        Ipv6Address::from_value(Uint128{rng.next() >> rng.uniform(8),
                                        rng.next()}),
        len);
  }
  for (std::size_t i = 1; i < prefixes.size(); ++i) {
    const Ipv6Prefix& p = prefixes[i - 1];
    const Ipv6Prefix& q = prefixes[i];
    const auto key = [](const Ipv6Prefix& x) {
      return std::pair{x.address().bytes(), x.length()};
    };
    EXPECT_EQ(p < q, key(p) < key(q)) << p.to_string() << " " << q.to_string();
    const Ipv6Prefix copy{q.address(), q.length()};
    EXPECT_EQ(copy, q);
    EXPECT_EQ(std::hash<Ipv6Prefix>{}(copy), std::hash<Ipv6Prefix>{}(q));
  }
}

// Property: nth_subprefix enumerates disjoint prefixes covering the parent.
class SubprefixSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubprefixSweep, DisjointAndContained) {
  const int sublen = GetParam();
  auto parent = *Ipv6Prefix::parse("2001:db8::/48");
  const Uint128 n = parent.subprefix_count(sublen);
  ASSERT_TRUE(n.fits_u64());
  Ipv6Prefix prev;
  for (std::uint64_t i = 0; i < n.to_u64(); ++i) {
    Ipv6Prefix sub = parent.nth_subprefix(sublen, Uint128{i});
    EXPECT_TRUE(parent.contains(sub));
    EXPECT_EQ(sub.length(), sublen);
    if (i > 0) {
      EXPECT_FALSE(sub.contains(prev));
      EXPECT_FALSE(prev.contains(sub));
      EXPECT_LT(prev, sub);
    }
    prev = sub;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, SubprefixSweep,
                         ::testing::Values(49, 52, 56, 60));

}  // namespace
}  // namespace xmap::net

#include "netbase/ipv6.h"

#include <gtest/gtest.h>

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
}

TEST(Ipv6Address, Classification) {
  EXPECT_TRUE(Ipv6Address::parse("ff02::1")->is_multicast());
  EXPECT_TRUE(Ipv6Address::parse("fe80::1")->is_link_local());
  EXPECT_FALSE(Ipv6Address::parse("2001:db8::1")->is_multicast());
  EXPECT_FALSE(Ipv6Address::parse("2001:db8::1")->is_link_local());
  EXPECT_FALSE(Ipv6Address::parse("fec0::1")->is_link_local());
}

TEST(Ipv6Address, RandomRoundTripPropertySweep) {
  Rng rng{99};
  for (int i = 0; i < 2000; ++i) {
    const Ipv6Address a = Ipv6Address::from_value(Uint128{rng.next(), rng.next()});
    auto reparsed = Ipv6Address::parse(a.to_string());
    ASSERT_TRUE(reparsed.has_value()) << a.to_string();
    EXPECT_EQ(*reparsed, a) << a.to_string();
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

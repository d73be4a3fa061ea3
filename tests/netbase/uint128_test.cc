#include "netbase/uint128.h"

#include <gtest/gtest.h>

#include "netbase/random.h"

namespace xmap::net {
namespace {

using U128 = unsigned __int128;  // oracle type, test-only

U128 to_native(Uint128 v) {
  return (static_cast<U128>(v.hi()) << 64) | v.lo();
}
[[maybe_unused]] Uint128 from_native(U128 v) {
  return Uint128{static_cast<std::uint64_t>(v >> 64),
                 static_cast<std::uint64_t>(v)};
}

TEST(Uint128, DefaultIsZero) {
  Uint128 v;
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.hi(), 0u);
  EXPECT_EQ(v.lo(), 0u);
}

TEST(Uint128, BasicConstruction) {
  Uint128 a{42};
  EXPECT_EQ(a.lo(), 42u);
  EXPECT_EQ(a.hi(), 0u);
  Uint128 b{7, 9};
  EXPECT_EQ(b.hi(), 7u);
  EXPECT_EQ(b.lo(), 9u);
}

TEST(Uint128, AdditionCarry) {
  Uint128 a{0, ~std::uint64_t{0}};
  Uint128 b{1};
  EXPECT_EQ(a + b, (Uint128{1, 0}));
}

TEST(Uint128, SubtractionBorrow) {
  Uint128 a{1, 0};
  Uint128 b{1};
  EXPECT_EQ(a - b, (Uint128{0, ~std::uint64_t{0}}));
}

TEST(Uint128, WrapAround) {
  EXPECT_EQ(Uint128::max() + Uint128{1}, Uint128{});
  EXPECT_EQ(Uint128{} - Uint128{1}, Uint128::max());
}

TEST(Uint128, Pow2) {
  EXPECT_EQ(Uint128::pow2(0), Uint128{1});
  EXPECT_EQ(Uint128::pow2(63), (Uint128{0, 1ULL << 63}));
  EXPECT_EQ(Uint128::pow2(64), (Uint128{1, 0}));
  EXPECT_EQ(Uint128::pow2(127), (Uint128{1ULL << 63, 0}));
}

TEST(Uint128, Comparisons) {
  EXPECT_LT(Uint128{5}, Uint128{6});
  EXPECT_LT((Uint128{0, ~std::uint64_t{0}}), (Uint128{1, 0}));
  EXPECT_GT((Uint128{2, 0}), (Uint128{1, ~std::uint64_t{0}}));
  EXPECT_EQ(Uint128{7}, Uint128{7});
}

TEST(Uint128, ShiftEdgeCases) {
  Uint128 one{1};
  EXPECT_EQ(one << 0, one);
  EXPECT_EQ(one << 127, (Uint128{1ULL << 63, 0}));
  EXPECT_EQ(one << 128, Uint128{});
  EXPECT_EQ((Uint128{1ULL << 63, 0}) >> 127, one);
  EXPECT_EQ(Uint128::max() >> 128, Uint128{});
  EXPECT_EQ(one << 64, (Uint128{1, 0}));
  EXPECT_EQ((Uint128{1, 0}) >> 64, one);
}

TEST(Uint128, BitWidth) {
  EXPECT_EQ(Uint128{}.bit_width(), 0);
  EXPECT_EQ(Uint128{1}.bit_width(), 1);
  EXPECT_EQ(Uint128{255}.bit_width(), 8);
  EXPECT_EQ((Uint128{1, 0}).bit_width(), 65);
  EXPECT_EQ(Uint128::max().bit_width(), 128);
}

TEST(Uint128, PopcountAndZeros) {
  EXPECT_EQ(Uint128::max().popcount(), 128);
  EXPECT_EQ(Uint128{}.popcount(), 0);
  EXPECT_EQ(Uint128{0xff}.popcount(), 8);
  EXPECT_EQ(Uint128{}.countr_zero(), 128);
  EXPECT_EQ(Uint128{2}.countr_zero(), 1);
  EXPECT_EQ((Uint128{1, 0}).countr_zero(), 64);
  EXPECT_EQ(Uint128{1}.countl_zero(), 127);
}

TEST(Uint128, BitGetSet) {
  Uint128 v;
  v.set_bit(0, true);
  v.set_bit(64, true);
  v.set_bit(127, true);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(64));
  EXPECT_TRUE(v.bit(127));
  EXPECT_FALSE(v.bit(1));
  v.set_bit(64, false);
  EXPECT_FALSE(v.bit(64));
}

TEST(Uint128, DivModSmall) {
  auto [q, r] = Uint128::divmod(Uint128{100}, Uint128{7});
  EXPECT_EQ(q, Uint128{14});
  EXPECT_EQ(r, Uint128{2});
}

TEST(Uint128, DivModByZeroIsTotal) {
  auto [q, r] = Uint128::divmod(Uint128{100}, Uint128{});
  EXPECT_EQ(q, Uint128{});
  EXPECT_EQ(r, Uint128{});
}

TEST(Uint128, DivModLargeDivisor) {
  auto [q, r] = Uint128::divmod(Uint128{5}, Uint128{100});
  EXPECT_EQ(q, Uint128{});
  EXPECT_EQ(r, Uint128{5});
}

TEST(Uint128, StringRoundTripDecimal) {
  EXPECT_EQ(Uint128{}.to_string(), "0");
  EXPECT_EQ(Uint128{12345}.to_string(), "12345");
  EXPECT_EQ(Uint128::max().to_string(),
            "340282366920938463463374607431768211455");
  auto parsed = Uint128::from_string("340282366920938463463374607431768211455");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, Uint128::max());
}

TEST(Uint128, FromStringRejectsBadInput) {
  EXPECT_FALSE(Uint128::from_string("").has_value());
  EXPECT_FALSE(Uint128::from_string("12a").has_value());
  // One more than max overflows.
  EXPECT_FALSE(
      Uint128::from_string("340282366920938463463374607431768211456").has_value());
}

TEST(Uint128, HexRoundTrip) {
  EXPECT_EQ(Uint128{0xdeadbeef}.to_hex(), "deadbeef");
  auto v = Uint128::from_hex("ffffffffffffffffffffffffffffffff");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, Uint128::max());
  EXPECT_FALSE(Uint128::from_hex("").has_value());
  EXPECT_FALSE(Uint128::from_hex("xyz").has_value());
  EXPECT_FALSE(
      Uint128::from_hex("fffffffffffffffffffffffffffffffff").has_value());
}

TEST(Uint128, MulmodMatchesSmallCases) {
  EXPECT_EQ(Uint128::mulmod(Uint128{7}, Uint128{8}, Uint128{10}), Uint128{6});
  EXPECT_EQ(Uint128::mulmod(Uint128{0}, Uint128{8}, Uint128{10}), Uint128{0});
}

TEST(Uint128, PowmodMatchesFermat) {
  // 2^(p-1) mod p == 1 for prime p.
  const Uint128 p{0xffffffffffffffc5ULL};  // largest prime < 2^64
  EXPECT_EQ(Uint128::powmod(Uint128{2}, p - Uint128{1}, p), Uint128{1});
  // Euler's generalisation a^phi(m) == 1 (bases coprime to m) at and past
  // the 64-bit edge: 2^64-59 (prime), 2^64-1 = 3*5*17*257*641*65537*6700417,
  // and 2^64, the first modulus the 64-bit path cannot take.
  struct Case {
    Uint128 m;
    Uint128 phi;
  };
  const Case cases[] = {
      {p, p - Uint128{1}},
      {Uint128{~std::uint64_t{0}}, Uint128{0x7fcce00000000000ULL}},
      {Uint128::pow2(64), Uint128::pow2(63)},
  };
  for (const Case& c : cases) {
    for (std::uint64_t a : {7ULL, 11ULL, 0x123456789abcdef1ULL}) {
      EXPECT_EQ(Uint128::powmod(Uint128{a}, c.phi, c.m), Uint128{1})
          << a << " mod " << c.m.to_string();
      // A base above the modulus reduces first.
      EXPECT_EQ(Uint128::powmod(Uint128{a} + c.m, c.phi, c.m), Uint128{1})
          << a << " + m mod " << c.m.to_string();
    }
  }
}

// ---- Randomized differential tests against the compiler's __int128 ----

class Uint128Random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Uint128Random, ArithmeticMatchesNative) {
  Rng rng{GetParam()};
  for (int i = 0; i < 2000; ++i) {
    const Uint128 a{rng.next(), rng.next()};
    const Uint128 b{rng.next(), rng.next()};
    const U128 na = to_native(a), nb = to_native(b);
    EXPECT_EQ(to_native(a + b), static_cast<U128>(na + nb));
    EXPECT_EQ(to_native(a - b), static_cast<U128>(na - nb));
    EXPECT_EQ(to_native(a * b), static_cast<U128>(na * nb));
    EXPECT_EQ((a < b), (na < nb));
    EXPECT_EQ((a == b), (na == nb));
  }
}

TEST_P(Uint128Random, DivisionMatchesNative) {
  Rng rng{GetParam()};
  for (int i = 0; i < 500; ++i) {
    const Uint128 a{rng.next(), rng.next()};
    Uint128 b{rng.next() >> (rng.next() % 64), rng.next()};
    if (b.is_zero()) b = Uint128{1};
    const U128 na = to_native(a), nb = to_native(b);
    EXPECT_EQ(to_native(a / b), static_cast<U128>(na / nb));
    EXPECT_EQ(to_native(a % b), static_cast<U128>(na % nb));
  }
}

TEST_P(Uint128Random, ShiftsMatchNative) {
  Rng rng{GetParam()};
  for (int i = 0; i < 2000; ++i) {
    const Uint128 a{rng.next(), rng.next()};
    const int n = static_cast<int>(rng.next() % 128);
    const U128 na = to_native(a);
    EXPECT_EQ(to_native(a << n), static_cast<U128>(na << n));
    EXPECT_EQ(to_native(a >> n), static_cast<U128>(na >> n));
  }
}

TEST_P(Uint128Random, MulmodMatchesNaive) {
  Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    const Uint128 a{rng.next() & 0xffffffffffULL, rng.next()};
    const Uint128 b{rng.next() & 0xffffffffffULL, rng.next()};
    Uint128 m{rng.next(), rng.next()};
    if (m.is_zero()) m = Uint128{3};
    // Oracle: reduce operands, multiply in 256-bit space via repeated halving
    // is what mulmod does; instead verify with the identity
    // (a*b) mod m computed through native division when the product fits.
    const Uint128 am = a % m, bm = b % m;
    if (am.bit_width() + bm.bit_width() <= 128) {
      EXPECT_EQ(Uint128::mulmod(a, b, m), (am * bm) % m);
    } else {
      // Cross-check via modular identity: mulmod(a,b,m) == mulmod(b,a,m).
      EXPECT_EQ(Uint128::mulmod(a, b, m), Uint128::mulmod(b, a, m));
    }
  }
  // Moduli below and at the 64-bit edge, where reduced operands are
  // below 2^64 and the native product is an exact oracle: 2^64-59 (the
  // largest 64-bit prime), 2^64-1, and 2^64 (the first wide modulus).
  for (const Uint128 m : {Uint128{0xffffffffffffffc5ULL},
                          Uint128{~std::uint64_t{0}}, Uint128::pow2(64)}) {
    const U128 nm = to_native(m);
    for (int i = 0; i < 200; ++i) {
      const Uint128 a{rng.next(), rng.next()};
      // Every other b is already reduced, as the permutation step's are.
      const Uint128 b = i % 2 == 0 ? Uint128{rng.next(), rng.next()}
                                   : Uint128{rng.next()} % m;
      const U128 expect = (to_native(a) % nm) * (to_native(b) % nm) % nm;
      EXPECT_EQ(to_native(Uint128::mulmod(a, b, m)), expect)
          << a.to_string() << " * " << b.to_string() << " mod "
          << m.to_string();
    }
  }
}

TEST_P(Uint128Random, StringRoundTrips) {
  Rng rng{GetParam()};
  for (int i = 0; i < 300; ++i) {
    const Uint128 a{rng.next(), rng.next()};
    EXPECT_EQ(Uint128::from_string(a.to_string()), a);
    EXPECT_EQ(Uint128::from_hex(a.to_hex()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Uint128Random,
                         ::testing::Values(1, 2, 3, 42, 1337, 0xdeadbeef));

}  // namespace
}  // namespace xmap::net

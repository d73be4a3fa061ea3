#include "netbase/uint128.h"

#include <algorithm>
#include <cctype>

namespace xmap::net {

namespace {

// (a * b) mod m for a, b < m < 2^64: one double-width product, one
// reduction. The compiler-extension type stays inside this file.
std::uint64_t mulmod64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  __extension__ typedef unsigned __int128 U128;
  return static_cast<std::uint64_t>(static_cast<U128>(a) * b % m);
}

}  // namespace

Uint128 Uint128::mulmod(Uint128 a, Uint128 b, Uint128 m) {
  if (m.is_zero()) return Uint128{};
  if (a >= m) a %= m;
  if (b >= m) b %= m;
  if (m.fits_u64()) return Uint128{mulmod64(a.lo_, b.lo_, m.lo_)};
  // Wide moduli. The product fits in 128 bits exactly when the operand
  // widths sum to at most 128.
  if (a.bit_width() + b.bit_width() <= 128) return (a * b) % m;
  // Russian-peasant multiplication with modular reduction at each step.
  Uint128 result{};
  while (!b.is_zero()) {
    if (b.bit(0)) {
      result = result + a;
      if (result >= m || result < a) result -= m;  // handle wrap
    }
    Uint128 doubled = a + a;
    if (doubled >= m || doubled < a) doubled -= m;
    a = doubled;
    b >>= 1;
  }
  return result;
}

Uint128 Uint128::powmod(Uint128 base, Uint128 exp, Uint128 m) {
  if (m.is_zero()) return Uint128{};
  if (m == Uint128{1}) return Uint128{};
  if (base >= m) base %= m;
  Uint128 result{1};
  while (!exp.is_zero()) {
    if (exp.bit(0)) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::string Uint128::to_string() const {
  if (is_zero()) return "0";
  std::string out;
  Uint128 v = *this;
  while (!v.is_zero()) {
    auto [q, r] = divmod(v, Uint128{10});
    out.push_back(static_cast<char>('0' + r.to_u64()));
    v = q;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string Uint128::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  Uint128 v = *this;
  while (!v.is_zero()) {
    out.push_back(kDigits[v.to_u64() & 0xf]);
    v >>= 4;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::optional<Uint128> Uint128::from_string(std::string_view dec) {
  if (dec.empty()) return std::nullopt;
  Uint128 v{};
  for (char c : dec) {
    if (c < '0' || c > '9') return std::nullopt;
    Uint128 next = v * Uint128{10} + Uint128{static_cast<std::uint64_t>(c - '0')};
    if (next < v) return std::nullopt;  // overflow
    v = next;
  }
  return v;
}

std::optional<Uint128> Uint128::from_hex(std::string_view hex) {
  if (hex.empty() || hex.size() > 32) return std::nullopt;
  Uint128 v{};
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    v = (v << 4) | Uint128{static_cast<std::uint64_t>(digit)};
  }
  return v;
}

}  // namespace xmap::net

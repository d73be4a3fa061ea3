// The one binary codec behind every byte xmap6 persists or puts on a wire:
// the results store (src/store), fabric frames (src/fabric) and the
// checkpoint state file (src/recover).
//
//   * put_*: appending little-endian writers (u8/u32/u64), LEB128
//     varints (64- and 128-bit), raw 16-byte addresses and u32-length-
//     prefixed strings;
//   * get_*: raw alignment-agnostic loads and (data, len, pos) varint
//     readers for mmap'd store blocks, header-inline so the store's lookup
//     loop keeps them inlined;
//   * Reader: the bounded decoder. Every read names its field, the first
//     failure wins (later reads fail without touching the diagnostic), and
//     a count prefix is checked against the bytes left before the caller
//     allocates anything;
//   * fnv1a: the checksum of all three formats (header-inline: it also
//     keys the fault injector's per-packet verdicts);
//   * stored_computed: the one "stored 0x…, computed 0x…" diagnostic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "netbase/compiler.h"
#include "netbase/ipv6.h"
#include "netbase/uint128.h"

namespace xmap::net {

// ---- checksum and its diagnostic -------------------------------------------

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

// FNV-1a 64 over a byte range; `h` continues a running hash.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t len,
                                         std::uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) {
  return fnv1a(bytes.data(), bytes.size());
}

// "stored 0x<16 hex>, computed 0x<16 hex>" — how every checksum or
// fingerprint mismatch names both sides.
[[nodiscard]] std::string stored_computed(std::uint64_t stored,
                                          std::uint64_t computed);

// ---- writers ---------------------------------------------------------------

// Longest LEB128 encodings: ceil(64/7) and ceil(128/7) groups.
inline constexpr std::size_t kMaxVarint64Bytes = 10;
inline constexpr std::size_t kMaxVarint128Bytes = 19;

template <typename T>
inline void put_le(std::string& out, T v) {
  char b[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    b[i] = static_cast<char>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
  out.append(b, sizeof(T));
}

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }

inline void put_addr(std::string& out, const Ipv6Address& addr) {
  out.append(reinterpret_cast<const char*>(addr.bytes().data()), 16);
}

// u32 length, then the bytes.
inline void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// Raw varint writers into a caller buffer of at least kMaxVarint*Bytes;
// return one past the last byte written.
inline char* write_varint64(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Works on the two 64-bit halves: each group shifts 7 bits from hi to lo.
inline char* write_varint128(char* p, Uint128 v) {
  std::uint64_t hi = v.hi(), lo = v.lo();
  while (hi != 0) {
    *p++ = static_cast<char>((lo & 0x7f) | 0x80);
    lo = (lo >> 7) | (hi << 57);
    hi >>= 7;
  }
  return write_varint64(p, lo);
}

inline void put_varint64(std::string& out, std::uint64_t v) {
  char buf[kMaxVarint64Bytes];
  out.append(buf, static_cast<std::size_t>(write_varint64(buf, v) - buf));
}

inline void put_varint128(std::string& out, Uint128 v) {
  char buf[kMaxVarint128Bytes];
  out.append(buf, static_cast<std::size_t>(write_varint128(buf, v) - buf));
}

// ---- raw readers -----------------------------------------------------------

template <typename T>
[[nodiscard]] inline T get_le(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | (static_cast<T>(u[i]) << (8 * i)));
  }
  return v;
}

[[nodiscard]] inline std::uint32_t get_u32(const char* p) {
  return get_le<std::uint32_t>(p);
}
[[nodiscard]] inline std::uint64_t get_u64(const char* p) {
  return get_le<std::uint64_t>(p);
}

[[nodiscard]] inline Ipv6Address get_addr(const char* p) {
  std::array<std::uint8_t, 16> bytes{};
  std::memcpy(bytes.data(), p, 16);
  return Ipv6Address{bytes};
}

// Bounds-checked varint readers: advance *pos, return false on overrun or
// over-long encodings.
[[nodiscard]] inline bool get_varint64(const char* data, std::size_t len,
                                       std::size_t* pos, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= len) return false;
    const auto byte = static_cast<unsigned char>(data[(*pos)++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;  // over-long encoding (> 10 groups)
}

[[nodiscard]] inline bool get_varint128(const char* data, std::size_t len,
                                        std::size_t* pos, Uint128* out) {
  Uint128 v{};
  for (int shift = 0; shift < 128; shift += 7) {
    if (*pos >= len) return false;
    const auto byte = static_cast<unsigned char>(data[(*pos)++]);
    v = v | (Uint128{static_cast<std::uint64_t>(byte & 0x7f)} << shift);
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

// Advances past one varint of at most `max_groups` bytes without decoding.
[[nodiscard]] inline bool skip_varint(const char* data, std::size_t len,
                                      std::size_t* pos, int max_groups) {
  for (int i = 0; i < max_groups; ++i) {
    if (*pos >= len) return false;
    if ((static_cast<unsigned char>(data[(*pos)++]) & 0x80) == 0) return true;
  }
  return false;  // over-long encoding
}

// ---- bounded reader --------------------------------------------------------

// A cursor over one encoded message. Each read checks the remaining length
// and, on failure, records "<what>: truncated <field> (need N bytes, have
// M)". Only the first failure is kept, and once failed every later read
// fails too, so a decoder may chain reads and report error() once.
class Reader {
 public:
  // `what` prefixes every diagnostic ("fabric frame", "checkpoint").
  Reader(std::string_view data, const char* what) : data_(data), what_(what) {}

  [[nodiscard]] bool u8(std::uint8_t& out, const char* field) {
    if (!need(1, field)) return false;
    out = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& out, const char* field) {
    return le(out, field);
  }
  [[nodiscard]] bool u64(std::uint64_t& out, const char* field) {
    return le(out, field);
  }

  // A u8 that must be 0 or 1.
  [[nodiscard]] bool flag(bool& out, const char* field) {
    std::uint8_t v = 0;
    if (!u8(v, field)) return false;
    if (v > 1) return fail_not_boolean(field, v);
    out = v == 1;
    return true;
  }

  [[nodiscard]] bool addr(Ipv6Address& out, const char* field) {
    if (!need(16, field)) return false;
    out = get_addr(data_.data() + pos_);
    pos_ += 16;
    return true;
  }

  // A u32-length-prefixed string; the view aliases the reader's buffer.
  [[nodiscard]] bool str(std::string_view& out, const char* field) {
    std::uint32_t len = 0;
    if (!u32(len, field) || !need(len, field)) return false;
    out = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }
  [[nodiscard]] bool str(std::string& out, const char* field) {
    std::string_view view;
    if (!str(view, field)) return false;
    out.assign(view);
    return true;
  }

  // A u32 or u64 count prefix for elements of at least `min_elem_bytes`
  // each: refused up front when the remaining bytes cannot hold `out`
  // elements, so a corrupt count never drives an allocation.
  template <typename N>
  [[nodiscard]] bool count(N& out, std::size_t min_elem_bytes,
                           const char* field) {
    if (!le(out, field)) return false;
    if (remaining() / min_elem_bytes < out) {
      return fail_count(field, static_cast<std::uint64_t>(out));
    }
    return true;
  }

  // Records `message` (prefixed with `what`) unless an earlier failure
  // already did; always returns false.
  bool fail(const std::string& message);

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  [[nodiscard]] bool le(T& out, const char* field) {
    if (!need(sizeof(T), field)) return false;
    out = get_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  [[nodiscard]] bool need(std::size_t n, const char* field) {
    if (XMAP_LIKELY(error_.empty() && remaining() >= n)) return true;
    return fail_truncated(field, n);
  }

  XMAP_NOINLINE bool fail_truncated(const char* field, std::size_t n);
  XMAP_NOINLINE bool fail_count(const char* field, std::uint64_t n);
  XMAP_NOINLINE bool fail_not_boolean(const char* field, unsigned v);

  std::string_view data_;
  const char* what_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace xmap::net

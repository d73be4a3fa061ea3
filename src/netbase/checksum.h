// Internet checksum (RFC 1071) and the IPv6 pseudo-header variant used by
// ICMPv6 (RFC 4443 §2.3), UDP and TCP over IPv6 (RFC 8200 §8.1).
#pragma once

#include <cstdint>
#include <span>

#include "netbase/ipv6.h"

namespace xmap::net {

// Ones-complement sum of 16-bit words, returning the running 32-bit
// accumulator (not yet folded/complemented). Odd trailing byte is padded
// with zero per RFC 1071. Eight bytes are added at a time as one 64-bit
// word, so the accumulator is only guaranteed equal to the reference
// modulo 0xffff (zero iff the reference is zero), which every fold/finish
// consumer preserves.
[[nodiscard]] std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data,
                                                std::uint32_t acc = 0);

// Byte-pair RFC 1071 reference: no word tricks, no carry shortcuts. The
// ground truth the property tests compare the word path against.
[[nodiscard]] std::uint32_t checksum_accumulate_reference(
    std::span<const std::uint8_t> data, std::uint32_t acc = 0);

// Folds the accumulator and returns the ones-complement checksum.
[[nodiscard]] std::uint16_t checksum_finish(std::uint32_t acc);

// Folds the accumulator to 16 bits WITHOUT the final complement — the form
// to cache when a precomputed partial sum will have more words added later
// (e.g. a probe template's fixed bytes, re-summed with per-target fields).
[[nodiscard]] constexpr std::uint16_t checksum_fold(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(acc);
}

// Plain RFC 1071 checksum over a buffer.
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

// Upper-layer checksum over the IPv6 pseudo-header (src, dst, length,
// next-header) plus the L4 payload. The payload's checksum field must be
// zero when computing, and left in place when verifying (result is 0 for a
// valid packet).
[[nodiscard]] std::uint16_t ipv6_upper_layer_checksum(
    const Ipv6Address& src, const Ipv6Address& dst, std::uint8_t next_header,
    std::span<const std::uint8_t> l4_data);

// Incremental checksum update (RFC 1624): given the checksum of some data
// and the old/new contents of one contiguous changed region, returns the
// checksum of the updated data without re-reading the rest. `before` and
// `after` must be the same even length and start at an even offset within
// the checksummed data (which includes the pseudo-header for upper-layer
// checksums). This is what lets a cached probe template re-aim at a new
// destination in a handful of adds instead of a full packet walk.
[[nodiscard]] std::uint16_t checksum_update(std::uint16_t csum,
                                            std::span<const std::uint8_t> before,
                                            std::span<const std::uint8_t> after);

}  // namespace xmap::net

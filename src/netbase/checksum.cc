#include "netbase/checksum.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "netbase/compiler.h"

namespace xmap::net {
namespace {

// Byte-order-correct 32-bit load (the 64-bit one is load_be64 in
// compiler.h): the bswap places the bytes in RFC 1071 network order.
XMAP_ALWAYS_INLINE std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

// Folds a 64-bit ones-complement accumulator into 32 bits (still unfolded
// with respect to the final 16-bit checksum — checksum_finish handles that).
XMAP_ALWAYS_INLINE std::uint32_t fold64(std::uint64_t acc) {
  acc = (acc & 0xffffffffu) + (acc >> 32);
  acc = (acc & 0xffffffffu) + (acc >> 32);
  return static_cast<std::uint32_t>(acc);
}

// Folds an accumulator to a 16-bit value WITHOUT complementing (the
// intermediate form RFC 1624 arithmetic works in).
XMAP_ALWAYS_INLINE std::uint16_t fold16(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(acc);
}

}  // namespace

std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data,
                                  std::uint32_t acc) {
  // Word-at-a-time RFC 1071: the ones-complement sum is invariant under
  // word size, so eight bytes are added as one 64-bit network-order word
  // with end-around carry, then folded back down. Semantics match the
  // byte-wise original exactly: each *call* pads an odd trailing byte with
  // zero (callers chain even-length regions, e.g. the pseudo-header).
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t sum = acc;
  while (n >= 32) {
    std::uint64_t s0 = load_be64(p);
    std::uint64_t s1 = load_be64(p + 8);
    std::uint64_t s2 = load_be64(p + 16);
    std::uint64_t s3 = load_be64(p + 24);
    // Each 64-bit word is four 16-bit fields; adding into the running sum
    // with end-around carry keeps the ones-complement invariant.
    sum += s0;
    if (sum < s0) ++sum;
    sum += s1;
    if (sum < s1) ++sum;
    sum += s2;
    if (sum < s2) ++sum;
    sum += s3;
    if (sum < s3) ++sum;
    p += 32;
    n -= 32;
  }
  while (n >= 8) {
    const std::uint64_t s = load_be64(p);
    sum += s;
    if (sum < s) ++sum;
    p += 8;
    n -= 8;
  }
  // Tail adds happen in 64 bits: the folded accumulator can already be
  // 0xffffffff (e.g. a 4-byte run of 0xff), so a 32-bit add here could
  // wrap and silently drop a carry (2^32 == 1 mod 0xffff).
  std::uint64_t tail = fold64(sum);
  if (n >= 4) {
    tail += load_be32(p);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    tail += static_cast<std::uint32_t>(p[0]) << 8 | p[1];
    p += 2;
    n -= 2;
  }
  if (n > 0) tail += static_cast<std::uint32_t>(p[0]) << 8;
  return fold64(tail);
}

std::uint32_t checksum_accumulate_reference(std::span<const std::uint8_t> data,
                                            std::uint32_t acc) {
  std::uint64_t sum = acc;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint64_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint64_t>(data[i]) << 8;
  return fold64(sum);
}

std::uint16_t checksum_finish(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return checksum_finish(checksum_accumulate(data));
}

std::uint16_t ipv6_upper_layer_checksum(const Ipv6Address& src,
                                        const Ipv6Address& dst,
                                        std::uint8_t next_header,
                                        std::span<const std::uint8_t> l4_data) {
  std::uint32_t acc = 0;
  acc = checksum_accumulate(std::span{src.bytes()}, acc);
  acc = checksum_accumulate(std::span{dst.bytes()}, acc);
  const std::uint32_t len = static_cast<std::uint32_t>(l4_data.size());
  // 64-bit intermediate: `acc` may be 0xffffffff after two all-ones
  // addresses, so 32-bit adds of the length/next-header words could wrap.
  acc = fold64(static_cast<std::uint64_t>(acc) + (len >> 16) + (len & 0xffff) +
               next_header);  // high 3 bytes of the NH pseudo-field are zero
  acc = checksum_accumulate(l4_data, acc);
  return checksum_finish(acc);
}

std::uint16_t checksum_update(std::uint16_t csum,
                              std::span<const std::uint8_t> before,
                              std::span<const std::uint8_t> after) {
  // RFC 1624 incremental update generalized to a region:
  //   HC' = ~( ~HC + sum(~m_i) + sum(m'_i) )
  // with sum(~m_i) computed as the ones-complement negation of the folded
  // old-region sum. Requires before/after to be the same even length and
  // to sit at an even offset of the checksummed data, so bytes keep their
  // high/low position within 16-bit words (asserted; every patched probe
  // field satisfies this). One caveat inherited from RFC 1624: if the
  // entire checksummed data is zero the update yields 0xffff where a full
  // recompute yields 0x0000 — impossible under an IPv6 pseudo-header,
  // whose next-header and length fields are never both zero.
  assert(before.size() == after.size());
  assert(before.size() % 2 == 0);
  // Fold both region sums to 16 bits first: checksum_accumulate returns an
  // *unfolded* 32-bit accumulator (for an 8+-byte region it is a fold of
  // raw 64-bit loads and ranges up to ~2^32), and adding that to ~HC could
  // wrap the 32-bit intermediate, silently dropping a carry (2^32 == 1
  // mod 0xffff). Folded, the three terms stay well under 2^18.
  std::uint32_t acc = static_cast<std::uint16_t>(~csum);
  acc += fold16(checksum_accumulate(after));
  acc += 0xffffu - fold16(checksum_accumulate(before));
  return checksum_finish(acc);
}

}  // namespace xmap::net

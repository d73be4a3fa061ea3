// Portable hot-path annotations and big-endian word access.
//
// Everything here is safe under -fno-exceptions and degrades to a no-op on
// compilers without the underlying builtin. Used by the packet hot path
// (checksum, template patching, pool allocator, LC-trie lookups) to keep
// branch layout and alias information explicit without sprinkling raw
// builtins through the code.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__GNUC__) || defined(__clang__)
#define XMAP_LIKELY(x) (__builtin_expect(!!(x), 1))
#define XMAP_UNLIKELY(x) (__builtin_expect(!!(x), 0))
#define XMAP_ALWAYS_INLINE inline __attribute__((always_inline))
#define XMAP_NOINLINE __attribute__((noinline))
#else
#define XMAP_LIKELY(x) (x)
#define XMAP_UNLIKELY(x) (x)
#define XMAP_ALWAYS_INLINE inline
#define XMAP_NOINLINE
#endif

namespace xmap::net {

// Tells the optimizer `p` is aligned to `Align` bytes. Unlike a raw
// __builtin_assume_aligned chain this keeps the pointer type, and unlike
// std::assume_aligned it is available regardless of library support level.
template <std::size_t Align, typename T>
[[nodiscard]] XMAP_ALWAYS_INLINE T* assume_aligned(T* p) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<T*>(__builtin_assume_aligned(p, Align));
#else
  return p;
#endif
}

// Byte-order-correct 64-bit load/store at possibly unaligned memory, in
// network (big-endian) order. memcpy compiles to one plain load or store on
// every target we build for; the bswap is one instruction.
[[nodiscard]] XMAP_ALWAYS_INLINE std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

XMAP_ALWAYS_INLINE void store_be64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, 8);
}

}  // namespace xmap::net

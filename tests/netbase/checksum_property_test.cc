// Property tests for the word-wise Internet checksum and the RFC 1624
// incremental update: both must agree exactly with a naive byte-pair
// reference on every length, alignment and patch sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "netbase/checksum.h"
#include "netbase/random.h"

namespace xmap::net {
namespace {

// Byte-pair RFC 1071 reference: no word tricks, no carry shortcuts.
std::uint16_t naive_checksum(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint64_t>(data[i]) << 8 | data[i + 1];
  }
  if (data.size() % 2 != 0) {
    sum += static_cast<std::uint64_t>(data.back()) << 8;
  }
  while ((sum >> 16) != 0) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

TEST(ChecksumProperty, MatchesNaiveOnEveryLengthAndAlignment) {
  Rng rng{0xc0ffee};
  std::vector<std::uint8_t> buf(640);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  // Every start offset 0..15 (unaligned word loads) crossed with lengths
  // around the 8/32-byte unroll boundaries plus odd tails.
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 80; ++len) {
      const std::span<const std::uint8_t> s{buf.data() + offset, len};
      EXPECT_EQ(internet_checksum(s), naive_checksum(s))
          << "offset=" << offset << " len=" << len;
    }
    const std::span<const std::uint8_t> big{buf.data() + offset,
                                            buf.size() - 16};
    EXPECT_EQ(internet_checksum(big), naive_checksum(big));
  }
}

TEST(ChecksumProperty, WordPathMatchesReferenceAccumulator) {
  // Lengths straddling the 32-byte unroll and 8-byte word granularity at
  // every scale up to a page, crossed with unaligned starts and odd tails.
  // The 64-bit word sums only have to agree with the byte-pair reference
  // mod 0xffff (and share zeroness) — compare folded and finished forms,
  // plus a chained second region to catch a mis-combined carry-in.
  Rng rng{0xbadcab1e};
  std::vector<std::uint8_t> buf(4096 + 64);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::size_t lens[] = {64,  127, 128, 129, 192, 255,  256, 1279,
                              1280, 1281, 1337, 2048, 4095, 4096};
  for (std::size_t offset = 0; offset < 33; offset += offset < 4 ? 1 : 13) {
    for (const std::size_t len : lens) {
      const std::span<const std::uint8_t> s{buf.data() + offset, len};
      const std::uint32_t fast = checksum_accumulate(s);
      const std::uint32_t ref = checksum_accumulate_reference(s);
      EXPECT_EQ(checksum_fold(fast) % 0xffff, checksum_fold(ref) % 0xffff)
          << "offset=" << offset << " len=" << len;
      EXPECT_EQ(fast == 0, ref == 0) << "offset=" << offset << " len=" << len;
      EXPECT_EQ(checksum_finish(fast), naive_checksum(s))
          << "offset=" << offset << " len=" << len;
      // Chained: feed each accumulator form into a second even-length
      // region and require identical final checksums.
      const std::span<const std::uint8_t> s2{buf.data(), 256};
      EXPECT_EQ(checksum_finish(checksum_accumulate(s2, fast)),
                checksum_finish(checksum_accumulate_reference(s2, ref)))
          << "offset=" << offset << " len=" << len;
    }
  }
  // All-zero data must yield a zero accumulator on both paths (the one
  // congruence class where 0 and 0xffff differ after ~).
  const std::vector<std::uint8_t> zeros(512, 0);
  EXPECT_EQ(checksum_accumulate(zeros), 0u);
  EXPECT_EQ(checksum_accumulate_reference(zeros), 0u);
}

TEST(ChecksumProperty, EvenChunkedAccumulationMatchesWholeBuffer) {
  Rng rng{7};
  std::vector<std::uint8_t> buf(512);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (int round = 0; round < 64; ++round) {
    // Random even split points: accumulating even-length chunks must equal
    // one pass (per-call odd-tail padding only applies to odd chunks).
    std::uint32_t acc = 0;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      std::size_t len = 2 * rng.uniform(64);
      len = std::min(len, buf.size() - pos);
      if (len % 2 != 0) --len;
      if (len == 0) len = std::min<std::size_t>(2, buf.size() - pos);
      acc = checksum_accumulate({buf.data() + pos, len}, acc);
      pos += len;
    }
    EXPECT_EQ(checksum_finish(acc), naive_checksum(buf));
  }
}

TEST(ChecksumProperty, IncrementalUpdateMatchesFullRecompute) {
  Rng rng{0xfeed};
  std::vector<std::uint8_t> buf(256);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  std::uint16_t csum = internet_checksum(buf);
  // Long random patch sequence against one running checksum: any drift
  // (lost carry, 0x0000/0xffff confusion) compounds and gets caught.
  for (int round = 0; round < 500; ++round) {
    const std::size_t len = 2 * (1 + rng.uniform(16));
    const std::size_t offset = 2 * rng.uniform((buf.size() - len) / 2 + 1);
    std::vector<std::uint8_t> before(buf.begin() +
                                         static_cast<std::ptrdiff_t>(offset),
                                     buf.begin() +
                                         static_cast<std::ptrdiff_t>(offset +
                                                                     len));
    for (std::size_t i = 0; i < len; ++i) {
      // Bias towards all-zero / all-ones patches to stress the boundary
      // values of one's-complement arithmetic.
      const std::uint64_t coin = rng.uniform(4);
      buf[offset + i] = coin == 0   ? 0x00
                        : coin == 1 ? 0xff
                                    : static_cast<std::uint8_t>(rng.next());
    }
    csum = checksum_update(csum, before,
                           {buf.data() + offset, len});
    ASSERT_EQ(csum, internet_checksum(buf))
        << "round=" << round << " offset=" << offset << " len=" << len;
  }
}

TEST(ChecksumProperty, UpdateIsExactForNonZeroCoverage) {
  // Degenerate-but-legal patches: identical before/after, full-buffer
  // rewrite, minimum-size word.
  std::vector<std::uint8_t> buf{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc};
  std::uint16_t csum = internet_checksum(buf);
  EXPECT_EQ(checksum_update(csum, buf, buf), csum);

  std::vector<std::uint8_t> after{0x00, 0x01, 0x02, 0x03, 0x04, 0x05};
  csum = checksum_update(csum, buf, after);
  EXPECT_EQ(csum, internet_checksum(after));

  const std::uint8_t old_word[2] = {after[2], after[3]};
  after[2] = 0xff;
  after[3] = 0xfe;
  csum = checksum_update(csum, old_word,
                         {after.data() + 2, 2});
  EXPECT_EQ(csum, internet_checksum(after));
}

}  // namespace
}  // namespace xmap::net

// Store format round-trip and corruption robustness.
//
// The loader's contract: a byte-identical round-trip for any record set,
// and a refusal (precise diagnostic, no crash, no partial result) for any
// truncated, bit-flipped or version-skewed file. The corruption tests are
// property-style: flip one bit at many offsets / cut the file at many
// lengths and require every mutation to be rejected.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "store/snapshot.h"
#include "store/writer.h"

namespace xmap::store {
namespace {

using net::Ipv6Address;
using net::Uint128;

Record make_record(std::uint64_t i) {
  Record r;
  r.key = Ipv6Address::from_value(Uint128{0x20010db800000000ULL + i / 7,
                                          i * 0x9e3779b97f4a7c15ULL});
  r.probe_dst = Ipv6Address::from_value(r.key.value() ^ Uint128{0xffff});
  r.kind = static_cast<std::uint8_t>(i % 5);
  r.icmp_code = static_cast<std::uint8_t>(i % 3);
  r.hop_limit = static_cast<std::uint8_t>(i % 64);
  r.flags = i % 11 == 0 ? kFlagLoopCandidate : std::uint8_t{0};
  r.services = static_cast<std::uint16_t>(i % 8);
  r.responses = 1 + i % 4;
  r.first_us = i * 37;
  return r;
}

std::string build_image(int n_records, std::uint32_t block_bytes = 512) {
  StoreBuilder builder{block_bytes};
  const std::uint16_t cisco = builder.vendor_id("cisco");
  const std::uint16_t huawei = builder.vendor_id("huawei");
  for (int i = 0; i < n_records; ++i) {
    Record r = make_record(static_cast<std::uint64_t>(i));
    r.vendor = i % 3 == 0 ? cisco : i % 3 == 1 ? huawei : std::uint16_t{0};
    builder.add(r);
  }
  GeoEntry geo;
  geo.prefix = *net::Ipv6Prefix::parse("2001:db8::/32");
  geo.asn = 64500;
  geo.country = {'D', 'E'};
  geo.as_name = "TEST-AS";
  builder.add_geo(geo);
  builder.set_config_fingerprint(0x1234);
  builder.set_git_sha("deadbeef");
  return builder.serialize();
}

TEST(StoreFormat, RoundTripPreservesEveryRecord) {
  const int kN = 500;
  auto loaded = Snapshot::from_buffer(build_image(kN));
  ASSERT_TRUE(loaded.snapshot) << loaded.error;
  const Snapshot& snap = *loaded.snapshot;
  EXPECT_EQ(snap.record_count(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(snap.git_sha(), "deadbeef");
  EXPECT_EQ(snap.header().config_fingerprint, 0x1234u);

  // Keys come back strictly increasing through the sequential reader.
  std::uint64_t seen = 0;
  net::Uint128 prev{};
  snap.for_each([&](const Record& r) {
    if (seen > 0) {
      EXPECT_LT(prev, r.key.value());
    }
    prev = r.key.value();
    ++seen;
  });
  EXPECT_EQ(seen, static_cast<std::uint64_t>(kN));
  for (int i = 0; i < kN; ++i) {
    const Record expect = make_record(static_cast<std::uint64_t>(i));
    Record got;
    ASSERT_TRUE(snap.lookup(expect.key, &got)) << "record " << i;
    EXPECT_EQ(got.key, expect.key);
    EXPECT_EQ(got.probe_dst, expect.probe_dst);
    EXPECT_EQ(got.kind, expect.kind);
    EXPECT_EQ(got.icmp_code, expect.icmp_code);
    EXPECT_EQ(got.hop_limit, expect.hop_limit);
    EXPECT_EQ(got.flags, expect.flags);
    EXPECT_EQ(got.services, expect.services);
    EXPECT_EQ(got.responses, expect.responses);
    EXPECT_EQ(got.first_us, expect.first_us);
    const char* name_expect =
        i % 3 == 0 ? "cisco" : i % 3 == 1 ? "huawei" : "";
    EXPECT_EQ(snap.vendor_name(got.vendor), name_expect);
  }

  // Misses on either side of the key space.
  Record out;
  EXPECT_FALSE(snap.lookup(Ipv6Address::from_value(Uint128{0, 1}), &out));
  EXPECT_FALSE(snap.lookup(Ipv6Address::from_value(Uint128::max()), &out));
}

TEST(StoreFormat, SerializationIsInsertionOrderIndependent) {
  StoreBuilder fwd{512}, rev{512};
  for (int i = 0; i < 200; ++i) {
    fwd.add(make_record(static_cast<std::uint64_t>(i)));
  }
  for (int i = 199; i >= 0; --i) {
    rev.add(make_record(static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(fwd.serialize(), rev.serialize());
}

TEST(StoreFormat, DuplicateKeysMergeOrderIndependently) {
  Record a = make_record(1);
  a.responses = 3;
  a.services = 0x1;
  a.first_us = 50;
  Record b = a;
  b.responses = 2;
  b.services = 0x4;
  b.flags = kFlagLoopConfirmed;
  b.first_us = 10;  // earlier: b's first-response fields must win

  StoreBuilder ab{512}, ba{512};
  ab.add(a);
  ab.add(b);
  ba.add(b);
  ba.add(a);
  const std::string img = ab.serialize();
  EXPECT_EQ(img, ba.serialize());

  auto loaded = Snapshot::from_buffer(img);
  ASSERT_TRUE(loaded.snapshot) << loaded.error;
  Record got;
  ASSERT_TRUE(loaded.snapshot->lookup(a.key, &got));
  EXPECT_EQ(got.responses, 5u);
  EXPECT_EQ(got.services, 0x5);
  EXPECT_EQ(got.flags, kFlagLoopConfirmed);
  EXPECT_EQ(got.first_us, 10u);
}

TEST(StoreFormat, EveryTruncationIsRejected) {
  const std::string image = build_image(120);
  // Every prefix of the file (sampled stride to keep runtime sane) must
  // refuse to load — never crash, never load partially.
  for (std::size_t cut = 0; cut < image.size();
       cut += cut < 256 ? 1 : 131) {
    auto loaded = Snapshot::from_buffer(image.substr(0, cut));
    EXPECT_FALSE(loaded.snapshot) << "loaded a " << cut << "-byte prefix of a "
                                  << image.size() << "-byte store";
    EXPECT_FALSE(loaded.error.empty());
  }
  // The diagnostic for a tail-truncated file names the missing end marker.
  auto cut = Snapshot::from_buffer(image.substr(0, image.size() - 4));
  ASSERT_FALSE(cut.snapshot);
  EXPECT_NE(cut.error.find("truncated"), std::string::npos) << cut.error;
}

TEST(StoreFormat, EveryBitFlipIsRejected) {
  const std::string image = build_image(120);
  // Flip one bit at a sampled set of byte offsets covering header, blocks,
  // index, geo, vendor table and trailer. Whole-file + per-block checksums
  // must catch every one.
  for (std::size_t off = 0; off < image.size(); off += 37) {
    for (int bit : {0, 7}) {
      std::string mutated = image;
      mutated[off] = static_cast<char>(mutated[off] ^ (1 << bit));
      auto loaded = Snapshot::from_buffer(std::move(mutated));
      EXPECT_FALSE(loaded.snapshot)
          << "bit " << bit << " at offset " << off << " went undetected";
      EXPECT_FALSE(loaded.error.empty());
    }
  }
}

TEST(StoreFormat, ChecksumMismatchDiagnosticNamesBothValues) {
  std::string image = build_image(120);
  image[kHeaderBytes + 10] =
      static_cast<char>(image[kHeaderBytes + 10] ^ 0x10);
  auto loaded = Snapshot::from_buffer(std::move(image));
  ASSERT_FALSE(loaded.snapshot);
  EXPECT_NE(loaded.error.find("checksum mismatch: stored 0x"),
            std::string::npos)
      << loaded.error;
  EXPECT_NE(loaded.error.find("computed 0x"), std::string::npos)
      << loaded.error;
}

TEST(StoreFormat, VersionMismatchIsPreciselyDiagnosed) {
  std::string image = build_image(10);
  // The version field is the u32 after the 8-byte magic.
  image[8] = 9;
  // parse_header doesn't checksum-protect itself; the whole-file checksum
  // does. Recompute it so ONLY the version disagrees.
  FileHeader hdr;
  std::string err;
  ASSERT_TRUE(parse_header(image.data(), image.size(), &hdr, &err)) << err;
  const std::size_t payload = image.size() - kTrailerBytes;
  const std::uint64_t sum = net::fnv1a(image.data(), payload);
  std::string trailer;
  net::put_u64(trailer, sum);
  net::put_u64(trailer, payload);
  trailer.append(kEndMagic, sizeof kEndMagic);
  image.replace(payload, kTrailerBytes, trailer);

  auto loaded = Snapshot::from_buffer(std::move(image));
  ASSERT_FALSE(loaded.snapshot);
  EXPECT_NE(loaded.error.find("version"), std::string::npos) << loaded.error;
  EXPECT_NE(loaded.error.find("9"), std::string::npos) << loaded.error;
  EXPECT_NE(loaded.error.find("reader supports 1"), std::string::npos)
      << loaded.error;
}

TEST(StoreFormat, EmptyStoreLoadsAndMisses) {
  StoreBuilder builder{512};
  auto loaded = Snapshot::from_buffer(builder.serialize());
  ASSERT_TRUE(loaded.snapshot) << loaded.error;
  EXPECT_EQ(loaded.snapshot->record_count(), 0u);
  Record out;
  EXPECT_FALSE(
      loaded.snapshot->lookup(Ipv6Address::from_value(Uint128{1}), &out));
  EXPECT_EQ(loaded.snapshot->for_each([](const Record&) {}), 0u);
}

TEST(StoreFormat, VarintsRejectOverrunsAndOverlongEncodings) {
  // Overrun: continuation bit set at the end of the buffer.
  const char overrun[] = {static_cast<char>(0x80)};
  std::size_t pos = 0;
  std::uint64_t v64 = 0;
  EXPECT_FALSE(net::get_varint64(overrun, sizeof overrun, &pos, &v64));
  // Over-long: 11 continuation groups cannot encode a u64.
  std::string overlong(10, static_cast<char>(0x80));
  overlong.push_back(0x01);
  pos = 0;
  EXPECT_FALSE(net::get_varint64(overlong.data(), overlong.size(), &pos, &v64));
  // Round-trip at the extremes.
  for (std::uint64_t val : {0ULL, 1ULL, 127ULL, 128ULL, ~0ULL}) {
    std::string buf;
    net::put_varint64(buf, val);
    pos = 0;
    ASSERT_TRUE(net::get_varint64(buf.data(), buf.size(), &pos, &v64));
    EXPECT_EQ(v64, val);
    EXPECT_EQ(pos, buf.size());
  }
  for (const Uint128 val :
       {Uint128{}, Uint128{127}, Uint128{1, 0}, Uint128::max()}) {
    std::string buf;
    net::put_varint128(buf, val);
    pos = 0;
    Uint128 v128{};
    ASSERT_TRUE(net::get_varint128(buf.data(), buf.size(), &pos, &v128));
    EXPECT_EQ(v128, val);
  }
}

TEST(StoreFormat, SkipFieldsAgreesWithDecodeFields) {
  // The lookup fast path must land *pos exactly where the full decode
  // does, for records exercising short and long varint bodies.
  for (std::uint64_t i : {0ULL, 1ULL, 63ULL, 64ULL, 1000ULL, 123456789ULL}) {
    Record r = make_record(i);
    r.responses = i * i + 1;
    r.first_us = ~i;
    std::string block;
    encode_record(block, r, nullptr);

    std::size_t full_pos = 0;
    net::Ipv6Address prev;
    Record decoded;
    ASSERT_TRUE(decode_record(block.data(), block.size(), &full_pos, true,
                              &prev, &decoded));
    EXPECT_EQ(decoded, r);

    std::size_t fast_pos = 0;
    Uint128 key{};
    ASSERT_TRUE(decode_key(block.data(), block.size(), &fast_pos, true, &key));
    EXPECT_EQ(key, r.key.value());
    ASSERT_TRUE(skip_fields(block.data(), block.size(), &fast_pos));
    EXPECT_EQ(fast_pos, full_pos);
  }
}

}  // namespace
}  // namespace xmap::store

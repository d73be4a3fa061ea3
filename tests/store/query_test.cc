// Query correctness: LC-trie attribution vs the linear reference,
// aggregation vs a flat recomputation, prefix scans and diff semantics.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "store/diff.h"
#include "store/query.h"
#include "store/snapshot.h"
#include "store/writer.h"

namespace xmap::store {
namespace {

using net::Ipv6Address;
using net::Ipv6Prefix;
using net::Uint128;

// Deterministic 64-bit stream (splitmix64).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

Ipv6Address random_addr(Rng& rng) {
  return Ipv6Address::from_value(Uint128{rng.next(), rng.next()});
}

// Builds a snapshot whose geo section is `prefixes` (asn = index) and whose
// records are `keys`.
std::unique_ptr<Snapshot> make_snapshot(
    const std::vector<Ipv6Prefix>& prefixes,
    const std::vector<Ipv6Address>& keys) {
  StoreBuilder builder{512};
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    GeoEntry geo;
    geo.prefix = prefixes[i];
    geo.asn = static_cast<std::uint32_t>(i + 1);
    geo.country = {static_cast<char>('A' + i % 26), 'X'};
    geo.as_name = "AS-" + std::to_string(i);
    builder.add_geo(geo);
  }
  for (const auto& key : keys) {
    Record r;
    r.key = key;
    r.probe_dst = key;
    r.responses = 1;
    builder.add(r);
  }
  auto loaded = Snapshot::from_buffer(builder.serialize());
  EXPECT_TRUE(loaded.snapshot) << loaded.error;
  return std::move(loaded.snapshot);
}

// Fixed-width records: keys base + 3i (1-byte deltas, so key +/- 1 is never
// stored), probe_dst == key and two 9-byte varints. A block's first record
// then encodes in 41 bytes and every later one in 26, so a block of
// 41 + 26 * (n - 1) bytes holds exactly n records.
constexpr std::size_t kFirstRecordBytes = 41;
constexpr std::size_t kRecordBytes = 26;
constexpr std::uint64_t kKeyBaseLo = 0x1000;

std::uint32_t block_bytes_for(std::size_t per_block) {
  return static_cast<std::uint32_t>(kFirstRecordBytes +
                                    kRecordBytes * (per_block - 1));
}

std::vector<Record> fixed_width_records(std::size_t n) {
  std::vector<Record> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    Record& r = records[i];
    r.key = Ipv6Address::from_value(
        Uint128{0x2001'0db8'0000'0000ULL, kKeyBaseLo + 3 * i});
    r.probe_dst = r.key;
    r.kind = static_cast<std::uint8_t>(i % 7);
    r.hop_limit = static_cast<std::uint8_t>(i);
    r.responses = (1ULL << 62) + i;
    r.first_us = (1ULL << 62) + 2 * i;
  }
  return records;
}

std::unique_ptr<Snapshot> snapshot_of(const std::vector<Record>& records,
                                      std::uint32_t block_bytes) {
  StoreBuilder builder{block_bytes};
  for (const auto& r : records) builder.add(r);
  auto loaded = Snapshot::from_buffer(builder.serialize());
  EXPECT_TRUE(loaded.snapshot) << loaded.error;
  return std::move(loaded.snapshot);
}

// The equivalence property: for every probe address, the snapshot's
// compiled-trie attribution equals a reference PrefixMap answering through
// its uncompiled linear walk.
void check_attribution_equivalence(const std::vector<Ipv6Prefix>& prefixes,
                                   const std::vector<Ipv6Address>& probes) {
  auto snap = make_snapshot(prefixes, {});
  net::PrefixMap<std::uint32_t> reference;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    reference.insert(prefixes[i], static_cast<std::uint32_t>(i + 1));
  }
  for (const auto& probe : probes) {
    const GeoEntry* got = snap->attribute(probe);
    const std::uint32_t* want = reference.lookup_linear(probe);
    if (want == nullptr) {
      EXPECT_EQ(got, nullptr) << probe.to_string();
    } else {
      ASSERT_NE(got, nullptr) << probe.to_string();
      EXPECT_EQ(got->asn, *want) << probe.to_string();
    }
  }
}

TEST(StoreQuery, AttributionMatchesLinearScanOnRandomPrefixes) {
  Rng rng{2024};
  std::vector<Ipv6Prefix> prefixes;
  for (int i = 0; i < 300; ++i) {
    const int len = 8 + static_cast<int>(rng.next() % 57);  // /8../64
    const Uint128 mask = Uint128::max() << (128 - len);
    prefixes.emplace_back(
        Ipv6Address::from_value(random_addr(rng).value() & mask), len);
  }
  std::vector<Ipv6Address> probes;
  for (int i = 0; i < 2000; ++i) probes.push_back(random_addr(rng));
  // Half the probes land inside a random prefix (hits matter too).
  for (int i = 0; i < 2000; ++i) {
    const auto& p = prefixes[rng.next() % prefixes.size()];
    const Uint128 off{rng.next() % 3, rng.next()};
    probes.push_back(Ipv6Address::from_value(p.address().value() | off));
  }
  check_attribution_equivalence(prefixes, probes);
}

TEST(StoreQuery, AttributionMatchesLinearScanOnNestedPrefixes) {
  // A nested chain /16 ⊃ /24 ⊃ ... ⊃ /64 plus siblings: longest match has
  // to pick the deepest cover, and the trie's path compression is under
  // the most pressure.
  Rng rng{7};
  std::vector<Ipv6Prefix> prefixes;
  const Uint128 base{0x20010db800000000ULL, 0};
  for (int len = 16; len <= 64; len += 8) {
    prefixes.emplace_back(Ipv6Address::from_value(base), len);
    // A sibling at each depth, one bit off the chain.
    prefixes.emplace_back(
        Ipv6Address::from_value(base ^ Uint128::pow2(128 - len)), len);
  }
  std::vector<Ipv6Address> probes;
  for (int i = 0; i < 4000; ++i) {
    const Uint128 low{rng.next() % 4, rng.next()};
    probes.push_back(Ipv6Address::from_value(base | low));
  }
  for (int i = 0; i < 500; ++i) probes.push_back(random_addr(rng));
  check_attribution_equivalence(prefixes, probes);
}

TEST(StoreQuery, AttributionMatchesLinearScanOnDensePrefixes) {
  // Dense sweep: every /24 under one /16 (256 siblings), probing every one
  // plus the gaps around the covered space.
  std::vector<Ipv6Prefix> prefixes;
  const std::uint64_t hi_base = 0x2a02000000000000ULL;
  for (std::uint64_t i = 0; i < 256; ++i) {
    prefixes.emplace_back(
        Ipv6Address::from_value(Uint128{hi_base | (i << 40), 0}), 24);
  }
  Rng rng{99};
  std::vector<Ipv6Address> probes;
  for (std::uint64_t i = 0; i < 256; ++i) {
    probes.push_back(Ipv6Address::from_value(
        Uint128{hi_base | (i << 40) | (rng.next() & 0xffffffffffULL),
                rng.next()}));
  }
  for (int i = 0; i < 1000; ++i) probes.push_back(random_addr(rng));
  check_attribution_equivalence(prefixes, probes);
}

TEST(StoreQuery, ScanPrefixVisitsExactlyTheCoveredKeys) {
  Rng rng{5};
  std::vector<Ipv6Address> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(random_addr(rng));
  auto snap = make_snapshot({}, keys);

  for (int len : {0, 1, 2, 4, 8, 16}) {
    const Uint128 mask =
        len == 0 ? Uint128{} : Uint128::max() << (128 - len);
    const Ipv6Prefix prefix{
        Ipv6Address::from_value(keys[static_cast<std::size_t>(len)].value() &
                                mask),
        len};
    std::set<Uint128> expect;
    for (const auto& key : keys) {
      if (prefix.contains(key)) expect.insert(key.value());
    }
    std::set<Uint128> got;
    const std::uint64_t n = snap->scan_prefix(
        prefix, [&](const Record& r) { got.insert(r.key.value()); });
    EXPECT_EQ(n, expect.size()) << "/" << len;
    EXPECT_EQ(got, expect) << "/" << len;
  }
  // Prefixes anchored on keys at known block positions (17 records per
  // block): block starts, restart points and keys in between, so `lo`
  // lands mid-block and between restarts.
  const std::vector<Record> records = fixed_width_records(200);
  auto fixed = snapshot_of(records, block_bytes_for(17));
  ASSERT_EQ(fixed->block_count(), 12u);
  const std::size_t anchors[] = {0, 5, 15, 16, 17, 20, 33, 50, 101, 199};
  for (const std::size_t at : anchors) {
    for (int len : {128, 126, 124, 120, 116}) {
      const Ipv6Prefix prefix{records[at].key, len};
      std::vector<Uint128> expect;
      for (const auto& r : records) {
        if (prefix.contains(r.key)) expect.push_back(r.key.value());
      }
      std::vector<Uint128> got;
      const std::uint64_t n = fixed->scan_prefix(
          prefix, [&](const Record& r) { got.push_back(r.key.value()); });
      EXPECT_EQ(n, expect.size()) << "key " << at << " /" << len;
      EXPECT_EQ(got, expect) << "key " << at << " /" << len;
    }
  }
}

// Point lookups through the restart index agree with the sequential Cursor
// for every stored key, and miss everywhere else.
void check_lookups_match_cursor(const Snapshot& snap) {
  std::set<Uint128> stored;
  std::vector<Record> sequential;
  Snapshot::Cursor cursor{snap};
  Record want;
  while (cursor.next(&want)) {
    stored.insert(want.key.value());
    sequential.push_back(want);
    Record got;
    ASSERT_TRUE(snap.lookup(want.key, &got)) << want.key.to_string();
    EXPECT_EQ(got, want) << want.key.to_string();
  }
  ASSERT_EQ(stored.size(), snap.record_count());
  std::vector<Record> walked;
  snap.for_each([&](const Record& r) { walked.push_back(r); });
  EXPECT_TRUE(walked == sequential);

  Record scratch;
  const auto misses = [&](const Uint128& k) {
    return stored.count(k) == 0 &&
           !snap.lookup(Ipv6Address::from_value(k), &scratch);
  };
  for (const Uint128& k : stored) {
    if (stored.count(k - Uint128{1}) == 0) {
      EXPECT_TRUE(misses(k - Uint128{1}));
    }
    if (stored.count(k + Uint128{1}) == 0) {
      EXPECT_TRUE(misses(k + Uint128{1}));
    }
  }
  if (!stored.empty()) {
    EXPECT_TRUE(misses(*stored.begin() - Uint128{1}));  // below the first
    EXPECT_TRUE(misses(*stored.rbegin() + Uint128{1}));  // above the last
    EXPECT_TRUE(misses(Uint128{}));
    EXPECT_TRUE(misses(Uint128::max()));
  }
}

TEST(StoreQuery, LookupMatchesSequentialScan) {
  // Exact per-block record counts: the 256-byte minimum block (9 records),
  // 15, 16 and 17 (either side of the restart interval) and 33.
  struct Shape {
    std::size_t per_block;
    std::uint32_t block_bytes;
  };
  const Shape shapes[] = {{9, 256},
                          {15, block_bytes_for(15)},
                          {16, block_bytes_for(16)},
                          {17, block_bytes_for(17)},
                          {33, block_bytes_for(33)}};
  for (const Shape& shape : shapes) {
    const std::size_t per = shape.per_block;
    // One record alone, one short of a block, exactly one and two blocks,
    // and counts that leave a one-record last block.
    for (std::size_t n : {std::size_t{1}, per - 1, per, per + 1, 2 * per,
                          2 * per + 1, 5 * per + 7, std::size_t{500}}) {
      SCOPED_TRACE("per_block " + std::to_string(per) + " records " +
                   std::to_string(n));
      auto snap = snapshot_of(fixed_width_records(n), shape.block_bytes);
      ASSERT_TRUE(snap);
      ASSERT_EQ(snap->block_count(), (n + per - 1) / per);
      check_lookups_match_cursor(*snap);
    }
  }
  // Variable-width records: random 128-bit keys at several block sizes.
  Rng rng{77};
  std::vector<Ipv6Address> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(random_addr(rng));
  for (std::uint32_t block_bytes : {256u, 512u, 1024u, 4096u}) {
    SCOPED_TRACE("random keys, block_bytes " + std::to_string(block_bytes));
    std::vector<Record> records;
    for (const auto& key : keys) {
      Record r;
      r.key = key;
      r.probe_dst = random_addr(rng);
      r.responses = rng.next() % 1000;
      r.first_us = rng.next();
      records.push_back(r);
    }
    auto snap = snapshot_of(records, block_bytes);
    ASSERT_TRUE(snap);
    check_lookups_match_cursor(*snap);
  }
}

TEST(StoreQuery, AggregationMatchesFlatRecomputation) {
  Rng rng{31};
  StoreBuilder builder{512};
  const std::uint16_t vendors[3] = {0, builder.vendor_id("cisco"),
                                    builder.vendor_id("zte")};
  std::vector<Ipv6Prefix> prefixes;
  for (std::uint64_t i = 0; i < 16; ++i) {
    GeoEntry geo;
    geo.prefix = Ipv6Prefix{
        Ipv6Address::from_value(Uint128{0x2400000000000000ULL | (i << 32), 0}),
        32};
    geo.asn = static_cast<std::uint32_t>(100 + i);
    geo.country = {static_cast<char>('A' + i % 4), 'Q'};
    geo.as_name = "AGG-" + std::to_string(i);
    builder.add_geo(geo);
    prefixes.push_back(geo.prefix);
  }
  std::vector<Record> records;
  for (int i = 0; i < 2000; ++i) {
    Record r;
    const bool inside = rng.next() % 4 != 0;  // 25% unattributed
    r.key = inside ? Ipv6Address::from_value(
                         prefixes[rng.next() % prefixes.size()]
                             .address()
                             .value() |
                         Uint128{rng.next() & 0xffffffffULL, rng.next()})
                   : random_addr(rng);
    r.probe_dst = r.key;
    r.vendor = vendors[rng.next() % 3];
    r.services = static_cast<std::uint16_t>(rng.next() % 16);
    r.flags = static_cast<std::uint8_t>(
        rng.next() % 8 == 0
            ? kFlagLoopCandidate | (rng.next() % 2 ? kFlagLoopConfirmed : 0)
            : 0);
    r.responses = 1 + rng.next() % 5;
    r.first_us = rng.next();
    builder.add(r);
    records.push_back(r);
  }
  auto loaded = Snapshot::from_buffer(builder.serialize());
  ASSERT_TRUE(loaded.snapshot) << loaded.error;
  const Snapshot& snap = *loaded.snapshot;

  // Flat recomputation of the ASN aggregation over the in-memory records
  // (duplicate keys are possible from the random generator; merge like the
  // store does — but the generator's 128-bit keys never collide at n=2000,
  // so a plain map by key is enough).
  std::map<std::string, AggRow> expect;
  std::uint64_t expect_total = 0;
  for (const auto& r : records) {
    const GeoEntry* geo = snap.attribute(r.key);
    const std::string group =
        geo == nullptr ? "unattributed"
                       : "AS" + std::to_string(geo->asn) + " " + geo->as_name;
    AggRow& row = expect[group];
    row.key = group;
    row.records += 1;
    row.loop_candidates += (r.flags & kFlagLoopCandidate) != 0 ? 1 : 0;
    row.loop_confirmed += (r.flags & kFlagLoopConfirmed) != 0 ? 1 : 0;
    row.responses += r.responses;
    ++expect_total;
  }
  ASSERT_EQ(snap.record_count(), expect_total) << "unexpected key collision";

  const auto rows = aggregate(snap, GroupBy::kAsn);
  ASSERT_EQ(rows.size(), expect.size());
  std::uint64_t prev_records = ~0ULL;
  for (const auto& row : rows) {
    auto it = expect.find(row.key);
    ASSERT_NE(it, expect.end()) << row.key;
    EXPECT_EQ(row, it->second) << row.key;
    EXPECT_LE(row.records, prev_records) << "rows not sorted";
    prev_records = row.records;
  }

  // Vendor aggregation: every record lands in exactly one named bucket.
  std::uint64_t vendor_total = 0;
  for (const auto& row : aggregate(snap, GroupBy::kVendor)) {
    vendor_total += row.records;
  }
  EXPECT_EQ(vendor_total, snap.record_count());

  // The summary agrees with a flat distinct-count pass.
  std::set<std::uint32_t> asns, loop_asns;
  std::uint64_t candidates = 0;
  for (const auto& r : records) {
    const GeoEntry* geo = snap.attribute(r.key);
    if (geo != nullptr) asns.insert(geo->asn);
    if ((r.flags & kFlagLoopCandidate) != 0) {
      ++candidates;
      if (geo != nullptr) loop_asns.insert(geo->asn);
    }
  }
  const PeripherySummary sum = summarize(snap);
  EXPECT_EQ(sum.records, snap.record_count());
  EXPECT_EQ(sum.loop_candidates, candidates);
  EXPECT_EQ(sum.asns, asns.size());
  EXPECT_EQ(sum.loop_asns, loop_asns.size());
}

TEST(StoreQuery, DiffClassifiesAddedRemovedChangedUnchanged) {
  Rng rng{13};
  std::vector<Ipv6Address> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(random_addr(rng));

  StoreBuilder before{512}, after{512};
  // keys[0..299] in A; keys[100..399] in B; keys[100..149] change payload.
  for (int i = 0; i < 300; ++i) {
    Record r;
    r.key = keys[static_cast<std::size_t>(i)];
    r.probe_dst = r.key;
    r.responses = 1;
    before.add(r);
  }
  for (int i = 100; i < 400; ++i) {
    Record r;
    r.key = keys[static_cast<std::size_t>(i)];
    r.probe_dst = r.key;
    r.responses = i < 150 ? 7 : 1;  // changed payload for 100..149
    after.add(r);
  }
  auto a = Snapshot::from_buffer(before.serialize());
  auto b = Snapshot::from_buffer(after.serialize());
  ASSERT_TRUE(a.snapshot) << a.error;
  ASSERT_TRUE(b.snapshot) << b.error;

  std::uint64_t sink_calls = 0;
  Uint128 prev{};
  const DiffStats stats =
      diff(*a.snapshot, *b.snapshot, [&](const DiffEntry& e) {
        const Record& keyed =
            e.kind == DiffKind::kRemoved ? e.before : e.after;
        if (sink_calls > 0) {
          EXPECT_LT(prev, keyed.key.value()) << "diff not in key order";
        }
        prev = keyed.key.value();
        ++sink_calls;
      });
  EXPECT_EQ(stats.added, 100u);
  EXPECT_EQ(stats.removed, 100u);
  EXPECT_EQ(stats.changed, 50u);
  EXPECT_EQ(stats.unchanged, 150u);
  EXPECT_EQ(sink_calls, 250u);

  // Diff of a store against itself is all-unchanged.
  const DiffStats self = diff(*a.snapshot, *a.snapshot, nullptr);
  EXPECT_EQ(self.added, 0u);
  EXPECT_EQ(self.removed, 0u);
  EXPECT_EQ(self.changed, 0u);
  EXPECT_EQ(self.unchanged, 300u);
}

}  // namespace
}  // namespace xmap::store

// Fuzz harness for the checkpoint state file (checkpoint v3), the
// counterpart of fabric_frames_test.cc: every truncation and every
// single-bit flip of a valid checkpoint must be refused with a diagnostic,
// never a crash or a silently different resume; seeded random mutations
// must never mis-parse; and hostile count prefixes must be refused before
// anything proportional to them is allocated.
//
// Why every body flip is caught by the checksum: the whole-file FNV-1a
// (h = (h ^ byte) * prime, injective in h at every step) changes whenever
// one byte before the trailer does, and a flip inside the stored trailer
// mismatches the unchanged computed value. Flips in the text header are
// refused by the header or version check before the checksum is read.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <string>

#include "netbase/codec.h"
#include "recover/state.h"

namespace {
// The largest single ::operator new request, so a test can show that a
// hostile count never reached an allocation.
std::atomic<std::size_t> g_largest_alloc{0};

void* tracked_alloc(std::size_t size) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, size,
                                                std::memory_order_relaxed)) {
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xmap::recover {
namespace {

constexpr std::size_t kTrailer = 8;

// A checkpoint exercising every section: fingerprint with targets, stats,
// one cursor per worker, records, trace events and metrics (counter with
// labels, histogram).
CheckpointState sample_state() {
  CheckpointState state;
  state.signal = 15;
  state.fingerprint.seed = 7;
  state.fingerprint.world = "bgp:4";
  state.fingerprint.threads = 2;
  state.fingerprint.rate_pps = 1e6;
  state.fingerprint.targets = {"2001:db8::/32-48"};
  state.stats.targets_generated = 400;
  state.stats.sent = 400;
  state.stats.validated = 120;
  state.cursors = {scan::ScanCursor{{200}, 399}, scan::ScanCursor{{200}, 398}};
  for (int i = 0; i < 3; ++i) {
    CheckpointRecord record;
    record.response.kind = scan::ResponseKind::kDestUnreachable;
    record.response.responder = *net::Ipv6Address::parse("2001:db8:1::1");
    record.response.probe_dst = *net::Ipv6Address::parse("2001:db8:1::99");
    record.response.icmp_code = 3;
    record.response.hop_limit = 60;
    record.when = 1000 + static_cast<std::uint64_t>(i);
    record.worker = i % 2;
    record.raw_slot = 10 + static_cast<std::uint64_t>(i);
    state.records.push_back(record);
  }
  state.has_obs = true;
  obs::TraceEvent event;
  event.ts = 42;
  event.name = "probe_sent";
  event.cat = "scan";
  event.addr1_key = "dst";
  event.addr1 = *net::Ipv6Address::parse("2001:db8:1::99");
  event.i0 = {"slot", 10};
  state.trace.push_back(event);
  obs::MetricsSnapshot::Entry counter;
  counter.name = "probes_sent_total";
  counter.labels = {{"module", "icmp_echo"}};
  counter.value = 400;
  counter.help = "Probes handed to the channel";
  state.metrics.entries.push_back(counter);
  obs::MetricsSnapshot::Entry histogram;
  histogram.name = "rtt_us";
  histogram.kind = obs::MetricKind::kHistogram;
  histogram.histogram =
      obs::Histogram::from_parts({10, 100}, {1, 2, 3}, 555, 6);
  state.metrics.entries.push_back(histogram);
  return state;
}

void reseal(std::string& bytes) {
  const std::size_t sealed = bytes.size() - kTrailer;
  const std::uint64_t sum = net::fnv1a(bytes.data(), sealed);
  std::memcpy(bytes.data() + sealed, &sum, kTrailer);
}

TEST(CheckpointFuzz, SampleParses) {
  const std::string bytes = serialize_checkpoint(sample_state());
  auto parsed = parse_checkpoint(bytes);
  ASSERT_TRUE(parsed.state.has_value()) << parsed.error;
  EXPECT_EQ(serialize_checkpoint(*parsed.state), bytes);
}

// Every proper prefix is refused with a diagnostic.
TEST(CheckpointFuzz, EveryTruncationRefused) {
  const std::string bytes = serialize_checkpoint(sample_state());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = parse_checkpoint(std::string_view{bytes}.substr(0, len));
    ASSERT_FALSE(parsed.state.has_value())
        << "truncation to " << len << " of " << bytes.size()
        << " bytes was accepted";
    ASSERT_FALSE(parsed.error.empty()) << "truncation to " << len;
  }
}

// Every single-bit flip is refused; a flip anywhere after the header line
// (body or trailer) is named as a checksum mismatch with both values.
TEST(CheckpointFuzz, EveryBitFlipRefused) {
  const std::string bytes = serialize_checkpoint(sample_state());
  const std::size_t body_start = bytes.find('\n') + 1;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto parsed = parse_checkpoint(mutated);
      ASSERT_FALSE(parsed.state.has_value())
          << "bit " << bit << " of byte " << byte << " flipped in a "
          << bytes.size() << "-byte checkpoint was accepted";
      ASSERT_FALSE(parsed.error.empty());
      if (byte >= body_start) {
        ASSERT_NE(parsed.error.find("checksum mismatch: stored 0x"),
                  std::string::npos)
            << "byte " << byte << ": " << parsed.error;
        ASSERT_NE(parsed.error.find(", computed 0x"), std::string::npos)
            << parsed.error;
      }
    }
  }
}

// Seeded random multi-byte mutations (and tail chops): never a crash, and
// anything accepted must be the original bytes.
TEST(CheckpointFuzz, RandomMutationsNeverMisparse) {
  std::mt19937_64 rng{20261018};
  const std::string bytes = serialize_checkpoint(sample_state());
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = bytes;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < flips; ++i) {
      mutated[rng() % mutated.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    if (rng() % 4 == 0) mutated.resize(rng() % mutated.size());
    auto parsed = parse_checkpoint(mutated);
    if (parsed.state.has_value()) {
      EXPECT_EQ(mutated, bytes) << "a mutated checkpoint was accepted";
    } else {
      EXPECT_FALSE(parsed.error.empty());
    }
  }
}

// Resealed random body mutations get past the checksum, so the field
// checks alone must refuse them (or parse them) without a crash.
TEST(CheckpointFuzz, ResealedMutationsNeverCrash) {
  std::mt19937_64 rng{7};
  const std::string bytes = serialize_checkpoint(sample_state());
  const std::size_t body_start = bytes.find('\n') + 1;
  const std::size_t body_len = bytes.size() - kTrailer - body_start;
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = bytes;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < flips; ++i) {
      mutated[body_start + rng() % body_len] ^=
          static_cast<char>(1 + rng() % 255);
    }
    reseal(mutated);
    auto parsed = parse_checkpoint(mutated);
    if (!parsed.state.has_value()) {
      EXPECT_FALSE(parsed.error.empty());
    }
  }
}

// Count prefixes of 2^32-1 (u32 counts) and 2^64-1 (u64 counts), resealed
// so only the bound check stands between them and an allocation. The
// sample is minimal, so each count's offset from the trailer is fixed:
//   ... u32 cursors | u32 specs | u64 frontier | u64 records | u8 obs |
//   u64 trace | u64 metrics | trailer
TEST(CheckpointFuzz, HostileCountPrefixesRefusedWithoutAllocation) {
  CheckpointState state;
  state.cursors.resize(1);
  state.has_obs = true;
  const std::string bytes = serialize_checkpoint(state);
  ASSERT_TRUE(parse_checkpoint(bytes).state.has_value());
  const std::size_t end = bytes.size() - kTrailer;
  struct Case {
    const char* field;
    std::size_t offset;  // from the start of the trailer
    std::size_t width;
    std::uint64_t value;  // as serialized
  };
  const Case cases[] = {
      {"metrics entries", 8, 8, 0}, {"trace events", 16, 8, 0},
      {"records", 25, 8, 0},        {"cursor", 37, 4, 0},
      {"cursors", 41, 4, 1},
  };
  for (const Case& c : cases) {
    std::string bad = bytes;
    ASSERT_GE(end, c.offset);
    ASSERT_EQ(std::memcmp(bad.data() + end - c.offset, &c.value, c.width), 0)
        << c.field << " count is not at that offset";
    std::memset(bad.data() + end - c.offset, 0xff, c.width);
    reseal(bad);
    g_largest_alloc.store(0);
    auto parsed = parse_checkpoint(bad);
    const std::size_t largest = g_largest_alloc.load();
    ASSERT_FALSE(parsed.state.has_value()) << c.field;
    EXPECT_NE(parsed.error.find(std::string{c.field} + " count"),
              std::string::npos)
        << parsed.error;
    EXPECT_NE(parsed.error.find("exceeds remaining"), std::string::npos)
        << parsed.error;
    EXPECT_LT(largest, 4096u) << c.field << ": a " << largest
                              << "-byte allocation";
  }
}

}  // namespace
}  // namespace xmap::recover

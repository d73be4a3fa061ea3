// Store query-service throughput: N reader threads hammering one shared,
// immutable results-store snapshot with point lookups.
//
// The acceptance target for the store subsystem: >= 1M point lookups/s
// aggregate with 8 reader threads over a >= 1M-record snapshot, with zero
// global-heap allocations on the steady-state query path (the allocation
// claim is proven separately by tests/store/alloc_free_query_test.cc; this
// binary measures the throughput half and fails below the floor).
//
// The snapshot is self-generated: 2^20 synthetic periphery records with
// unique keys (odd-multiplier bijection over the low 64 bits), ~1k geo
// prefixes and a handful of vendors — enough blocks, index pressure and
// trie fan-out to make the numbers honest.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.h"
#include "store/service.h"
#include "store/snapshot.h"
#include "store/writer.h"

namespace {

constexpr std::uint64_t kRecords = 1u << 20;  // 1,048,576
constexpr std::uint64_t kGeoPrefixes = 1024;
// Odd multiplier => bijection mod 2^64, so every low-64 key is unique.
constexpr std::uint64_t kKeyMultiplier = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kBaseHi = 0x3fff000000000000ULL;

std::string build_snapshot_bytes() {
  using namespace xmap;
  // 1 KiB blocks, the shape the checked-in baseline was measured on; a
  // lookup key-scans at most 16 records from a restart point whatever the
  // block size.
  store::StoreBuilder builder{1024};
  const char* vendor_names[] = {"", "cisco", "juniper", "mikrotik", "huawei"};
  std::uint16_t vendor_ids[5] = {};
  for (int v = 1; v < 5; ++v) {
    vendor_ids[v] = builder.vendor_id(vendor_names[v]);
  }
  for (std::uint64_t g = 0; g < kGeoPrefixes; ++g) {
    store::GeoEntry geo;
    geo.prefix = net::Ipv6Prefix{
        net::Ipv6Address::from_value(net::Uint128{kBaseHi | (g << 20), 0}),
        44};
    geo.asn = static_cast<std::uint32_t>(64512 + g);
    geo.country = {static_cast<char>('A' + (g % 26)),
                   static_cast<char>('A' + (g / 26 % 26))};
    geo.as_name = "BENCH-AS" + std::to_string(g);
    builder.add_geo(geo);
  }
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    store::Record r;
    const std::uint64_t hi = kBaseHi | ((i % kGeoPrefixes) << 20);
    const std::uint64_t lo = i * kKeyMultiplier;
    r.key = net::Ipv6Address::from_value(net::Uint128{hi, lo});
    r.probe_dst =
        net::Ipv6Address::from_value(net::Uint128{hi, lo ^ 0xffULL});
    r.kind = 1;
    r.hop_limit = static_cast<std::uint8_t>(32 + i % 32);
    r.flags = i % 37 == 0 ? static_cast<std::uint8_t>(
                                store::kFlagLoopCandidate |
                                store::kFlagLoopConfirmed)
                          : std::uint8_t{0};
    r.vendor = vendor_ids[i % 5];
    r.services = static_cast<std::uint16_t>(i % 8);
    r.responses = 1 + i % 3;
    r.first_us = i;
    builder.add(r);
  }
  builder.set_config_fingerprint(0xbe5cbe5cbe5cbe5cULL);
  builder.set_git_sha(store::current_git_sha());
  return builder.serialize();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace xmap;
  bench::print_header("store_query",
                      "Results-store concurrent point-lookup throughput");

  auto t0 = std::chrono::steady_clock::now();
  const std::string bytes = build_snapshot_bytes();
  const double build_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  auto loaded = store::Snapshot::from_buffer(bytes);
  const double load_s = seconds_since(t0);
  if (!loaded.snapshot) {
    std::fprintf(stderr, "snapshot load failed: %s\n", loaded.error.c_str());
    return 1;
  }
  const store::Snapshot& snap = *loaded.snapshot;
  std::printf("snapshot: %llu records, %llu blocks, %zu geo entries, "
              "%.1f MiB (%.2f B/record)\n"
              "build+serialize %.2fs, load+validate (full checksum + "
              "structural decode + trie compile) %.3fs\n\n",
              static_cast<unsigned long long>(snap.record_count()),
              static_cast<unsigned long long>(snap.header().block_count),
              snap.geo_entries().size(),
              static_cast<double>(bytes.size()) / (1024.0 * 1024.0),
              static_cast<double>(bytes.size()) /
                  static_cast<double>(snap.record_count()),
              build_s, load_s);

  store::QueryLoadOptions options;
  options.threads = 8;
  options.lookups_per_thread = 1'000'000;
  options.seed = bench::seed_from_env();
  const auto result = store::run_query_load(snap, options);

  std::printf("query load: %d threads x %llu lookups -> %.0f lookups/s "
              "aggregate (%.2fs wall, %.1f%% hits)\n",
              options.threads,
              static_cast<unsigned long long>(options.lookups_per_thread),
              result.lookups_per_sec, result.seconds,
              100.0 * static_cast<double>(result.hits) /
                  static_cast<double>(result.lookups));
  if (const auto* queries =
          result.metrics.find("store_queries_total", {})) {
    const auto* hits = result.metrics.find("store_query_hits_total", {});
    std::printf("obs counters: store_queries_total=%llu "
                "store_query_hits_total=%llu\n",
                static_cast<unsigned long long>(queries->value),
                static_cast<unsigned long long>(
                    hits != nullptr ? hits->value : 0));
  }

  bench::BenchJson json{"store_query"};
  json.add("point_lookups_per_sec", result.lookups_per_sec, "lookups/s");
  json.add("load_validate_seconds", load_s, "s", /*higher_is_better=*/false);
  json.add("store_bytes_per_record",
           static_cast<double>(bytes.size()) /
               static_cast<double>(snap.record_count()),
           "bytes", /*higher_is_better=*/false);
  json.write();

  // Acceptance floor (ISSUE: >= 1M lookups/s aggregate at 8 threads over
  // >= 1M records). Overridable for constrained CI runners.
  double floor_lps = 1'000'000.0;
  if (const char* env = std::getenv("XMAP_STORE_QUERY_MIN_LPS")) {
    floor_lps = std::atof(env);
  }
  if (result.lookups_per_sec < floor_lps) {
    std::fprintf(stderr,
                 "FAIL: %.0f lookups/s is below the %.0f lookups/s floor\n",
                 result.lookups_per_sec, floor_lps);
    return 1;
  }
  std::printf("\nPASS: %.2fM lookups/s >= %.2fM floor\n",
              result.lookups_per_sec / 1e6, floor_lps / 1e6);
  return 0;
}

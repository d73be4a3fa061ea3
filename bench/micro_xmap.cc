// Micro-benchmarks (google-benchmark): the scanner's hot paths — cyclic
// group permutation, target/probe construction, packet codec, checksum and
// longest-prefix-match lookups — plus the linear-vs-permuted ablation
// DESIGN.md calls out. A developer tool: no CI step reads its numbers;
// end-to-end scan speed is gated by perfbench (tools/perf_gate.py).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "netbase/checksum.h"
#include "netbase/random.h"
#include "topology/routing_table.h"
#include "xmap/cyclic_group.h"
#include "xmap/probe_module.h"
#include "xmap/target_spec.h"

namespace {

using namespace xmap;

void BM_CyclicGroupNext(benchmark::State& state) {
  scan::CyclicGroup group{net::Uint128::pow2(static_cast<int>(state.range(0))),
                          42};
  auto it = group.iterate();
  for (auto _ : state) {
    auto v = it.next();
    if (!v) it = group.iterate();
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CyclicGroupNext)->Arg(16)->Arg(32)->Arg(48)->Arg(64);

void BM_GroupConstruction(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    scan::CyclicGroup group{
        net::Uint128::pow2(static_cast<int>(state.range(0))), seed++};
    benchmark::DoNotOptimize(group.generator());
  }
}
BENCHMARK(BM_GroupConstruction)->Arg(16)->Arg(32)->Arg(64);

// Ablation: linear enumeration vs cyclic-group permutation. The permutation
// costs one 128-bit mulmod per target; this quantifies the overhead paid
// for probe-order randomisation (politeness to target networks).
void BM_LinearEnumeration(benchmark::State& state) {
  const auto spec = *scan::TargetSpec::parse("2400::/8-40");
  net::Uint128 i{0};
  for (auto _ : state) {
    auto addr = spec.nth_address(i, 7);
    i += net::Uint128{1};
    benchmark::DoNotOptimize(addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearEnumeration);

void BM_PermutedEnumeration(benchmark::State& state) {
  const auto spec = *scan::TargetSpec::parse("2400::/8-40");
  scan::CyclicGroup group{spec.count(), 42};
  auto it = group.iterate();
  for (auto _ : state) {
    auto v = it.next();
    if (!v) {
      it = group.iterate();
      v = it.next();
    }
    auto addr = spec.nth_address(*v, 7);
    benchmark::DoNotOptimize(addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PermutedEnumeration);

void BM_BuildEchoProbe(benchmark::State& state) {
  const auto src = *net::Ipv6Address::parse("2001:500::1");
  const auto dst = *net::Ipv6Address::parse("2400:1:2:3::1234");
  scan::IcmpEchoProbe module{64};
  for (auto _ : state) {
    auto packet = module.make_probe(src, dst, 7);
    benchmark::DoNotOptimize(packet);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildEchoProbe);

// The template hot path: re-aim a cached frame per target (destination +
// keyed fields + incremental checksum) instead of a full rebuild. The ratio
// against BM_BuildEchoProbe is the per-probe win the scanner banks on.
void BM_PatchEchoProbe(benchmark::State& state) {
  const auto src = *net::Ipv6Address::parse("2001:500::1");
  const auto spec = *scan::TargetSpec::parse("2400::/8-40");
  scan::IcmpEchoProbe module{64};
  scan::ProbeTemplate tmpl = module.make_template(src, 7);
  net::Uint128 i{0};
  for (auto _ : state) {
    const auto target = spec.nth_address(i, 7);
    i += net::Uint128{1};
    module.patch_probe(tmpl, src, target, 7);
    benchmark::DoNotOptimize(tmpl.frame().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatchEchoProbe);

void BM_ChecksumUpdate(benchmark::State& state) {
  std::vector<std::uint8_t> buf(64, 0xa5);
  std::uint16_t csum = net::internet_checksum(buf);
  std::uint8_t patch[16] = {};
  std::uint64_t n = 0;
  for (auto _ : state) {
    patch[0] = static_cast<std::uint8_t>(++n);
    csum = net::checksum_update(
        csum, std::span<const std::uint8_t>{buf.data() + 16, 16}, patch);
    std::memcpy(buf.data() + 16, patch, 16);
    benchmark::DoNotOptimize(csum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChecksumUpdate);

void BM_ClassifyResponse(benchmark::State& state) {
  const auto src = *net::Ipv6Address::parse("2001:500::1");
  const auto dst = *net::Ipv6Address::parse("2400:1:2:3::1234");
  const auto router = *net::Ipv6Address::parse("2400:1:2:3::1");
  scan::IcmpEchoProbe module{64};
  const auto err = pkt::build_icmpv6_error(
      router, pkt::Icmpv6Type::kDestUnreachable, 3,
      module.make_probe(src, dst, 7));
  for (auto _ : state) {
    auto result = module.classify(err, src, 7);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyResponse);

void BM_Checksum1280(benchmark::State& state) {
  std::vector<std::uint8_t> data(1280, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1280);
}
BENCHMARK(BM_Checksum1280);

void BM_LpmLookup(benchmark::State& state) {
  topo::RoutingTable table;
  net::Rng rng{5};
  for (int i = 0; i < state.range(0); ++i) {
    const auto addr =
        net::Ipv6Address::from_value(net::Uint128{rng.next(), rng.next()});
    table.add_forward(net::Ipv6Prefix{addr, 64}, i % 8);
  }
  table.add_default(0);
  const auto probe =
      net::Ipv6Address::from_value(net::Uint128{rng.next(), rng.next()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LpmLookup)->Arg(100)->Arg(10000)->Arg(100000);

void BM_AddressParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::Ipv6Address::parse("2001:db8:1234:5678:9abc:def0:1357:2468"));
  }
}
BENCHMARK(BM_AddressParse);

void BM_AddressFormat(benchmark::State& state) {
  const auto addr = *net::Ipv6Address::parse("2001:db8::1234:0:0:1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(addr.to_string());
  }
}
BENCHMARK(BM_AddressFormat);

}  // namespace

BENCHMARK_MAIN();

// Pipeline integration tests: discovery, IID analysis, vendor recovery,
// subnet inference and the loop scan, all over the built synthetic Internet.
#include "analysis/pipeline.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "topology/paper_profiles.h"

namespace xmap::ana {
namespace {

using net::Ipv6Address;

struct World {
  sim::Network net{77};
  topo::BuiltInternet internet;

  explicit World(int window_bits = 8, std::uint64_t seed = 42)
      : internet([&] {
          topo::BuildConfig cfg;
          cfg.window_bits = window_bits;
          cfg.seed = seed;
          return topo::build_internet(net, topo::paper::isp_specs(),
                                      topo::paper::vendor_catalog(), cfg);
        }()) {}
};

TEST(Pipeline, DiscoveryFindsDevicesOfSelectedIsps) {
  World world;
  const int indices[] = {0, 12};
  auto result = run_discovery_scan(world.net, world.internet, indices, {});
  EXPECT_EQ(result.stats.sent, 1024u);  // 2 windows x 256 slots x 2 parities
  const std::size_t expected = world.internet.isps[0].devices.size() +
                               world.internet.isps[12].devices.size();
  EXPECT_GT(result.last_hops.size(), expected * 8 / 10);
  EXPECT_LE(result.last_hops.size(), expected + 8);
}

TEST(Pipeline, IidHistogramMatchesGroundTruth) {
  World world;
  const int indices[] = {11};  // China Unicom broadband: EUI-64 heavy
  auto result = run_discovery_scan(world.net, world.internet, indices, {});
  auto hist = iid_histogram(result.last_hops);
  ASSERT_GT(hist.total, 0u);
  const double eui = static_cast<double>(hist.of(net::IidStyle::kEui64)) /
                     static_cast<double>(hist.total);
  // Spec says 53.3% EUI-64 for Unicom; allow sampling noise.
  EXPECT_NEAR(eui, 0.533, 0.2);
}

TEST(Pipeline, VendorRecoveryThroughOui) {
  World world;
  const int indices[] = {11, 12};
  auto result = run_discovery_scan(world.net, world.internet, indices, {});
  // Build ground truth: address -> vendor name.
  std::unordered_map<Ipv6Address, std::string> truth;
  for (int i : indices) {
    for (const auto& dev : world.internet.isps[i].devices) {
      truth[dev.address] = world.internet.vendor(dev.vendor).name;
    }
  }
  int identified = 0, correct = 0;
  for (const auto& hop : result.last_hops) {
    auto vendor = vendor_from_address(hop.address, world.internet.oui);
    if (!vendor) continue;
    ++identified;
    auto it = truth.find(hop.address);
    ASSERT_NE(it, truth.end());
    if (it->second == *vendor) ++correct;
  }
  EXPECT_GT(identified, 15);
  EXPECT_EQ(correct, identified);  // OUI recovery is exact for EUI-64
}

TEST(Pipeline, VendorFromAddressRejectsNonEui) {
  topo::OuiDb oui;
  oui.add(0xb0d001, "X");
  EXPECT_EQ(
      vendor_from_address(*Ipv6Address::parse("3fff::1234:5678:9abc:def0"), oui),
      nullptr);
  // EUI-64 but unknown OUI.
  const auto mac = net::MacAddress::from_u64(0xffffff000001);
  const auto addr = net::Ipv6Prefix::parse("3fff::/64")->address_with_suffix(
      net::Uint128{mac.to_eui64_iid()});
  EXPECT_EQ(vendor_from_address(addr, oui), nullptr);
}

TEST(Pipeline, GrabServicesOverDiscoveredHops) {
  World world;
  const int indices[] = {12};  // China Mobile broadband: service-rich
  auto discovery = run_discovery_scan(world.net, world.internet, indices, {});
  std::vector<Ipv6Address> targets;
  for (const auto& hop : discovery.last_hops) targets.push_back(hop.address);
  ASSERT_FALSE(targets.empty());

  auto grabs = grab_services(world.net, world.internet, targets, {});
  EXPECT_EQ(grabs.size(), targets.size() * 8);

  // Compare per-address liveness against ground truth deployments.
  std::unordered_map<Ipv6Address, std::unordered_set<int>> truth;
  for (const auto& dev : world.internet.isps[12].devices) {
    for (const auto& [kind, sw] : dev.services) {
      truth[dev.address].insert(static_cast<int>(kind));
    }
  }
  std::uint64_t alive = 0, mismatches = 0;
  for (const auto& grab : grabs) {
    auto it = truth.find(grab.target);
    const bool expected =
        it != truth.end() &&
        it->second.count(static_cast<int>(grab.kind)) != 0;
    if (grab.alive) ++alive;
    if (grab.alive != expected) ++mismatches;
  }
  EXPECT_GT(alive, 0u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Pipeline, SubnetInferenceRecoversDelegationLength) {
  // Check one ISP of each delegated length: Jio (/64), AT&T (/60),
  // Comcast (/56).
  struct Case {
    int isp;
    int expect;
  };
  for (const Case c : {Case{0, 64}, Case{5, 60}, Case{4, 56}}) {
    World world;
    auto result = infer_subnet_length(world.net, world.internet, c.isp, {});
    ASSERT_TRUE(result.ok) << "isp " << c.isp;
    EXPECT_EQ(result.inferred_len, c.expect) << "isp " << c.isp;
    EXPECT_GT(result.witnesses, 0);
  }
}

TEST(Pipeline, LoopScanFindsVulnerableDevicesWithNoFalsePositives) {
  World world;
  const int indices[] = {12};  // China Mobile broadband: high loop rate
  auto result = run_loop_scan(world.net, world.internet, indices, {});

  // Ground truth: vulnerable devices and the ISP router (which also loops
  // from the scanner's viewpoint — it is one end of every loop).
  std::unordered_set<Ipv6Address> vulnerable;
  for (const auto& dev : world.internet.isps[12].devices) {
    if (dev.loop_wan || dev.loop_lan) vulnerable.insert(dev.address);
  }
  const Ipv6Address isp_router =
      world.internet.isps[12].router->address();

  ASSERT_FALSE(result.confirmed.empty());
  std::size_t device_hits = 0;
  for (const auto& loop : result.confirmed) {
    if (loop.address == isp_router) continue;
    EXPECT_TRUE(vulnerable.count(loop.address))
        << loop.address.to_string() << " is not loop-vulnerable";
    ++device_hits;
  }
  // The loop scan probes each delegation at one random address; probes that
  // land in the device's advertised subnet get an unreachable instead, so
  // coverage is the not-used fraction (15/16 for /60 slots) of the
  // vulnerable set, minus parity effects. Expect a solid majority.
  EXPECT_GT(device_hits, vulnerable.size() / 2);
  EXPECT_LE(device_hits, vulnerable.size());
}

TEST(Pipeline, LoopScanCleanIspHasNoConfirmations) {
  World world;
  const int indices[] = {8};  // AT&T mobile: loop_scale 0
  auto result = run_loop_scan(world.net, world.internet, indices, {});
  EXPECT_TRUE(result.confirmed.empty());
}

}  // namespace
}  // namespace xmap::ana

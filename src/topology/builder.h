// Synthetic-Internet construction.
//
// Builds the measurement substrate: a transit core, one edge router per ISP
// block, and a population of CPE/UE periphery devices whose address styles,
// vendor mix, exposed services and routing-flaw rates are drawn from
// per-ISP specifications (see paper_profiles.{h,cc} for the calibrated
// instances reproducing the paper's twelve ISPs).
//
// Scale note: the paper scans 32-bit sub-prefix spaces (2^32 slots per
// block). Experiments here use `window_bits`-sized windows (default 2^12
// slots); the ISP block is sized so that block-length + window = delegated
// prefix length, which preserves the probing geometry exactly — every slot
// is one potential customer delegation, probed once.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "topology/devices.h"
#include "topology/geodb.h"
#include "topology/vendor.h"

namespace xmap::topo {

// One ISP block to populate (calibration data: Tables I and II).
struct IspSpec {
  std::string country;   // "IN", "US", "CN"
  std::string network;   // "Broadband", "Mobile", "Enterprise"
  std::string name;      // e.g. "Reliance Jio"
  std::uint32_t asn = 0;
  std::string paper_block;  // the paper's block length, e.g. "/32" (reporting)
  std::string paper_range;  // the paper's scan range, e.g. "/32-64" (reporting)
  // The paper's reported unique-last-hop count for this block (Table II);
  // used by the harnesses to form paper-weighted totals, since the scaled
  // windows change the cross-block population ratios.
  double paper_hops = 0;

  net::Ipv6Address block_base;  // synthetic block location
  int delegated_len = 64;       // Table I "Length": 56, 60 or 64
  bool ue_model = false;        // mobile UE population vs CPE population

  // Fraction of delegation slots occupied by an active subscriber.
  double density = 0.5;

  // "same"/"diff" mechanics (Table II):
  //  * delegated_len == 64: `separate_wan_fraction` of devices keep a WAN
  //    /64 distinct from the probed slot (responders land in a different
  //    /64 -> "diff"); the rest respond from inside the slot -> "same".
  //  * delegated_len < 64: all devices have a distinct WAN /64;
  //    `wan_inside_lan_fraction` of them draw it from inside the delegated
  //    slot, so a probe occasionally lands in the responder's own /64.
  double separate_wan_fraction = 0.0;
  double wan_inside_lan_fraction = 0.0;

  // IID style weights for device WAN/UE addresses, indexed by IidStyle.
  double iid_weights[net::kIidStyleCount] = {0, 0, 0, 0, 1};

  // Vendor mix: (vendor id, weight) into the vendor catalogue.
  std::vector<std::pair<VendorId, double>> vendor_mix;

  // Policy for probes hitting unallocated slots: kBlackhole models upstream
  // filtering (most ISPs); kUnreachable models a chatty edge router.
  RouteAction unallocated = RouteAction::kBlackhole;
  // With kUnreachable: answer from per-flow infrastructure addresses
  // (CMTS/BNG line-card behaviour) instead of the router's own address.
  // Reproduces the paper's ISPs whose last-hop counts dwarf their unique
  // /64 counts (Comcast/Charter/Mediacom in Table II).
  bool infra_per_flow = false;
  double infra_answer_fraction = 1.0;
  int infra_pool_64s = 4;
  net::IidStyle infra_iid_style = net::IidStyle::kRandomized;
  std::uint32_t infra_oui = 0;

  // Number of delegation slots occupied by aliased prefixes (hosting/CDN
  // space that echo-replies on every address) instead of periphery devices.
  int aliased_slots = 0;

  double service_scale = 1.0;  // multiplies vendor service probabilities
  double loop_scale = 1.0;     // multiplies vendor loop probabilities
  double mac_clone_fraction = 0.035;  // Table II: ~3.5% of MACs repeat
};

struct BuildConfig {
  int window_bits = 12;  // slots per block = 2^window_bits
  std::uint64_t seed = 1;
  // Prefix-placement seed; 0 = derive from `seed`. Rebuilding the same
  // (seed, specs) with a different placement_seed renumbers every
  // subscriber (new delegations/WAN prefixes) while keeping device
  // identities — vendor, MAC, IID style, services, flaw flags — fixed.
  // Substrate for the prefix-rotation / host-tracking experiments.
  std::uint64_t placement_seed = 0;
  // When true, CPE routers boot unconfigured and acquire their WAN prefix
  // (SLAAC Router Advertisement) and delegated LAN prefix (DHCPv6-PD) over
  // the wire from the ISP router's provisioning plane, instead of being
  // configured directly. The exchanges are drained before build_internet
  // returns. UE devices are RA-only in reality and stay direct-configured.
  bool provision_via_protocols = false;
  sim::LinkParams core_link{};    // vantage/core and core/ISP links
  sim::LinkParams access_link{};  // ISP/device links
  std::uint32_t device_icmp_rate = 0;  // 0 = unlimited (deterministic scans)
  std::uint32_t router_icmp_rate = 0;
};

// Ground truth for one built device (consumed by analysis validation and by
// the experiment harnesses when computing denominators).
struct DeviceRecord {
  sim::NodeId node = sim::kInvalidNode;
  VendorId vendor = -1;
  DeviceClass device_class = DeviceClass::kCpe;
  net::IidStyle iid_style = net::IidStyle::kRandomized;
  std::optional<net::MacAddress> mac;  // set for EUI-64 devices
  net::Ipv6Prefix slot;        // the probed delegation
  net::Ipv6Prefix wan_prefix;  // == slot's /64 for single-prefix devices
  net::Ipv6Address address;    // expected responder address
  bool separate_wan = false;
  bool loop_wan = false;
  bool loop_lan = false;
  std::vector<std::pair<svc::ServiceKind, svc::SoftwareInfo>> services;
};

struct IspInstance {
  IspSpec spec;
  Router* router = nullptr;
  int uplink_iface = 0;          // router's interface towards the core
  net::Ipv6Prefix block;         // the whole synthetic block
  net::Ipv6Prefix scan_base;     // lower half: the probing window
  net::Ipv6Prefix wan_pool;      // upper half: infrastructure /64 pool
  int window_lo = 0;             // scan_base.length()
  int window_hi = 0;             // delegated_len
  std::vector<DeviceRecord> devices;
  std::vector<net::Ipv6Prefix> aliased_prefixes;  // ground truth

  [[nodiscard]] std::string scan_range_string() const {
    return scan_base.to_string() + "-" + std::to_string(window_hi);
  }
};

struct BuiltInternet {
  Router* core = nullptr;
  std::vector<IspInstance> isps;
  std::vector<VendorProfile> vendors;
  GeoDb geo;
  OuiDb oui;
  // ISP-side provisioning planes, keyed by edge router (only populated
  // when BuildConfig::provision_via_protocols is set).
  std::map<Router*, std::unique_ptr<Provisioner>> provisioners;

  [[nodiscard]] const VendorProfile& vendor(VendorId id) const {
    return vendors[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t total_devices() const {
    std::size_t n = 0;
    for (const auto& isp : isps) n += isp.devices.size();
    return n;
  }
};

// Placement of one ISP's probing window — a pure function of the spec and
// the window size (no seed, no device population). The parallel engine uses
// this to derive default targets without paying for a throwaway world build.
struct ScanWindow {
  net::Ipv6Prefix scan_base;
  int window_lo = 0;
  int window_hi = 0;
};
[[nodiscard]] ScanWindow scan_window(const IspSpec& spec, int window_bits);

// The world's geo table: one entry per ISP's advertised block, in spec
// order. Like scan_window a pure function of the specs and window size, so
// store export gets its attribution without building a world.
[[nodiscard]] GeoDb build_geo(const std::vector<IspSpec>& isps,
                              int window_bits);

// Builds the full topology into `net`. Deterministic for a given config.
[[nodiscard]] BuiltInternet build_internet(
    sim::Network& net, const std::vector<IspSpec>& isps,
    const std::vector<VendorProfile>& vendors, const BuildConfig& config);

// Attaches a measurement node (scanner/attacker) to the core with a routed
// prefix; returns the node-side interface index.
int attach_vantage(sim::Network& net, BuiltInternet& internet, sim::Node* node,
                   const net::Ipv6Prefix& vantage_prefix,
                   const sim::LinkParams& link = {});

}  // namespace xmap::topo

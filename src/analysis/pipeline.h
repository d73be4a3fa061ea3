// The measurement pipeline: high-level experiment drivers composing the
// scanner, the grabber and the probe batches into the paper's methodology.
//
//   discovery scan  (Section III / IV) -> unique non-aliased last hops
//   IID analysis    (Tables III/V/X)   -> addr6-style histograms
//   vendor identity (Table IV)         -> EUI-64 OUI + app-level banners
//   subnet inference(Section IV-A)     -> delegated prefix length per block
//   loop scan       (Section VI-B)     -> h / h+2 Time-Exceeded confirmation
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/service_grabber.h"
#include "topology/builder.h"
#include "xmap/results.h"
#include "xmap/scanner.h"

namespace xmap::ana {

// ---------------------------------------------------------------------------
// Discovery scan
// ---------------------------------------------------------------------------

struct DiscoveryOptions {
  net::Ipv6Address source = *net::Ipv6Address::parse("2001:500::1");
  net::Ipv6Prefix vantage = *net::Ipv6Prefix::parse("2001:500::/48");
  std::uint64_t seed = 7;
  double probes_per_sec = 1e6;  // simulated-time pacing
  std::uint8_t hop_limit = 64;
  std::uint64_t alias_threshold = 16;
  // Probe each window twice with hop limits h and h+1. On the fixed-length
  // simulated paths the hop limit's parity decides whether a looping
  // probe's Time Exceeded is emitted by the CPE or the ISP router; real
  // Internet paths vary in length, so one pass samples both cases. Both
  // parities recover the paper's behaviour of loop-flawed peripheries also
  // surfacing in the discovery scan.
  bool both_parities = true;
};

struct DiscoveryResult {
  scan::ScanStats stats;
  std::vector<scan::LastHop> last_hops;  // unique, non-aliased
  std::vector<scan::LastHop> aliased;
};

// Scans the probing windows of the given ISP instances (all of them when
// `isp_indices` is empty) with the ICMPv6 echo module.
[[nodiscard]] DiscoveryResult run_discovery_scan(
    sim::Network& net, topo::BuiltInternet& internet,
    std::span<const int> isp_indices, const DiscoveryOptions& options);

// ---------------------------------------------------------------------------
// IID analysis (addr6 semantics over discovered last hops)
// ---------------------------------------------------------------------------

struct IidHistogram {
  std::uint64_t counts[net::kIidStyleCount] = {};
  std::uint64_t total = 0;

  void add(const net::Ipv6Address& addr) {
    ++counts[static_cast<int>(net::classify_iid(addr.iid()))];
    ++total;
  }
  [[nodiscard]] std::uint64_t of(net::IidStyle style) const {
    return counts[static_cast<int>(style)];
  }
};

[[nodiscard]] IidHistogram iid_histogram(std::span<const scan::LastHop> hops);

// ---------------------------------------------------------------------------
// Vendor identification
// ---------------------------------------------------------------------------

// Hardware path: EUI-64 IID -> MAC -> OUI registry. The registry's own
// name (no copy), or null for addresses without an embedded MAC or with an
// unknown OUI.
[[nodiscard]] const std::string* vendor_from_address(
    const net::Ipv6Address& addr, const topo::OuiDb& oui);

// ---------------------------------------------------------------------------
// Service grabbing over discovered peripheries
// ---------------------------------------------------------------------------

struct GrabOptions {
  net::Ipv6Address source = *net::Ipv6Address::parse("2001:500::2");
  net::Ipv6Prefix vantage = *net::Ipv6Prefix::parse("2001:500::/48");
  std::uint64_t seed = 9;
  double grabs_per_sec = 1e5;  // simulated pacing
};

// Probes all eight services on every address; returns one GrabResult per
// (address, service).
[[nodiscard]] std::vector<GrabResult> grab_services(
    sim::Network& net, topo::BuiltInternet& internet,
    std::span<const net::Ipv6Address> targets, const GrabOptions& options);

// ---------------------------------------------------------------------------
// Subnet-boundary inference (Section IV-A)
// ---------------------------------------------------------------------------

struct SubnetInferenceOptions {
  net::Ipv6Address source = *net::Ipv6Address::parse("2001:500::3");
  net::Ipv6Prefix vantage = *net::Ipv6Prefix::parse("2001:500::/48");
  std::uint64_t seed = 11;
  int repeats = 5;             // distinct witnesses majority-voted
  std::uint64_t max_preliminary_probes = 512;
};

struct SubnetInferenceResult {
  bool ok = false;
  int inferred_len = 0;
  int witnesses = 0;     // how many witness devices voted
  std::uint64_t probes = 0;  // total probes spent
};

// Infers the delegated sub-prefix length of one ISP block by the paper's
// bit-walk: find a periphery, then flip address bits from 64 towards the
// block boundary until the responder changes.
[[nodiscard]] SubnetInferenceResult infer_subnet_length(
    sim::Network& net, topo::BuiltInternet& internet, int isp_index,
    const SubnetInferenceOptions& options);

// ---------------------------------------------------------------------------
// Routing-loop scan (Section VI-B)
// ---------------------------------------------------------------------------

struct LoopScanOptions {
  net::Ipv6Address source = *net::Ipv6Address::parse("2001:500::4");
  net::Ipv6Prefix vantage = *net::Ipv6Prefix::parse("2001:500::/48");
  std::uint64_t seed = 13;
  double probes_per_sec = 1e6;
  std::uint8_t hop_limit = 32;  // the paper's h; both parities are probed
};

struct LoopDevice {
  net::Ipv6Address address;    // the looping device (last hop of the TE)
  net::Ipv6Address probe_dst;  // the address that triggered the loop
};

struct LoopScanResult {
  std::uint64_t probes_sent = 0;
  std::uint64_t candidates = 0;  // distinct TE responders at stage 1
  std::vector<LoopDevice> confirmed;
};

// Two-stage scan: sweep the windows with Hop Limit h and h+1 (both
// parities), then re-probe each candidate's triggering address with the
// hop limit raised by 2 and keep responders that answer Time Exceeded
// again — the paper's confirmation rule.
[[nodiscard]] LoopScanResult run_loop_scan(sim::Network& net,
                                           topo::BuiltInternet& internet,
                                           std::span<const int> isp_indices,
                                           const LoopScanOptions& options);

}  // namespace xmap::ana

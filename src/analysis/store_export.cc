#include "analysis/store_export.h"

#include <string>

#include "store/format.h"

namespace xmap::ana {

namespace {

// Augmentation records (loop confirmations, alive services) carry the
// maximal first_us so that, when merged with the real discovery record for
// the same key, the real record's first-response fields always win the
// rank-minimum and the augmentation contributes only flags/service bits.
constexpr std::uint64_t kAugmentUs = ~std::uint64_t{0};

[[nodiscard]] std::uint16_t vendor_of(store::StoreBuilder& builder,
                                      const net::Ipv6Address& addr,
                                      const topo::OuiDb& oui) {
  const std::string* vendor = vendor_from_address(addr, oui);
  return vendor != nullptr ? builder.vendor_id(*vendor) : 0;
}

}  // namespace

void fill_geo(store::StoreBuilder& builder, const topo::GeoDb& geo) {
  geo.for_each([&](const net::Ipv6Prefix& prefix, const topo::GeoInfo& info) {
    store::GeoEntry entry;
    entry.prefix = prefix;
    entry.asn = info.asn;
    if (info.country.size() >= 2) {
      entry.country = {info.country[0], info.country[1]};
    }
    entry.as_name = info.as_name;
    builder.add_geo(entry);
  });
}

void add_response(store::StoreBuilder& builder, const scan::ProbeResponse& r,
                  std::uint64_t when_us, const topo::OuiDb& oui) {
  store::Record rec;
  rec.key = r.responder;
  rec.probe_dst = r.probe_dst;
  rec.kind = static_cast<std::uint8_t>(r.kind);
  rec.icmp_code = r.icmp_code;
  rec.hop_limit = r.hop_limit;
  if (r.kind == scan::ResponseKind::kTimeExceeded) {
    rec.flags |= store::kFlagLoopCandidate;
  }
  rec.vendor = vendor_of(builder, r.responder, oui);
  rec.responses = 1;
  rec.first_us = when_us;
  builder.add(rec);
}

std::uint64_t scan_config_fingerprint(const recover::Fingerprint& fp) {
  std::string blob;
  auto field = [&blob](const std::string& s) {
    blob += s;
    blob += '\x1f';
  };
  field(std::to_string(fp.seed));
  field(fp.world);
  field(std::to_string(fp.window_bits));
  field(fp.probe_module);
  field(std::to_string(fp.rate_pps));
  field(std::to_string(fp.shard));
  field(std::to_string(fp.shards));
  field(std::to_string(fp.retries));
  field(std::to_string(fp.retry_spacing_ms));
  field(std::to_string(fp.cooldown_secs));
  field(std::to_string(fp.max_probes));
  field(fp.adaptive_rate ? "1" : "0");
  field(std::to_string(fp.blocklist_hash));
  field(std::to_string(fp.fault_plan_hash));
  for (const auto& target : fp.targets) field(target);
  return net::fnv1a(blob.data(), blob.size());
}

store::StoreBuilder export_store(const DiscoveryResult& discovery,
                                 const LoopScanResult* loops,
                                 std::span<const GrabResult> grabs,
                                 const topo::BuiltInternet& internet) {
  store::StoreBuilder builder;
  fill_geo(builder, internet.geo);

  auto add_hop = [&](const scan::LastHop& hop, std::uint8_t extra_flags) {
    store::Record rec;
    rec.key = hop.address;
    rec.probe_dst = hop.first_probe_dst;
    rec.kind = static_cast<std::uint8_t>(hop.first_kind);
    rec.icmp_code = hop.first_icmp_code;
    rec.flags = extra_flags;
    if (hop.first_kind == scan::ResponseKind::kTimeExceeded) {
      rec.flags |= store::kFlagLoopCandidate;
    }
    rec.vendor = vendor_of(builder, hop.address, internet.oui);
    rec.responses = hop.responses;
    builder.add(rec);
  };
  for (const auto& hop : discovery.last_hops) add_hop(hop, 0);
  for (const auto& hop : discovery.aliased) {
    add_hop(hop, store::kFlagAliased);
  }

  if (loops != nullptr) {
    for (const auto& device : loops->confirmed) {
      store::Record rec;
      rec.key = device.address;
      rec.probe_dst = device.probe_dst;
      rec.kind = static_cast<std::uint8_t>(scan::ResponseKind::kTimeExceeded);
      rec.flags = store::kFlagLoopCandidate | store::kFlagLoopConfirmed;
      rec.vendor = vendor_of(builder, device.address, internet.oui);
      rec.first_us = kAugmentUs;
      builder.add(rec);
    }
  }

  for (const GrabResult& grab : grabs) {
    if (!grab.alive) continue;
    store::Record rec;
    rec.key = grab.target;
    rec.probe_dst = grab.target;
    rec.services = static_cast<std::uint16_t>(
        1u << static_cast<int>(grab.kind));
    rec.vendor = vendor_of(builder, grab.target, internet.oui);
    rec.first_us = kAugmentUs;
    builder.add(rec);
  }
  return builder;
}

}  // namespace xmap::ana

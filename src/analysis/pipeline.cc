#include "analysis/pipeline.h"

#include <unordered_map>
#include <unordered_set>

#include "analysis/probe_batch.h"

namespace xmap::ana {
namespace {

std::vector<int> all_indices(const topo::BuiltInternet& internet) {
  std::vector<int> out(internet.isps.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<int>(i);
  return out;
}

}  // namespace

DiscoveryResult run_discovery_scan(sim::Network& net,
                                   topo::BuiltInternet& internet,
                                   std::span<const int> isp_indices,
                                   const DiscoveryOptions& options) {
  std::vector<int> indices(isp_indices.begin(), isp_indices.end());
  if (indices.empty()) indices = all_indices(internet);

  scan::ResultCollector collector{options.alias_threshold};
  DiscoveryResult out;

  const int passes = options.both_parities ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    scan::ScanConfig cfg;
    for (int i : indices) {
      const auto& isp = internet.isps[static_cast<std::size_t>(i)];
      cfg.targets.push_back(
          scan::TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
    }
    cfg.source = options.source;
    cfg.seed = options.seed;  // same seed: identical probe addresses
    cfg.probes_per_sec = options.probes_per_sec;

    scan::IcmpEchoProbe module{
        static_cast<std::uint8_t>(options.hop_limit + pass)};
    auto* scanner = net.make_node<scan::SimChannelScanner>(cfg, module);
    const int iface =
        topo::attach_vantage(net, internet, scanner, options.vantage);
    scanner->set_iface(iface);
    scanner->on_response([&collector](const scan::ProbeResponse& r,
                                      sim::SimTime) { collector.add(r); });
    scanner->start();
    net.run();

    out.stats.targets_generated += scanner->stats().targets_generated;
    out.stats.blocked += scanner->stats().blocked;
    out.stats.sent += scanner->stats().sent;
    out.stats.received += scanner->stats().received;
    out.stats.validated += scanner->stats().validated;
    out.stats.discarded += scanner->stats().discarded;
    if (pass == 0) out.stats.first_send = scanner->stats().first_send;
    out.stats.last_send = scanner->stats().last_send;
  }

  out.last_hops = collector.last_hops();
  out.aliased = collector.aliased();
  return out;
}

IidHistogram iid_histogram(std::span<const scan::LastHop> hops) {
  IidHistogram hist;
  for (const auto& hop : hops) hist.add(hop.address);
  return hist;
}

const std::string* vendor_from_address(const net::Ipv6Address& addr,
                                       const topo::OuiDb& oui) {
  const auto mac = net::MacAddress::from_eui64_iid(addr.iid());
  return mac ? oui.lookup(mac->oui()) : nullptr;
}

std::vector<GrabResult> grab_services(sim::Network& net,
                                      topo::BuiltInternet& internet,
                                      std::span<const net::Ipv6Address> targets,
                                      const GrabOptions& options) {
  ServiceGrabber::Config cfg;
  cfg.source = options.source;
  cfg.seed = options.seed;
  cfg.grabs_per_sec = options.grabs_per_sec;
  auto* grabber = net.make_node<ServiceGrabber>(cfg);
  const int iface =
      topo::attach_vantage(net, internet, grabber, options.vantage);
  grabber->set_iface(iface);
  for (const auto& target : targets) {
    for (svc::ServiceKind kind : svc::kAllServices) {
      grabber->enqueue(target, kind);
    }
  }
  grabber->start();
  net.run();
  return grabber->results();
}

SubnetInferenceResult infer_subnet_length(sim::Network& net,
                                          topo::BuiltInternet& internet,
                                          int isp_index,
                                          const SubnetInferenceOptions& options) {
  SubnetInferenceResult result;
  const auto& isp = internet.isps[static_cast<std::size_t>(isp_index)];

  // Stage 1 — preliminary scan: probe window slots until enough witnesses
  // (periphery responders) are collected.
  scan::ScanConfig cfg;
  cfg.targets.push_back(
      scan::TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
  cfg.source = options.source;
  cfg.seed = options.seed;
  cfg.probes_per_sec = 1e6;
  cfg.max_probes = options.max_preliminary_probes;
  scan::IcmpEchoProbe module{64};
  auto* scanner = net.make_node<scan::SimChannelScanner>(cfg, module);
  const int scanner_iface =
      topo::attach_vantage(net, internet, scanner, options.vantage);
  scanner->set_iface(scanner_iface);

  std::vector<scan::ProbeResponse> responses;
  scanner->on_response([&responses](const scan::ProbeResponse& r,
                                    sim::SimTime) { responses.push_back(r); });
  scanner->start();
  net.run();
  result.probes = scanner->stats().sent;

  // Witness selection: a periphery-like responder answers for exactly one
  // delegation. Aggregation infrastructure — an edge router answering for
  // the whole block, or CMTS line cards answering from a shared /64 pool —
  // is recognisable because its responder /64 shows up for many distinct
  // probed prefixes, and is skipped (the paper keys on periphery-like
  // EUI-64 responders for the same reason).
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      probes_per_responder64;
  for (const auto& r : responses) {
    probes_per_responder64[r.responder.prefix64()].insert(
        r.probe_dst.prefix64());
  }
  struct Witness {
    net::Ipv6Address address;
    net::Ipv6Address first_probe_dst;
  };
  std::vector<Witness> witnesses;
  std::unordered_set<net::Ipv6Address> seen;
  for (const auto& r : responses) {
    if (r.kind != scan::ResponseKind::kDestUnreachable) continue;
    if (probes_per_responder64[r.responder.prefix64()].size() > 1) continue;
    if (!seen.insert(r.responder).second) continue;
    witnesses.push_back(Witness{r.responder, r.probe_dst});
    if (static_cast<int>(witnesses.size()) >= options.repeats) break;
  }
  if (witnesses.empty()) return result;

  // Stage 2 — bit walk per witness. Flipping bit b (0-indexed from the top)
  // of the probed address leaves every prefix of length <= b unchanged; the
  // delegated length L is the smallest length whose flip changes or loses
  // the responder, i.e. the first b (walking down from 63) where the
  // response no longer comes from the witness, giving L = b + 1.
  auto* batch = net.make_node<ProbeBatch>(ProbeBatch::Config{
      options.source, options.seed + 1, 1e6});
  const int batch_iface =
      topo::attach_vantage(net, internet, batch, options.vantage);
  batch->set_iface(batch_iface);

  std::unordered_map<int, int> votes;
  for (const auto& witness : witnesses) {
    int boundary = isp.window_lo;  // assume the whole window if never lost
    for (int b = 63; b >= isp.window_lo; --b) {
      net::Uint128 v = witness.first_probe_dst.value();
      v.set_bit(127 - b, !v.bit(127 - b));
      const auto flipped = net::Ipv6Address::from_value(v);

      batch->clear();
      batch->enqueue(flipped, 64);
      batch->start();
      net.run();
      ++result.probes;

      bool same_responder = false;
      for (const auto& r : batch->responses()) {
        if (r.responder == witness.address) same_responder = true;
      }
      if (!same_responder) {
        boundary = b + 1;
        break;
      }
    }
    ++votes[boundary];
  }

  // Majority vote (the paper replicates the test and picks the primary
  // length).
  int best_len = 0, best_votes = 0;
  for (const auto& [len, n] : votes) {
    if (n > best_votes || (n == best_votes && len > best_len)) {
      best_len = len;
      best_votes = n;
    }
  }
  result.ok = true;
  result.inferred_len = best_len;
  result.witnesses = static_cast<int>(witnesses.size());
  return result;
}

LoopScanResult run_loop_scan(sim::Network& net, topo::BuiltInternet& internet,
                             std::span<const int> isp_indices,
                             const LoopScanOptions& options) {
  std::vector<int> indices(isp_indices.begin(), isp_indices.end());
  if (indices.empty()) indices = all_indices(internet);

  LoopScanResult out;

  // Stage 1: sweep with h and h+1 (the two expiry parities; with a fixed
  // simulated path length the hop limit's parity decides whether the ISP
  // or the CPE side of the loop zeroes the counter).
  struct Candidate {
    net::Ipv6Address responder;
    net::Ipv6Address probe_dst;
    std::uint8_t hop_limit_used;
  };
  std::unordered_map<net::Ipv6Address, Candidate> candidates;

  for (int pass = 0; pass < 2; ++pass) {
    scan::ScanConfig cfg;
    for (int i : indices) {
      const auto& isp = internet.isps[static_cast<std::size_t>(i)];
      cfg.targets.push_back(
          scan::TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
    }
    cfg.source = options.source;
    cfg.seed = options.seed;  // same seed: same probe addresses both passes
    cfg.probes_per_sec = options.probes_per_sec;

    const auto h = static_cast<std::uint8_t>(options.hop_limit + pass);
    scan::IcmpEchoProbe module{h};
    auto* scanner = net.make_node<scan::SimChannelScanner>(cfg, module);
    const int iface =
        topo::attach_vantage(net, internet, scanner, options.vantage);
    scanner->set_iface(iface);
    scanner->on_response([&candidates, h](const scan::ProbeResponse& r,
                                          sim::SimTime) {
      if (r.kind != scan::ResponseKind::kTimeExceeded) return;
      candidates.try_emplace(r.responder, Candidate{r.responder, r.probe_dst, h});
    });
    scanner->start();
    net.run();
    out.probes_sent += scanner->stats().sent;
  }
  out.candidates = candidates.size();

  // Stage 2: confirm each candidate with hop limit h+2 at the same address.
  auto* batch = net.make_node<ProbeBatch>(
      ProbeBatch::Config{options.source, options.seed, options.probes_per_sec});
  const int batch_iface =
      topo::attach_vantage(net, internet, batch, options.vantage);
  batch->set_iface(batch_iface);
  for (const auto& [addr, cand] : candidates) {
    batch->enqueue(cand.probe_dst,
                   static_cast<std::uint8_t>(cand.hop_limit_used + 2));
  }
  batch->start();
  net.run();
  out.probes_sent += batch->job_count();

  std::unordered_set<net::Ipv6Address> confirmed;
  for (const auto& r : batch->responses()) {
    if (r.kind != scan::ResponseKind::kTimeExceeded) continue;
    auto it = candidates.find(r.responder);
    if (it == candidates.end()) continue;
    if (confirmed.insert(r.responder).second) {
      out.confirmed.push_back(LoopDevice{r.responder, it->second.probe_dst});
    }
  }
  return out;
}

}  // namespace xmap::ana

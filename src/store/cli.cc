#include "store/cli.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "netbase/exit_codes.h"
#include "store/diff.h"
#include "store/query.h"
#include "store/service.h"
#include "store/snapshot.h"
#include "xmap/probe_module.h"

namespace xmap::store {

namespace {

constexpr const char* kUsage =
    "usage: xmap_store <command> ...\n"
    "  info FILE                                  header and section summary\n"
    "  verify FILE                                validate checksums/structure\n"
    "  query FILE ADDR|PREFIX [--limit N]         point lookup / range listing\n"
    "  agg FILE asn|country|vendor|service [PREFIX]\n"
    "  summary FILE                               periphery summary\n"
    "  diff BEFORE AFTER [--limit N]              snapshot churn\n"
    "  bench FILE [--threads N] [--lookups M] [--seed S]\n";

[[nodiscard]] std::unique_ptr<Snapshot> open_or_report(
    const std::string& path, std::ostream& err) {
  auto result = Snapshot::load(path);
  if (!result.snapshot) err << "xmap_store: " << result.error << "\n";
  return std::move(result.snapshot);
}

void print_record(std::ostream& out, const Snapshot& snap, const Record& r) {
  out << r.key.to_string() << " kind="
      << scan::response_kind_name(static_cast<scan::ResponseKind>(r.kind))
      << " code=" << static_cast<int>(r.icmp_code)
      << " hlim=" << static_cast<int>(r.hop_limit)
      << " responses=" << r.responses << " probe=" << r.probe_dst.to_string();
  if ((r.flags & kFlagLoopCandidate) != 0) out << " loop-candidate";
  if ((r.flags & kFlagLoopConfirmed) != 0) out << " loop-confirmed";
  if ((r.flags & kFlagAliased) != 0) out << " aliased";
  if (const std::string_view vendor = snap.vendor_name(r.vendor);
      !vendor.empty()) {
    out << " vendor=" << vendor;
  }
  if (r.services != 0) out << " services=0x" << std::hex << r.services
                           << std::dec;
  if (const GeoEntry* geo = snap.attribute(r.key)) {
    out << " AS" << geo->asn << " " << geo->country[0] << geo->country[1];
  }
  out << "\n";
}

[[nodiscard]] int cmd_info(const Snapshot& snap, std::ostream& out) {
  const FileHeader& h = snap.header();
  out << "format version: " << h.version << "\n"
      << "records: " << h.record_count << "\n"
      << "blocks: " << h.block_count << " x " << h.block_bytes << " bytes\n"
      << "geo entries: " << snap.geo_entries().size() << "\n"
      << "vendors: " << snap.vendor_count() << "\n"
      << "config fingerprint: " << h.config_fingerprint << "\n"
      << "git sha: " << snap.git_sha() << "\n"
      << "file bytes: " << snap.file_bytes() << "\n"
      << "restart index: " << snap.restart_index_bytes() << " bytes in RAM";
  if (h.record_count > 0) {
    char per_record[32];
    std::snprintf(per_record, sizeof per_record, " (%.2f B/record)",
                  static_cast<double>(snap.restart_index_bytes()) /
                      static_cast<double>(h.record_count));
    out << per_record;
  }
  out << "\n";
  return kExitOk;
}

[[nodiscard]] int cmd_query(const Snapshot& snap, const std::string& target,
                            std::uint64_t limit, std::ostream& out,
                            std::ostream& err) {
  if (target.find('/') != std::string::npos) {
    const auto prefix = net::Ipv6Prefix::parse(target);
    if (!prefix) {
      err << "xmap_store: bad prefix: " << target << "\n";
      return kExitConfig;
    }
    std::uint64_t printed = 0;
    const std::uint64_t total = snap.scan_prefix(*prefix, [&](const Record& r) {
      if (printed++ < limit) print_record(out, snap, r);
    });
    if (total > printed && printed >= limit) {
      out << "... " << (total - limit) << " more (raise --limit)\n";
    }
    out << total << " records in " << prefix->to_string() << "\n";
    return kExitOk;
  }
  const auto addr = net::Ipv6Address::parse(target);
  if (!addr) {
    err << "xmap_store: bad address: " << target << "\n";
    return kExitConfig;
  }
  Record r;
  if (!snap.lookup(*addr, &r)) {
    out << target << ": not found\n";
    return kExitOk;
  }
  print_record(out, snap, r);
  return kExitOk;
}

[[nodiscard]] int cmd_agg(const Snapshot& snap, const std::string& group,
                          const std::string& prefix_text, std::ostream& out,
                          std::ostream& err) {
  GroupBy by;
  if (group == "asn") {
    by = GroupBy::kAsn;
  } else if (group == "country") {
    by = GroupBy::kCountry;
  } else if (group == "vendor") {
    by = GroupBy::kVendor;
  } else if (group == "service") {
    by = GroupBy::kService;
  } else {
    err << "xmap_store: unknown grouping: " << group
        << " (want asn|country|vendor|service)\n";
    return kExitConfig;
  }
  std::vector<AggRow> rows;
  if (prefix_text.empty()) {
    rows = aggregate(snap, by);
  } else {
    const auto prefix = net::Ipv6Prefix::parse(prefix_text);
    if (!prefix) {
      err << "xmap_store: bad prefix: " << prefix_text << "\n";
      return kExitConfig;
    }
    rows = aggregate_prefix(snap, *prefix, by);
  }
  out << group << "  records  loop-cand  loop-conf  responses\n";
  for (const AggRow& row : rows) {
    out << row.key << "  " << row.records << "  " << row.loop_candidates
        << "  " << row.loop_confirmed << "  " << row.responses << "\n";
  }
  return kExitOk;
}

[[nodiscard]] int cmd_summary(const Snapshot& snap, std::ostream& out) {
  const PeripherySummary s = summarize(snap);
  out << "peripheries: " << s.records << "\n"
      << "loop candidates: " << s.loop_candidates << "\n"
      << "loop confirmed: " << s.loop_confirmed << "\n"
      << "ASNs: " << s.asns << " (" << s.loop_asns << " with loops)\n"
      << "countries: " << s.countries << " (" << s.loop_countries
      << " with loops)\n";
  return kExitOk;
}

}  // namespace

int store_cli_main(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  if (args.empty()) {
    err << kUsage;
    return kExitConfig;
  }
  const std::string& cmd = args[0];

  // Shared flag scan (positional args keep their relative order).
  std::uint64_t limit = 20;
  int threads = 8;
  std::uint64_t lookups = 1'000'000;
  std::uint64_t seed = 1;
  std::vector<std::string> pos;
  for (std::size_t i = 1; i < args.size(); ++i) {
    auto flag_value = [&](const char* name, std::uint64_t* out_value) {
      if (args[i] != name) return false;
      *out_value = ~std::uint64_t{0};
      if (i + 1 >= args.size()) {
        err << "xmap_store: " << name << " needs a value\n";
        return true;
      }
      const std::string& text = args[++i];
      char* end = nullptr;
      const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        err << "xmap_store: " << name << " wants a number, got '" << text
            << "'\n";
        return true;
      }
      *out_value = v;
      return true;
    };
    std::uint64_t threads_u64 = 0;
    if (flag_value("--limit", &limit)) {
      if (limit == ~std::uint64_t{0}) return kExitConfig;
    } else if (flag_value("--threads", &threads_u64)) {
      if (threads_u64 == ~std::uint64_t{0}) return kExitConfig;
      threads = static_cast<int>(threads_u64);
    } else if (flag_value("--lookups", &lookups)) {
      if (lookups == ~std::uint64_t{0}) return kExitConfig;
    } else if (flag_value("--seed", &seed)) {
      if (seed == ~std::uint64_t{0}) return kExitConfig;
    } else if (args[i].rfind("--", 0) == 0) {
      err << "xmap_store: unknown flag: " << args[i] << "\n";
      return kExitConfig;
    } else {
      pos.push_back(args[i]);
    }
  }

  if (cmd == "diff") {
    if (pos.size() != 2) {
      err << kUsage;
      return kExitConfig;
    }
    auto before = open_or_report(pos[0], err);
    auto after = open_or_report(pos[1], err);
    if (!before || !after) return kExitConfig;
    std::uint64_t printed = 0;
    const DiffStats stats =
        diff(*before, *after, [&](const DiffEntry& e) {
          if (printed++ >= limit) return;
          const Record& r =
              e.kind == DiffKind::kRemoved ? e.before : e.after;
          out << to_string(e.kind) << " " << r.key.to_string() << "\n";
        });
    if (printed > limit) {
      out << "... " << (printed - limit) << " more (raise --limit)\n";
    }
    out << "added " << stats.added << ", removed " << stats.removed
        << ", changed " << stats.changed << ", unchanged " << stats.unchanged
        << "\n";
    return kExitOk;
  }

  if (pos.empty()) {
    err << kUsage;
    return kExitConfig;
  }
  if (cmd == "verify") {
    auto result = Snapshot::load(pos[0]);
    if (!result.snapshot) {
      err << "xmap_store: " << result.error << "\n";
      return kExitConfig;
    }
    out << pos[0] << ": ok (" << result.snapshot->record_count()
        << " records, " << result.snapshot->block_count() << " blocks)\n";
    return kExitOk;
  }
  auto snap = open_or_report(pos[0], err);
  if (!snap) return kExitConfig;

  if (cmd == "info") return cmd_info(*snap, out);
  if (cmd == "summary") return cmd_summary(*snap, out);
  if (cmd == "query") {
    if (pos.size() != 2) {
      err << kUsage;
      return kExitConfig;
    }
    return cmd_query(*snap, pos[1], limit, out, err);
  }
  if (cmd == "agg") {
    if (pos.size() != 2 && pos.size() != 3) {
      err << kUsage;
      return kExitConfig;
    }
    return cmd_agg(*snap, pos[1], pos.size() == 3 ? pos[2] : "", out, err);
  }
  if (cmd == "bench") {
    QueryLoadOptions options;
    options.threads = threads;
    options.lookups_per_thread = lookups;
    options.seed = seed;
    const QueryLoadResult r = run_query_load(*snap, options);
    out << r.lookups << " lookups, " << r.hits << " hits, "
        << r.seconds << " s, "
        << static_cast<std::uint64_t>(r.lookups_per_sec) << " lookups/s\n";
    return kExitOk;
  }
  err << kUsage;
  return kExitConfig;
}

}  // namespace xmap::store

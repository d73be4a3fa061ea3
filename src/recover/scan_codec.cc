#include "recover/scan_codec.h"

#include <mutex>
#include <unordered_set>

namespace xmap::recover {
namespace {

void put_trace_string(std::string& out, const char* s) {
  net::put_u8(out, s == nullptr ? 0 : 1);
  if (s != nullptr) net::put_string(out, s);
}

bool read_trace_string(net::Reader& in, const char*& out, const char* field) {
  bool present = false;
  if (!in.flag(present, field)) return false;
  if (!present) {
    out = nullptr;
    return true;
  }
  std::string_view s;
  if (!in.str(s, field)) return false;
  out = intern(s);
  return true;
}

}  // namespace

void put_stats(std::string& out, const scan::ScanStats& s) {
  for (const std::uint64_t v :
       {s.targets_generated, s.blocked, s.sent, s.received, s.validated,
        s.discarded, s.retransmits, s.duplicates, s.corrupted, s.late,
        s.rate_adjustments, s.first_send, s.last_send}) {
    net::put_u64(out, v);
  }
}

bool read_stats(net::Reader& in, scan::ScanStats& s) {
  for (std::uint64_t* v :
       {&s.targets_generated, &s.blocked, &s.sent, &s.received, &s.validated,
        &s.discarded, &s.retransmits, &s.duplicates, &s.corrupted, &s.late,
        &s.rate_adjustments, &s.first_send, &s.last_send}) {
    if (!in.u64(*v, "stats")) return false;
  }
  return true;
}

void put_cursor(std::string& out, const scan::ScanCursor& cursor) {
  net::put_u32(out, static_cast<std::uint32_t>(cursor.spec_steps.size()));
  for (const std::uint64_t steps : cursor.spec_steps) net::put_u64(out, steps);
  net::put_u64(out, cursor.frontier_slot);
}

bool read_cursor(net::Reader& in, scan::ScanCursor& cursor,
                 const char* field) {
  std::uint32_t specs = 0;
  if (!in.count(specs, 8, field)) return false;
  cursor.spec_steps.resize(specs);
  for (auto& steps : cursor.spec_steps) {
    if (!in.u64(steps, field)) return false;
  }
  return in.u64(cursor.frontier_slot, field);
}

void put_response(std::string& out, const scan::ProbeResponse& r) {
  net::put_u8(out, static_cast<std::uint8_t>(r.kind));
  net::put_u8(out, r.icmp_code);
  net::put_u8(out, r.hop_limit);
  net::put_addr(out, r.responder);
  net::put_addr(out, r.probe_dst);
}

bool read_response(net::Reader& in, scan::ProbeResponse& r) {
  std::uint8_t kind = 0;
  if (!in.u8(kind, "record kind")) return false;
  if (kind > static_cast<std::uint8_t>(scan::ResponseKind::kOther)) {
    return in.fail("record kind " + std::to_string(kind) + " out of range");
  }
  r.kind = static_cast<scan::ResponseKind>(kind);
  return in.u8(r.icmp_code, "record icmp_code") &&
         in.u8(r.hop_limit, "record hop_limit") &&
         in.addr(r.responder, "record responder") &&
         in.addr(r.probe_dst, "record probe_dst");
}

void put_trace_event(std::string& out, const obs::TraceEvent& e) {
  net::put_u64(out, e.ts);
  net::put_u64(out, e.dur);
  put_trace_string(out, e.name);
  put_trace_string(out, e.cat);
  put_trace_string(out, e.addr1_key);
  net::put_addr(out, e.addr1);
  put_trace_string(out, e.addr2_key);
  net::put_addr(out, e.addr2);
  put_trace_string(out, e.str_key);
  put_trace_string(out, e.str_val);
  for (const auto* arg : {&e.i0, &e.i1, &e.i2}) {
    put_trace_string(out, arg->key);
    net::put_u64(out, arg->value);
  }
}

bool read_trace_event(net::Reader& in, obs::TraceEvent& e) {
  if (!(in.u64(e.ts, "trace ts") && in.u64(e.dur, "trace dur") &&
        read_trace_string(in, e.name, "trace name") &&
        read_trace_string(in, e.cat, "trace cat") &&
        read_trace_string(in, e.addr1_key, "trace addr1_key") &&
        in.addr(e.addr1, "trace addr1") &&
        read_trace_string(in, e.addr2_key, "trace addr2_key") &&
        in.addr(e.addr2, "trace addr2") &&
        read_trace_string(in, e.str_key, "trace str_key") &&
        read_trace_string(in, e.str_val, "trace str_val"))) {
    return false;
  }
  // name and cat are never null in a TraceEvent (their defaults are "").
  if (e.name == nullptr) e.name = "";
  if (e.cat == nullptr) e.cat = "";
  for (auto* arg : {&e.i0, &e.i1, &e.i2}) {
    if (!read_trace_string(in, arg->key, "trace int key") ||
        !in.u64(arg->value, "trace int value")) {
      return false;
    }
  }
  return true;
}

void put_metrics_entry(std::string& out,
                       const obs::MetricsSnapshot::Entry& e) {
  net::put_string(out, e.name);
  net::put_u32(out, static_cast<std::uint32_t>(e.labels.size()));
  for (const auto& [k, v] : e.labels) {
    net::put_string(out, k);
    net::put_string(out, v);
  }
  net::put_u8(out, static_cast<std::uint8_t>(e.kind));
  net::put_u8(out, e.wall_clock ? 1 : 0);
  net::put_u64(out, e.value);
  net::put_u8(out, e.histogram.has_value() ? 1 : 0);
  if (e.histogram.has_value()) {
    const auto& h = *e.histogram;
    net::put_u32(out, static_cast<std::uint32_t>(h.bounds().size()));
    for (const std::uint64_t b : h.bounds()) net::put_u64(out, b);
    net::put_u32(out, static_cast<std::uint32_t>(h.counts().size()));
    for (const std::uint64_t c : h.counts()) net::put_u64(out, c);
    net::put_u64(out, h.sum());
    net::put_u64(out, h.count());
  }
  net::put_string(out, e.help);
}

bool read_metrics_entry(net::Reader& in, obs::MetricsSnapshot::Entry& e) {
  std::uint32_t labels = 0;
  if (!in.str(e.name, "metrics name") ||
      !in.count(labels, 8, "metrics labels")) {
    return false;
  }
  e.labels.resize(labels);
  for (auto& [k, v] : e.labels) {
    if (!in.str(k, "metrics label key") || !in.str(v, "metrics label value")) {
      return false;
    }
  }
  std::uint8_t kind = 0;
  if (!in.u8(kind, "metrics kind")) return false;
  if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
    return in.fail("metrics kind " + std::to_string(kind) + " out of range");
  }
  e.kind = static_cast<obs::MetricKind>(kind);
  bool has_histogram = false;
  if (!in.flag(e.wall_clock, "metrics wall_clock") ||
      !in.u64(e.value, "metrics value") ||
      !in.flag(has_histogram, "metrics histogram")) {
    return false;
  }
  if (has_histogram) {
    std::uint32_t nbounds = 0;
    if (!in.count(nbounds, 8, "metrics histogram bounds")) return false;
    std::vector<std::uint64_t> bounds(nbounds);
    for (auto& b : bounds) {
      if (!in.u64(b, "metrics histogram bound")) return false;
    }
    std::uint32_t ncounts = 0;
    if (!in.count(ncounts, 8, "metrics histogram counts")) return false;
    if (ncounts != nbounds + 1) {
      return in.fail("metrics histogram has " + std::to_string(ncounts) +
                     " counts for " + std::to_string(nbounds) + " bounds");
    }
    std::vector<std::uint64_t> counts(ncounts);
    for (auto& c : counts) {
      if (!in.u64(c, "metrics histogram count")) return false;
    }
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    if (!in.u64(sum, "metrics histogram sum") ||
        !in.u64(count, "metrics histogram total")) {
      return false;
    }
    e.histogram = obs::Histogram::from_parts(std::move(bounds),
                                             std::move(counts), sum, count);
  }
  return in.str(e.help, "metrics help");
}

const char* intern(std::string_view s) {
  static std::mutex mu;
  static auto* pool = new std::unordered_set<std::string>;  // process lifetime
  std::lock_guard lock{mu};
  return pool->emplace(s).first->c_str();
}

}  // namespace xmap::recover

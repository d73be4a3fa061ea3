#include "recover/state.h"

#include <bit>
#include <charconv>
#include <sstream>

#include "netbase/codec.h"
#include "netbase/random.h"
#include "recover/scan_codec.h"

namespace xmap::recover {
namespace {

std::uint64_t hash_string(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = net::hash_combine64(h, static_cast<std::uint64_t>(
                                   static_cast<unsigned char>(c)));
  }
  return net::hash_combine64(h, s.size());
}

std::uint64_t hash_double(std::uint64_t h, double v) {
  return net::hash_combine64(h, std::bit_cast<std::uint64_t>(v));
}

void append_field_diff(std::string& out, const char* field,
                       const std::string& a, const std::string& b) {
  if (!out.empty()) out += "; ";
  out += field;
  out += ": checkpoint ";
  out += a;
  out += ", run ";
  out += b;
}

template <typename T>
void diff_num(std::string& out, const char* field, const T& a, const T& b) {
  if (a != b) {
    std::ostringstream sa, sb;
    sa << a;
    sb << b;
    append_field_diff(out, field, sa.str(), sb.str());
  }
}

}  // namespace

std::string Fingerprint::diff(const Fingerprint& run) const {
  std::string out;
  diff_num(out, "seed", seed, run.seed);
  diff_num(out, "world", world, run.world);
  diff_num(out, "window_bits", window_bits, run.window_bits);
  diff_num(out, "probe_module", probe_module, run.probe_module);
  diff_num(out, "rate", rate_pps, run.rate_pps);
  diff_num(out, "shard", shard, run.shard);
  diff_num(out, "shards", shards, run.shards);
  diff_num(out, "threads", threads, run.threads);
  diff_num(out, "retries", retries, run.retries);
  diff_num(out, "retry_spacing_ms", retry_spacing_ms, run.retry_spacing_ms);
  diff_num(out, "cooldown_secs", cooldown_secs, run.cooldown_secs);
  diff_num(out, "max_probes", max_probes, run.max_probes);
  diff_num(out, "adaptive_rate", adaptive_rate, run.adaptive_rate);
  diff_num(out, "output_format", output_format, run.output_format);
  if (blocklist_hash != run.blocklist_hash) {
    append_field_diff(out, "blocklist",
                      std::to_string(blocklist_hash) + " (hash)",
                      std::to_string(run.blocklist_hash) + " (hash)");
  }
  if (fault_plan_hash != run.fault_plan_hash) {
    append_field_diff(out, "fault_plan",
                      std::to_string(fault_plan_hash) + " (hash)",
                      std::to_string(run.fault_plan_hash) + " (hash)");
  }
  if (targets != run.targets) {
    const auto join = [](const std::vector<std::string>& v) {
      std::string s;
      for (const auto& t : v) {
        if (!s.empty()) s += ",";
        s += t;
      }
      return s.empty() ? std::string{"(none)"} : s;
    };
    append_field_diff(out, "targets", join(targets), join(run.targets));
  }
  return out;
}

std::uint64_t fingerprint_hash(const Fingerprint& fp) {
  std::uint64_t h = 0x5846414250524f54ULL;  // "XFABPROT"
  h = net::hash_combine64(h, fp.seed);
  h = hash_string(h, fp.world);
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.window_bits));
  h = hash_string(h, fp.probe_module);
  h = hash_double(h, fp.rate_pps);
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.shard));
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.shards));
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.threads));
  h = net::hash_combine64(h, static_cast<std::uint64_t>(fp.retries));
  h = hash_double(h, fp.retry_spacing_ms);
  h = hash_double(h, fp.cooldown_secs);
  h = net::hash_combine64(h, fp.max_probes);
  h = net::hash_combine64(h, fp.adaptive_rate ? 1 : 0);
  h = hash_string(h, fp.output_format);
  h = net::hash_combine64(h, fp.blocklist_hash);
  h = net::hash_combine64(h, fp.fault_plan_hash);
  for (const auto& target : fp.targets) h = hash_string(h, target);
  return net::hash_combine64(h, fp.targets.size());
}

std::uint64_t blocklist_fingerprint(const scan::Blocklist& blocklist) {
  return blocklist.fingerprint();
}

std::uint64_t fault_plan_fingerprint(const sim::FaultPlan& plan) {
  const auto hash_link = [](std::uint64_t h, const sim::LinkFaultParams& p) {
    h = hash_double(h, p.loss);
    h = hash_double(h, p.burst.rate_per_sec);
    h = hash_double(h, p.burst.mean_ms);
    h = hash_double(h, p.burst.loss);
    h = hash_double(h, p.duplicate);
    h = hash_double(h, p.corrupt);
    h = hash_double(h, p.jitter_ms);
    h = hash_double(h, p.flap.period_ms);
    h = hash_double(h, p.flap.down_ms);
    h = hash_double(h, p.flap.fraction);
    return h;
  };
  std::uint64_t h = net::hash_combine64(0x9e3779b97f4a7c15ULL, plan.seed);
  h = hash_link(h, plan.access);
  h = hash_link(h, plan.core);
  h = hash_link(h, plan.other);
  h = hash_double(h, plan.silent.fraction);
  h = hash_double(h, plan.silent.start_ms);
  h = hash_double(h, plan.silent.duration_ms);
  return h;
}

namespace {

constexpr std::string_view kMagic = "xmap-checkpoint v";
// Response + u64 when + u32 worker + u64 raw_slot.
constexpr std::size_t kRecordBytes = kResponseBytes + 8 + 4 + 8;
// u32 spec count + u64 frontier slot (no specs).
constexpr std::size_t kMinCursorBytes = 4 + 8;

void put_int(std::string& out, int v) {
  net::put_u32(out, static_cast<std::uint32_t>(v));
}

void put_double(std::string& out, double v) {
  net::put_u64(out, std::bit_cast<std::uint64_t>(v));
}

bool read_int(net::Reader& in, int& out, const char* field) {
  std::uint32_t v = 0;
  if (!in.u32(v, field)) return false;
  out = static_cast<int>(static_cast<std::int32_t>(v));
  return true;
}

bool read_double(net::Reader& in, double& out, const char* field) {
  std::uint64_t v = 0;
  if (!in.u64(v, field)) return false;
  out = std::bit_cast<double>(v);
  return true;
}

bool read_fingerprint(net::Reader& in, Fingerprint& fp) {
  std::uint32_t targets = 0;
  if (!(in.u64(fp.seed, "fingerprint seed") &&
        in.str(fp.world, "fingerprint world") &&
        read_int(in, fp.window_bits, "fingerprint window_bits") &&
        in.str(fp.probe_module, "fingerprint probe_module") &&
        read_double(in, fp.rate_pps, "fingerprint rate") &&
        read_int(in, fp.shard, "fingerprint shard") &&
        read_int(in, fp.shards, "fingerprint shards") &&
        read_int(in, fp.threads, "fingerprint threads"))) {
    return false;
  }
  // The engine's worker range (engine::kMaxWorkers).
  if (fp.threads < 1 || fp.threads > 64) {
    return in.fail("fingerprint field 'threads' is " +
                   std::to_string(fp.threads) +
                   ", outside the engine's 1..64 workers");
  }
  if (!(read_int(in, fp.retries, "fingerprint retries") &&
        read_double(in, fp.retry_spacing_ms, "fingerprint retry_spacing_ms") &&
        read_double(in, fp.cooldown_secs, "fingerprint cooldown_secs") &&
        in.u64(fp.max_probes, "fingerprint max_probes") &&
        in.flag(fp.adaptive_rate, "fingerprint adaptive_rate") &&
        in.str(fp.output_format, "fingerprint output_format") &&
        in.u64(fp.blocklist_hash, "fingerprint blocklist") &&
        in.u64(fp.fault_plan_hash, "fingerprint faults") &&
        in.count(targets, 4, "fingerprint targets"))) {
    return false;
  }
  fp.targets.resize(targets);
  for (auto& target : fp.targets) {
    if (!in.str(target, "fingerprint target")) return false;
  }
  return true;
}

bool read_body(net::Reader& in, CheckpointState& state) {
  std::uint32_t cursors = 0;
  if (!(in.flag(state.quiescent, "quiescent") &&
        read_int(in, state.signal, "signal") &&
        read_fingerprint(in, state.fingerprint) &&
        read_stats(in, state.stats) &&
        in.count(cursors, kMinCursorBytes, "cursors"))) {
    return false;
  }
  if (cursors != static_cast<std::uint32_t>(state.fingerprint.threads)) {
    return in.fail("'cursors' count " + std::to_string(cursors) +
                   " does not match fingerprint threads " +
                   std::to_string(state.fingerprint.threads));
  }
  state.cursors.resize(cursors);
  for (auto& cursor : state.cursors) {
    if (!read_cursor(in, cursor, "cursor")) return false;
  }

  std::uint64_t count = 0;
  if (!in.count(count, kRecordBytes, "records")) return false;
  state.records.resize(count);
  for (auto& record : state.records) {
    std::uint32_t worker = 0;
    if (!(read_response(in, record.response) &&
          in.u64(record.when, "record when") &&
          in.u32(worker, "record worker") &&
          in.u64(record.raw_slot, "record raw_slot"))) {
      return false;
    }
    if (worker >= static_cast<std::uint32_t>(state.fingerprint.threads)) {
      return in.fail("'record worker' " + std::to_string(worker) +
                     " outside [0, " +
                     std::to_string(state.fingerprint.threads) + ")");
    }
    record.worker = static_cast<int>(worker);
  }

  if (!in.flag(state.has_obs, "obs")) return false;
  if (!state.has_obs) return true;
  if (!in.count(count, kTraceEventMinBytes, "trace events")) return false;
  state.trace.resize(count);
  for (auto& event : state.trace) {
    if (!read_trace_event(in, event)) return false;
  }
  if (!in.count(count, kMetricsEntryMinBytes, "metrics entries")) {
    return false;
  }
  state.metrics.entries.resize(count);
  for (auto& entry : state.metrics.entries) {
    if (!read_metrics_entry(in, entry)) return false;
  }
  return true;
}

}  // namespace

std::string serialize_checkpoint(const CheckpointState& state) {
  std::string out;
  out.reserve(512 + state.records.size() * kRecordBytes +
              state.trace.size() * (kTraceEventMinBytes + 64));
  out.append(kMagic);
  out.append(std::to_string(state.version));
  out.push_back('\n');
  net::put_u8(out, state.quiescent ? 1 : 0);
  put_int(out, state.signal);

  const Fingerprint& fp = state.fingerprint;
  net::put_u64(out, fp.seed);
  net::put_string(out, fp.world);
  put_int(out, fp.window_bits);
  net::put_string(out, fp.probe_module);
  put_double(out, fp.rate_pps);
  put_int(out, fp.shard);
  put_int(out, fp.shards);
  put_int(out, fp.threads);
  put_int(out, fp.retries);
  put_double(out, fp.retry_spacing_ms);
  put_double(out, fp.cooldown_secs);
  net::put_u64(out, fp.max_probes);
  net::put_u8(out, fp.adaptive_rate ? 1 : 0);
  net::put_string(out, fp.output_format);
  net::put_u64(out, fp.blocklist_hash);
  net::put_u64(out, fp.fault_plan_hash);
  net::put_u32(out, static_cast<std::uint32_t>(fp.targets.size()));
  for (const auto& target : fp.targets) net::put_string(out, target);

  put_stats(out, state.stats);
  net::put_u32(out, static_cast<std::uint32_t>(state.cursors.size()));
  for (const auto& cursor : state.cursors) put_cursor(out, cursor);

  net::put_u64(out, state.records.size());
  for (const auto& record : state.records) {
    put_response(out, record.response);
    net::put_u64(out, record.when);
    net::put_u32(out, static_cast<std::uint32_t>(record.worker));
    net::put_u64(out, record.raw_slot);
  }

  net::put_u8(out, state.has_obs ? 1 : 0);
  if (state.has_obs) {
    net::put_u64(out, state.trace.size());
    for (const auto& event : state.trace) put_trace_event(out, event);
    net::put_u64(out, state.metrics.entries.size());
    for (const auto& entry : state.metrics.entries) {
      put_metrics_entry(out, entry);
    }
  }
  net::put_u64(out, net::fnv1a(out));
  return out;
}

ParseResult parse_checkpoint(std::string_view bytes) {
  ParseResult result;
  // Header: "xmap-checkpoint v<version>\n", the version a bare decimal.
  const std::size_t eol = bytes.find('\n');
  if (eol == std::string_view::npos || !bytes.starts_with(kMagic)) {
    result.error = "not an xmap checkpoint (bad header)";
    return result;
  }
  CheckpointState state;
  const std::string_view version =
      bytes.substr(kMagic.size(), eol - kMagic.size());
  const char* version_end = version.data() + version.size();
  const auto [parsed_end, ec] =
      std::from_chars(version.data(), version_end, state.version);
  if (ec != std::errc{} || parsed_end != version_end) {
    result.error = "malformed checkpoint version 'v" + std::string{version} +
                   "' (this build reads v" +
                   std::to_string(kCheckpointVersion) + ")";
    return result;
  }
  if (state.version != kCheckpointVersion) {
    result.error = "unsupported checkpoint version v" +
                   std::to_string(state.version) + " (this build reads v" +
                   std::to_string(kCheckpointVersion) + ")";
    return result;
  }

  // Whole-file checksum before any body field is trusted.
  const std::size_t body_start = eol + 1;
  if (bytes.size() < body_start + 8) {
    result.error = "checkpoint truncated: " + std::to_string(bytes.size()) +
                   " bytes leave no room for the checksum trailer";
    return result;
  }
  const std::size_t sealed = bytes.size() - 8;
  const std::uint64_t stored = net::get_u64(bytes.data() + sealed);
  const std::uint64_t computed = net::fnv1a(bytes.data(), sealed);
  if (stored != computed) {
    result.error = "checkpoint checksum mismatch: " +
                   net::stored_computed(stored, computed) +
                   " (corrupted or truncated checkpoint)";
    return result;
  }

  net::Reader in{bytes.substr(body_start, sealed - body_start), "checkpoint"};
  if (!read_body(in, state)) {
    result.error = in.error();
    return result;
  }
  if (in.remaining() != 0) {
    result.error = "checkpoint: " + std::to_string(in.remaining()) +
                   " trailing bytes after the body";
    return result;
  }
  result.state = std::move(state);
  return result;
}

}  // namespace xmap::recover

// Crash-safe checkpoint state for interrupted scans.
//
// A checkpoint is everything a future process needs to continue a scan and
// end with artifacts byte-identical to an uninterrupted run: a config
// fingerprint (refuse to resume a *different* scan), one permutation
// cursor per worker, the merged ScanStats so far, every collected record
// (with the raw permutation slot of the probe that elicited it), and — for
// quiescent (graceful-drain) checkpoints — the trace events and metrics
// snapshot accumulated so far.
//
// Determinism argument: the scanner's slot pacing makes send times a pure
// function of (seed, targets, rate, retries), fault verdicts are keyed by
// (seed, link, packet hash, attempt), and a graceful drain completes every
// copy of every drawn target plus its responses before the snapshot. The
// resumed process fast-forwards each worker's cyclic-group iterator to its
// cursor, scans only the remainder, and merges; the union of record /
// trace / metrics content equals the uninterrupted run's, and the
// deterministic content sorts make the serialized bytes equal too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/faults.h"
#include "xmap/blocklist.h"
#include "xmap/probe_module.h"
#include "xmap/scanner.h"
#include "xmap/stats.h"
#include "xmap/target_spec.h"

namespace xmap::recover {

// v3: a binary body sealed by a whole-file FNV-1a checksum (see
// serialize_checkpoint). v2 (line-based text with no checksum) and v1 are
// refused by version.
inline constexpr int kCheckpointVersion = 3;

// The scan-configuration identity a checkpoint is bound to. Every field
// that changes which packets go on the wire (or how records serialize) is
// included; resuming under a different fingerprint is refused with a
// field-precise diagnostic instead of silently producing garbage.
struct Fingerprint {
  std::uint64_t seed = 1;
  std::string world = "paper";
  int window_bits = 10;
  std::string probe_module = "icmp_echo";
  double rate_pps = 25000;
  int shard = 0;
  int shards = 1;
  int threads = 1;
  int retries = 0;
  double retry_spacing_ms = 100;
  double cooldown_secs = 8;
  std::uint64_t max_probes = 0;
  bool adaptive_rate = false;
  std::string output_format = "csv";
  std::uint64_t blocklist_hash = 0;
  std::uint64_t fault_plan_hash = 0;
  std::vector<std::string> targets;  // TargetSpec::to_string() forms

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  // "" when equal; otherwise a precise, human-readable list of differing
  // fields ("seed: checkpoint 7, run 9; threads: checkpoint 4, run 2").
  [[nodiscard]] std::string diff(const Fingerprint& run) const;
};

// Deterministic content hashes for the two config blobs that do not have a
// compact text form of their own.
[[nodiscard]] std::uint64_t blocklist_fingerprint(const scan::Blocklist&);
[[nodiscard]] std::uint64_t fault_plan_fingerprint(const sim::FaultPlan&);

// One-word identity of the whole fingerprint (every field, including the
// blocklist/fault-plan hashes). The fabric layer stamps this into shard
// assignments so a worker can refuse a checkpoint handoff from a different
// scan configuration with a "stored …, computed …" diagnostic.
[[nodiscard]] std::uint64_t fingerprint_hash(const Fingerprint&);

// One collected response, as the resumed process must re-emit it. The
// engine's record stream is made of these (engine::EngineRecord), so a
// checkpoint takes and gives back records without conversion.
struct CheckpointRecord {
  scan::ProbeResponse response;
  std::uint64_t when = 0;  // sim-clock arrival (sim::SimTime)
  int worker = 0;
  std::uint64_t raw_slot = 0;  // slot of the probe that elicited it
};

struct CheckpointState {
  int version = kCheckpointVersion;
  // A quiescent checkpoint was taken after a graceful drain: every drawn
  // target's copies were sent and their responses collected, so records,
  // trace and metrics are exact. Periodic (mid-flight) checkpoints are
  // not quiescent: records are filtered to closed lifecycles below the
  // cursor and obs state is omitted (the resumed tail re-scans from the
  // cursor, so trace/metrics resumption would double-count).
  bool quiescent = true;
  int signal = 0;  // the signal that triggered it (0 = none/periodic)
  Fingerprint fingerprint;
  scan::ScanStats stats;  // merged over workers, cumulative across resumes
  // One per worker (size == fingerprint.threads): shard-local raw-cycle
  // steps consumed per target spec (the fast-forward argument), plus the
  // global raw slot of the first target the resumed worker will draw (the
  // record filter of non-quiescent checkpoints).
  std::vector<scan::ScanCursor> cursors;
  std::vector<CheckpointRecord> records;
  bool has_obs = false;  // trace/metrics sections present (quiescent only)
  std::vector<obs::TraceEvent> trace;
  obs::MetricsSnapshot metrics;
};

// Serializes to checkpoint v3:
//
//   "xmap-checkpoint v3\n" | binary body | u64 FNV-1a(every byte before it)
//
// The text header keeps the version readable (and refusable) on its own.
// The body is written with the netbase codec and the shared scan-type
// encoders (scan_codec.h); see docs/recovery.md for the field layout.
[[nodiscard]] std::string serialize_checkpoint(const CheckpointState& state);

struct ParseResult {
  std::optional<CheckpointState> state;  // nullopt on error
  std::string error;
};

// Parses serialize_checkpoint() output. Refuses other versions, a checksum
// mismatch ("stored 0x…, computed 0x…"), truncation, out-of-range enums and
// flags, a cursor count other than the fingerprint's worker count, and a
// record whose worker is outside it, each with a diagnostic naming the
// field.
[[nodiscard]] ParseResult parse_checkpoint(std::string_view bytes);

}  // namespace xmap::recover

// Wire protocol for the distributed scan fabric.
//
// Every byte that moves between the coordinator and a worker crosses this
// protocol: length-prefixed, checksummed frames carrying one message each.
// A frame is
//
//   u32 magic 'XFB1' | u32 payload_len | payload | u64 FNV-1a(payload)
//
// and a payload is `u8 type | u64 seq | u8 ctx_ver [| u64 trace_id |
// u64 parent_span] | type-specific body`, all integers little-endian and
// written with the netbase codec (netbase/codec.h); stats, cursors,
// responses, trace events and metrics entries use the encoders the
// checkpoint shares (recover/scan_codec.h).
// `ctx_ver` is the versioned trace context: 0 means no context follows,
// 1 means an 8-byte trace id and an 8-byte parent span id follow — the
// causal link that lets a receiver parent its handling span under the
// sender's span (docs/observability.md). Unknown versions are rejected.
// The decoder trusts nothing: magic, length bound, exact
// frame size, checksum, message type, and per-field bounds are all checked,
// and every rejection carries a diagnostic naming what was wrong — the fuzz
// harness (tests/fuzz/fabric_frames_test.cc) drives every truncation and
// every bit flip of valid frames through decode_frame and asserts rejection
// without a crash or a mis-parse.
//
// `seq` belongs to the reliable channel (channel.h): data-bearing messages
// carry the sender's stop-and-wait sequence number; unreliable frames
// (heartbeats, acks, bye) carry 0.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/scan_codec.h"
#include "xmap/probe_module.h"
#include "xmap/scanner.h"
#include "xmap/stats.h"

namespace xmap::fabric {

inline constexpr std::uint32_t kFrameMagic = 0x31424658;  // "XFB1" LE
// Frames larger than this are rejected before any allocation — a corrupted
// or hostile length prefix must not drive a giant reserve.
inline constexpr std::size_t kMaxPayload = 1u << 20;
inline constexpr std::size_t kFrameOverhead = 4 + 4 + 8;  // magic+len+cksum

enum class MsgType : std::uint8_t {
  kHello = 1,      // worker -> coordinator: join, carries worker id
  kAssign = 2,     // coordinator -> worker: shard lease (+resume cursor)
  kRefuse = 3,     // worker -> coordinator: assignment rejected, diagnostic
  kHeartbeat = 4,  // worker -> coordinator: liveness (unreliable)
  kAck = 5,        // either direction: reliable-channel acknowledgement
  kRecords = 6,    // worker -> coordinator: batch of validated responses
  kCheckpoint = 7, // worker -> coordinator: stable cursor + live stats
  kShardDone = 8,  // worker -> coordinator: shard complete, final stats
  kBye = 9,        // coordinator -> worker: fabric is done, exit
  kObsTrace = 10,  // worker -> coordinator: chunk of scan-content trace events
  kObsMetrics = 11,// worker -> coordinator: chunk of the scan metrics snapshot
  kRejoin = 12,    // worker -> coordinator: stream-transport (re)connect
                   // handshake: identity + fingerprint + held lease, if any
  kRejoinOk = 13,  // coordinator -> worker: rejoin accepted, lease stands
  kRejoinRefused = 14,  // coordinator -> worker: rejoin fenced, diagnostic
};

[[nodiscard]] constexpr const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kAssign: return "assign";
    case MsgType::kRefuse: return "refuse";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kAck: return "ack";
    case MsgType::kRecords: return "records";
    case MsgType::kCheckpoint: return "checkpoint";
    case MsgType::kShardDone: return "shard-done";
    case MsgType::kBye: return "bye";
    case MsgType::kObsTrace: return "obs-trace";
    case MsgType::kObsMetrics: return "obs-metrics";
    case MsgType::kRejoin: return "rejoin";
    case MsgType::kRejoinOk: return "rejoin-ok";
    case MsgType::kRejoinRefused: return "rejoin-refused";
  }
  return "?";
}

// Trace-context versions the decoder understands. Version 0 carries no
// context bytes; version 1 carries `u64 trace_id | u64 parent_span`.
inline constexpr std::uint8_t kTraceCtxNone = 0;
inline constexpr std::uint8_t kTraceCtxV1 = 1;

// One validated response in flight from a worker. `when` is the worker's
// sim-clock arrival (deterministic), `raw_slot` the global permutation slot
// of the probe that elicited it — the coordinator filters failover records
// by slot against the dead worker's last streamed cursor.
struct WireRecord {
  scan::ProbeResponse response;
  std::uint64_t when = 0;
  std::uint64_t raw_slot = 0;
};

// Serialized WireRecord size: the response (kind + icmp_code + hop_limit +
// two addresses) + when + raw_slot. The decoder validates Records count
// prefixes against this before any allocation.
inline constexpr std::size_t kWireRecordBytes = recover::kResponseBytes + 8 + 8;

// The one message struct for all types; which fields are meaningful (and
// serialized) depends on `type`. Keeping a single struct keeps the
// encode/decode pair and the state machines on both ends simple.
struct Message {
  MsgType type = MsgType::kHeartbeat;
  std::uint64_t seq = 0;  // reliable-channel sequence; 0 on unreliable frames

  // Versioned trace context (see file comment). ctx_ver kTraceCtxNone means
  // trace_id/parent_span are absent from the wire and meaningless here.
  std::uint8_t ctx_ver = kTraceCtxNone;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  std::uint32_t worker = 0;  // Hello, Heartbeat: sender's worker index
  std::uint64_t ack_seq = 0;  // Ack: sequence being acknowledged

  // Shard addressing (Assign, Refuse, Records, Checkpoint, ShardDone).
  // `epoch` is the assignment generation: it increments every time the
  // shard is re-assigned, and the coordinator ignores frames from stale
  // epochs (a worker wrongly declared dead cannot corrupt its successor).
  std::uint32_t shard = 0;
  std::uint32_t epoch = 0;

  // Assign body: the lease terms.
  std::uint32_t shards_total = 0;  // fabric shard count S
  std::uint64_t budget_cut = scan::kNoBudgetCut;  // precomputed, shared
  std::uint64_t fingerprint = 0;  // recover::fingerprint_hash of the scan
  bool has_resume = false;        // cursor below is a failover handoff
  bool has_lease = false;         // Rejoin: shard/epoch below name a held lease
  scan::ScanCursor cursor;        // Assign (resume) / Checkpoint (progress)

  scan::ScanStats stats;           // Checkpoint (live) / ShardDone (final)
  std::vector<WireRecord> records; // Records
  std::string diagnostic;          // Refuse: why the lease was rejected

  // ObsTrace: a chunk of the shard's deterministic scan-content trace.
  // Decoded string pointers come from a process-lifetime intern pool, so
  // they satisfy TraceEvent's static-storage contract; null-vs-empty is
  // preserved on the wire (a presence flag precedes each string).
  std::vector<obs::TraceEvent> trace_events;
  // ObsMetrics: a chunk of the shard's deterministic metrics snapshot.
  obs::MetricsSnapshot metrics;
};

// Minimum serialized TraceEvent and MetricsSnapshot entry: the decoder
// validates ObsTrace / ObsMetrics count prefixes against these before any
// allocation.
inline constexpr std::size_t kWireTraceEventMinBytes =
    recover::kTraceEventMinBytes;
inline constexpr std::size_t kWireMetricsEntryMinBytes =
    recover::kMetricsEntryMinBytes;

// Serializes `msg` into one complete frame.
[[nodiscard]] std::string encode_frame(const Message& msg);

struct DecodeResult {
  std::optional<Message> message;  // nullopt = rejected
  std::string error;               // precise diagnostic when rejected
};

// Decodes exactly one frame; any deviation — short buffer, bad magic,
// oversized or lying length, checksum mismatch, unknown type, truncated or
// trailing body bytes — is rejected with a diagnostic, never a crash.
[[nodiscard]] DecodeResult decode_frame(std::string_view frame);

// FNV-1a 64 over the payload (exposed for the fuzz harness, which must
// construct frames whose only defect is the bit under test).
[[nodiscard]] inline std::uint64_t frame_checksum(std::string_view payload) {
  return net::fnv1a(payload);
}

}  // namespace xmap::fabric

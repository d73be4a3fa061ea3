#include "fabric/protocol.h"

#include "recover/scan_codec.h"

namespace xmap::fabric {
namespace {

using net::put_string;
using net::put_u32;
using net::put_u64;
using net::put_u8;

void put_record(std::string& out, const WireRecord& r) {
  recover::put_response(out, r.response);
  put_u64(out, r.when);
  put_u64(out, r.raw_slot);
}

bool read_record(net::Reader& in, WireRecord& r) {
  return recover::read_response(in, r.response) &&
         in.u64(r.when, "record when") && in.u64(r.raw_slot, "record raw_slot");
}

// A u32 count prefix followed by that many elements, each decoded by
// `read_one`; the count is bounded by the bytes left before allocating.
template <typename T, typename ReadOne>
bool read_list(net::Reader& in, std::vector<T>& out, std::size_t min_bytes,
               const char* field, ReadOne read_one) {
  std::uint32_t count = 0;
  if (!in.count(count, min_bytes, field)) return false;
  out.resize(count);
  for (auto& item : out) {
    if (!read_one(in, item)) return false;
  }
  return true;
}

}  // namespace

std::string encode_frame(const Message& msg) {
  std::string payload;
  payload.reserve(64 + msg.records.size() * kWireRecordBytes +
                  msg.trace_events.size() * 2 * kWireTraceEventMinBytes +
                  msg.diagnostic.size());
  put_u8(payload, static_cast<std::uint8_t>(msg.type));
  put_u64(payload, msg.seq);
  put_u8(payload, msg.ctx_ver);
  if (msg.ctx_ver == kTraceCtxV1) {
    put_u64(payload, msg.trace_id);
    put_u64(payload, msg.parent_span);
  }
  switch (msg.type) {
    case MsgType::kHello:
    case MsgType::kHeartbeat:
      put_u32(payload, msg.worker);
      break;
    case MsgType::kAck:
      put_u64(payload, msg.ack_seq);
      break;
    case MsgType::kAssign:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_u32(payload, msg.shards_total);
      put_u64(payload, msg.budget_cut);
      put_u64(payload, msg.fingerprint);
      put_u8(payload, msg.has_resume ? 1 : 0);
      recover::put_cursor(payload, msg.cursor);
      break;
    case MsgType::kRefuse:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_string(payload, msg.diagnostic);
      break;
    case MsgType::kRecords:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_u32(payload, static_cast<std::uint32_t>(msg.records.size()));
      for (const auto& r : msg.records) put_record(payload, r);
      break;
    case MsgType::kCheckpoint:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      recover::put_cursor(payload, msg.cursor);
      recover::put_stats(payload, msg.stats);
      break;
    case MsgType::kShardDone:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      recover::put_stats(payload, msg.stats);
      break;
    case MsgType::kBye:
      break;
    case MsgType::kObsTrace:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_u32(payload, static_cast<std::uint32_t>(msg.trace_events.size()));
      for (const auto& e : msg.trace_events) {
        recover::put_trace_event(payload, e);
      }
      break;
    case MsgType::kObsMetrics:
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      put_u32(payload, static_cast<std::uint32_t>(msg.metrics.entries.size()));
      for (const auto& e : msg.metrics.entries) {
        recover::put_metrics_entry(payload, e);
      }
      break;
    case MsgType::kRejoin:
      put_u32(payload, msg.worker);
      put_u64(payload, msg.fingerprint);
      put_u8(payload, msg.has_lease ? 1 : 0);
      put_u32(payload, msg.shard);
      put_u32(payload, msg.epoch);
      break;
    case MsgType::kRejoinOk:
      put_u32(payload, msg.worker);
      break;
    case MsgType::kRejoinRefused:
      put_u32(payload, msg.worker);
      put_string(payload, msg.diagnostic);
      break;
  }

  std::string frame;
  frame.reserve(payload.size() + kFrameOverhead);
  put_u32(frame, kFrameMagic);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  put_u64(frame, frame_checksum(payload));
  return frame;
}

DecodeResult decode_frame(std::string_view frame) {
  DecodeResult out;
  if (frame.size() < kFrameOverhead + 1) {
    out.error = "fabric frame: " + std::to_string(frame.size()) +
                " bytes is shorter than the minimum frame";
    return out;
  }
  const std::uint32_t magic = net::get_u32(frame.data());
  const std::uint32_t payload_len = net::get_u32(frame.data() + 4);
  if (magic != kFrameMagic) {
    out.error = "fabric frame: bad magic";
    return out;
  }
  if (payload_len > kMaxPayload) {
    out.error = "fabric frame: payload length " + std::to_string(payload_len) +
                " exceeds the " + std::to_string(kMaxPayload) + "-byte cap";
    return out;
  }
  if (frame.size() != kFrameOverhead + payload_len) {
    out.error = "fabric frame: length prefix says " +
                std::to_string(kFrameOverhead + payload_len) +
                " bytes, frame is " + std::to_string(frame.size());
    return out;
  }
  const std::string_view payload = frame.substr(8, payload_len);
  const std::uint64_t stored = net::get_u64(frame.data() + 8 + payload_len);
  const std::uint64_t computed = frame_checksum(payload);
  if (stored != computed) {
    out.error = "fabric frame: checksum mismatch (" +
                net::stored_computed(stored, computed) + ")";
    return out;
  }

  net::Reader in{payload, "fabric frame"};
  Message msg;
  std::uint8_t type = 0;
  if (!in.u8(type, "type") || !in.u64(msg.seq, "seq") ||
      !in.u8(msg.ctx_ver, "trace-context version")) {
    out.error = in.error();
    return out;
  }
  if (msg.ctx_ver > kTraceCtxV1) {
    out.error = "fabric frame: unsupported trace-context version " +
                std::to_string(msg.ctx_ver);
    return out;
  }
  if (msg.ctx_ver == kTraceCtxV1 &&
      (!in.u64(msg.trace_id, "trace_id") ||
       !in.u64(msg.parent_span, "parent_span"))) {
    out.error = in.error();
    return out;
  }
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kRejoinRefused)) {
    out.error = "fabric frame: unknown message type " + std::to_string(type);
    return out;
  }
  msg.type = static_cast<MsgType>(type);

  bool ok = true;
  switch (msg.type) {
    case MsgType::kHello:
    case MsgType::kHeartbeat:
      ok = in.u32(msg.worker, "worker");
      break;
    case MsgType::kAck:
      ok = in.u64(msg.ack_seq, "ack_seq");
      break;
    case MsgType::kAssign:
      ok = in.u32(msg.shard, "shard") && in.u32(msg.epoch, "epoch") &&
           in.u32(msg.shards_total, "shards_total") &&
           in.u64(msg.budget_cut, "budget_cut") &&
           in.u64(msg.fingerprint, "fingerprint") &&
           in.flag(msg.has_resume, "has_resume") &&
           recover::read_cursor(in, msg.cursor, "resume cursor");
      break;
    case MsgType::kRefuse:
      ok = in.u32(msg.shard, "shard") && in.u32(msg.epoch, "epoch") &&
           in.str(msg.diagnostic, "diagnostic");
      break;
    case MsgType::kRecords:
      ok = in.u32(msg.shard, "shard") && in.u32(msg.epoch, "epoch") &&
           read_list(in, msg.records, kWireRecordBytes, "records",
                     read_record);
      break;
    case MsgType::kCheckpoint:
      ok = in.u32(msg.shard, "shard") && in.u32(msg.epoch, "epoch") &&
           recover::read_cursor(in, msg.cursor, "checkpoint cursor") &&
           recover::read_stats(in, msg.stats);
      break;
    case MsgType::kShardDone:
      ok = in.u32(msg.shard, "shard") && in.u32(msg.epoch, "epoch") &&
           recover::read_stats(in, msg.stats);
      break;
    case MsgType::kBye:
      break;
    case MsgType::kObsTrace:
      ok = in.u32(msg.shard, "shard") && in.u32(msg.epoch, "epoch") &&
           read_list(in, msg.trace_events, kWireTraceEventMinBytes,
                     "trace events", recover::read_trace_event);
      break;
    case MsgType::kObsMetrics:
      ok = in.u32(msg.shard, "shard") && in.u32(msg.epoch, "epoch") &&
           read_list(in, msg.metrics.entries, kWireMetricsEntryMinBytes,
                     "metrics entries", recover::read_metrics_entry);
      break;
    case MsgType::kRejoin:
      ok = in.u32(msg.worker, "worker") &&
           in.u64(msg.fingerprint, "fingerprint") &&
           in.flag(msg.has_lease, "has_lease") &&
           in.u32(msg.shard, "shard") && in.u32(msg.epoch, "epoch");
      break;
    case MsgType::kRejoinOk:
      ok = in.u32(msg.worker, "worker");
      break;
    case MsgType::kRejoinRefused:
      ok = in.u32(msg.worker, "worker") &&
           in.str(msg.diagnostic, "diagnostic");
      break;
  }
  if (!ok) {
    out.error = in.error();
    return out;
  }
  if (in.remaining() != 0) {
    out.error = "fabric frame: " + std::to_string(in.remaining()) +
                " trailing bytes after " +
                std::string(msg_type_name(msg.type)) + " body";
    return out;
  }
  out.message = std::move(msg);
  return out;
}

}  // namespace xmap::fabric

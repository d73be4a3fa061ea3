// Binary encoders for the scan types that cross a process boundary: scan
// stats, permutation cursors, responses, trace events and metrics entries.
// The checkpoint state file (state.h) and the fabric's frames
// (fabric/protocol.h) both carry these types, and both write them with
// exactly these functions over the netbase codec (netbase/codec.h).
//
// Decoders take a net::Reader, so a short buffer or an out-of-range enum
// or flag is refused with a diagnostic naming the field; count prefixes
// are checked against the bytes left before anything is allocated.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "netbase/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xmap/probe_module.h"
#include "xmap/scanner.h"
#include "xmap/stats.h"

namespace xmap::recover {

// Serialized ProbeResponse: kind + icmp_code + hop_limit + two addresses.
inline constexpr std::size_t kResponseBytes = 1 + 1 + 1 + 16 + 16;
// Minimum serialized TraceEvent (every string null).
inline constexpr std::size_t kTraceEventMinBytes =
    8 + 8 + 2 * 1 + 2 * (1 + 16) + 2 * 1 + 3 * (1 + 8);
// Minimum serialized metrics entry (empty name/labels/help, no histogram).
inline constexpr std::size_t kMetricsEntryMinBytes =
    4 + 4 + 1 + 1 + 8 + 1 + 4;

// 13 u64 counters in declaration order.
void put_stats(std::string& out, const scan::ScanStats& stats);
[[nodiscard]] bool read_stats(net::Reader& in, scan::ScanStats& stats);

// u32 spec count, u64 steps per spec, u64 frontier slot.
void put_cursor(std::string& out, const scan::ScanCursor& cursor);
[[nodiscard]] bool read_cursor(net::Reader& in, scan::ScanCursor& cursor,
                               const char* field);

// u8 kind, u8 icmp_code, u8 hop_limit, responder, probe_dst.
void put_response(std::string& out, const scan::ProbeResponse& response);
[[nodiscard]] bool read_response(net::Reader& in,
                                 scan::ProbeResponse& response);

// Each string is a presence flag, then a length-prefixed body: a null
// argument key ("unused") decodes back to null and "" to "". Decoded
// strings are interned (see intern()).
void put_trace_event(std::string& out, const obs::TraceEvent& event);
[[nodiscard]] bool read_trace_event(net::Reader& in, obs::TraceEvent& event);

void put_metrics_entry(std::string& out,
                       const obs::MetricsSnapshot::Entry& entry);
[[nodiscard]] bool read_metrics_entry(net::Reader& in,
                                      obs::MetricsSnapshot::Entry& entry);

// Interns `s` in a process-lifetime pool and returns a stable pointer:
// decoded TraceEvent strings must satisfy obs::TraceEvent's static-storage
// contract. Identical contents intern to the same pointer.
[[nodiscard]] const char* intern(std::string_view s);

}  // namespace xmap::recover

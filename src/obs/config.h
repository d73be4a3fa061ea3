// Observability configuration shared by every instrumented layer.
//
// One small value type selects how much the run records: the trace level
// (off / per-target scan events / per-packet network events), whether the
// labeled metrics registry is populated, and whether wall-clock stage
// profiling runs. The engine, the fabric, the CLI and the JSON world spec
// all speak this struct; absent config means every hook compiles down to
// a null-pointer check on the hot path.
#pragma once

#include <cstdint>
#include <string_view>

namespace xmap::obs {

// How much of the probe lifecycle the trace records.
//   kOff:    nothing (the default; hooks cost one branch)
//   kScan:   per-target lifecycle — generated / blocked / sent /
//            retransmit / classify verdicts / rate adjustments
//   kPacket: kScan plus per-packet substrate events — hop traversals,
//            fault verdicts, ICMPv6 rate-limiter suppressions
enum class TraceLevel : std::uint8_t { kOff = 0, kScan = 1, kPacket = 2 };

[[nodiscard]] constexpr const char* to_string(TraceLevel level) {
  switch (level) {
    case TraceLevel::kScan:
      return "scan";
    case TraceLevel::kPacket:
      return "packet";
    case TraceLevel::kOff:
      break;
  }
  return "off";
}

// "off" | "scan" | "packet" -> level; false when the text matches none.
[[nodiscard]] constexpr bool trace_level_from_string(std::string_view text,
                                                    TraceLevel& out) {
  if (text == "off") {
    out = TraceLevel::kOff;
  } else if (text == "scan") {
    out = TraceLevel::kScan;
  } else if (text == "packet") {
    out = TraceLevel::kPacket;
  } else {
    return false;
  }
  return true;
}

struct ObsConfig {
  TraceLevel trace_level = TraceLevel::kOff;
  bool metrics = false;  // populate the labeled metrics registry
  bool profile = false;  // wall-clock stage timers + stage_profile section

  [[nodiscard]] bool any() const {
    return trace_level != TraceLevel::kOff || metrics || profile;
  }
};

}  // namespace xmap::obs

#include "obs/profile.h"

#include <cstdio>
#include <sstream>

namespace xmap::obs {

void append_stage_profile_json(std::ostream& out,
                               const StageProfile& profile) {
  out << '{';
  bool first = true;
  for (int i = 0; i < kStageCount; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const StageProfile::Entry& entry = profile.at(stage);
    if (!first) out << ',';
    first = false;
    out << '"' << stage_name(stage) << "\":{\"ns\":" << entry.ns
        << ",\"calls\":" << entry.calls << '}';
  }
  out << '}';
}

std::string stage_profile_table(const StageProfile& profile) {
  std::uint64_t total_ns = 0;
  for (int i = 0; i < kStageCount; ++i) {
    // kClassify is nested inside kReceive; keep the total a wall-clock sum
    // of disjoint stages.
    if (static_cast<Stage>(i) == Stage::kClassify) continue;
    total_ns += profile.at(static_cast<Stage>(i)).ns;
  }
  std::ostringstream out;
  out << "stage profile (wall clock, all workers summed)\n";
  out << "  stage         time_ms        calls   share\n";
  for (int i = 0; i < kStageCount; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const StageProfile::Entry& entry = profile.at(stage);
    const double ms = static_cast<double>(entry.ns) / 1e6;
    const double share =
        total_ns > 0
            ? 100.0 * static_cast<double>(entry.ns) /
                  static_cast<double>(total_ns)
            : 0.0;
    char line[128];
    std::snprintf(line, sizeof line, "  %-12s %10.3f %12llu %6.1f%%%s\n",
                  stage_name(stage), ms,
                  static_cast<unsigned long long>(entry.calls), share,
                  stage == Stage::kClassify ? "  (within receive)" : "");
    out << line;
  }
  return out.str();
}

}  // namespace xmap::obs

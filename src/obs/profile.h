// Wall-clock stage profiling for the scan pipeline.
//
// Scoped timers around the pipeline stages (world build, target
// generation, send, receive, classify, merge) accumulate into a per-worker
// StageProfile; the engine merges worker profiles after join and surfaces
// the result as the "stage_profile" section of the telemetry JSON and as
// the --profile summary table. xmap_sim times the post-scan tail (record
// output, store encode) after the telemetry is written, so those two
// stages fill only the table. These are *real* (wall-clock) nanoseconds —
// the one observability signal that is intentionally not deterministic —
// so they never appear in the trace or the deterministic Prometheus
// export.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>

namespace xmap::obs {

enum class Stage : std::uint8_t {
  kBuild = 0,    // world-replica construction (per worker)
  kGenerate,     // permutation draw + blocklist + schedule
  kSend,         // probe encode + transmit
  kReceive,      // receive path, wire gate + bookkeeping (includes classify)
  kClassify,     // probe-module classification (subset of kReceive)
  kMerge,        // main-thread record sort + collector union
  kLease,        // fabric coordinator: shard lease assignment (Assign send)
  kDecode,       // fabric coordinator: inbound frame decode + dispatch
  kOutput,       // xmap_sim: record writer over the merged records
  kStoreEncode,  // xmap_sim: --store-file snapshot encode + write
  kCount_,
};

inline constexpr int kStageCount = static_cast<int>(Stage::kCount_);

[[nodiscard]] constexpr const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kBuild:
      return "build";
    case Stage::kGenerate:
      return "generate";
    case Stage::kSend:
      return "send";
    case Stage::kReceive:
      return "receive";
    case Stage::kClassify:
      return "classify";
    case Stage::kMerge:
      return "merge";
    case Stage::kLease:
      return "lease";
    case Stage::kDecode:
      return "decode";
    case Stage::kOutput:
      return "output";
    case Stage::kStoreEncode:
      return "store_encode";
    case Stage::kCount_:
      break;
  }
  return "?";
}

struct StageProfile {
  struct Entry {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
  };
  std::array<Entry, kStageCount> stages{};

  [[nodiscard]] Entry& at(Stage stage) {
    return stages[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] const Entry& at(Stage stage) const {
    return stages[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] bool empty() const {
    for (const Entry& e : stages) {
      if (e.calls != 0) return false;
    }
    return true;
  }

  StageProfile& merge(const StageProfile& other) {
    for (int i = 0; i < kStageCount; ++i) {
      stages[static_cast<std::size_t>(i)].ns +=
          other.stages[static_cast<std::size_t>(i)].ns;
      stages[static_cast<std::size_t>(i)].calls +=
          other.stages[static_cast<std::size_t>(i)].calls;
    }
    return *this;
  }
};

// RAII stage timer; a null profile makes construction and destruction a
// pointer test each — cheap enough to leave in release hot paths.
class ScopedStageTimer {
 public:
  ScopedStageTimer(StageProfile* profile, Stage stage)
      : profile_(profile), stage_(stage) {
    if (profile_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedStageTimer() {
    if (profile_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    StageProfile::Entry& entry = profile_->at(stage_);
    entry.ns += static_cast<std::uint64_t>(ns > 0 ? ns : 0);
    ++entry.calls;
  }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  StageProfile* profile_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_{};
};

// {"build":{"ns":..,"calls":..},...} — the telemetry JSON section.
void append_stage_profile_json(std::ostream& out, const StageProfile& profile);

// Human-readable --profile summary (aligned columns, one stage per row).
[[nodiscard]] std::string stage_profile_table(const StageProfile& profile);

}  // namespace xmap::obs

// The parallel scan executor.
//
// ZMap/XMap's send/recv/monitor thread architecture, adapted to the
// simulated substrate. The key property making the scan embarrassingly
// parallel is that both halves are deterministic and stateless:
//
//   * the world is a pure function of (specs, BuildConfig) — every worker
//     thread rebuilds an identical, thread-confined sim::Network replica;
//   * the permutation is shardable — worker w of N walks shard
//     (machine_shard*N + w) of (machine_shards*N), so the workers' target
//     sets partition the permutation exactly (no gaps, no double-probing).
//
// Each worker runs its own SimChannelScanner to completion and pushes
// validated responses through a bounded MPSC queue; the main thread drains
// the queue, orders the records deterministically, and merges them into one
// ResultCollector + summed ScanStats. A monitor thread renders live status
// lines from shared atomic counters (see telemetry.h).
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "engine/telemetry.h"
#include "obs/config.h"
#include "obs/trace.h"
#include "recover/state.h"
#include "topology/builder.h"
#include "xmap/results.h"
#include "xmap/scanner.h"

namespace xmap::engine {

struct EngineConfig {
  // The world every worker replicates (resolve with topo::resolve_world).
  std::vector<topo::IspSpec> world_specs;
  std::vector<topo::VendorProfile> vendors;
  topo::BuildConfig build;
  net::Ipv6Prefix vantage = *net::Ipv6Prefix::parse("2001:500::/48");

  // The probing technique; required, not owned, shared read-only by all
  // workers (modules are immutable — see probe_factory.h).
  const scan::ProbeModule* module = nullptr;

  // Base scan parameters. `scan.shard`/`scan.shards` express the
  // machine-level partition (multi-instance scanning); worker sub-shards
  // compose underneath it. `scan.max_probes` is a global target budget,
  // enforced as a cut at a fixed permutation slot shared by all workers so
  // capped scans stay byte-identical across --threads values.
  // `scan.targets` empty = scan every block of the world.
  scan::ScanConfig scan;

  // Fault-injection plan installed into every worker's network replica
  // (plan.any() == false leaves the substrate pristine). Every CPE/UE
  // device node is a silent-window candidate.
  sim::FaultPlan faults;

  int threads = 1;  // worker count (1..kMaxWorkers)

  // Result-queue bound: workers block (backpressure) when the collector
  // falls this many responses behind.
  std::size_t queue_capacity = 4096;

  // Passed through to the merged ResultCollector (see results.h).
  std::uint64_t alias_threshold = 16;

  // Live telemetry; nullptr disables the monitor thread entirely.
  std::ostream* status_out = nullptr;
  int status_interval_ms = 250;

  // Observability: trace level, metrics registry, stage profiling. Each
  // worker gets its own thread-confined TraceBuffer / MetricsShard /
  // StageProfile; the engine merges them deterministically after join (see
  // EngineResult::trace / metrics_snapshot / stage_profile).
  obs::ObsConfig obs;

  // Checkpoint/resume (see src/recover/). `resume` seeds the run from a
  // loaded checkpoint: worker iterators fast-forward to their cursors, and
  // the checkpoint's records/stats/trace/metrics merge with this run's so
  // the final artifacts equal an uninterrupted run's. The engine trusts
  // the caller to have validated the fingerprint (threads must match
  // cursors.size()).
  const recover::CheckpointState* resume = nullptr;
  // Periodic mid-flight checkpointing: every `checkpoint_interval_targets`
  // drawn targets each worker publishes a stable cursor; when every worker
  // has published, the collector assembles a non-quiescent CheckpointState
  // (cursors + records filtered to completed probe lifecycles + live
  // stats) and hands it to `checkpoint_sink` (the CLI stamps the
  // fingerprint and writes the file). 0 = off.
  std::uint64_t checkpoint_interval_targets = 0;
  std::function<void(recover::CheckpointState&)> checkpoint_sink;
  // Graceful shutdown: polled by every worker; non-zero stops fresh sends
  // at each worker's frontier, drains in-flight copies, and reports
  // EngineResult::interrupted with per-worker cursors.
  const std::atomic<int>* shutdown_flag = nullptr;
  // Deterministic interruption test hook (see
  // ScanConfig::shutdown_at_raw_slot).
  std::uint64_t shutdown_at_raw_slot = scan::kNoBudgetCut;
  // Where checkpoints are written (display only — surfaces as
  // "checkpoint_file" in the telemetry JSON; the sink does the writing).
  std::string checkpoint_file;
};

inline constexpr int kMaxWorkers = 64;

// One validated response as it crossed the queue. `when` is the worker's
// sim-clock arrival time (deterministic per worker); `raw_slot` is the
// global permutation slot of the probe that elicited it (checkpoint
// provenance). It is the checkpoint's record type, so resume seeds and
// checkpoint snapshots copy records without conversion.
using EngineRecord = recover::CheckpointRecord;

struct WorkerReport {
  scan::ScanStats stats;
  sim::SimTime sim_duration = 0;  // worker's final sim-clock reading
  // Failure containment: a worker thread that throws is reported here
  // (partial stats retained) instead of taking the process down.
  bool failed = false;
  std::string error;
  // The worker's final permutation position and whether it stopped early
  // on a shutdown request (quiescent by then — in-flight copies drained).
  scan::ScanCursor cursor;
  bool interrupted = false;
};

struct EngineResult {
  bool ok = false;
  std::string error;  // set when !ok (bad config)

  // All validated responses, deterministically ordered (worker sim time,
  // then worker id, then responder/probe) — byte-stable across runs.
  std::vector<EngineRecord> records;

  scan::ResultCollector collector;  // merged union of all workers
  scan::ScanStats stats;            // per-worker stats, summed
  std::vector<WorkerReport> workers;
  int failed_workers = 0;  // workers that threw (see WorkerReport::error)
  double wall_seconds = 0;

  // The JSON metrics snapshot (also written to status_out when set).
  std::string metrics;

  // Observability outputs (populated per EngineConfig::obs; empty when
  // off). `trace` and `metrics_snapshot` carry only sim-clock /
  // partition-invariant data, so their serialized forms are byte-identical
  // across --threads values; `stage_profile` is wall clock by design.
  std::vector<obs::TraceEvent> trace;
  obs::MetricsSnapshot metrics_snapshot;
  obs::StageProfile stage_profile;

  // Graceful-shutdown outcome: true when any worker stopped on a shutdown
  // request. The run is quiescent and resumable from `cursors` (one per
  // worker; workers that finished naturally carry their end-of-walk
  // cursor, which fast-forwards to "nothing left" on resume).
  bool interrupted = false;
  bool resumed = false;  // this run was seeded from a checkpoint
  std::vector<scan::ScanCursor> cursors;
};

// Runs the scan across config.threads workers and blocks until every
// worker finished and results are merged.
[[nodiscard]] EngineResult run_parallel_scan(const EngineConfig& config);

}  // namespace xmap::engine

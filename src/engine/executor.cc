#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "engine/bounded_queue.h"
#include "netbase/pool.h"

namespace xmap::engine {
namespace {

EngineResult fail(std::string message) {
  EngineResult result;
  result.ok = false;
  result.error = std::move(message);
  return result;
}

// Worker-local record batch size. Small enough that a batch never exceeds
// the queue's backpressure bound (queue_capacity defaults to 4096), large
// enough to amortize the queue mutex to noise.
constexpr std::size_t kRecordFlushThreshold = 256;

// Default targets (every block of the world). Window placement is a pure
// function of the spec, so this costs nothing — no throwaway world build on
// the main thread (which would be a serial prefix as long as one worker's
// whole replica build).
std::vector<scan::TargetSpec> default_targets(const EngineConfig& config) {
  std::vector<scan::TargetSpec> targets;
  targets.reserve(config.world_specs.size());
  for (const auto& spec : config.world_specs) {
    const topo::ScanWindow window =
        topo::scan_window(spec, config.build.window_bits);
    targets.push_back(scan::TargetSpec{window.scan_base, window.window_lo,
                                       window.window_hi});
  }
  return targets;
}

std::uint64_t expected_targets(const std::vector<scan::TargetSpec>& targets,
                               int machine_shards) {
  net::Uint128 total{0};
  for (const auto& spec : targets) total = total + spec.count();
  const std::uint64_t capped =
      total.fits_u64() ? total.to_u64() : ~std::uint64_t{0};
  return capped / static_cast<std::uint64_t>(machine_shards);
}

}  // namespace

EngineResult run_parallel_scan(const EngineConfig& config) {
  if (config.module == nullptr) return fail("engine: no probe module");
  if (config.threads < 1 || config.threads > kMaxWorkers) {
    return fail("engine: threads must be in 1.." +
                std::to_string(kMaxWorkers));
  }
  if (config.scan.shards < 1 || config.scan.shard < 0 ||
      config.scan.shard >= config.scan.shards) {
    return fail("engine: invalid machine shard configuration");
  }
  if (config.world_specs.empty()) return fail("engine: empty world spec");

  const auto wall_start = std::chrono::steady_clock::now();
  const int threads = config.threads;

  scan::ScanConfig base = config.scan;
  // Every worker reads the one blocklist; build its indexes before they
  // start (see Blocklist::compile).
  if (base.blocklist != nullptr) base.blocklist->compile();
  if (base.targets.empty()) base.targets = default_targets(config);
  base.shutdown_flag = config.shutdown_flag;
  base.shutdown_at_raw_slot = config.shutdown_at_raw_slot;
  if (base.max_probes != 0) {
    // Global target budget as a slot cut, computed once on the machine
    // shard's walk and shared by every worker: each worker stops at the
    // same permutation index regardless of --threads, so a capped scan is
    // byte-identical at any thread count (per-worker budget shares were
    // not).
    base.budget_cut_raw_slot =
        scan::compute_budget_cut(base.targets, base.seed, base.blocklist,
                                 base.max_probes, base.shard, base.shards);
    base.max_probes = 0;  // fully encoded in the cut; don't recompute
  }

  scan::ScanProgress progress;
  MonitorOptions monitor_options;
  monitor_options.out = config.status_out;
  monitor_options.interval_ms = config.status_interval_ms;
  monitor_options.expected_targets =
      expected_targets(base.targets, config.scan.shards);
  monitor_options.workers = threads;
  Monitor monitor{progress, monitor_options};

  BoundedQueue<EngineRecord> queue{config.queue_capacity};
  std::vector<WorkerReport> reports(static_cast<std::size_t>(threads));
  std::atomic<int> active{threads};

  // Mid-flight checkpoint rendezvous: workers publish stable cursors here
  // (cheap — once per checkpoint interval); the collector assembles a
  // checkpoint once every worker has published.
  struct PublishedCursor {
    std::mutex mu;
    scan::ScanCursor cursor;
    bool valid = false;
  };
  const bool periodic_checkpoints =
      config.checkpoint_interval_targets != 0 &&
      config.checkpoint_sink != nullptr;
  std::vector<std::unique_ptr<PublishedCursor>> published;
  for (int w = 0; w < threads; ++w) {
    published.push_back(std::make_unique<PublishedCursor>());
  }
  std::atomic<std::uint64_t> publish_epoch{0};

  // Per-worker observability sinks, thread-confined like everything else a
  // worker touches; merged deterministically after join. The fixed-size
  // vectors never reallocate, so the per-worker pointers stay stable.
  const bool tracing = config.obs.trace_level != obs::TraceLevel::kOff;
  std::vector<obs::TraceBuffer> traces(
      static_cast<std::size_t>(threads),
      obs::TraceBuffer{config.obs.trace_level});
  std::vector<obs::MetricsShard> shards(static_cast<std::size_t>(threads));
  std::vector<obs::StageProfile> profiles(static_cast<std::size_t>(threads));
  obs::MetricsShard main_shard;     // collector-side (main thread) series
  obs::StageProfile main_profile;   // collector-side merge timing

  const auto worker_body = [&](int w) {
    obs::TraceBuffer* trace = tracing ? &traces[static_cast<std::size_t>(w)]
                                      : nullptr;
    obs::MetricsShard* metrics =
        config.obs.metrics ? &shards[static_cast<std::size_t>(w)] : nullptr;
    obs::StageProfile* profile =
        config.obs.profile ? &profiles[static_cast<std::size_t>(w)] : nullptr;

    // Thread-confined deterministic replica: every worker builds the same
    // world from the same specs and seed, then walks its own sub-shard of
    // the permutation. No state is shared with other workers except the
    // result queue and the progress atomics.
    sim::Network net{config.build.seed};
    net.set_obs(trace, metrics);
    auto internet = [&] {
      obs::ScopedStageTimer build_timer{profile, obs::Stage::kBuild};
      return topo::build_internet(net, config.world_specs, config.vendors,
                                  config.build);
    }();
    if (config.faults.any()) {
      sim::FaultInjector* injector = net.install_faults(config.faults);
      // Every periphery device is a silent-window candidate; the injector
      // picks the configured fraction with a keyed per-node coin, so the
      // selection is identical in every replica.
      std::vector<sim::NodeId> candidates;
      for (const auto& isp : internet.isps) {
        for (const auto& device : isp.devices) {
          candidates.push_back(device.node);
        }
      }
      injector->choose_silent(candidates);
    }
    scan::ScanConfig wcfg = base;
    wcfg.shard = config.scan.shard * threads + w;
    wcfg.shards = config.scan.shards * threads;
    if (config.resume != nullptr &&
        static_cast<std::size_t>(w) < config.resume->cursors.size()) {
      wcfg.resume_spec_steps = config.resume->cursors[w].spec_steps;
    }

    auto* scanner =
        net.make_node<scan::SimChannelScanner>(wcfg, *config.module);
    const int iface =
        topo::attach_vantage(net, internet, scanner, config.vantage);
    scanner->set_iface(iface);
    scanner->set_progress(&progress);
    scanner->set_obs(config.obs, trace, metrics, profile);
    // Records accumulate thread-locally and cross to the collector in
    // batches: one queue lock round-trip per flush instead of per record.
    // Flush points are load-bearing, not just periodic: a published cursor
    // claims every record below it has already reached the collector, so
    // the buffer MUST drain before each publication (and after the run).
    std::vector<EngineRecord> local_records;
    local_records.reserve(kRecordFlushThreshold);
    const auto flush_records = [&queue, &local_records] {
      if (local_records.empty()) return;
      queue.push_many(local_records.begin(), local_records.end());
      local_records.clear();
    };
    scanner->on_response_slotted(
        [&local_records, &flush_records, w](const scan::ProbeResponse& r,
                                            sim::SimTime when,
                                            std::uint64_t raw_slot) {
          local_records.push_back(EngineRecord{r, when, w, raw_slot});
          if (local_records.size() >= kRecordFlushThreshold) flush_records();
        });
    if (periodic_checkpoints) {
      PublishedCursor* slot = published[static_cast<std::size_t>(w)].get();
      scanner->set_checkpoint_hook(
          config.checkpoint_interval_targets,
          [slot, &publish_epoch, &flush_records](
              const scan::ScanCursor& cursor) {
            flush_records();
            {
              std::lock_guard lock{slot->mu};
              slot->cursor = cursor;
              slot->valid = true;
            }
            publish_epoch.fetch_add(1, std::memory_order_release);
          });
    }
    scanner->start();
    const auto run_begin = std::chrono::steady_clock::now();
    net.run();
    flush_records();
    const auto run_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_begin)
            .count();

    if (metrics != nullptr) {
      // Wall-clock artifacts of this machine's scheduling and allocator
      // warm-up — flagged so the deterministic export skips them (the same
      // treatment as engine_queue_depth_peak below).
      const obs::Labels worker_label = {{"worker", std::to_string(w)}};
      *metrics->gauge("xmap_packet_rate", worker_label,
                      "Probes sent per wall-clock second by this worker",
                      /*wall_clock=*/true) =
          run_secs > 0 ? static_cast<std::uint64_t>(
                             static_cast<double>(scanner->stats().sent) /
                             run_secs)
                       : 0;
      const net::BytePool::Stats& pool = net::BytePool::local().stats();
      *metrics->gauge("pool_retained_bytes", worker_label,
                      "Arena bytes retained by this worker's BytePool",
                      /*wall_clock=*/true) = pool.retained_bytes;
      *metrics->gauge("pool_recycled_blocks", worker_label,
                      "Allocations served from the worker pool free lists",
                      /*wall_clock=*/true) = pool.recycled;
      *metrics->gauge("pool_heap_allocs", worker_label,
                      "Worker pool falls-through to the global heap",
                      /*wall_clock=*/true) = pool.heap_allocs;
    }

    WorkerReport& report = reports[static_cast<std::size_t>(w)];
    report.stats = scanner->stats();
    report.sim_duration = net.now();
    report.cursor = scanner->cursor();
    report.interrupted = scanner->interrupted();
  };

  const auto worker_main = [&](int w) {
    // Failure containment: a throwing worker must neither std::terminate
    // the process nor leave the collector blocked on an open queue. The
    // error is reported structurally; surviving workers' results stand.
    try {
      worker_body(w);
    } catch (const std::exception& e) {
      WorkerReport& report = reports[static_cast<std::size_t>(w)];
      report.failed = true;
      report.error = e.what();
      progress.workers_failed.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      WorkerReport& report = reports[static_cast<std::size_t>(w)];
      report.failed = true;
      report.error = "unknown exception";
      progress.workers_failed.fetch_add(1, std::memory_order_relaxed);
    }
    progress.workers_done.fetch_add(1, std::memory_order_relaxed);
    // The last worker out closes the queue so the collector loop drains
    // the tail and terminates.
    if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) queue.close();
  };

  monitor.start();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) workers.emplace_back(worker_main, w);

  // Collector: the main thread is ZMap's recv thread — single consumer of
  // the MPSC queue.
  EngineResult result;
  result.collector = scan::ResultCollector{config.alias_threshold};
  if (config.resume != nullptr) {
    // Seed the record stream with the checkpoint's collected responses;
    // the deterministic content sort below interleaves them with this
    // run's exactly as an uninterrupted run would have produced them.
    result.resumed = true;
    result.records = config.resume->records;
  }
  std::size_t queue_peak = 0;
  if (!periodic_checkpoints) {
    while (auto record = queue.pop()) {
      // +1 for the record just popped: peak occupancy as the consumer saw
      // it.
      queue_peak = std::max(queue_peak, queue.size() + 1);
      result.records.push_back(std::move(*record));
    }
  } else {
    std::uint64_t written_epoch = 0;
    const auto maybe_checkpoint = [&] {
      const std::uint64_t epoch =
          publish_epoch.load(std::memory_order_acquire);
      if (epoch == written_epoch) return;
      // Assemble a mid-flight checkpoint once every worker has published a
      // stable cursor. Records below each worker's cursor belong to
      // completed probe lifecycles (the cursor lags the send frontier by a
      // response horizon), so "filter by slot, re-scan from the cursor"
      // reproduces the uninterrupted output exactly.
      std::vector<scan::ScanCursor> cursors(
          static_cast<std::size_t>(threads));
      bool all_published = true;
      for (int w = 0; w < threads; ++w) {
        PublishedCursor* slot = published[static_cast<std::size_t>(w)].get();
        std::lock_guard lock{slot->mu};
        if (!slot->valid) {
          all_published = false;
          break;
        }
        cursors[static_cast<std::size_t>(w)] = slot->cursor;
      }
      if (!all_published) return;
      written_epoch = epoch;
      // Cursors were published before their workers pushed any record at
      // or above them; drain the queue to empty so every record below a
      // cursor is in hand before filtering.
      while (auto tail = queue.try_pop()) {
        result.records.push_back(std::move(*tail));
      }
      recover::CheckpointState state;
      state.quiescent = false;
      state.signal = 0;
      state.stats = progress.snapshot();
      if (config.resume != nullptr) state.stats += config.resume->stats;
      std::copy_if(result.records.begin(), result.records.end(),
                   std::back_inserter(state.records),
                   [&cursors](const EngineRecord& rec) {
                     const auto uw = static_cast<std::size_t>(rec.worker);
                     return uw < cursors.size() &&
                            rec.raw_slot < cursors[uw].frontier_slot;
                   });
      state.cursors = std::move(cursors);
      config.checkpoint_sink(state);
    };
    // Check the epoch on every iteration, not just on queue timeouts: a
    // fast scan can stream records without ever leaving a 20ms gap, and
    // its snapshots must still land.
    while (true) {
      auto record = queue.pop_for(std::chrono::milliseconds(20));
      if (record) {
        queue_peak = std::max(queue_peak, queue.size() + 1);
        result.records.push_back(std::move(*record));
        maybe_checkpoint();
        continue;
      }
      if (queue.drained()) break;
      maybe_checkpoint();
    }
  }
  for (auto& t : workers) t.join();

  for (const auto& report : reports) {
    result.interrupted = result.interrupted || report.interrupted;
    result.cursors.push_back(report.cursor);
  }
  monitor.set_interrupted(result.interrupted);
  monitor.stop();

  {
    // Deterministic merge order: worker sim clocks are deterministic, so a
    // content sort by (sim time, responder, probe, kind) yields a
    // byte-stable record stream regardless of real-time interleaving. The
    // worker index is only the final tiebreak — putting it before the
    // content fields would order same-time records by sharding and break
    // byte-identity across --threads values.
    obs::ScopedStageTimer merge_timer{
        config.obs.profile ? &main_profile : nullptr, obs::Stage::kMerge};
    std::sort(result.records.begin(), result.records.end(),
              [](const EngineRecord& a, const EngineRecord& b) {
                return std::tuple(a.when, a.response.responder,
                                  a.response.probe_dst,
                                  static_cast<int>(a.response.kind),
                                  a.worker) <
                       std::tuple(b.when, b.response.responder,
                                  b.response.probe_dst,
                                  static_cast<int>(b.response.kind),
                                  b.worker);
              });
    for (const auto& record : result.records) {
      result.collector.add(record.response);
    }
  }

  MetricsSummary summary;
  summary.threads = threads;
  for (const auto& report : reports) {
    result.stats += report.stats;
    summary.per_worker.push_back(report.stats);
    summary.worker_errors.push_back(report.error);
    if (report.failed) ++result.failed_workers;
    summary.sim_duration_ns =
        std::max<std::uint64_t>(summary.sim_duration_ns, report.sim_duration);
  }
  if (config.resume != nullptr) result.stats += config.resume->stats;
  summary.failed_workers = result.failed_workers;
  summary.interrupted = result.interrupted;
  summary.resumed = result.resumed;
  summary.checkpoint_file = config.checkpoint_file;
  result.workers = std::move(reports);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  summary.wall_seconds = result.wall_seconds;
  summary.merged = result.stats;
  summary.unique_responders = result.collector.unique_responders();
  summary.aliased_responders = result.collector.aliased().size();

  if (tracing) {
    std::vector<std::vector<obs::TraceEvent>> buffers;
    buffers.reserve(traces.size() + 1);
    for (auto& t : traces) buffers.push_back(t.take());
    if (config.resume != nullptr && config.resume->has_obs) {
      // The checkpoint's trace is just another buffer to the content sort:
      // the merged stream equals the uninterrupted run's.
      buffers.push_back(config.resume->trace);
    }
    result.trace = obs::merge_traces(std::move(buffers));
  }
  if (config.obs.metrics) {
    // Queue depth is a wall-clock artifact of scheduling, not of the scan:
    // flagged so the deterministic Prometheus export skips it.
    *main_shard.gauge("engine_queue_depth_peak", {},
                      "Peak result-queue occupancy seen by the collector",
                      /*wall_clock=*/true) =
        static_cast<std::uint64_t>(queue_peak);
    std::vector<const obs::MetricsShard*> shard_ptrs;
    shard_ptrs.reserve(shards.size() + 1);
    for (const auto& shard : shards) shard_ptrs.push_back(&shard);
    shard_ptrs.push_back(&main_shard);
    result.metrics_snapshot = obs::merge_shards(shard_ptrs);
    if (config.resume != nullptr && config.resume->has_obs) {
      result.metrics_snapshot = obs::merge_snapshots(
          {&config.resume->metrics, &result.metrics_snapshot});
    }
    summary.obs_metrics = result.metrics_snapshot;
  }
  if (config.obs.profile) {
    for (const auto& profile : profiles) result.stage_profile.merge(profile);
    result.stage_profile.merge(main_profile);
    summary.stage_profile = result.stage_profile;
  }

  result.metrics = metrics_json(summary);
  if (config.status_out != nullptr) {
    *config.status_out << result.metrics << '\n' << std::flush;
  }
  result.ok = true;
  return result;
}

}  // namespace xmap::engine

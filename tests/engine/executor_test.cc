// Integration tests for the parallel scan executor: shard completeness
// (no gaps, no double-probing), run-to-run determinism, exact stats
// merging, cap distribution, and monitor telemetry.
#include "engine/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "topology/paper_profiles.h"
#include "xmap/blocklist.h"
#include "xmap/results.h"

namespace xmap::engine {
namespace {

const net::Ipv6Address kScannerAddr = *net::Ipv6Address::parse("2001:500::1");
const net::Ipv6Prefix kVantagePrefix =
    *net::Ipv6Prefix::parse("2001:500::/48");

const scan::IcmpEchoProbe& shared_module() {
  static const scan::IcmpEchoProbe module{64};
  return module;
}

EngineConfig make_config(int threads) {
  EngineConfig cfg;
  cfg.world_specs = topo::paper::isp_specs();
  cfg.vendors = topo::paper::vendor_catalog();
  cfg.build.window_bits = 8;
  cfg.build.seed = 42;
  cfg.module = &shared_module();
  cfg.scan.source = kScannerAddr;
  cfg.scan.seed = 7;
  cfg.scan.probes_per_sec = 1e6;
  cfg.threads = threads;
  return cfg;
}

std::set<std::string> hop_set(const scan::ResultCollector& collector) {
  std::set<std::string> out;
  for (const auto& hop : collector.last_hops()) {
    out.insert(hop.address.to_string());
  }
  return out;
}

// The unsharded single-thread reference: the classic SimChannelScanner
// driven directly, exactly as the pre-engine tool path does.
struct Baseline {
  std::set<std::string> hops;
  std::set<std::string> aliased;
  scan::ScanStats stats;
};

Baseline classic_single_thread_scan() {
  sim::Network net{42};
  topo::BuildConfig bcfg;
  bcfg.window_bits = 8;
  bcfg.seed = 42;
  auto internet = topo::build_internet(net, topo::paper::isp_specs(),
                                       topo::paper::vendor_catalog(), bcfg);
  scan::ScanConfig cfg;
  for (const auto& isp : internet.isps) {
    cfg.targets.push_back(
        scan::TargetSpec{isp.scan_base, isp.window_lo, isp.window_hi});
  }
  cfg.source = kScannerAddr;
  cfg.seed = 7;
  cfg.probes_per_sec = 1e6;
  auto* scanner =
      net.make_node<scan::SimChannelScanner>(cfg, shared_module());
  const int iface =
      topo::attach_vantage(net, internet, scanner, kVantagePrefix);
  scanner->set_iface(iface);
  scan::ResultCollector collector;
  scanner->on_response(
      [&collector](const scan::ProbeResponse& r, sim::SimTime) {
        collector.add(r);
      });
  scanner->start();
  net.run();

  Baseline baseline;
  baseline.hops = hop_set(collector);
  for (const auto& hop : collector.aliased()) {
    baseline.aliased.insert(hop.address.to_string());
  }
  baseline.stats = scanner->stats();
  return baseline;
}

// Satellite requirement: for N in {2, 3, 8}, the union over all N worker
// shards equals the unsharded single-thread scan — no gaps, and the summed
// probe count proves no slot was probed twice.
TEST(ParallelExecutor, ShardCompletenessAcrossWorkerCounts) {
  const Baseline baseline = classic_single_thread_scan();
  ASSERT_GT(baseline.hops.size(), 500u);

  for (int threads : {2, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto result = run_parallel_scan(make_config(threads));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(hop_set(result.collector), baseline.hops);
    std::set<std::string> aliased;
    for (const auto& hop : result.collector.aliased()) {
      aliased.insert(hop.address.to_string());
    }
    EXPECT_EQ(aliased, baseline.aliased);
    // Partition, not duplication: the workers together sent exactly the
    // single-thread probe count and enumerated the same target total.
    EXPECT_EQ(result.stats.sent, baseline.stats.sent);
    EXPECT_EQ(result.stats.targets_generated,
              baseline.stats.targets_generated);
  }
}

// Satellite requirement: per-worker stats sum exactly to the single-thread
// totals (the simulator is lossless at default link parameters).
TEST(ParallelExecutor, WorkerStatsSumToSingleThreadTotals) {
  const Baseline baseline = classic_single_thread_scan();
  auto result = run_parallel_scan(make_config(4));
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.workers.size(), 4u);

  scan::ScanStats summed;
  for (const auto& worker : result.workers) summed += worker.stats;
  EXPECT_EQ(summed, result.stats);
  EXPECT_EQ(summed.sent, baseline.stats.sent);
  EXPECT_EQ(summed.targets_generated, baseline.stats.targets_generated);
  EXPECT_EQ(summed.received, baseline.stats.received);
  EXPECT_EQ(summed.validated, baseline.stats.validated);
  EXPECT_EQ(summed.discarded, baseline.stats.discarded);
  EXPECT_EQ(summed.blocked, baseline.stats.blocked);
}

std::string records_fingerprint(const EngineResult& result) {
  std::ostringstream out;
  for (const auto& record : result.records) {
    out << record.response.responder.to_string() << '|'
        << record.response.probe_dst.to_string() << '|' << record.when << '|'
        << record.worker << '\n';
  }
  return out.str();
}

// Acceptance: for a fixed seed, the merged result is byte-identical across
// runs for every thread count, and every thread count agrees with the
// single-thread set.
TEST(ParallelExecutor, DeterministicAcrossRunsAndThreadCounts) {
  const Baseline baseline = classic_single_thread_scan();
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto first = run_parallel_scan(make_config(threads));
    auto second = run_parallel_scan(make_config(threads));
    ASSERT_TRUE(first.ok && second.ok);
    EXPECT_EQ(records_fingerprint(first), records_fingerprint(second));
    EXPECT_EQ(first.stats, second.stats);
    EXPECT_EQ(hop_set(first.collector), baseline.hops);
  }
  // A blocklist every worker shares, handed over uncompiled: the engine
  // builds its lookup indexes before the workers start, so none of them
  // compiles it concurrently (a race the thread sanitizer reports).
  std::set<std::string> blocked_reference;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("blocklist, threads=" + std::to_string(threads));
    scan::Blocklist blocklist;
    blocklist.block(topo::scan_window(topo::paper::isp_specs()[0], 8).scan_base);
    EngineConfig cfg = make_config(threads);
    cfg.scan.blocklist = &blocklist;
    auto result = run_parallel_scan(cfg);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.stats.blocked, 0u);
    if (threads == 1) blocked_reference = hop_set(result.collector);
    EXPECT_EQ(hop_set(result.collector), blocked_reference);
    EXPECT_LT(blocked_reference.size(), baseline.hops.size());
  }
}

TEST(ParallelExecutor, MaxProbesIsAGlobalCap) {
  auto cfg = make_config(3);
  cfg.scan.max_probes = 10;
  auto result = run_parallel_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stats.sent, 10u);

  // Caps smaller than the worker count leave the surplus workers idle.
  cfg.threads = 8;
  cfg.scan.max_probes = 3;
  result = run_parallel_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stats.sent, 3u);
}

TEST(ParallelExecutor, ComposesWithMachineLevelShards) {
  // Machine shard s of 2, each with 2 workers: the union over both machine
  // shards must equal the whole scan (worker shards nest inside).
  const Baseline baseline = classic_single_thread_scan();
  std::set<std::string> all_hops;
  std::uint64_t sent = 0;
  for (int machine_shard = 0; machine_shard < 2; ++machine_shard) {
    auto cfg = make_config(2);
    cfg.scan.shard = machine_shard;
    cfg.scan.shards = 2;
    auto result = run_parallel_scan(cfg);
    ASSERT_TRUE(result.ok) << result.error;
    auto hops = hop_set(result.collector);
    all_hops.insert(hops.begin(), hops.end());
    sent += result.stats.sent;
  }
  EXPECT_EQ(sent, baseline.stats.sent);
  // Aliased responders can fall below threshold inside one machine shard,
  // so compare against the union of hops and aliased.
  std::set<std::string> expected = baseline.hops;
  expected.insert(baseline.aliased.begin(), baseline.aliased.end());
  for (const auto& hop : all_hops) {
    EXPECT_TRUE(expected.count(hop)) << "unexpected responder " << hop;
  }
  for (const auto& hop : baseline.hops) {
    EXPECT_TRUE(all_hops.count(hop)) << "lost responder " << hop;
  }
}

TEST(ParallelExecutor, MonitorEmitsStatusLinesAndJsonSummary) {
  std::ostringstream status;
  auto cfg = make_config(2);
  cfg.status_out = &status;
  cfg.status_interval_ms = 10;
  auto result = run_parallel_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;

  const std::string text = status.str();
  // At least the initial and the final status line, plus the JSON object.
  EXPECT_NE(text.find("send:"), std::string::npos) << text;
  EXPECT_NE(text.find("workers: 2/2 done"), std::string::npos) << text;
  EXPECT_NE(text.find("(done)"), std::string::npos) << text;
  EXPECT_NE(text.find("\"threads\":2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"per_worker\":["), std::string::npos) << text;
  // The snapshot the caller gets is the same one written to the stream.
  EXPECT_NE(text.find(result.metrics), std::string::npos);
  EXPECT_EQ(result.metrics.find("{"), 0u);
}

TEST(ParallelExecutor, RejectsBadConfigs) {
  auto cfg = make_config(0);
  EXPECT_FALSE(run_parallel_scan(cfg).ok);  // threads < 1

  cfg = make_config(2);
  cfg.module = nullptr;
  EXPECT_FALSE(run_parallel_scan(cfg).ok);

  cfg = make_config(2);
  cfg.scan.shard = 3;
  cfg.scan.shards = 2;
  EXPECT_FALSE(run_parallel_scan(cfg).ok);

  cfg = make_config(2);
  cfg.world_specs.clear();
  EXPECT_FALSE(run_parallel_scan(cfg).ok);
}

TEST(ParallelExecutor, TinyQueueStillCompletesViaBackpressure) {
  auto cfg = make_config(4);
  cfg.queue_capacity = 1;  // maximum backpressure
  auto result = run_parallel_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(hop_set(result.collector),
            classic_single_thread_scan().hops);
}

// Acceptance: with a fault plan installed, the merged record stream is
// identical for every thread count — fault fates are keyed by packet and
// time, not by worker call order.
TEST(ParallelExecutor, FaultsPreserveThreadCountDeterminism) {
  auto faulted = [](int threads) {
    auto cfg = make_config(threads);
    cfg.faults.access.loss = 0.2;
    cfg.faults.access.burst.rate_per_sec = 3.0;
    cfg.faults.access.burst.mean_ms = 60.0;
    cfg.faults.access.duplicate = 0.05;
    cfg.faults.access.corrupt = 0.02;
    cfg.faults.access.jitter_ms = 1.0;
    cfg.faults.silent.fraction = 0.05;
    cfg.scan.retries = 2;
    return run_parallel_scan(cfg);
  };
  auto reference = faulted(1);
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_GT(reference.stats.retransmits, 0u);
  const std::string expect = records_fingerprint(reference);
  for (int threads : {2, 5}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto result = faulted(threads);
    ASSERT_TRUE(result.ok) << result.error;
    // record.worker differs by construction; compare response streams.
    std::ostringstream a, b;
    for (const auto& r : reference.records) {
      a << r.response.responder.to_string() << '|'
        << r.response.probe_dst.to_string() << '|' << r.when << '\n';
    }
    for (const auto& r : result.records) {
      b << r.response.responder.to_string() << '|'
        << r.response.probe_dst.to_string() << '|' << r.when << '\n';
    }
    EXPECT_EQ(a.str(), b.str());
    // Stats invariants hold in aggregate too.
    EXPECT_EQ(result.stats.sent, reference.stats.sent);
    EXPECT_EQ(result.stats.validated, reference.stats.validated);
    EXPECT_EQ(result.stats.corrupted, reference.stats.corrupted);
    EXPECT_EQ(result.stats.duplicates, reference.stats.duplicates);
    EXPECT_EQ(result.stats.validated + result.stats.discarded +
                  result.stats.corrupted + result.stats.late,
              result.stats.received);
  }
  (void)expect;
}

// A probe module that throws on the first make_probe call that observes the
// trigger flag — exactly one worker hits it, the rest scan normally.
class ThrowingProbe final : public scan::ProbeModule {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] pkt::Bytes make_probe(const net::Ipv6Address& src,
                                      const net::Ipv6Address& target,
                                      std::uint64_t seed) const override {
    if (!armed_.test_and_set()) {
      throw std::runtime_error("injected probe-module failure");
    }
    return inner_.make_probe(src, target, seed);
  }
  [[nodiscard]] std::optional<scan::ProbeResponse> classify(
      const pkt::Bytes& packet, const net::Ipv6Address& src,
      std::uint64_t seed) const override {
    return inner_.classify(packet, src, seed);
  }

 private:
  scan::IcmpEchoProbe inner_{64};
  mutable std::atomic_flag armed_ = ATOMIC_FLAG_INIT;
};

// Satellite requirement: a throwing worker is contained — no
// std::terminate, a structured per-worker error, failed_workers surfaced in
// the result and the metrics JSON, and the remaining workers finish.
TEST(ParallelExecutor, WorkerExceptionIsContainedAndReported) {
  ThrowingProbe module;
  std::ostringstream status;
  auto cfg = make_config(4);
  cfg.module = &module;
  cfg.status_out = &status;
  auto result = run_parallel_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;

  EXPECT_EQ(result.failed_workers, 1);
  int failed = 0;
  for (const auto& worker : result.workers) {
    if (worker.failed) {
      ++failed;
      EXPECT_NE(worker.error.find("injected probe-module failure"),
                std::string::npos)
          << worker.error;
    } else {
      EXPECT_TRUE(worker.error.empty());
      EXPECT_GT(worker.stats.sent, 0u);  // survivors completed their shards
    }
  }
  EXPECT_EQ(failed, 1);

  const std::string text = status.str();
  EXPECT_NE(text.find("\"workers_failed\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("injected probe-module failure"), std::string::npos)
      << text;
  EXPECT_NE(text.find("FAILED"), std::string::npos) << text;
}

}  // namespace
}  // namespace xmap::engine

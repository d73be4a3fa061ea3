// TCP transport integration tests: byte-identical merged results over real
// sockets — clean runs, kill-and-migrate, kill-and-reconnect through the
// chaos proxy's kernel-level faults (mid-frame cuts, split/coalesced
// segments, stalls, one-direction blackholes) — plus the reconnect
// handshake's refusal paths (zombie, fingerprint mismatch) and transport
// setup diagnostics naming address and errno.
#include "fabric/tcp_transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "engine/executor.h"
#include "fabric/chaos_proxy.h"
#include "fabric/coordinator.h"
#include "fabric/protocol.h"
#include "topology/paper_profiles.h"

namespace xmap::fabric {
namespace {

const net::Ipv6Address kScannerAddr = *net::Ipv6Address::parse("2001:500::1");

const scan::IcmpEchoProbe& shared_module() {
  static const scan::IcmpEchoProbe module{64};
  return module;
}

FabricConfig make_config(int nodes, int shards = 4) {
  FabricConfig cfg;
  cfg.world_specs = topo::paper::isp_specs();
  cfg.vendors = topo::paper::vendor_catalog();
  cfg.build.window_bits = 8;
  cfg.build.seed = 42;
  cfg.module = &shared_module();
  cfg.scan.source = kScannerAddr;
  cfg.scan.seed = 7;
  cfg.scan.probes_per_sec = 1e6;
  cfg.nodes = nodes;
  cfg.shards = shards;
  return cfg;
}

FabricConfig make_tcp_config(int nodes, int shards = 4) {
  FabricConfig cfg = make_config(nodes, shards);
  cfg.transport = TransportKind::kTcp;
  return cfg;
}

std::string records_fingerprint(const FabricResult& result) {
  std::ostringstream out;
  for (const auto& rec : result.records) {
    out << rec.when << '|' << rec.response.responder.to_string() << '|'
        << rec.response.probe_dst.to_string() << '|'
        << int(rec.response.kind) << '|' << int(rec.response.icmp_code)
        << '|' << int(rec.response.hop_limit) << '|' << rec.shard << '|'
        << rec.raw_slot << '\n';
  }
  return out.str();
}

void expect_unique_slots(const FabricResult& result) {
  std::set<std::pair<int, std::uint64_t>> slots;
  for (const auto& rec : result.records) {
    EXPECT_TRUE(slots.emplace(rec.shard, rec.raw_slot).second)
        << "shard " << rec.shard << " slot " << rec.raw_slot
        << " appears twice";
  }
}

// Routes one worker's connection through a chaos proxy (the proxy targets
// the coordinator's actual bound address, discovered at tweak time).
void route_node_through_proxy(FabricConfig& cfg, int node,
                              ChaosProxyOptions proxy_opts,
                              std::unique_ptr<ChaosProxy>& proxy,
                              std::function<void(TcpWorkerOptions&)> extra =
                                  {}) {
  cfg.tcp_worker_tweak = [&proxy, node, proxy_opts = std::move(proxy_opts),
                          extra = std::move(extra)](
                             int n, TcpWorkerOptions& opts) mutable {
    if (n != node) return;
    proxy_opts.upstream = opts.connect_address;
    std::string error;
    proxy = ChaosProxy::create(std::move(proxy_opts), error);
    ASSERT_NE(proxy, nullptr) << error;
    opts.connect_address = proxy->address();
    if (extra) extra(opts);
  };
}

// --- Address parsing and socket setup --------------------------------------

TEST(TcpTransport, ParsesNumericAddresses) {
  sockaddr_storage ss{};
  socklen_t len = 0;
  std::string error;
  ASSERT_TRUE(parse_socket_address("127.0.0.1:8080", ss, len, error)) << error;
  EXPECT_EQ(ss.ss_family, AF_INET);
  EXPECT_EQ(format_socket_address(ss), "127.0.0.1:8080");

  ASSERT_TRUE(parse_socket_address("[::1]:443", ss, len, error)) << error;
  EXPECT_EQ(ss.ss_family, AF_INET6);
  EXPECT_EQ(format_socket_address(ss), "[::1]:443");
}

TEST(TcpTransport, RejectsBadAddressesNamingThem) {
  sockaddr_storage ss{};
  socklen_t len = 0;
  for (const char* bad : {"nohost", "127.0.0.1", "127.0.0.1:99999",
                          "example.com:80", "[::1]", ":80", "1.2.3.4:-1"}) {
    std::string error;
    EXPECT_FALSE(parse_socket_address(bad, ss, len, error)) << bad;
    EXPECT_NE(error.find(bad), std::string::npos) << error;
  }
}

TEST(TcpTransport, BindsEphemeralPortAndReportsIt) {
  std::string error;
  auto fabric = TcpFabric::create(1, "127.0.0.1:0", error);
  ASSERT_NE(fabric, nullptr) << error;
  EXPECT_NE(fabric->port(), 0);
  EXPECT_EQ(fabric->bound_address(),
            "127.0.0.1:" + std::to_string(fabric->port()));
}

// SO_REUSEADDR in effect: the port a just-destroyed fabric listened on
// (with accepted connections in TIME_WAIT) rebinds immediately.
TEST(TcpTransport, ReusesAddressAfterClose) {
  std::string error;
  std::uint16_t port = 0;
  {
    auto fabric = TcpFabric::create(1, "127.0.0.1:0", error);
    ASSERT_NE(fabric, nullptr) << error;
    port = fabric->port();
    TcpWorkerOptions opts;
    opts.connect_address = fabric->bound_address();
    opts.worker = 0;
    auto wt = TcpWorkerTransport::create(opts, error);
    ASSERT_NE(wt, nullptr) << error;
    auto rx = fabric->recv_any(1000);
    ASSERT_EQ(rx.status, RecvStatus::kFrame);
    fabric->close_all();
  }
  auto again =
      TcpFabric::create(1, "127.0.0.1:" + std::to_string(port), error);
  EXPECT_NE(again, nullptr) << error;
}

TEST(TcpTransport, BindFailureNamesAddressAndErrno) {
  std::string error;
  auto fabric = TcpFabric::create(1, "203.0.113.7:9", error);
  EXPECT_EQ(fabric, nullptr);
  EXPECT_NE(error.find("203.0.113.7:9"), std::string::npos) << error;
  EXPECT_NE(error.find("errno"), std::string::npos) << error;
}

TEST(TcpTransport, ConnectFailureNamesAddressAndErrno) {
  TcpWorkerOptions opts;
  opts.connect_address = "127.0.0.1:1";  // reserved, nothing listens
  opts.worker = 0;
  opts.connect_timeout_ms = 500;
  std::string error;
  auto wt = TcpWorkerTransport::create(opts, error);
  EXPECT_EQ(wt, nullptr);
  EXPECT_NE(error.find("127.0.0.1:1"), std::string::npos) << error;
  EXPECT_NE(error.find("errno"), std::string::npos) << error;
}

// The transport-level fencing mechanics, exercised directly: a refused
// rejoin latches the diagnostic and the connection drops; a banned worker
// cannot rebind.
TEST(TcpTransport, RefusalLatchesDiagnosticAndFencesWorker) {
  std::string error;
  auto fabric = TcpFabric::create(2, "127.0.0.1:0", error);
  ASSERT_NE(fabric, nullptr) << error;
  TcpWorkerOptions opts;
  opts.connect_address = fabric->bound_address();
  opts.worker = 1;
  opts.fingerprint = 0xabcULL;
  opts.reconnect_window_ms = 300;
  auto wt = TcpWorkerTransport::create(opts, error);
  ASSERT_NE(wt, nullptr) << error;

  auto rx = fabric->recv_any(2000);
  ASSERT_EQ(rx.status, RecvStatus::kFrame);
  EXPECT_EQ(rx.worker, 1);
  auto decoded = decode_frame(rx.frame);
  ASSERT_TRUE(decoded.message.has_value()) << decoded.error;
  EXPECT_EQ(decoded.message->type, MsgType::kRejoin);
  EXPECT_EQ(decoded.message->worker, 1u);
  EXPECT_EQ(decoded.message->fingerprint, 0xabcULL);
  EXPECT_FALSE(decoded.message->has_lease);

  Message refused;
  refused.type = MsgType::kRejoinRefused;
  refused.worker = 1;
  refused.diagnostic = "zombie: worker was declared dead";
  ASSERT_TRUE(fabric->send_to(1, encode_frame(refused)));
  fabric->drop_worker(1);

  // The worker sees the refusal as a permanent failure: recv turns kClosed
  // and the diagnostic is latched.
  auto got = wt->recv(2000);
  EXPECT_EQ(got.status, RecvStatus::kClosed);
  EXPECT_NE(wt->refusal().find("zombie"), std::string::npos)
      << wt->refusal();
  fabric->close_all();
}

// A relay whose upstream is gone still accepts, then hangs up without a
// word. Those silent accepts must not restart the reconnect window: the
// worker latches closed once the window has passed since it last heard
// its coordinator, instead of redialling the relay forever.
TEST(TcpTransport, SilentAcceptsDoNotExtendReconnectWindow) {
  std::string error;
  auto fabric = TcpFabric::create(1, "127.0.0.1:0", error);
  ASSERT_NE(fabric, nullptr) << error;
  ChaosProxyOptions popts;
  popts.upstream = fabric->bound_address();
  auto proxy = ChaosProxy::create(popts, error);
  ASSERT_NE(proxy, nullptr) << error;
  TcpWorkerOptions opts;
  opts.connect_address = proxy->address();
  opts.worker = 0;
  opts.reconnect_window_ms = 300;
  auto wt = TcpWorkerTransport::create(opts, error);
  ASSERT_NE(wt, nullptr) << error;
  ASSERT_EQ(fabric->recv_any(2000).status, RecvStatus::kFrame);  // kRejoin
  Message ack;
  ack.type = MsgType::kAck;
  ASSERT_TRUE(fabric->send_to(0, encode_frame(ack)));
  ASSERT_EQ(wt->recv(2000).status, RecvStatus::kFrame);

  fabric.reset();  // the coordinator is gone; the relay keeps accepting
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  RecvStatus status = RecvStatus::kTimeout;
  while (status != RecvStatus::kClosed &&
         std::chrono::steady_clock::now() < deadline) {
    status = wt->recv(50).status;
  }
  EXPECT_EQ(status, RecvStatus::kClosed);
  proxy->stop();
}

// --- Clean byte identity ---------------------------------------------------

// The tentpole acceptance: over real sockets the merged output is
// byte-identical to the loopback fabric at 1 node, at N nodes, and to the
// parallel engine at the same shard count.
TEST(TcpFabric, ByteIdenticalAcrossTransportsNodesAndEngine) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_GT(reference.records.size(), 500u);
  const std::string expect = records_fingerprint(reference);

  for (int nodes : {1, 3}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    auto result = run_fabric_scan(make_tcp_config(nodes));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(records_fingerprint(result), expect);
    EXPECT_EQ(result.stats, reference.stats);
    EXPECT_EQ(result.dead_workers, 0);
    EXPECT_EQ(result.reconnects, 0u);
    // Every frame crossed the kernel: the byte counters prove it.
    EXPECT_GT(result.bytes_sent, 0u);
    EXPECT_GT(result.bytes_received, 0u);
  }

  engine::EngineConfig ecfg;
  ecfg.world_specs = topo::paper::isp_specs();
  ecfg.vendors = topo::paper::vendor_catalog();
  ecfg.build.window_bits = 8;
  ecfg.build.seed = 42;
  ecfg.module = &shared_module();
  ecfg.scan.source = kScannerAddr;
  ecfg.scan.seed = 7;
  ecfg.scan.probes_per_sec = 1e6;
  ecfg.threads = 4;  // == the fabric shard count
  auto engine = engine::run_parallel_scan(ecfg);
  ASSERT_TRUE(engine.ok) << engine.error;
  auto tcp = run_fabric_scan(make_tcp_config(2));
  ASSERT_TRUE(tcp.ok) << tcp.error;
  ASSERT_EQ(tcp.records.size(), engine.records.size());
  for (std::size_t i = 0; i < tcp.records.size(); ++i) {
    EXPECT_EQ(tcp.records[i].response.responder,
              engine.records[i].response.responder);
    EXPECT_EQ(tcp.records[i].when, engine.records[i].when);
    EXPECT_EQ(tcp.records[i].shard, engine.records[i].worker);
    EXPECT_EQ(tcp.records[i].raw_slot, engine.records[i].raw_slot);
  }
}

// --- Kill and migrate over sockets -----------------------------------------

// A worker killed mid-shard with its connection closed: over TCP the FIN is
// only a link-down hint — the heartbeat timeout declares death — and the
// survivor resumes from the last streamed checkpoint, byte-identically.
TEST(TcpFabric, KillAndMigrateIsByteIdentical) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;
  const std::string expect = records_fingerprint(reference);

  auto cfg = make_tcp_config(4);
  cfg.checkpoint_interval_targets = 64;
  cfg.fabric_faults.kills.push_back(
      sim::FabricFaultPlan::Kill{1, 600, /*close_transport=*/true});
  std::ostringstream log;
  cfg.log = &log;
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed) << log.str();
  EXPECT_EQ(records_fingerprint(result), expect) << log.str();
  EXPECT_EQ(result.dead_workers, 1);
  EXPECT_GE(result.reassignments, 1u);
  expect_unique_slots(result);
}

// A silent crash (no close): the socket stays open — the half-open peer —
// and only heartbeat silence reveals the death.
TEST(TcpFabric, SilentCrashHalfOpenSocketFailsOver) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = make_tcp_config(3);
  cfg.fabric_faults.kills.push_back(
      sim::FabricFaultPlan::Kill{2, 400, /*close_transport=*/false});
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
  EXPECT_EQ(result.dead_workers, 1);
  expect_unique_slots(result);
}

// --- Chaos proxy: kernel-level stream faults -------------------------------

// Mid-frame connection cut, then kill-and-reconnect: the rejoined worker
// resumes its own lease — no failover, no re-probe below its cursor, and
// the torn frame the coordinator held is discarded with the dead stream.
TEST(TcpFabric, ChaosCutMidFrameReconnectsWithoutFailover) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = make_tcp_config(2);
  std::unique_ptr<ChaosProxy> proxy;
  ChaosProxyOptions popts;
  popts.cut_connection = 0;  // node 1's first connection through this proxy
  popts.cut_after_frames = 4;
  popts.cut_frame_bytes = 3;  // strictly inside the next frame's header
  route_node_through_proxy(cfg, 1, popts, proxy);
  std::ostringstream log;
  cfg.log = &log;
  auto result = run_fabric_scan(cfg);
  proxy->stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed) << log.str();
  EXPECT_EQ(proxy->cuts(), 1u);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference))
      << log.str();
  // The acceptance criterion: a reconnect, not a failover — the worker
  // kept its lease and its in-flight shard state.
  EXPECT_GE(result.reconnects, 1u);
  EXPECT_EQ(result.reassignments, 0u) << log.str();
  EXPECT_EQ(result.dead_workers, 0) << log.str();
  EXPECT_NE(log.str().find("rejoined"), std::string::npos) << log.str();
  expect_unique_slots(result);
}

// Pathological segmentation: every chunk re-split to at most 7 bytes, so
// frame headers and bodies arrive in fragments.
TEST(TcpFabric, ChaosSplitSegmentsAreByteIdentical) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = make_tcp_config(2);
  std::unique_ptr<ChaosProxy> proxy;
  ChaosProxyOptions popts;
  popts.split_max_bytes = 7;
  route_node_through_proxy(cfg, 1, popts, proxy);
  auto result = run_fabric_scan(cfg);
  proxy->stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
  EXPECT_EQ(result.dead_workers, 0);
}

// Coalesced delivery: bytes held until 4 KiB batches, so single reads hand
// the reassembler many frames at once.
TEST(TcpFabric, ChaosCoalescedSegmentsAreByteIdentical) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = make_tcp_config(2);
  std::unique_ptr<ChaosProxy> proxy;
  ChaosProxyOptions popts;
  popts.coalesce_min_bytes = 4096;
  popts.coalesce_hold_ms = 5;
  route_node_through_proxy(cfg, 1, popts, proxy);
  auto result = run_fabric_scan(cfg);
  proxy->stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
  EXPECT_EQ(result.dead_workers, 0);
}

// Seeded byte-level stalls well under the heartbeat timeout: jittered
// delivery, identical bytes.
TEST(TcpFabric, ChaosStallsAreByteIdentical) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = make_tcp_config(2);
  std::unique_ptr<ChaosProxy> proxy;
  ChaosProxyOptions popts;
  popts.seed = 7;
  popts.stall_probability = 0.3;
  popts.stall_ms = 20;
  route_node_through_proxy(cfg, 1, popts, proxy);
  auto result = run_fabric_scan(cfg);
  proxy->stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
  EXPECT_EQ(result.dead_workers, 0);
}

// One-direction blackhole: the worker's uplink silently discards forever —
// the half-open peer only the heartbeat timeout can catch. Its shard fails
// over; the merge is still byte-identical.
TEST(TcpFabric, ChaosBlackholeTriggersFailover) {
  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;

  auto cfg = make_tcp_config(2);
  std::unique_ptr<ChaosProxy> proxy;
  ChaosProxyOptions popts;
  popts.blackhole_connection = 0;
  popts.blackhole_up = true;
  popts.blackhole_after_bytes = 600;
  route_node_through_proxy(cfg, 1, popts, proxy);
  std::ostringstream log;
  cfg.log = &log;
  auto result = run_fabric_scan(cfg);
  proxy->stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed) << log.str();
  EXPECT_GT(proxy->blackholed_bytes(), 0u);
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference))
      << log.str();
  EXPECT_EQ(result.dead_workers, 1);
  EXPECT_GE(result.reassignments, 1u);
  expect_unique_slots(result);
}

// --- Reconnect handshake refusals ------------------------------------------

// A worker whose stored fingerprint disagrees with the coordinator's is
// refused at its first handshake, with both hashes in the diagnostic.
TEST(TcpFabric, FingerprintMismatchRefusedWithStoredAndComputed) {
  auto cfg = make_tcp_config(2);
  cfg.tcp_worker_tweak = [](int node, TcpWorkerOptions& opts) {
    if (node == 1) opts.fingerprint ^= 0x1;
  };
  std::ostringstream log;
  cfg.log = &log;
  auto result = run_fabric_scan(cfg);
  ASSERT_TRUE(result.ok) << result.error;
  // Node 0 absorbs every shard; the run completes without node 1.
  EXPECT_FALSE(result.failed) << log.str();
  EXPECT_EQ(result.dead_workers, 1);
  bool saw = false;
  for (const auto& err : result.worker_errors) {
    if (err.find("fingerprint mismatch") == std::string::npos) continue;
    saw = true;
    EXPECT_NE(err.find("stored 0x"), std::string::npos) << err;
    EXPECT_NE(err.find("computed 0x"), std::string::npos) << err;
  }
  EXPECT_TRUE(saw) << log.str();

  auto reference = run_fabric_scan(make_config(1));
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
}

// A zombie: the worker's link is cut and its reconnect delay outlasts the
// heartbeat timeout, so the coordinator declares it dead and migrates its
// lease first. The late rejoin — proving a now-stale epoch — is refused
// and the worker is fenced; the merge stays byte-identical. The shard
// count is sized so the survivor is still grinding when the zombie knocks
// ~150 ms after the cut: one node clears 0.7-1.1 ms of shard round trips
// per shard, so 1024 shards keep it busy for 0.7 s or more. At 192 the
// survivor could finish first and the knock never came.
TEST(TcpFabric, ZombieRejoinRefusedWithStaleEpoch) {
  const int kShards = 1024;
  auto cfg = make_tcp_config(2, kShards);
  cfg.heartbeat_interval_ms = 10;
  cfg.heartbeat_timeout_ms = 100;
  std::unique_ptr<ChaosProxy> proxy;
  ChaosProxyOptions popts;
  popts.cut_connection = 0;
  popts.cut_after_frames = 4;
  route_node_through_proxy(cfg, 1, popts, proxy,
                           [](TcpWorkerOptions& opts) {
                             opts.reconnect_delay_ms = 150;
                             opts.reconnect_window_ms = 5000;
                           });
  std::ostringstream log;
  cfg.log = &log;
  auto result = run_fabric_scan(cfg);
  proxy->stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.failed) << log.str();
  EXPECT_EQ(result.dead_workers, 1) << log.str();
  EXPECT_GE(result.reassignments, 1u);
  bool saw = false;
  for (const auto& err : result.worker_errors) {
    if (err.find("rejoin refused") != std::string::npos &&
        err.find("zombie") != std::string::npos) {
      saw = true;
    }
  }
  EXPECT_TRUE(saw) << log.str();
  expect_unique_slots(result);

  auto reference = run_fabric_scan(make_config(1, kShards));
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_EQ(records_fingerprint(result), records_fingerprint(reference));
}

// --- Config validation -----------------------------------------------------

TEST(TcpFabric, RefusesLoopbackMessageFaults) {
  auto cfg = make_tcp_config(2);
  cfg.fabric_faults.messages.duplicate = 0.5;
  auto result = run_fabric_scan(cfg);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("chaos proxy"), std::string::npos)
      << result.error;
}

TEST(TcpFabric, BindFailureFailsRunNamingAddressAndErrno) {
  auto cfg = make_tcp_config(1);
  cfg.listen_address = "203.0.113.7:9";
  auto result = run_fabric_scan(cfg);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("203.0.113.7:9"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("errno"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace xmap::fabric

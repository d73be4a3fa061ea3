// Unit tests for the checkpoint state format: exact serialize/parse
// round-trips (records, cursors, trace events, metrics with histograms),
// field-precise fingerprint diffs, version/truncation/field rejection, and
// the atomic file writer. Every-offset truncation and every-bit flips are
// in tests/fuzz/checkpoint_fuzz_test.cc.
#include "recover/state.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "netbase/codec.h"
#include "recover/checkpoint.h"

namespace xmap::recover {
namespace {

Fingerprint sample_fingerprint() {
  Fingerprint fp;
  fp.seed = 7;
  fp.world = "bgp:4";
  fp.window_bits = 8;
  fp.probe_module = "tcp_syn:443";
  fp.rate_pps = 12345.678;
  fp.shard = 1;
  fp.shards = 3;
  fp.threads = 4;
  fp.retries = 2;
  fp.retry_spacing_ms = 33.25;
  fp.cooldown_secs = 1.5;
  fp.max_probes = 999;
  fp.adaptive_rate = false;
  fp.output_format = "jsonl";
  fp.blocklist_hash = 0xdeadbeefcafef00dULL;
  fp.fault_plan_hash = 0x123456789abcdef0ULL;
  fp.targets = {"2001:db8::/16-24", "2001:db8:1::/16-24"};
  return fp;
}

CheckpointState sample_state() {
  CheckpointState state;
  state.quiescent = true;
  state.signal = 15;
  state.fingerprint = sample_fingerprint();
  state.stats.targets_generated = 100;
  state.stats.blocked = 3;
  state.stats.sent = 97;
  state.stats.received = 60;
  state.stats.validated = 55;
  state.stats.discarded = 5;
  state.stats.retransmits = 10;
  state.stats.duplicates = 2;
  state.stats.corrupted = 1;
  state.stats.late = 4;
  state.stats.rate_adjustments = 0;
  state.stats.first_send = 1000;
  state.stats.last_send = 999000;

  // One cursor per worker (fp threads 4).
  state.cursors.push_back(scan::ScanCursor{{12, 34}, 40});
  state.cursors.push_back(scan::ScanCursor{{13, 33}, 41});
  state.cursors.push_back(scan::ScanCursor{{14, 32}, 42});
  state.cursors.push_back(scan::ScanCursor{{15, 31}, 43});

  CheckpointRecord record;
  record.response.kind = scan::ResponseKind::kEchoReply;
  record.response.responder = *net::Ipv6Address::parse("2001:db8::1");
  record.response.probe_dst = *net::Ipv6Address::parse("2001:db8::2");
  record.response.icmp_code = 3;
  record.response.hop_limit = 57;
  record.when = 123456789;
  record.worker = 1;
  record.raw_slot = 77;
  state.records.push_back(record);
  record.response.kind = scan::ResponseKind::kDestUnreachable;
  record.worker = 0;
  record.raw_slot = 12;
  state.records.push_back(record);

  state.has_obs = true;
  obs::TraceEvent event;
  event.ts = 42;
  event.dur = 7;
  event.name = "probe_sent";
  event.cat = "scan";
  event.addr1_key = "target";
  event.addr1 = *net::Ipv6Address::parse("2001:db8::9");
  event.str_key = "note";
  event.str_val = "with space";
  event.i0.key = "slot";
  event.i0.value = 99;
  event.i1.key = "";  // empty, not null: must come back as ""
  state.trace.push_back(event);

  obs::MetricsSnapshot::Entry counter;
  counter.name = "probes_sent_total";
  counter.labels = {{"module", "tcp syn"}, {"stage", "-"}};
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 97;
  counter.help = "Probes handed to the channel";
  state.metrics.entries.push_back(counter);

  obs::MetricsSnapshot::Entry histogram;
  histogram.name = "rtt_us";
  histogram.kind = obs::MetricKind::kHistogram;
  histogram.help = "-";
  histogram.histogram =
      obs::Histogram::from_parts({10, 100, 1000}, {1, 2, 3, 4}, 4321, 10);
  state.metrics.entries.push_back(histogram);
  return state;
}

TEST(CheckpointState, RoundTripsExactly) {
  const CheckpointState state = sample_state();
  const std::string text = serialize_checkpoint(state);
  auto parsed = parse_checkpoint(text);
  ASSERT_TRUE(parsed.state.has_value()) << parsed.error;
  const CheckpointState& back = *parsed.state;

  EXPECT_EQ(back.version, kCheckpointVersion);
  EXPECT_EQ(back.quiescent, state.quiescent);
  EXPECT_EQ(back.signal, state.signal);
  EXPECT_EQ(back.fingerprint, state.fingerprint);
  EXPECT_EQ(back.stats, state.stats);

  ASSERT_EQ(back.cursors.size(), 4u);
  EXPECT_EQ(back.cursors[0].spec_steps, state.cursors[0].spec_steps);
  EXPECT_EQ(back.cursors[0].frontier_slot, 40u);
  EXPECT_EQ(back.cursors[1].spec_steps, state.cursors[1].spec_steps);

  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].response.kind, scan::ResponseKind::kEchoReply);
  EXPECT_EQ(back.records[0].response.responder.to_string(), "2001:db8::1");
  EXPECT_EQ(back.records[0].response.probe_dst.to_string(), "2001:db8::2");
  EXPECT_EQ(back.records[0].response.icmp_code, 3);
  EXPECT_EQ(back.records[0].response.hop_limit, 57);
  EXPECT_EQ(back.records[0].when, 123456789u);
  EXPECT_EQ(back.records[0].worker, 1);
  EXPECT_EQ(back.records[0].raw_slot, 77u);
  EXPECT_EQ(back.records[1].worker, 0);

  ASSERT_TRUE(back.has_obs);
  ASSERT_EQ(back.trace.size(), 1u);
  EXPECT_EQ(back.trace[0].ts, 42u);
  EXPECT_EQ(back.trace[0].dur, 7u);
  EXPECT_STREQ(back.trace[0].name, "probe_sent");
  EXPECT_STREQ(back.trace[0].cat, "scan");
  EXPECT_STREQ(back.trace[0].addr1_key, "target");
  EXPECT_EQ(back.trace[0].addr1.to_string(), "2001:db8::9");
  EXPECT_EQ(back.trace[0].addr2_key, nullptr);
  EXPECT_STREQ(back.trace[0].str_val, "with space");
  EXPECT_STREQ(back.trace[0].i0.key, "slot");
  EXPECT_EQ(back.trace[0].i0.value, 99u);
  ASSERT_NE(back.trace[0].i1.key, nullptr);
  EXPECT_STREQ(back.trace[0].i1.key, "");
  EXPECT_EQ(back.trace[0].i2.key, nullptr);

  ASSERT_EQ(back.metrics.entries.size(), 2u);
  EXPECT_EQ(back.metrics.entries[0].name, "probes_sent_total");
  ASSERT_EQ(back.metrics.entries[0].labels.size(), 2u);
  EXPECT_EQ(back.metrics.entries[0].labels[0].second, "tcp syn");
  EXPECT_EQ(back.metrics.entries[0].labels[1].second, "-");
  EXPECT_EQ(back.metrics.entries[0].value, 97u);
  EXPECT_EQ(back.metrics.entries[0].help, "Probes handed to the channel");
  const auto& h = back.metrics.entries[1];
  EXPECT_EQ(h.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(h.help, "-");
  ASSERT_TRUE(h.histogram.has_value());
  EXPECT_EQ(h.histogram->bounds(), (std::vector<std::uint64_t>{10, 100, 1000}));
  EXPECT_EQ(h.histogram->counts(), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(h.histogram->sum(), 4321u);
  EXPECT_EQ(h.histogram->count(), 10u);

  // Serialization is a fixed point: parse(serialize(x)) serializes back to
  // the same bytes.
  EXPECT_EQ(serialize_checkpoint(back), text);
}

TEST(CheckpointState, RoundTripsWithoutObs) {
  CheckpointState state = sample_state();
  state.quiescent = false;
  state.signal = 0;
  state.has_obs = false;
  state.trace.clear();
  state.metrics.entries.clear();
  auto parsed = parse_checkpoint(serialize_checkpoint(state));
  ASSERT_TRUE(parsed.state.has_value()) << parsed.error;
  EXPECT_FALSE(parsed.state->quiescent);
  EXPECT_FALSE(parsed.state->has_obs);
  EXPECT_TRUE(parsed.state->trace.empty());
  EXPECT_TRUE(parsed.state->metrics.entries.empty());
}

TEST(CheckpointState, ExactDoubleRoundTrip) {
  CheckpointState state = sample_state();
  state.fingerprint.rate_pps = 0.1;  // not exactly representable in decimal
  state.fingerprint.retry_spacing_ms = 1.0 / 3.0;
  auto parsed = parse_checkpoint(serialize_checkpoint(state));
  ASSERT_TRUE(parsed.state.has_value()) << parsed.error;
  EXPECT_EQ(parsed.state->fingerprint.rate_pps, 0.1);
  EXPECT_EQ(parsed.state->fingerprint.retry_spacing_ms, 1.0 / 3.0);
}

TEST(CheckpointState, RejectsUnknownVersion) {
  // Other versions (v1 is the pre-engine-only format, v2 the unchecksummed
  // text format) and malformed headers are refused with a diagnostic
  // naming the version as written.
  for (const char* version : {"v99", "v1", "v2", "v2junk", "v"}) {
    std::string text = serialize_checkpoint(sample_state());
    text.replace(0, text.find('\n'),
                 std::string{"xmap-checkpoint "} + version);
    auto parsed = parse_checkpoint(text);
    ASSERT_FALSE(parsed.state.has_value()) << version;
    const std::string named =
        std::string{version} == "v" ? "'v'" : std::string{version};
    EXPECT_NE(parsed.error.find(named), std::string::npos) << parsed.error;
  }
}

TEST(CheckpointState, RejectsTruncation) {
  const std::string text = serialize_checkpoint(sample_state());
  // Cut anywhere before the trailer: the parser must refuse, never return
  // a silently partial state.
  for (const std::size_t cut : {text.size() / 4, text.size() / 2,
                                text.size() - 5}) {
    auto parsed = parse_checkpoint(text.substr(0, cut));
    EXPECT_FALSE(parsed.state.has_value()) << "cut at " << cut;
    EXPECT_FALSE(parsed.error.empty());
  }
}

// Recomputes the whole-file checksum trailer after a deliberate edit, so
// the field check under test (not the checksum) is what refuses the file.
void reseal(std::string& bytes) {
  const std::size_t sealed = bytes.size() - 8;
  const std::uint64_t sum = net::fnv1a(bytes.data(), sealed);
  std::memcpy(bytes.data() + sealed, &sum, 8);
}

void expect_refused(const CheckpointState& state, const char* field) {
  auto parsed = parse_checkpoint(serialize_checkpoint(state));
  ASSERT_FALSE(parsed.state.has_value()) << field;
  EXPECT_NE(parsed.error.find(field), std::string::npos) << parsed.error;
}

TEST(CheckpointState, RejectsGarbageWithFieldDiagnostic) {
  // An edited body byte without a resealed trailer is a checksum mismatch
  // naming both sides.
  std::string text = serialize_checkpoint(sample_state());
  text[text.size() / 2] ^= 0x10;
  auto parsed = parse_checkpoint(text);
  ASSERT_FALSE(parsed.state.has_value());
  EXPECT_NE(parsed.error.find("checksum mismatch: stored 0x"),
            std::string::npos)
      << parsed.error;

  // Record kind 77, resealed: refused by the kind check. The kind byte
  // sits three bytes before the first record's responder address.
  text = serialize_checkpoint(sample_state());
  const net::Ipv6Address responder =
      sample_state().records[0].response.responder;
  const auto at = text.find(std::string_view{
      reinterpret_cast<const char*>(responder.bytes().data()), 16});
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(text[at - 3],
            static_cast<char>(scan::ResponseKind::kEchoReply));
  text[at - 3] = 77;
  reseal(text);
  parsed = parse_checkpoint(text);
  ASSERT_FALSE(parsed.state.has_value());
  EXPECT_NE(parsed.error.find("record kind 77"), std::string::npos)
      << parsed.error;

  // A worker count outside the engine's 1..64 is refused by field name.
  for (const int threads : {0, 65}) {
    CheckpointState bad = sample_state();
    bad.fingerprint.threads = threads;
    expect_refused(bad, "'threads'");
  }

  CheckpointState bad = sample_state();
  bad.metrics.entries[0].kind = static_cast<obs::MetricKind>(9);
  expect_refused(bad, "metrics kind 9");

  bad = sample_state();
  bad.cursors.pop_back();  // 3 cursors for fp threads 4
  expect_refused(bad, "'cursors'");

  bad = sample_state();
  bad.records[1].worker = 4;  // outside [0, 4)
  expect_refused(bad, "'record worker'");
}

TEST(Fingerprint, DiffNamesEveryMismatchedField) {
  const Fingerprint a = sample_fingerprint();
  EXPECT_EQ(a.diff(a), "");

  Fingerprint b = a;
  b.seed = 9;
  b.threads = 2;
  b.blocklist_hash = 0;
  const std::string diff = a.diff(b);
  EXPECT_NE(diff.find("seed: checkpoint 7, run 9"), std::string::npos)
      << diff;
  EXPECT_NE(diff.find("threads: checkpoint 4, run 2"), std::string::npos)
      << diff;
  EXPECT_NE(diff.find("blocklist"), std::string::npos) << diff;

  Fingerprint c = a;
  c.targets = {"2001:db8::/16-24"};
  EXPECT_NE(a.diff(c).find("targets"), std::string::npos);
}

TEST(Fingerprint, BlocklistHashTracksContents) {
  scan::Blocklist a;
  scan::Blocklist b;
  EXPECT_EQ(blocklist_fingerprint(a), blocklist_fingerprint(b));
  a.block(*net::Ipv6Prefix::parse("ff00::/8"));
  EXPECT_NE(blocklist_fingerprint(a), blocklist_fingerprint(b));
  b.block(*net::Ipv6Prefix::parse("ff00::/8"));
  EXPECT_EQ(blocklist_fingerprint(a), blocklist_fingerprint(b));
  b.allow(*net::Ipv6Prefix::parse("ff00::/8"));
  EXPECT_NE(blocklist_fingerprint(a), blocklist_fingerprint(b));
}

TEST(Fingerprint, FaultPlanHashTracksEveryDial) {
  sim::FaultPlan a;
  sim::FaultPlan b;
  EXPECT_EQ(fault_plan_fingerprint(a), fault_plan_fingerprint(b));
  b.access.loss = 0.1;
  EXPECT_NE(fault_plan_fingerprint(a), fault_plan_fingerprint(b));
  b = a;
  b.silent.fraction = 0.2;
  EXPECT_NE(fault_plan_fingerprint(a), fault_plan_fingerprint(b));
  b = a;
  b.seed = 99;
  EXPECT_NE(fault_plan_fingerprint(a), fault_plan_fingerprint(b));
}

TEST(AtomicWrite, WritesAndReplacesWholeFiles) {
  const std::string path = ::testing::TempDir() + "atomic_write_test.txt";
  std::string error;
  ASSERT_TRUE(write_file_atomic(path, "first\n", &error)) << error;
  {
    std::ifstream in{path};
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "first\n");
  }
  // No temp file left behind.
  EXPECT_FALSE(static_cast<bool>(std::ifstream{path + ".tmp"}));
  ASSERT_TRUE(write_file_atomic(path, "second\n", &error)) << error;
  {
    std::ifstream in{path};
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "second\n");
  }
  std::remove(path.c_str());
}

TEST(AtomicWrite, FailsCleanlyOnBadPath) {
  std::string error;
  EXPECT_FALSE(write_file_atomic("/nonexistent-dir/x/y/state", "data",
                                 &error));
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointIo, WriteAndLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "checkpoint_io_test.state";
  const CheckpointState state = sample_state();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, state, &error)) << error;
  auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.state.has_value()) << loaded.error;
  EXPECT_EQ(serialize_checkpoint(*loaded.state),
            serialize_checkpoint(state));
  std::remove(path.c_str());

  auto missing = load_checkpoint(path + ".missing");
  EXPECT_FALSE(missing.state.has_value());
  EXPECT_FALSE(missing.error.empty());

  // A directory is refused like a missing file, not sized from its stat.
  auto directory = load_checkpoint(::testing::TempDir());
  EXPECT_FALSE(directory.state.has_value());
  EXPECT_FALSE(directory.error.empty());
}

}  // namespace
}  // namespace xmap::recover

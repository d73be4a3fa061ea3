#include "topology/spec_loader.h"

#include <gtest/gtest.h>

#include "topology/paper_profiles.h"

namespace xmap::topo {
namespace {

constexpr const char* kGoodDoc = R"({
  "blocks": [
    {
      "name": "ExampleNet",
      "block_base": "3fff:abc::",
      "country": "DE",
      "network": "Broadband",
      "asn": 64500,
      "delegated_len": 60,
      "density": 0.25,
      "wan_inside_lan_fraction": 0.1,
      "iid_weights": [0.2, 0.01, 0.02, 0.05, 0.72],
      "vendors": {"ZTE": 0.5, "Huawei": 0.3, "AVM GmbH": 0.2},
      "unallocated": "unreachable",
      "service_scale": 0.5,
      "loop_scale": 0.4
    },
    {
      "name": "MiniMobile",
      "block_base": "3fff:abd::",
      "ue_model": true,
      "vendors": {"Apple": 1}
    }
  ]
})";

TEST(SpecLoader, LoadsFullDocument) {
  auto result = load_specs_from_json(kGoodDoc, paper::vendor_catalog());
  ASSERT_TRUE(result.specs.has_value()) << result.error;
  ASSERT_EQ(result.specs->size(), 2u);

  const IspSpec& a = (*result.specs)[0];
  EXPECT_EQ(a.name, "ExampleNet");
  EXPECT_EQ(a.country, "DE");
  EXPECT_EQ(a.asn, 64500u);
  EXPECT_EQ(a.delegated_len, 60);
  EXPECT_FALSE(a.ue_model);
  EXPECT_DOUBLE_EQ(a.density, 0.25);
  EXPECT_DOUBLE_EQ(a.wan_inside_lan_fraction, 0.1);
  EXPECT_DOUBLE_EQ(a.iid_weights[0], 0.2);
  EXPECT_DOUBLE_EQ(a.iid_weights[4], 0.72);
  ASSERT_EQ(a.vendor_mix.size(), 3u);
  EXPECT_EQ(a.unallocated, RouteAction::kUnreachable);
  EXPECT_DOUBLE_EQ(a.service_scale, 0.5);

  const IspSpec& b = (*result.specs)[1];
  EXPECT_EQ(b.name, "MiniMobile");
  EXPECT_TRUE(b.ue_model);
  EXPECT_EQ(b.delegated_len, 64);  // default
  EXPECT_EQ(b.unallocated, RouteAction::kBlackhole);  // default
}

TEST(SpecLoader, LoadedSpecsBuildAndScan) {
  auto result = load_specs_from_json(kGoodDoc, paper::vendor_catalog());
  ASSERT_TRUE(result.specs.has_value());
  sim::Network net{3};
  BuildConfig cfg;
  cfg.window_bits = 6;
  cfg.seed = 3;
  auto internet =
      build_internet(net, *result.specs, paper::vendor_catalog(), cfg);
  EXPECT_EQ(internet.isps.size(), 2u);
  EXPECT_GT(internet.total_devices(), 10u);
  // The loaded world is fully functional: geo resolves, devices exist.
  for (const auto& isp : internet.isps) {
    for (const auto& dev : isp.devices) {
      ASSERT_NE(internet.geo.lookup(dev.address), nullptr);
    }
  }
}

struct BadDoc {
  const char* doc;
  const char* expect_fragment;  // must appear in the error
};

// Labels each case by its expected error fragment; without it gtest prints
// the raw pointer bytes, and test names would change between builds.
void PrintTo(const BadDoc& bad, std::ostream* os) {
  *os << bad.expect_fragment;
}

class SpecLoaderRejects : public ::testing::TestWithParam<BadDoc> {};

TEST_P(SpecLoaderRejects, Rejects) {
  auto result =
      load_specs_from_json(GetParam().doc, paper::vendor_catalog());
  ASSERT_FALSE(result.specs.has_value()) << GetParam().doc;
  EXPECT_NE(result.error.find(GetParam().expect_fragment), std::string::npos)
      << "error was: " << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpecLoaderRejects,
    ::testing::Values(
        BadDoc{"{", "JSON"},
        BadDoc{"[]", "top level"},
        BadDoc{"{}", "blocks"},
        BadDoc{R"({"blocks": []})", "empty"},
        BadDoc{R"({"blocks": [1]})", "must be an object"},
        BadDoc{R"({"blocks": [{"block_base": "3fff::",
                               "vendors": {"ZTE": 1}}]})",
               "name"},
        BadDoc{R"({"blocks": [{"name": "X", "block_base": "nope",
                               "vendors": {"ZTE": 1}}]})",
               "block_base"},
        BadDoc{R"({"blocks": [{"name": "X", "block_base": "3fff::",
                               "delegated_len": 61,
                               "vendors": {"ZTE": 1}}]})",
               "delegated_len"},
        BadDoc{R"({"blocks": [{"name": "X", "block_base": "3fff::",
                               "density": 2, "vendors": {"ZTE": 1}}]})",
               "density"},
        BadDoc{R"({"blocks": [{"name": "X", "block_base": "3fff::",
                               "iid_weights": [1, 2],
                               "vendors": {"ZTE": 1}}]})",
               "iid_weights"},
        BadDoc{R"({"blocks": [{"name": "X", "block_base": "3fff::"}]})",
               "vendors"},
        BadDoc{R"({"blocks": [{"name": "X", "block_base": "3fff::",
                               "vendors": {"NoSuchVendor": 1}}]})",
               "unknown vendor"},
        BadDoc{R"({"blocks": [{"name": "X", "block_base": "3fff::",
                               "vendors": {"ZTE": 0}}]})",
               "positive weight"},
        BadDoc{R"({"blocks": [{"name": "X", "block_base": "3fff::",
                               "unallocated": "dropit",
                               "vendors": {"ZTE": 1}}]})",
               "unallocated"}));

TEST(SpecLoader, FileRoundTrip) {
  const std::string path = "/tmp/xmap_spec_test.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(kGoodDoc, f);
    std::fclose(f);
  }
  auto result = load_specs_from_file(path, paper::vendor_catalog());
  EXPECT_TRUE(result.specs.has_value()) << result.error;
  auto missing = load_specs_from_file("/tmp/definitely-not-here-42.json",
                                      paper::vendor_catalog());
  EXPECT_FALSE(missing.specs.has_value());
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos);
}

constexpr const char* kMinimalBlock = R"(
  "blocks": [{"name": "N", "block_base": "3fff::", "vendors": {"ZTE": 1}}])";

TEST(SpecLoader, NoFaultsObjectMeansNoPlan) {
  auto result = load_specs_from_json(std::string{"{"} + kMinimalBlock + "}",
                                     paper::vendor_catalog());
  ASSERT_TRUE(result.specs.has_value()) << result.error;
  EXPECT_FALSE(result.faults.has_value());
}

TEST(SpecLoader, ParsesFullFaultPlan) {
  const std::string doc = std::string{"{"} + kMinimalBlock + R"(,
    "faults": {
      "seed": 9,
      "access": {
        "loss": 0.02,
        "burst": {"rate_per_sec": 2, "mean_ms": 80, "loss": 0.9},
        "duplicate": 0.01, "corrupt": 0.005, "jitter_ms": 3,
        "flap": {"period_ms": 2000, "down_ms": 200, "fraction": 0.3}
      },
      "core": {"loss": 0.001},
      "silent": {"fraction": 0.05, "start_ms": 100, "duration_ms": 500}
    }
  })";
  auto result = load_specs_from_json(doc, paper::vendor_catalog());
  ASSERT_TRUE(result.specs.has_value()) << result.error;
  ASSERT_TRUE(result.faults.has_value());
  const sim::FaultPlan& plan = *result.faults;
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.access.loss, 0.02);
  EXPECT_DOUBLE_EQ(plan.access.burst.rate_per_sec, 2);
  EXPECT_DOUBLE_EQ(plan.access.burst.mean_ms, 80);
  EXPECT_DOUBLE_EQ(plan.access.burst.loss, 0.9);
  EXPECT_DOUBLE_EQ(plan.access.duplicate, 0.01);
  EXPECT_DOUBLE_EQ(plan.access.corrupt, 0.005);
  EXPECT_DOUBLE_EQ(plan.access.jitter_ms, 3);
  EXPECT_DOUBLE_EQ(plan.access.flap.period_ms, 2000);
  EXPECT_DOUBLE_EQ(plan.access.flap.down_ms, 200);
  EXPECT_DOUBLE_EQ(plan.access.flap.fraction, 0.3);
  EXPECT_DOUBLE_EQ(plan.core.loss, 0.001);
  EXPECT_DOUBLE_EQ(plan.other.loss, 0);
  EXPECT_DOUBLE_EQ(plan.silent.fraction, 0.05);
  EXPECT_DOUBLE_EQ(plan.silent.start_ms, 100);
  EXPECT_DOUBLE_EQ(plan.silent.duration_ms, 500);
  EXPECT_TRUE(plan.any());
}

TEST(SpecLoader, RejectsBadFaultPlans) {
  auto bad = [&](const char* faults) {
    const std::string doc = std::string{"{"} + kMinimalBlock +
                            ", \"faults\": " + faults + "}";
    return load_specs_from_json(doc, paper::vendor_catalog());
  };
  EXPECT_FALSE(bad("[]").specs.has_value());
  EXPECT_FALSE(bad(R"({"access": {"loss": 1.5}})").specs.has_value());
  EXPECT_FALSE(bad(R"({"access": {"burst": {"rate_per_sec": -1}}})")
                   .specs.has_value());
  EXPECT_FALSE(
      bad(R"({"core": {"flap": {"period_ms": 100, "down_ms": 200}}})")
          .specs.has_value());
  EXPECT_FALSE(bad(R"({"silent": {"fraction": 2}})").specs.has_value());
}

TEST(SpecLoader, NoObsObjectMeansNoConfig) {
  auto result = load_specs_from_json(std::string{"{"} + kMinimalBlock + "}",
                                     paper::vendor_catalog());
  ASSERT_TRUE(result.specs.has_value()) << result.error;
  EXPECT_FALSE(result.obs.has_value());
}

TEST(SpecLoader, ParsesObsSection) {
  const std::string doc = std::string{"{"} + kMinimalBlock + R"(,
    "obs": {"trace_level": "packet", "metrics": true, "profile": true}
  })";
  auto result = load_specs_from_json(doc, paper::vendor_catalog());
  ASSERT_TRUE(result.specs.has_value()) << result.error;
  ASSERT_TRUE(result.obs.has_value());
  EXPECT_EQ(result.obs->trace_level, obs::TraceLevel::kPacket);
  EXPECT_TRUE(result.obs->metrics);
  EXPECT_TRUE(result.obs->profile);

  // Partial object: unspecified fields keep their defaults.
  const std::string partial = std::string{"{"} + kMinimalBlock + R"(,
    "obs": {"metrics": true}
  })";
  auto partial_result = load_specs_from_json(partial, paper::vendor_catalog());
  ASSERT_TRUE(partial_result.obs.has_value());
  EXPECT_EQ(partial_result.obs->trace_level, obs::TraceLevel::kOff);
  EXPECT_TRUE(partial_result.obs->metrics);
  EXPECT_FALSE(partial_result.obs->profile);
}

TEST(SpecLoader, RejectsBadObsSection) {
  auto bad = [&](const char* obs_json) {
    const std::string doc =
        std::string{"{"} + kMinimalBlock + ", \"obs\": " + obs_json + "}";
    return load_specs_from_json(doc, paper::vendor_catalog());
  };
  EXPECT_FALSE(bad("[]").specs.has_value());
  EXPECT_FALSE(bad(R"({"trace_level": "verbose"})").specs.has_value());
}

}  // namespace
}  // namespace xmap::topo

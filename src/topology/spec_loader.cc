#include "topology/spec_loader.h"

#include <fstream>
#include <sstream>

#include "netbase/json.h"

namespace xmap::topo {
namespace {

SpecLoadResult fail(std::string message) {
  SpecLoadResult result;
  result.error = std::move(message);
  return result;
}

VendorId vendor_by_name(const std::vector<VendorProfile>& vendors,
                        const std::string& name) {
  for (std::size_t i = 0; i < vendors.size(); ++i) {
    if (vendors[i].name == name) return static_cast<VendorId>(i);
  }
  return -1;
}

// Parses one per-link-class fault block ("access"/"core"/"other").
std::string parse_link_faults(const net::JsonValue& entry,
                              sim::LinkFaultParams& out) {
  if (!entry.is_object()) return "must be an object";
  out.loss = entry.number_or("loss", 0.0);
  out.duplicate = entry.number_or("duplicate", 0.0);
  out.corrupt = entry.number_or("corrupt", 0.0);
  out.jitter_ms = entry.number_or("jitter_ms", 0.0);
  if (out.loss < 0 || out.loss > 1 || out.duplicate < 0 ||
      out.duplicate > 1 || out.corrupt < 0 || out.corrupt > 1 ||
      out.jitter_ms < 0) {
    return "probabilities must be in [0, 1] and jitter_ms >= 0";
  }
  if (const net::JsonValue* burst = entry.find("burst")) {
    if (!burst->is_object()) return "\"burst\" must be an object";
    out.burst.rate_per_sec = burst->number_or("rate_per_sec", 0.0);
    out.burst.mean_ms = burst->number_or("mean_ms", 50.0);
    out.burst.loss = burst->number_or("loss", 1.0);
    if (out.burst.rate_per_sec < 0 || out.burst.mean_ms <= 0 ||
        out.burst.loss < 0 || out.burst.loss > 1) {
      return "bad \"burst\" parameters";
    }
  }
  if (const net::JsonValue* flap = entry.find("flap")) {
    if (!flap->is_object()) return "\"flap\" must be an object";
    out.flap.period_ms = flap->number_or("period_ms", 0.0);
    out.flap.down_ms = flap->number_or("down_ms", 0.0);
    out.flap.fraction = flap->number_or("fraction", 1.0);
    if (out.flap.period_ms < 0 || out.flap.down_ms < 0 ||
        out.flap.down_ms > out.flap.period_ms || out.flap.fraction < 0 ||
        out.flap.fraction > 1) {
      return "bad \"flap\" parameters";
    }
  }
  return {};
}

std::string parse_fault_plan(const net::JsonValue& entry,
                             sim::FaultPlan& out) {
  if (!entry.is_object()) return "\"faults\" must be an object";
  out.seed =
      static_cast<std::uint64_t>(entry.number_or("seed", 0.0));
  const struct {
    const char* key;
    sim::LinkFaultParams* params;
  } classes[] = {{"access", &out.access},
                 {"core", &out.core},
                 {"other", &out.other}};
  for (const auto& cls : classes) {
    if (const net::JsonValue* v = entry.find(cls.key)) {
      const std::string err = parse_link_faults(*v, *cls.params);
      if (!err.empty()) {
        return std::string{"faults."} + cls.key + ": " + err;
      }
    }
  }
  if (const net::JsonValue* silent = entry.find("silent")) {
    if (!silent->is_object()) return "\"faults.silent\" must be an object";
    out.silent.fraction = silent->number_or("fraction", 0.0);
    out.silent.start_ms = silent->number_or("start_ms", 0.0);
    out.silent.duration_ms = silent->number_or("duration_ms", 0.0);
    if (out.silent.fraction < 0 || out.silent.fraction > 1 ||
        out.silent.start_ms < 0 || out.silent.duration_ms < 0) {
      return "bad \"faults.silent\" parameters";
    }
  }
  return {};
}

}  // namespace

SpecLoadResult load_specs_from_json(std::string_view json_text,
                                    const std::vector<VendorProfile>& vendors) {
  auto parsed = net::json_parse(json_text);
  if (!parsed.value) return fail("JSON: " + parsed.error.to_string());
  const net::JsonValue& root = *parsed.value;
  if (!root.is_object()) return fail("top level must be an object");
  const net::JsonValue* blocks = root.find("blocks");
  if (blocks == nullptr || !blocks->is_array()) {
    return fail("missing \"blocks\" array");
  }

  std::vector<IspSpec> out;
  int index = 0;
  for (const net::JsonValue& entry : blocks->as_array()) {
    const std::string where = "blocks[" + std::to_string(index++) + "]";
    if (!entry.is_object()) return fail(where + " must be an object");

    IspSpec spec;
    spec.name = entry.string_or("name", "");
    if (spec.name.empty()) return fail(where + ": \"name\" is required");

    const std::string base_text = entry.string_or("block_base", "");
    auto base = net::Ipv6Address::parse(base_text);
    if (!base) {
      return fail(where + ": bad or missing \"block_base\": " + base_text);
    }
    spec.block_base = *base;

    spec.country = entry.string_or("country", "XX");
    spec.network = entry.string_or("network", "Broadband");
    spec.asn = static_cast<std::uint32_t>(entry.number_or("asn", 64500));
    spec.paper_block = entry.string_or("paper_block", "-");
    spec.paper_range = entry.string_or("paper_range", "-");
    spec.paper_hops = entry.number_or("paper_hops", 0);

    const double len = entry.number_or("delegated_len", 64);
    if (len != 56 && len != 60 && len != 64) {
      return fail(where + ": \"delegated_len\" must be 56, 60 or 64");
    }
    spec.delegated_len = static_cast<int>(len);
    spec.ue_model = entry.bool_or("ue_model", false);

    spec.density = entry.number_or("density", 0.2);
    if (spec.density < 0 || spec.density > 1) {
      return fail(where + ": \"density\" must be in [0, 1]");
    }
    spec.separate_wan_fraction = entry.number_or("separate_wan_fraction", 0.0);
    spec.wan_inside_lan_fraction =
        entry.number_or("wan_inside_lan_fraction", 0.0);
    spec.service_scale = entry.number_or("service_scale", 1.0);
    spec.loop_scale = entry.number_or("loop_scale", 1.0);
    spec.mac_clone_fraction = entry.number_or("mac_clone_fraction", 0.035);

    const std::string unallocated = entry.string_or("unallocated", "blackhole");
    if (unallocated == "blackhole") {
      spec.unallocated = RouteAction::kBlackhole;
    } else if (unallocated == "unreachable") {
      spec.unallocated = RouteAction::kUnreachable;
    } else {
      return fail(where + ": \"unallocated\" must be blackhole|unreachable");
    }

    if (const net::JsonValue* weights = entry.find("iid_weights")) {
      if (!weights->is_array() ||
          weights->as_array().size() != net::kIidStyleCount) {
        return fail(where + ": \"iid_weights\" must be an array of 5 numbers");
      }
      for (int i = 0; i < net::kIidStyleCount; ++i) {
        const auto& w = weights->as_array()[static_cast<std::size_t>(i)];
        if (!w.is_number() || w.as_number() < 0) {
          return fail(where + ": bad iid weight");
        }
        spec.iid_weights[i] = w.as_number();
      }
    }

    const net::JsonValue* vendor_map = entry.find("vendors");
    if (vendor_map == nullptr || !vendor_map->is_object() ||
        vendor_map->as_object().empty()) {
      return fail(where + ": \"vendors\" object is required");
    }
    for (const auto& [name, weight] : vendor_map->as_object()) {
      const VendorId id = vendor_by_name(vendors, name);
      if (id < 0) return fail(where + ": unknown vendor \"" + name + "\"");
      if (!weight.is_number() || weight.as_number() <= 0) {
        return fail(where + ": vendor \"" + name + "\" needs a positive weight");
      }
      spec.vendor_mix.emplace_back(id, weight.as_number());
    }

    out.push_back(std::move(spec));
  }
  if (out.empty()) return fail("\"blocks\" is empty");

  SpecLoadResult result{std::move(out), {}, std::nullopt, std::nullopt};
  if (const net::JsonValue* faults = root.find("faults")) {
    sim::FaultPlan plan;
    const std::string err = parse_fault_plan(*faults, plan);
    if (!err.empty()) return fail(err);
    result.faults = plan;
  }
  if (const net::JsonValue* obs_entry = root.find("obs")) {
    if (!obs_entry->is_object()) return fail("\"obs\" must be an object");
    obs::ObsConfig config;
    const std::string level_text = obs_entry->string_or("trace_level", "off");
    if (!obs::trace_level_from_string(level_text, config.trace_level)) {
      return fail("\"obs.trace_level\" must be off, scan or packet");
    }
    config.metrics = obs_entry->bool_or("metrics", false);
    config.profile = obs_entry->bool_or("profile", false);
    result.obs = config;
  }
  return result;
}

SpecLoadResult load_specs_from_file(const std::string& path,
                                    const std::vector<VendorProfile>& vendors) {
  std::ifstream in{path};
  if (!in) return fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_specs_from_json(buffer.str(), vendors);
}

}  // namespace xmap::topo

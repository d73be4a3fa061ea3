#include "xmap/output.h"

#include <charconv>
#include <cstring>
#include <string_view>

namespace xmap::scan {

namespace {

// One record line, formatted on the stack and handed to the stream in one
// write(): two addresses, a kind name, three integers and the JSON keys.
constexpr std::size_t kLineBytes = 256;

char* put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

template <typename T>
char* put_int(char* p, T v) {
  return std::to_chars(p, p + 20, v).ptr;
}

}  // namespace

void CsvWriter::begin() {
  out_ << "saddr,probe_dst,classification,icmp_code,hlim,timestamp_us\n";
}

void CsvWriter::record(const ProbeResponse& response, sim::SimTime when) {
  char line[kLineBytes];
  char* p = response.responder.format(line);
  *p++ = ',';
  p = response.probe_dst.format(p);
  *p++ = ',';
  p = put(p, response_kind_name(response.kind));
  *p++ = ',';
  p = put_int(p, response.icmp_code);
  *p++ = ',';
  p = put_int(p, response.hop_limit);
  *p++ = ',';
  p = put_int(p, when / sim::kMicrosecond);
  *p++ = '\n';
  out_.write(line, p - line);
}

void JsonlWriter::record(const ProbeResponse& response, sim::SimTime when) {
  // All emitted values are addresses, enum names and integers — no JSON
  // string escaping is required for this fixed vocabulary.
  char line[kLineBytes];
  char* p = put(line, "{\"saddr\":\"");
  p = response.responder.format(p);
  p = put(p, "\",\"probe_dst\":\"");
  p = response.probe_dst.format(p);
  p = put(p, "\",\"classification\":\"");
  p = put(p, response_kind_name(response.kind));
  p = put(p, "\",\"icmp_code\":");
  p = put_int(p, response.icmp_code);
  p = put(p, ",\"hlim\":");
  p = put_int(p, response.hop_limit);
  p = put(p, ",\"timestamp_us\":");
  p = put_int(p, when / sim::kMicrosecond);
  p = put(p, "}\n");
  out_.write(line, p - line);
}

std::unique_ptr<ResultWriter> make_writer(const std::string& format,
                                          std::ostream& out) {
  if (format == "csv") return std::make_unique<CsvWriter>(out);
  if (format == "jsonl" || format == "json") {
    return std::make_unique<JsonlWriter>(out);
  }
  return nullptr;
}

}  // namespace xmap::scan

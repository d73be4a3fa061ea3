#include "store/format.h"

#include <cstring>

namespace xmap::store {

namespace {

using net::get_u32;
using net::get_u64;
using net::put_u32;
using net::put_u64;

// Verbatim key, probe_dst XOR, four single-byte fields, four varint64s.
constexpr std::size_t kMaxRecordBytes =
    16 + net::kMaxVarint128Bytes + 4 + 4 * net::kMaxVarint64Bytes;

}  // namespace

std::string serialize_header(const FileHeader& header) {
  std::string out;
  out.reserve(kHeaderBytes);
  out.append(kMagic, sizeof kMagic);
  put_u32(out, header.version);
  put_u32(out, header.block_bytes);
  put_u64(out, header.block_count);
  put_u64(out, header.record_count);
  put_u64(out, header.index_offset);
  put_u64(out, header.geo_offset);
  put_u64(out, header.vendor_offset);
  put_u64(out, header.trailer_offset);
  put_u64(out, header.config_fingerprint);
  out.append(header.git_sha.data(), header.git_sha.size());
  out.resize(kHeaderBytes, '\0');
  return out;
}

bool parse_header(const char* data, std::size_t len, FileHeader* out,
                  std::string* error) {
  if (len < kHeaderBytes) {
    *error = "file too small for a store header";
    return false;
  }
  if (std::memcmp(data, kMagic, sizeof kMagic) != 0) {
    *error = "bad magic (not an xmap results store)";
    return false;
  }
  std::size_t p = sizeof kMagic;
  out->version = get_u32(data + p);
  p += 4;
  out->block_bytes = get_u32(data + p);
  p += 4;
  out->block_count = get_u64(data + p);
  p += 8;
  out->record_count = get_u64(data + p);
  p += 8;
  out->index_offset = get_u64(data + p);
  p += 8;
  out->geo_offset = get_u64(data + p);
  p += 8;
  out->vendor_offset = get_u64(data + p);
  p += 8;
  out->trailer_offset = get_u64(data + p);
  p += 8;
  out->config_fingerprint = get_u64(data + p);
  p += 8;
  std::memcpy(out->git_sha.data(), data + p, out->git_sha.size());
  return true;
}

std::string serialize_index_entry(const BlockInfo& info) {
  std::string out;
  out.reserve(kIndexEntryBytes);
  net::put_addr(out, info.first_key);
  put_u32(out, info.record_count);
  put_u32(out, info.used_bytes);
  put_u64(out, info.checksum);
  return out;
}

BlockInfo parse_index_entry(const char* p) {
  BlockInfo info;
  info.first_key = net::get_addr(p);
  info.record_count = get_u32(p + 16);
  info.used_bytes = get_u32(p + 20);
  info.checksum = get_u64(p + 24);
  return info;
}

void encode_record(std::string& out, const Record& record,
                   const net::Ipv6Address* prev_key) {
  char buf[kMaxRecordBytes];
  char* p = buf;
  const net::Uint128 key = record.key.value();
  if (prev_key == nullptr) {
    std::memcpy(p, record.key.bytes().data(), 16);
    p += 16;
  } else {
    p = net::write_varint128(p, key - prev_key->value());
  }
  // probe_dst usually shares the key's routing prefix, so the XOR against
  // the key is a short varint.
  p = net::write_varint128(p, record.probe_dst.value() ^ key);
  *p++ = static_cast<char>(record.kind);
  *p++ = static_cast<char>(record.icmp_code);
  *p++ = static_cast<char>(record.hop_limit);
  *p++ = static_cast<char>(record.flags);
  p = net::write_varint64(p, record.vendor);
  p = net::write_varint64(p, record.services);
  p = net::write_varint64(p, record.responses);
  p = net::write_varint64(p, record.first_us);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

bool decode_record(const char* data, std::size_t len, std::size_t* pos,
                   bool first, net::Ipv6Address* prev_key, Record* out) {
  net::Uint128 key = prev_key->value();
  if (!decode_key(data, len, pos, first, &key)) return false;
  out->key = net::Ipv6Address::from_value(key);
  if (!decode_fields(data, len, pos, out)) return false;
  *prev_key = out->key;
  return true;
}

bool decode_key(const char* data, std::size_t len, std::size_t* pos,
                bool first, net::Uint128* prev_key) {
  if (first) {
    if (*pos + 16 > len) return false;
    *prev_key = net::get_addr(data + *pos).value();
    *pos += 16;
    return true;
  }
  net::Uint128 delta{};
  if (!net::get_varint128(data, len, pos, &delta)) return false;
  *prev_key = *prev_key + delta;
  return true;
}

bool skip_fields(const char* data, std::size_t len, std::size_t* pos) {
  if (!net::skip_varint(data, len, pos, 19)) return false;  // probe_dst XOR
  if (*pos + 4 > len) return false;                    // kind..flags
  *pos += 4;
  for (int i = 0; i < 4; ++i) {  // vendor, services, responses, first_us
    if (!net::skip_varint(data, len, pos, 10)) return false;
  }
  return true;
}

bool decode_fields(const char* data, std::size_t len, std::size_t* pos,
                   Record* out) {
  net::Uint128 dst_xor{};
  if (!net::get_varint128(data, len, pos, &dst_xor)) return false;
  out->probe_dst = net::Ipv6Address::from_value(out->key.value() ^ dst_xor);
  if (*pos + 4 > len) return false;
  out->kind = static_cast<std::uint8_t>(data[(*pos)++]);
  out->icmp_code = static_cast<std::uint8_t>(data[(*pos)++]);
  out->hop_limit = static_cast<std::uint8_t>(data[(*pos)++]);
  out->flags = static_cast<std::uint8_t>(data[(*pos)++]);
  std::uint64_t vendor = 0, services = 0;
  if (!net::get_varint64(data, len, pos, &vendor)) return false;
  if (!net::get_varint64(data, len, pos, &services)) return false;
  if (vendor > 0xffff || services > 0xffff) return false;
  out->vendor = static_cast<std::uint16_t>(vendor);
  out->services = static_cast<std::uint16_t>(services);
  if (!net::get_varint64(data, len, pos, &out->responses)) return false;
  if (!net::get_varint64(data, len, pos, &out->first_us)) return false;
  return true;
}

}  // namespace xmap::store

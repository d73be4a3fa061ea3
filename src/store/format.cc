#include "store/format.h"

#include <cstring>

namespace xmap::store {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_u16(std::string& out, std::uint16_t v) {
  char b[2];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>(v >> 8);
  out.append(b, 2);
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t get_u16(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(u[0] | (u[1] << 8));
}

std::uint32_t get_u32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

std::uint64_t get_u64(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

namespace {

// Longest encodings: ceil(64/7) and ceil(128/7) groups.
constexpr std::size_t kMaxVarint64Bytes = 10;
constexpr std::size_t kMaxVarint128Bytes = 19;
// Verbatim key, probe_dst XOR, four single-byte fields, four varint64s.
constexpr std::size_t kMaxRecordBytes =
    16 + kMaxVarint128Bytes + 4 + 4 * kMaxVarint64Bytes;

char* write_varint64(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Works on the two 64-bit halves: each group shifts 7 bits from hi to lo.
char* write_varint128(char* p, net::Uint128 v) {
  std::uint64_t hi = v.hi(), lo = v.lo();
  while (hi != 0) {
    *p++ = static_cast<char>((lo & 0x7f) | 0x80);
    lo = (lo >> 7) | (hi << 57);
    hi >>= 7;
  }
  return write_varint64(p, lo);
}

}  // namespace

void put_varint64(std::string& out, std::uint64_t v) {
  char buf[kMaxVarint64Bytes];
  out.append(buf, static_cast<std::size_t>(write_varint64(buf, v) - buf));
}

void put_varint128(std::string& out, net::Uint128 v) {
  char buf[kMaxVarint128Bytes];
  out.append(buf, static_cast<std::size_t>(write_varint128(buf, v) - buf));
}

bool get_varint64(const char* data, std::size_t len, std::size_t* pos,
                  std::uint64_t* out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= len) return false;
    const auto byte =
        static_cast<unsigned char>(data[(*pos)++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;  // over-long encoding (> 10 groups)
}

bool get_varint128(const char* data, std::size_t len, std::size_t* pos,
                   net::Uint128* out) {
  net::Uint128 v{};
  for (int shift = 0; shift < 128; shift += 7) {
    if (*pos >= len) return false;
    const auto byte =
        static_cast<unsigned char>(data[(*pos)++]);
    v = v | (net::Uint128{static_cast<std::uint64_t>(byte & 0x7f)} << shift);
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

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
  out.append(reinterpret_cast<const char*>(info.first_key.bytes().data()),
             16);
  put_u32(out, info.record_count);
  put_u32(out, info.used_bytes);
  put_u64(out, info.checksum);
  return out;
}

BlockInfo parse_index_entry(const char* p) {
  BlockInfo info;
  std::array<std::uint8_t, 16> key{};
  std::memcpy(key.data(), p, 16);
  info.first_key = net::Ipv6Address{key};
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
    p = write_varint128(p, key - prev_key->value());
  }
  // probe_dst usually shares the key's routing prefix, so the XOR against
  // the key is a short varint.
  p = write_varint128(p, record.probe_dst.value() ^ key);
  *p++ = static_cast<char>(record.kind);
  *p++ = static_cast<char>(record.icmp_code);
  *p++ = static_cast<char>(record.hop_limit);
  *p++ = static_cast<char>(record.flags);
  p = write_varint64(p, record.vendor);
  p = write_varint64(p, record.services);
  p = write_varint64(p, record.responses);
  p = write_varint64(p, record.first_us);
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
    std::array<std::uint8_t, 16> key{};
    std::memcpy(key.data(), data + *pos, 16);
    *pos += 16;
    *prev_key = net::Ipv6Address{key}.value();
    return true;
  }
  net::Uint128 delta{};
  if (!get_varint128(data, len, pos, &delta)) return false;
  *prev_key = *prev_key + delta;
  return true;
}

namespace {

// Advances past one varint of at most `max_groups` bytes without decoding.
bool skip_varint(const char* data, std::size_t len, std::size_t* pos,
                 int max_groups) {
  for (int i = 0; i < max_groups; ++i) {
    if (*pos >= len) return false;
    if ((static_cast<unsigned char>(data[(*pos)++]) & 0x80) == 0) return true;
  }
  return false;  // over-long encoding
}

}  // namespace

bool skip_fields(const char* data, std::size_t len, std::size_t* pos) {
  if (!skip_varint(data, len, pos, 19)) return false;  // probe_dst XOR
  if (*pos + 4 > len) return false;                    // kind..flags
  *pos += 4;
  for (int i = 0; i < 4; ++i) {  // vendor, services, responses, first_us
    if (!skip_varint(data, len, pos, 10)) return false;
  }
  return true;
}

bool decode_fields(const char* data, std::size_t len, std::size_t* pos,
                   Record* out) {
  net::Uint128 dst_xor{};
  if (!get_varint128(data, len, pos, &dst_xor)) return false;
  out->probe_dst = net::Ipv6Address::from_value(out->key.value() ^ dst_xor);
  if (*pos + 4 > len) return false;
  out->kind = static_cast<std::uint8_t>(data[(*pos)++]);
  out->icmp_code = static_cast<std::uint8_t>(data[(*pos)++]);
  out->hop_limit = static_cast<std::uint8_t>(data[(*pos)++]);
  out->flags = static_cast<std::uint8_t>(data[(*pos)++]);
  std::uint64_t vendor = 0, services = 0;
  if (!get_varint64(data, len, pos, &vendor)) return false;
  if (!get_varint64(data, len, pos, &services)) return false;
  if (vendor > 0xffff || services > 0xffff) return false;
  out->vendor = static_cast<std::uint16_t>(vendor);
  out->services = static_cast<std::uint16_t>(services);
  if (!get_varint64(data, len, pos, &out->responses)) return false;
  if (!get_varint64(data, len, pos, &out->first_us)) return false;
  return true;
}

}  // namespace xmap::store

#include "store/writer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "recover/checkpoint.h"

namespace xmap::store {

namespace {

// Total order used to pick the canonical "first response" fields when
// duplicate keys merge — insertion-order independent by construction.
[[nodiscard]] auto first_fields_rank(const Record& r) {
  return std::tuple(r.first_us, r.probe_dst, static_cast<int>(r.kind),
                    static_cast<int>(r.icmp_code),
                    static_cast<int>(r.hop_limit));
}

// Sorts by key and merges duplicate keys. Sorts (key words, index) slots
// rather than the records themselves: half the bytes to move, and a key
// compare is two word compares.
[[nodiscard]] std::vector<Record> merge_by_key(
    const std::vector<Record>& records) {
  struct Slot {
    std::uint64_t hi, lo;
    std::uint32_t index;
  };
  std::vector<Slot> order;
  order.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const net::Uint128 key = records[i].key.value();
    order.push_back({key.hi(), key.lo(), static_cast<std::uint32_t>(i)});
  }
  std::sort(order.begin(), order.end(), [&](const Slot& a, const Slot& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    if (a.lo != b.lo) return a.lo < b.lo;
    return first_fields_rank(records[a.index]) <
           first_fields_rank(records[b.index]);
  });
  std::vector<Record> merged;
  merged.reserve(records.size());
  for (const Slot& slot : order) {
    const Record& r = records[slot.index];
    if (!merged.empty() && merged.back().key == r.key) {
      Record& m = merged.back();
      // The sort already put the rank-minimal entry first, so its
      // first-response fields stand; later duplicates only accumulate.
      m.responses += r.responses;
      m.services |= r.services;
      m.flags |= r.flags;
      if (m.vendor == 0) m.vendor = r.vendor;
      continue;
    }
    merged.push_back(r);
  }
  return merged;
}

[[nodiscard]] auto geo_rank(const GeoEntry& g) {
  return std::tuple(g.prefix, g.asn, g.country[0], g.country[1], g.as_name);
}

}  // namespace

StoreBuilder::StoreBuilder(std::uint32_t block_bytes)
    : block_bytes_(block_bytes < 256 ? 256 : block_bytes) {
  vendor_names_.emplace_back();
  vendor_ids_[""] = 0;
}

std::uint16_t StoreBuilder::vendor_id(const std::string& name) {
  auto [it, inserted] =
      vendor_ids_.try_emplace(name, static_cast<std::uint16_t>(
                                        vendor_names_.size()));
  if (inserted) vendor_names_.push_back(name);
  return it->second;
}

void StoreBuilder::add(const Record& record) { records_.push_back(record); }

void StoreBuilder::add_geo(const GeoEntry& entry) { geo_.push_back(entry); }

std::string StoreBuilder::serialize() {
  // --- canonicalise vendors: sorted unique names, "" stays id 0 ----------
  std::vector<std::string> sorted_names(vendor_names_.begin() + 1,
                                        vendor_names_.end());
  std::sort(sorted_names.begin(), sorted_names.end());
  sorted_names.erase(
      std::unique(sorted_names.begin(), sorted_names.end()),
      sorted_names.end());
  std::vector<std::uint16_t> remap(vendor_names_.size(), 0);
  for (std::size_t old = 1; old < vendor_names_.size(); ++old) {
    const auto it = std::lower_bound(sorted_names.begin(),
                                     sorted_names.end(), vendor_names_[old]);
    remap[old] = static_cast<std::uint16_t>(
        1 + (it - sorted_names.begin()));
  }
  for (Record& r : records_) {
    r.vendor = r.vendor < remap.size() ? remap[r.vendor] : 0;
  }

  // --- sort and merge duplicate keys (order-independent) -----------------
  const std::vector<Record> merged = merge_by_key(records_);
  std::vector<Record>().swap(records_);  // consumed: free it before encoding

  std::sort(geo_.begin(), geo_.end(), [](const GeoEntry& a,
                                         const GeoEntry& b) {
    return geo_rank(a) < geo_rank(b);
  });
  geo_.erase(std::unique(geo_.begin(), geo_.end(),
                         [](const GeoEntry& a, const GeoEntry& b) {
                           return a.prefix == b.prefix;
                         }),
             geo_.end());

  // --- data blocks -------------------------------------------------------
  // Each record is encoded straight into the open block at the tail of
  // `blocks`. One that overflows the block is cut off again, the block is
  // sealed, and the record re-encoded as the next block's verbatim first.
  std::string blocks;
  std::vector<BlockInfo> index;
  std::size_t block_start = 0;
  BlockInfo open;  // record_count == 0: no block open
  auto seal = [&] {
    if (open.record_count == 0) return;
    open.used_bytes = static_cast<std::uint32_t>(blocks.size() - block_start);
    blocks.resize(block_start + block_bytes_, '\0');
    open.checksum = net::fnv1a(blocks.data() + block_start, block_bytes_);
    index.push_back(open);
    block_start = blocks.size();
    open = BlockInfo{};
  };
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const Record& r = merged[i];
    if (open.record_count > 0) {
      const std::size_t mark = blocks.size();
      encode_record(blocks, r, &merged[i - 1].key);
      if (blocks.size() - block_start <= block_bytes_) {
        ++open.record_count;
        continue;
      }
      blocks.resize(mark);
      seal();
    }
    open.first_key = r.key;
    open.record_count = 1;
    encode_record(blocks, r, nullptr);
  }
  seal();

  // --- assemble file -----------------------------------------------------
  FileHeader header;
  header.block_bytes = block_bytes_;
  header.block_count = index.size();
  header.record_count = merged.size();
  header.config_fingerprint = config_fingerprint_;
  const std::string sha = git_sha_.empty() ? current_git_sha() : git_sha_;
  for (std::size_t i = 0; i < header.git_sha.size() && i < sha.size(); ++i) {
    header.git_sha[i] = sha[i];
  }
  header.index_offset = kHeaderBytes + blocks.size();
  header.geo_offset = header.index_offset + index.size() * kIndexEntryBytes;

  std::string geo_bytes;
  net::put_u64(geo_bytes, geo_.size());
  for (const GeoEntry& g : geo_) {
    geo_bytes.append(
        reinterpret_cast<const char*>(g.prefix.address().bytes().data()), 16);
    geo_bytes.push_back(static_cast<char>(g.prefix.length()));
    net::put_varint64(geo_bytes, g.asn);
    geo_bytes.push_back(g.country[0]);
    geo_bytes.push_back(g.country[1]);
    net::put_varint64(geo_bytes, g.as_name.size());
    geo_bytes += g.as_name;
  }
  header.vendor_offset = header.geo_offset + geo_bytes.size();

  std::string vendor_bytes;
  net::put_u32(vendor_bytes, static_cast<std::uint32_t>(sorted_names.size()));
  for (const std::string& name : sorted_names) {
    net::put_varint64(vendor_bytes, name.size());
    vendor_bytes += name;
  }
  header.trailer_offset = header.vendor_offset + vendor_bytes.size();

  std::string out = serialize_header(header);
  out.reserve(header.trailer_offset + 16 + sizeof kEndMagic);
  out += blocks;
  for (const BlockInfo& info : index) out += serialize_index_entry(info);
  out += geo_bytes;
  out += vendor_bytes;
  const std::uint64_t file_hash = net::fnv1a(out.data(), out.size());
  net::put_u64(out, file_hash);
  net::put_u64(out, header.trailer_offset);
  out.append(kEndMagic, sizeof kEndMagic);
  return out;
}

bool StoreBuilder::write(const std::string& path, std::string* error) {
  return recover::write_file_atomic(path, serialize(), error);
}

std::string current_git_sha() {
  if (const char* env = std::getenv("GITHUB_SHA")) return env;
  std::string sha = "unknown";
  if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      std::string s{buf};
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
        s.pop_back();
      }
      if (!s.empty()) sha = s;
    }
    ::pclose(p);
  }
  return sha;
}

}  // namespace xmap::store

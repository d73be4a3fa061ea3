#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace xmap::store {

Snapshot::~Snapshot() {
  if (map_ != nullptr) ::munmap(map_, size_);
  if (fd_ >= 0) ::close(fd_);
}

Snapshot::LoadResult Snapshot::load(const std::string& path) {
  std::unique_ptr<Snapshot> snap{new Snapshot};
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return {nullptr, path + ": " + std::strerror(errno)};
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return {nullptr, path + ": fstat: " + std::strerror(err)};
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* map = size == 0
                  ? MAP_FAILED
                  : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map != MAP_FAILED) {
    snap->fd_ = fd;
    snap->map_ = map;
    snap->data_ = static_cast<const char*>(map);
    snap->size_ = size;
  } else {
    // mmap unavailable (exotic filesystem, zero-length file): plain read.
    std::string bytes(size, '\0');
    std::size_t off = 0;
    while (off < size) {
      const ssize_t n = ::read(fd, bytes.data() + off, size - off);
      if (n <= 0) {
        ::close(fd);
        return {nullptr, path + ": short read at byte " + std::to_string(off)};
      }
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    snap->owned_ = std::move(bytes);
    snap->data_ = snap->owned_.data();
    snap->size_ = snap->owned_.size();
  }
  if (std::string err = snap->validate_and_index(); !err.empty()) {
    return {nullptr, path + ": " + err};
  }
  return {std::move(snap), {}};
}

Snapshot::LoadResult Snapshot::from_buffer(std::string bytes) {
  std::unique_ptr<Snapshot> snap{new Snapshot};
  snap->owned_ = std::move(bytes);
  snap->data_ = snap->owned_.data();
  snap->size_ = snap->owned_.size();
  if (std::string err = snap->validate_and_index(); !err.empty()) {
    return {nullptr, "store buffer: " + err};
  }
  return {std::move(snap), {}};
}

std::string Snapshot::validate_and_index() {
  // Header + version.
  std::string err;
  if (!parse_header(data_, size_, &header_, &err)) return err;
  if (header_.version != kFormatVersion) {
    return "store format version: file " + std::to_string(header_.version) +
           ", reader supports " + std::to_string(kFormatVersion) +
           " (rebuild the store or upgrade the reader)";
  }
  if (header_.block_bytes < 256) {
    return "header block_bytes " + std::to_string(header_.block_bytes) +
           " below the 256-byte minimum";
  }

  // Trailer first: it is the truncation sentinel, so every later check can
  // assume the byte range [0, trailer_offset) is fully present.
  if (size_ < kHeaderBytes + kTrailerBytes) {
    return "truncated: file is " + std::to_string(size_) +
           " bytes, smaller than an empty store (" +
           std::to_string(kHeaderBytes + kTrailerBytes) + ")";
  }
  const char* trailer = data_ + size_ - kTrailerBytes;
  if (std::memcmp(trailer + 16, kEndMagic, sizeof kEndMagic) != 0) {
    return "truncated: end marker missing (file cut short or still being "
           "written)";
  }
  const std::uint64_t stored_hash = net::get_u64(trailer);
  const std::uint64_t stored_len = net::get_u64(trailer + 8);
  if (stored_len != size_ - kTrailerBytes) {
    return "truncated: trailer says the payload is " +
           std::to_string(stored_len) + " bytes but the file holds " +
           std::to_string(size_ - kTrailerBytes);
  }
  if (header_.trailer_offset != stored_len) {
    return "header/trailer disagree on payload length: header " +
           std::to_string(header_.trailer_offset) + ", trailer " +
           std::to_string(stored_len);
  }
  const std::uint64_t computed_hash = net::fnv1a(data_, size_ - kTrailerBytes);
  if (computed_hash != stored_hash) {
    return "whole-file checksum mismatch: " +
           net::stored_computed(stored_hash, computed_hash) +
           " (corrupted store)";
  }

  // Section offsets must tile [header, trailer) in order.
  const std::uint64_t want_index =
      kHeaderBytes +
      header_.block_count * static_cast<std::uint64_t>(header_.block_bytes);
  if (header_.index_offset != want_index ||
      header_.geo_offset !=
          header_.index_offset + header_.block_count * kIndexEntryBytes ||
      header_.geo_offset > header_.vendor_offset ||
      header_.vendor_offset > header_.trailer_offset) {
    return "header section offsets are inconsistent (corrupted header)";
  }

  // Block index: per-block checksums, monotone keys, count agreement.
  if (header_.block_count > 0xffffffffULL) {
    return "header declares " + std::to_string(header_.block_count) +
           " blocks (limit 2^32 - 1)";
  }
  index_.clear();
  index_.reserve(header_.block_count);
  std::uint64_t records_seen = 0;
  std::uint64_t restart_count = 0;
  for (std::uint64_t b = 0; b < header_.block_count; ++b) {
    const BlockInfo info =
        parse_index_entry(data_ + header_.index_offset + b * kIndexEntryBytes);
    if (info.used_bytes > header_.block_bytes || info.record_count == 0) {
      return "block " + std::to_string(b) + " index entry is malformed (" +
             std::to_string(info.used_bytes) + " used bytes, " +
             std::to_string(info.record_count) + " records)";
    }
    const char* block =
        data_ + kHeaderBytes + b * static_cast<std::size_t>(header_.block_bytes);
    const std::uint64_t sum = net::fnv1a(block, header_.block_bytes);
    if (sum != info.checksum) {
      return "block " + std::to_string(b) + " checksum mismatch: " +
             net::stored_computed(info.checksum, sum) + " (corrupted store)";
    }
    if (!index_.empty() && !(index_.back().first_key < info.first_key)) {
      return "block " + std::to_string(b) +
             " first key is not greater than its predecessor's (store is "
             "not sorted)";
    }
    records_seen += info.record_count;
    restart_count +=
        (info.record_count + kRestartInterval - 1) / kRestartInterval;
    index_.push_back(info);
  }
  if (records_seen != header_.record_count) {
    return "record count mismatch: header says " +
           std::to_string(header_.record_count) + ", block index sums to " +
           std::to_string(records_seen);
  }

  // Full structural decode: proves every record parses and keys are strictly
  // increasing across the whole file, so the query path never sees a decode
  // failure. Blocks already passed their checksums, so any failure here is a
  // writer bug rather than bit rot — still refuse to load. The same pass
  // records the restart index.
  restart_keys_.clear();
  restarts_.clear();
  restart_keys_.reserve(restart_count);
  restarts_.reserve(restart_count);
  net::Uint128 key{};
  bool have_last = false;
  for (std::size_t b = 0; b < index_.size(); ++b) {
    const BlockInfo& info = index_[b];
    const char* block = block_data(b);
    std::size_t pos = 0;
    Record r;
    for (std::uint32_t i = 0; i < info.record_count; ++i) {
      const net::Uint128 last_key = key;
      if (!decode_key(block, info.used_bytes, &pos, i == 0, &key)) {
        return "block " + std::to_string(b) + " record " + std::to_string(i) +
               " does not decode (inconsistent store)";
      }
      const std::size_t fields_at = pos;
      r.key = net::Ipv6Address::from_value(key);
      if (!decode_fields(block, info.used_bytes, &pos, &r)) {
        return "block " + std::to_string(b) + " record " + std::to_string(i) +
               " does not decode (inconsistent store)";
      }
      if (i == 0 && r.key != info.first_key) {
        return "block " + std::to_string(b) +
               " first record disagrees with the index entry";
      }
      if (have_last && !(last_key < key)) {
        return "block " + std::to_string(b) + " record " + std::to_string(i) +
               " is out of order (store keys must be strictly increasing)";
      }
      have_last = true;
      if (i % kRestartInterval == 0) {
        restart_keys_.push_back(key);
        restarts_.push_back({static_cast<std::uint32_t>(b),
                             static_cast<std::uint32_t>(fields_at)});
      }
    }
    if (pos != info.used_bytes) {
      return "block " + std::to_string(b) + " has " +
             std::to_string(info.used_bytes - pos) +
             " trailing bytes after the last record";
    }
  }
  max_key_ = key;

  // Geo section -> entries + compiled LC-trie.
  {
    const char* geo = data_ + header_.geo_offset;
    const std::size_t geo_len = header_.vendor_offset - header_.geo_offset;
    if (geo_len < 8) return "geo section is too small for its entry count";
    const std::uint64_t count = net::get_u64(geo);
    std::size_t pos = 8;
    geo_.clear();
    geo_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      if (pos + 17 > geo_len) {
        return "geo entry " + std::to_string(i) + " overruns its section";
      }
      GeoEntry g;
      const net::Ipv6Address addr = net::get_addr(geo + pos);
      pos += 16;
      const int len = static_cast<unsigned char>(geo[pos++]);
      if (len > 128) {
        return "geo entry " + std::to_string(i) + " has prefix length " +
               std::to_string(len);
      }
      g.prefix = net::Ipv6Prefix{addr, len};
      std::uint64_t asn = 0;
      if (!net::get_varint64(geo, geo_len, &pos, &asn) || asn > 0xffffffffULL) {
        return "geo entry " + std::to_string(i) + " has a malformed ASN";
      }
      g.asn = static_cast<std::uint32_t>(asn);
      if (pos + 2 > geo_len) {
        return "geo entry " + std::to_string(i) + " overruns its section";
      }
      g.country = {geo[pos], geo[pos + 1]};
      pos += 2;
      std::uint64_t name_len = 0;
      if (!net::get_varint64(geo, geo_len, &pos, &name_len) ||
          pos + name_len > geo_len) {
        return "geo entry " + std::to_string(i) + " has a malformed AS name";
      }
      g.as_name.assign(geo + pos, name_len);
      pos += name_len;
      geo_.push_back(std::move(g));
    }
    if (pos != geo_len) {
      return "geo section has " + std::to_string(geo_len - pos) +
             " trailing bytes";
    }
    for (std::size_t i = 0; i < geo_.size(); ++i) {
      geo_trie_.insert(geo_[i].prefix, static_cast<std::uint32_t>(i));
    }
    // Compile now: the lazy path mutates shared state on first lookup, and
    // snapshots are handed to concurrent readers.
    geo_trie_.compile();
  }

  // Vendor table.
  {
    const char* ven = data_ + header_.vendor_offset;
    const std::size_t ven_len = header_.trailer_offset - header_.vendor_offset;
    if (ven_len < 4) return "vendor table is too small for its entry count";
    const std::uint32_t count = net::get_u32(ven);
    if (count > 0xffff) {
      return "vendor table declares " + std::to_string(count) +
             " names (limit 65535)";
    }
    std::size_t pos = 4;
    vendors_.clear();
    vendors_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t len = 0;
      if (!net::get_varint64(ven, ven_len, &pos, &len) || pos + len > ven_len) {
        return "vendor name " + std::to_string(i) + " overruns its table";
      }
      vendors_.emplace_back(ven + pos, len);
      pos += len;
    }
    if (pos != ven_len) {
      return "vendor table has " + std::to_string(ven_len - pos) +
             " trailing bytes";
    }
  }
  return {};
}

std::string Snapshot::git_sha() const {
  const auto& sha = header_.git_sha;
  std::size_t n = 0;
  while (n < sha.size() && sha[n] != '\0') ++n;
  return std::string{sha.data(), n};
}

bool Snapshot::lookup(const net::Ipv6Address& key, Record* out) const {
  const net::Uint128 target = key.value();
  if (restart_keys_.empty() || target > max_key_) return false;
  const std::size_t r = restart_floor(target);
  const Restart& at = restarts_[r];
  const char* data = block_data(at.block);
  const std::size_t used = index_[at.block].used_bytes;
  // Key-only scan from the restart: decode each key, skip field bodies, and
  // materialize the full record only on a match. The next restart's key
  // exceeds the target, so this walks fewer than kRestartInterval records.
  // decode_key fails only at the block's end (load-time validation proved
  // the block decodes), where the target falls in a gap between blocks.
  std::size_t pos = at.offset;
  net::Uint128 k = restart_keys_[r];
  while (k < target) {
    if (!skip_fields(data, used, &pos) ||
        !decode_key(data, used, &pos, false, &k)) {
      return false;
    }
  }
  if (k != target) return false;  // keys are sorted: past the target
  out->key = key;
  return decode_fields(data, used, &pos, out);
}

}  // namespace xmap::store

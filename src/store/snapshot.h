// Read side of the results store: load (mmap), validate, query.
//
// A Snapshot validates the entire file once at load — header, version,
// trailer (truncation), whole-file and per-block checksums, index
// monotonicity and a full structural decode of every record — and refuses to
// open anything inconsistent with a precise diagnostic (the recover-style
// "stored X, computed Y" form). The same decode pass builds an in-memory
// restart index: every kRestartInterval-th record of each block contributes
// its key and the block offset at which decoding can resume (24 B per entry,
// so ~1.5 B of RAM per record in full 4 KiB blocks). The file format knows
// nothing of it. After load the query path is infallible and
// allocation-free: point lookups binary-search the restart keys and key-scan
// at most kRestartInterval records; prefix scans seek their low end through
// the same index; prefix attribution goes through the netbase LC-trie
// compiled once at load (its arrays ride the thread-local BytePool) and
// shared read-only across any number of query threads. Snapshots are
// immutable; concurrent readers need no locks (asserted TSan-clean by
// tests/store/concurrent_test.cc).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/compiler.h"
#include "netbase/prefix_map.h"
#include "store/format.h"

namespace xmap::store {

class Snapshot {
 public:
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot();

  struct LoadResult {
    std::unique_ptr<Snapshot> snapshot;  // null on error
    std::string error;                   // "path: diagnostic" on error
  };

  // Opens and validates a store file. The file is mmap'd read-only when
  // possible (falling back to a heap read); either way the bytes are
  // immutable for the snapshot's lifetime.
  [[nodiscard]] static LoadResult load(const std::string& path);

  // Validates an in-memory image (tests, benches, in-process pipelines).
  [[nodiscard]] static LoadResult from_buffer(std::string bytes);

  [[nodiscard]] const FileHeader& header() const { return header_; }
  [[nodiscard]] std::uint64_t record_count() const {
    return header_.record_count;
  }
  [[nodiscard]] std::uint64_t block_count() const {
    return header_.block_count;
  }
  [[nodiscard]] std::string git_sha() const;
  [[nodiscard]] std::size_t file_bytes() const { return size_; }

  // Point lookup by responder address. Fills *out and returns true when
  // present. Allocation-free.
  [[nodiscard]] bool lookup(const net::Ipv6Address& key, Record* out) const;

  // Visits every record whose key lies inside `prefix`, in key order.
  // Returns the number visited. Allocation-free apart from the callback.
  template <typename Fn>
  std::uint64_t scan_prefix(const net::Ipv6Prefix& prefix, Fn&& fn) const {
    if (restart_keys_.empty()) return 0;
    const net::Uint128 lo = prefix.address().value();
    const net::Uint128 hi =
        prefix.length() == 0
            ? net::Uint128::max()
            : lo | ~(net::Uint128::max() << (128 - prefix.length()));
    std::uint64_t visited = 0;
    walk_from(restart_floor(lo), [&](const Record& r) {
      const net::Uint128 k = r.key.value();
      if (k > hi) return false;  // past the range
      if (k >= lo) {
        ++visited;
        fn(r);
      }
      return true;
    });
    return visited;
  }

  // Visits every record in key order; returns the count.
  template <typename Fn>
  std::uint64_t for_each(Fn&& fn) const {
    if (restart_keys_.empty()) return 0;
    std::uint64_t visited = 0;
    walk_from(0, [&](const Record& r) {
      ++visited;
      fn(r);
      return true;
    });
    return visited;
  }

  // RAM held by the restart index (the file does not store it).
  [[nodiscard]] std::size_t restart_index_bytes() const {
    return restart_keys_.capacity() * sizeof(net::Uint128) +
           restarts_.capacity() * sizeof(Restart);
  }

  // Longest-prefix attribution of an address against the geo section
  // (LC-trie lookup; nullptr for unmapped space). Allocation-free.
  [[nodiscard]] const GeoEntry* attribute(const net::Ipv6Address& addr) const {
    const std::uint32_t* idx = geo_trie_.lookup(addr);
    return idx == nullptr ? nullptr : &geo_[*idx];
  }

  [[nodiscard]] const std::vector<GeoEntry>& geo_entries() const {
    return geo_;
  }

  // Vendor-table name for a record's vendor id ("" = unidentified).
  [[nodiscard]] std::string_view vendor_name(std::uint16_t id) const {
    return id == 0 || id > vendors_.size() ? std::string_view{}
                                           : vendors_[id - 1];
  }
  [[nodiscard]] std::size_t vendor_count() const { return vendors_.size(); }

  // Pull-style sequential reader over all records in key order (diff's
  // merge walk needs two streams side by side, which the push-style
  // for_each cannot give it). Allocation-free.
  class Cursor {
   public:
    explicit Cursor(const Snapshot& snap) : snap_(&snap) {}

    // Fills *out with the next record; false at end of store.
    [[nodiscard]] bool next(Record* out) {
      while (block_ < snap_->index_.size()) {
        const BlockInfo& info = snap_->index_[block_];
        if (i_ < info.record_count) {
          const bool ok =
              decode_record(snap_->block_data(block_), info.used_bytes, &pos_,
                            i_ == 0, &prev_, out);
          ++i_;
          if (XMAP_LIKELY(ok)) return true;
          return false;  // unreachable on a validated store
        }
        ++block_;
        pos_ = 0;
        i_ = 0;
      }
      return false;
    }

   private:
    const Snapshot* snap_;
    std::size_t block_ = 0;
    std::size_t pos_ = 0;
    std::uint32_t i_ = 0;
    net::Ipv6Address prev_;
  };

 private:
  Snapshot() = default;

  // Validates the mapped bytes; fills all members. Returns "" or an error.
  [[nodiscard]] std::string validate_and_index();

  // Every kRestartInterval-th record of each block (its first included)
  // is a restart point: decoding can resume there without the deltas
  // before it, so a seek key-scans at most this many records.
  static constexpr std::uint32_t kRestartInterval = 16;

  // Where a restart record's non-key fields start.
  struct Restart {
    std::uint32_t block;
    std::uint32_t offset;  // byte offset within the block
  };

  // Index of the last restart whose key is <= key (0 when key precedes
  // everything — callers reject by key).
  [[nodiscard]] std::size_t restart_floor(const net::Uint128& key) const {
    const auto it =
        std::upper_bound(restart_keys_.begin(), restart_keys_.end(), key);
    return it == restart_keys_.begin()
               ? 0
               : static_cast<std::size_t>(it - restart_keys_.begin()) - 1;
  }

  [[nodiscard]] const char* block_data(std::size_t b) const {
    return data_ + kHeaderBytes +
           b * static_cast<std::size_t>(header_.block_bytes);
  }

  // Decodes records in key order from restart `r` to the end of the store,
  // calling fn(record); fn returns false to stop. Load-time validation
  // proved every block well-formed, so decode failures cannot occur here;
  // the loop still bounds-checks and stops defensively.
  template <typename Fn>
  void walk_from(std::size_t r, Fn&& fn) const {
    const Restart& at = restarts_[r];
    std::size_t pos = at.offset;
    Record rec;
    rec.key = net::Ipv6Address::from_value(restart_keys_[r]);
    if (XMAP_UNLIKELY(!decode_fields(block_data(at.block),
                                     index_[at.block].used_bytes, &pos,
                                     &rec)) ||
        !fn(static_cast<const Record&>(rec))) {
      return;
    }
    net::Ipv6Address prev = rec.key;
    for (std::size_t b = at.block; b < index_.size(); ++b, pos = 0) {
      const std::size_t used = index_[b].used_bytes;
      const char* data = block_data(b);
      while (pos < used) {
        // A block's first record (pos 0) carries its key verbatim.
        if (XMAP_UNLIKELY(
                !decode_record(data, used, &pos, pos == 0, &prev, &rec)) ||
            !fn(static_cast<const Record&>(rec))) {
          return;
        }
      }
    }
  }

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  // Exactly one of these owns data_: mmap (fd >= 0) or the heap buffer.
  int fd_ = -1;
  void* map_ = nullptr;
  std::string owned_;

  FileHeader header_;
  net::Uint128 max_key_{};  // last key in the file (O(1) miss reject)
  std::vector<BlockInfo> index_;
  // Restart index, built by validate_and_index: sorted keys and, in
  // parallel, where each one's record resumes.
  std::vector<net::Uint128> restart_keys_;
  std::vector<Restart> restarts_;
  std::vector<GeoEntry> geo_;
  net::PrefixMap<std::uint32_t> geo_trie_;
  std::vector<std::string> vendors_;
};

}  // namespace xmap::store

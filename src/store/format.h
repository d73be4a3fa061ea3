// On-disk format of the periphery results store (see docs/results_store.md
// for the full specification).
//
// A store file is a versioned, immutable snapshot of one scan's results:
// discovered peripheries, their service/vendor attribution and routing-loop
// verdicts, keyed and sorted by responder address. The layout is built for
// read-mostly, many-reader serving:
//
//   [FileHeader]       fixed 128 bytes: magic, version, section offsets,
//                      record count, config fingerprint, git sha
//   [data blocks]      block_count fixed-size blocks of delta-encoded,
//                      key-sorted records (LEB128 varints; first key per
//                      block is verbatim, later keys store the delta)
//   [block index]      one fixed 32-byte entry per block: first key,
//                      record count, used bytes, FNV-1a checksum
//   [geo section]      sorted (prefix -> ASN/country/AS-name) entries; the
//                      loader compiles them into the netbase LC-trie once
//                      and shares it read-only across query threads
//   [vendor table]     sorted unique vendor names; records refer by index
//   [trailer]          whole-file checksum + payload length + end magic,
//                      so truncation and bit flips are always detected
//
// Every multi-byte scalar is little-endian and read with the netbase
// codec's alignment-agnostic loads (the file may be mmap'd at arbitrary
// alignment); the checksums are its FNV-1a. Writers produce the
// sections deterministically: the same record set yields byte-identical
// files regardless of producer thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "netbase/codec.h"
#include "netbase/ipv6.h"

namespace xmap::store {

inline constexpr char kMagic[8] = {'X', 'M', 'P', '6', 'S', 'T', 'O', 'R'};
inline constexpr char kEndMagic[8] = {'X', 'M', 'P', '6', 'E', 'N', 'D',
                                      '\n'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 128;
inline constexpr std::size_t kIndexEntryBytes = 32;
inline constexpr std::size_t kTrailerBytes = 24;
inline constexpr std::uint32_t kDefaultBlockBytes = 4096;

// Record flag bits.
inline constexpr std::uint8_t kFlagLoopCandidate = 0x01;  // Time Exceeded seen
inline constexpr std::uint8_t kFlagLoopConfirmed = 0x02;  // h/h+2 confirmed
inline constexpr std::uint8_t kFlagAliased = 0x04;        // aliased responder

// One periphery entry. `key` (the responder address) is unique within a
// store and is the sort order of the file. ASN/country attribution is not
// baked into records — queries resolve it through the snapshot's compiled
// LC-trie over the geo section, so one attribution table serves every
// record in its covering prefix.
struct Record {
  net::Ipv6Address key;        // responder address (sort key, unique)
  net::Ipv6Address probe_dst;  // probe that elicited the first response
  std::uint8_t kind = 0;       // scan::ResponseKind of the first response
  std::uint8_t icmp_code = 0;
  std::uint8_t hop_limit = 0;  // received hop limit (distance signal)
  std::uint8_t flags = 0;      // kFlag* bits
  std::uint16_t vendor = 0;    // vendor-table index; 0 = unidentified
  std::uint16_t services = 0;  // bit i set = svc::ServiceKind(i) alive
  std::uint64_t responses = 0; // responses seen from this address
  std::uint64_t first_us = 0;  // sim-clock arrival of the first response

  friend bool operator==(const Record&, const Record&) = default;
};

// One geo-section entry (mirrors topo::GeoInfo plus its prefix).
struct GeoEntry {
  net::Ipv6Prefix prefix;
  std::uint32_t asn = 0;
  std::array<char, 2> country = {'-', '-'};
  std::string as_name;

  friend bool operator==(const GeoEntry&, const GeoEntry&) = default;
};

// Header fields as parsed/serialized (not the raw byte layout).
struct FileHeader {
  std::uint32_t version = kFormatVersion;
  std::uint32_t block_bytes = kDefaultBlockBytes;
  std::uint64_t block_count = 0;
  std::uint64_t record_count = 0;
  std::uint64_t index_offset = 0;
  std::uint64_t geo_offset = 0;
  std::uint64_t vendor_offset = 0;
  std::uint64_t trailer_offset = 0;
  // Identity of the producing scan (recover-style config fingerprint) and
  // the source revision, for longitudinal bookkeeping / diff sanity.
  std::uint64_t config_fingerprint = 0;
  std::array<char, 40> git_sha = {};  // hex, NUL-padded
};

// Per-block index entry.
struct BlockInfo {
  net::Ipv6Address first_key;
  std::uint32_t record_count = 0;
  std::uint32_t used_bytes = 0;
  std::uint64_t checksum = 0;  // FNV-1a over the full block_bytes
};

// Serializes `header` into its fixed 128-byte form (and back). parse
// validates magic and structural invariants only — version and offset
// checks against the actual file are the loader's job.
[[nodiscard]] std::string serialize_header(const FileHeader& header);
[[nodiscard]] bool parse_header(const char* data, std::size_t len,
                                FileHeader* out, std::string* error);

[[nodiscard]] std::string serialize_index_entry(const BlockInfo& info);
[[nodiscard]] BlockInfo parse_index_entry(const char* p);

// Appends one record to a block body. `prev_key` is the previous record's
// key (the delta base); pass nullptr for the first record of a block.
void encode_record(std::string& out, const Record& record,
                   const net::Ipv6Address* prev_key);

// Decodes one record from block bytes at *pos. `first` selects the
// verbatim-key form; otherwise *prev_key is the delta base. On success
// *prev_key is updated to the decoded key. Returns false on
// malformed/overrunning input.
[[nodiscard]] bool decode_record(const char* data, std::size_t len,
                                 std::size_t* pos, bool first,
                                 net::Ipv6Address* prev_key, Record* out);

// Key-only fast path for the point-lookup hot loop: most records in a
// block are scanned past, so decoding their field bodies (two 16-byte
// address conversions plus six varints each) is wasted work. A lookup
// instead walks decode_key/skip_fields pairs over numeric keys and calls
// decode_fields only for the one matching record.

// Decodes just the key of the record at *pos, leaving *pos at the first
// non-key field. *prev_key is the running delta base as a numeric value
// and is updated to the decoded key.
[[nodiscard]] bool decode_key(const char* data, std::size_t len,
                              std::size_t* pos, bool first,
                              net::Uint128* prev_key);

// Skips the non-key fields of one record (a varint continuation-bit scan;
// nothing is materialized).
[[nodiscard]] bool skip_fields(const char* data, std::size_t len,
                               std::size_t* pos);

// Decodes the non-key fields at *pos into *out. out->key must already
// hold the record's key (probe_dst is stored XORed against it).
[[nodiscard]] bool decode_fields(const char* data, std::size_t len,
                                 std::size_t* pos, Record* out);

}  // namespace xmap::store

// Scan blocklist / allowlist.
//
// Mirrors ZMap's blacklist semantics: targets inside a blocked prefix are
// skipped at generation time; an optional allowlist restricts the scan to
// listed space. Good-citizenship defaults cover the special-use IPv6
// registry (loopback, link-local, multicast, documentation, ...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/random.h"
#include "netbase/prefix_map.h"

namespace xmap::scan {

class Blocklist {
 public:
  Blocklist() = default;

  void block(const net::Ipv6Prefix& prefix) {
    blocked_.insert(prefix, 1);
    fp_ ^= prefix_hash(prefix, 0xb10cULL);
  }
  void allow(const net::Ipv6Prefix& prefix) {
    allowed_.insert(prefix, 1);
    has_allowlist_ = true;
    fp_ ^= prefix_hash(prefix, 0xa110ULL);
  }

  // Order-independent content hash of the blocked+allowed prefix sets.
  // Used by the checkpoint fingerprint: resuming a scan under a different
  // blocklist would silently change which permutation slots send.
  [[nodiscard]] std::uint64_t fingerprint() const { return fp_; }

  // A target may be probed when it is not under a blocked prefix and — if
  // an allowlist is present — is under an allowed prefix. A blocked entry
  // that is more specific than an allowed one wins, and vice versa.
  [[nodiscard]] bool permitted(const net::Ipv6Address& addr) const;

  // Builds both lookup indexes now. Call before scanners on several
  // threads share the blocklist: permitted() would otherwise compile them
  // lazily on first use, mutating shared state.
  void compile() const {
    blocked_.compile();
    allowed_.compile();
  }

  [[nodiscard]] std::size_t blocked_count() const { return blocked_.size(); }
  [[nodiscard]] std::size_t allowed_count() const { return allowed_.size(); }

  // RFC 6890 / IANA special-purpose space that a well-behaved Internet
  // scanner never probes.
  [[nodiscard]] static Blocklist well_behaved_defaults();

 private:
  [[nodiscard]] static std::uint64_t prefix_hash(
      const net::Ipv6Prefix& prefix, std::uint64_t salt) {
    const net::Uint128 v = prefix.address().value();
    std::uint64_t h = net::hash_combine64(salt, v.hi());
    h = net::hash_combine64(h, v.lo());
    return net::hash_combine64(
        h, static_cast<std::uint64_t>(prefix.length()));
  }

  net::PrefixMap<char> blocked_;
  net::PrefixMap<char> allowed_;
  bool has_allowlist_ = false;
  std::uint64_t fp_ = 0;
};

}  // namespace xmap::scan

#include "netbase/codec.h"

#include <cstdio>

namespace xmap::net {

std::string stored_computed(std::uint64_t stored, std::uint64_t computed) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "stored 0x%016llx, computed 0x%016llx",
                static_cast<unsigned long long>(stored),
                static_cast<unsigned long long>(computed));
  return buf;
}

bool Reader::fail(const std::string& message) {
  if (error_.empty()) error_ = std::string{what_} + ": " + message;
  return false;
}

bool Reader::fail_truncated(const char* field, std::size_t n) {
  return fail(std::string{"truncated "} + field + " (need " +
              std::to_string(n) + " bytes, have " +
              std::to_string(remaining()) + ")");
}

bool Reader::fail_count(const char* field, std::uint64_t n) {
  return fail(std::string{field} + " count " + std::to_string(n) +
              " exceeds remaining " + std::to_string(remaining()) + " bytes");
}

bool Reader::fail_not_boolean(const char* field, unsigned v) {
  return fail(std::string{field} + " flag " + std::to_string(v) +
              " is not boolean");
}

}  // namespace xmap::net

#include "recover/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace xmap::recover {

bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) {
      if (error != nullptr) *error = "cannot open " + tmp + " for writing";
      return false;
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      if (error != nullptr) *error = "short write to " + tmp;
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "rename " + tmp + " -> " + path + " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool write_checkpoint(const std::string& path, const CheckpointState& state,
                      std::string* error) {
  return write_file_atomic(path, serialize_checkpoint(state), error);
}

LoadResult load_checkpoint(const std::string& path) {
  LoadResult result;
  // file_size refuses a directory or special file before anything is
  // sized from it.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in{path, std::ios::binary};
  if (ec || !in) {
    result.error = "cannot open checkpoint file " + path;
    return result;
  }
  std::string bytes(size, '\0');
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    result.error = "cannot read checkpoint file " + path;
    return result;
  }
  ParseResult parsed = parse_checkpoint(bytes);
  if (!parsed.state) {
    result.error = path + ": " + parsed.error;
    return result;
  }
  result.state = std::move(parsed.state);
  return result;
}

}  // namespace xmap::recover

#include "djstar/support/env.hpp"

#include <cstdlib>
#include <stdexcept>

namespace djstar::support {

std::optional<std::string> env_path(const char* var) {
  const char* raw = std::getenv(var);
  if (raw == nullptr) return std::nullopt;
  const std::string s(raw);
  const auto b = s.find_first_not_of(" \t");
  const auto e = s.find_last_not_of(" \t");
  if (b == std::string::npos) {
    throw std::invalid_argument(std::string(var) + ": empty path");
  }
  return s.substr(b, e - b + 1);
}

}  // namespace djstar::support

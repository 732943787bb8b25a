#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace mifo {

std::optional<std::uint64_t> parse_u64(const char* text) {
  if (text == nullptr ||
      std::isdigit(static_cast<unsigned char>(*text)) == 0) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return parsed;
}

std::optional<double> parse_double(const char* text) {
  if (text == nullptr || *text == '\0' ||
      std::isspace(static_cast<unsigned char>(*text)) != 0) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(parsed)) {
    return std::nullopt;
  }
  return parsed;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  return parse_u64(std::getenv(name)).value_or(fallback);
}

double env_double(const char* name, double fallback) {
  return parse_double(std::getenv(name)).value_or(fallback);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

}  // namespace mifo

#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace glto::common {

std::optional<std::string> env_str(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::int64_t env_i64(const char* name, std::int64_t fallback) {
  auto v = env_str(name);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  long long out = std::strtoll(v->c_str(), &end, 10);
  if (errno != 0 || end == v->c_str()) return fallback;
  return static_cast<std::int64_t>(out);
}

bool env_bool(const char* name, bool fallback) {
  auto v = env_str(name);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  return fallback;
}

void env_set(const char* name, const char* value) {
  if (value == nullptr) {
    ::unsetenv(name);
  } else {
    ::setenv(name, value, /*overwrite=*/1);
  }
}

}  // namespace glto::common

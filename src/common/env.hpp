// Environment-variable helpers used across the runtime stack.
//
// All runtime knobs (OMP_NUM_THREADS, GLT_IMPL, GLT_SHARED_QUEUES, ...) are
// read through this module so that tests can override them coherently.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace glto::common {

/// Returns the raw value of @p name, or std::nullopt if unset/empty.
std::optional<std::string> env_str(const char* name);

/// Parses @p name as a decimal integer; returns @p fallback when unset or
/// unparsable.
std::int64_t env_i64(const char* name, std::int64_t fallback);

/// Boolean env parsing compatible with OpenMP conventions: "1", "true",
/// "TRUE", "yes", "on" are true; "0", "false", "no", "off" are false.
bool env_bool(const char* name, bool fallback);

/// Sets (or clears, when @p value is nullptr) an environment variable.
/// Only used by tests and benchmark drivers.
void env_set(const char* name, const char* value);

}  // namespace glto::common

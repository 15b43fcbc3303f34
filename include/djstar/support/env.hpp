// djstar/support/env.hpp
// Path-valued environment hooks (DJSTAR_FLIGHT, DJSTAR_TRACE,
// DJSTAR_METRICS), hardened like DJSTAR_THREADS.
#pragma once

#include <optional>
#include <string>

namespace djstar::support {

/// Read `var` as a path: unset returns nullopt; the value is trimmed of
/// spaces and tabs; set-but-empty after trimming throws
/// std::invalid_argument("<var>: empty path") — a misspelled value must
/// not be silently ignored.
std::optional<std::string> env_path(const char* var);

}  // namespace djstar::support

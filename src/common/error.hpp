// Error handling for the ataman library.
//
// Library code throws ataman::Error for recoverable misuse (bad shapes,
// malformed files, invalid configs) and uses ATAMAN_ASSERT for internal
// invariants that indicate a bug rather than bad input.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace ataman {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void throw_error(const std::string& message,
                              const std::source_location& loc);
[[noreturn]] void assertion_failure(const char* expr,
                                    const std::string& message,
                                    const std::source_location& loc);
}  // namespace detail

// Throws ataman::Error with file:line context when `cond` is false.
inline void check(bool cond, const std::string& message,
                  const std::source_location loc =
                      std::source_location::current()) {
  if (!cond) detail::throw_error(message, loc);
}

// Literal-message overload: a passing check builds no std::string, so
// checks on per-pixel and per-step paths cost one branch. Messages that
// need concatenation belong behind `if (!cond) fail(...)` on hot paths.
inline void check(bool cond, const char* message,
                  const std::source_location loc =
                      std::source_location::current()) {
  if (!cond) detail::throw_error(message, loc);
}

[[noreturn]] inline void fail(
    const std::string& message,
    const std::source_location loc = std::source_location::current()) {
  detail::throw_error(message, loc);
}

}  // namespace ataman

// Internal invariant check; kept as a macro so the failing expression text
// is captured. Enabled in all build types: this library's correctness
// claims (bit-exact kernels) are worth the branch.
#define ATAMAN_ASSERT(expr)                                             \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::ataman::detail::assertion_failure(                              \
          #expr, "", std::source_location::current());                  \
    }                                                                   \
  } while (false)

#define ATAMAN_ASSERT_MSG(expr, msg)                                    \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::ataman::detail::assertion_failure(                              \
          #expr, (msg), std::source_location::current());               \
    }                                                                   \
  } while (false)

// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Runtime invariant checks, RocksDB/Abseil-style.
//
// Policy (see README "Building with sanitizers & running lint"):
//  * SENSORD_CHECK*  — always on, in every build type. Use for cheap
//    preconditions whose violation means the process must not continue:
//    constructor arguments, API contracts at subsystem boundaries, and
//    "this Status can never fail here" assertions. A failure prints the
//    expression (and operand values for the comparison forms) with its
//    file:line and aborts, so the bug is caught at the line it happened.
//  * SENSORD_DCHECK* — compiled out of Release (NDEBUG) builds, like
//    assert. Use on hot paths: per-element index checks, per-event queue
//    invariants, per-observation dimension checks. The asan-ubsan preset
//    builds Debug, so sanitizer runs exercise every DCHECK.
//
// All macros evaluate their operands exactly once (never zero times when
// active), and the compiled-out DCHECK forms still type-check their
// arguments, so a DCHECK-only expression cannot rot silently.

#ifndef SENSORD_UTIL_CHECK_H_
#define SENSORD_UTIL_CHECK_H_

#include <sstream>
#include <string>

namespace sensord {
namespace internal {

/// Prints "CHECK failure at file:line: message" to stderr and aborts.
[[noreturn]] void CheckFailed(const char* file, int line,
                              const std::string& message);

/// Renders one operand of a failed comparison check for the error message.
template <typename T>
std::string CheckOpValue(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// Renders a failed Status or StatusOr for SENSORD_CHECK_OK's message.
template <typename T>
std::string CheckOkToString(const T& status_like) {
  if constexpr (requires { status_like.ToString(); }) {
    return status_like.ToString();
  } else {
    return status_like.status().ToString();
  }
}

}  // namespace internal
}  // namespace sensord

/// Always-on invariant: aborts with the stringified condition on failure.
#define SENSORD_CHECK(cond)                                               \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::sensord::internal::CheckFailed(                                   \
          __FILE__, __LINE__, "SENSORD_CHECK(" #cond ") failed");         \
    }                                                                     \
  } while (false)

/// Always-on: `expr` must be an OK Status (or StatusOr). Prints the status
/// on failure. Works with any type exposing ok() and ToString().
#define SENSORD_CHECK_OK(expr)                                            \
  do {                                                                    \
    const auto& _sensord_check_status = (expr);                           \
    if (!_sensord_check_status.ok()) {                                    \
      ::sensord::internal::CheckFailed(                                   \
          __FILE__, __LINE__,                                             \
          std::string("SENSORD_CHECK_OK(" #expr ") failed: ") +           \
              ::sensord::internal::CheckOkToString(_sensord_check_status)); \
    }                                                                     \
  } while (false)

// Comparison form: evaluates each operand once and prints both values on
// failure, e.g. "SENSORD_CHECK_LT(i, size()) failed: 7 vs. 5".
#define SENSORD_INTERNAL_CHECK_OP(name, op, a, b)                         \
  do {                                                                    \
    const auto& _sensord_lhs = (a);                                       \
    const auto& _sensord_rhs = (b);                                       \
    if (!(_sensord_lhs op _sensord_rhs)) {                                \
      ::sensord::internal::CheckFailed(                                   \
          __FILE__, __LINE__,                                             \
          std::string(name "(" #a ", " #b ") failed: ") +                 \
              ::sensord::internal::CheckOpValue(_sensord_lhs) + " vs. " + \
              ::sensord::internal::CheckOpValue(_sensord_rhs));           \
    }                                                                     \
  } while (false)

#define SENSORD_CHECK_EQ(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_CHECK_EQ", ==, a, b)
#define SENSORD_CHECK_NE(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_CHECK_NE", !=, a, b)
#define SENSORD_CHECK_LE(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_CHECK_LE", <=, a, b)
#define SENSORD_CHECK_LT(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_CHECK_LT", <, a, b)
#define SENSORD_CHECK_GE(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_CHECK_GE", >=, a, b)
#define SENSORD_CHECK_GT(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_CHECK_GT", >, a, b)

// Debug-only variants. SENSORD_DCHECK_IS_ON() lets tests and slow invariant
// sweeps compile conditionally.
#if defined(NDEBUG) && !defined(SENSORD_DCHECK_ALWAYS_ON)

#define SENSORD_DCHECK_IS_ON() 0

// The operands stay inside an `if (false)` so they are type-checked but
// never evaluated; side effects in DCHECK arguments are a bug anyway.
#define SENSORD_DCHECK(cond) \
  do {                       \
    if (false) {             \
      (void)(cond);          \
    }                        \
  } while (false)
#define SENSORD_INTERNAL_DCHECK_NOP(a, b) \
  do {                                    \
    if (false) {                          \
      (void)(a);                          \
      (void)(b);                          \
    }                                     \
  } while (false)
#define SENSORD_DCHECK_OK(expr)     \
  do {                              \
    if (false) {                    \
      (void)(expr).ok();            \
    }                               \
  } while (false)
#define SENSORD_DCHECK_EQ(a, b) SENSORD_INTERNAL_DCHECK_NOP(a, b)
#define SENSORD_DCHECK_NE(a, b) SENSORD_INTERNAL_DCHECK_NOP(a, b)
#define SENSORD_DCHECK_LE(a, b) SENSORD_INTERNAL_DCHECK_NOP(a, b)
#define SENSORD_DCHECK_LT(a, b) SENSORD_INTERNAL_DCHECK_NOP(a, b)
#define SENSORD_DCHECK_GE(a, b) SENSORD_INTERNAL_DCHECK_NOP(a, b)
#define SENSORD_DCHECK_GT(a, b) SENSORD_INTERNAL_DCHECK_NOP(a, b)

#else  // !NDEBUG || SENSORD_DCHECK_ALWAYS_ON

#define SENSORD_DCHECK_IS_ON() 1

#define SENSORD_DCHECK(cond) SENSORD_CHECK(cond)
#define SENSORD_DCHECK_OK(expr) SENSORD_CHECK_OK(expr)
#define SENSORD_DCHECK_EQ(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_DCHECK_EQ", ==, a, b)
#define SENSORD_DCHECK_NE(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_DCHECK_NE", !=, a, b)
#define SENSORD_DCHECK_LE(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_DCHECK_LE", <=, a, b)
#define SENSORD_DCHECK_LT(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_DCHECK_LT", <, a, b)
#define SENSORD_DCHECK_GE(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_DCHECK_GE", >=, a, b)
#define SENSORD_DCHECK_GT(a, b) \
  SENSORD_INTERNAL_CHECK_OP("SENSORD_DCHECK_GT", >, a, b)

#endif  // NDEBUG && !SENSORD_DCHECK_ALWAYS_ON

#endif  // SENSORD_UTIL_CHECK_H_

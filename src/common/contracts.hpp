// Contract-checking layer used across the library.
//
// CA5G_CHECK validates preconditions and runtime invariants; it throws
// ca5g::common::CheckError so callers can catch and report. Following the
// C++ Core Guidelines (I.6/E.2) we express preconditions as checks and
// signal violations with exceptions rather than aborting — a violated
// contract is a diagnosable error, never undefined behaviour.
//
// Macro families:
//   CA5G_CHECK(cond) / CA5G_CHECK_MSG(cond, msg)
//       Always-on condition checks (hot paths included; keep conditions cheap).
//   CA5G_CHECK_EQ/GT/GE(a, b), CA5G_CHECK_EQ/LE/GE_MSG(a, b, msg)
//       Comparison checks that print both operands on failure, e.g.
//       "CA5G_CHECK_LE failed: (mcs <= kMaxMcsIndex) [31 vs 27]".
//   CA5G_CHECK_IN_RANGE(v, lo, hi)
//       Closed-interval value range check.
//   CA5G_DCHECK* variants of all of the above
//       Compiled out when CA5G_ENABLE_DCHECKS is 0 (the default for NDEBUG
//       builds); used for expensive or inner-loop invariants. Sanitizer CI
//       builds force them on (see the root CMakeLists.txt).

#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

// Debug-check toggle: on in debug builds, off in NDEBUG builds unless the
// build system overrides (sanitizer CI defines CA5G_ENABLE_DCHECKS=1).
#if !defined(CA5G_ENABLE_DCHECKS)
#if defined(NDEBUG)
#define CA5G_ENABLE_DCHECKS 0
#else
#define CA5G_ENABLE_DCHECKS 1
#endif
#endif

namespace ca5g::common {

/// Exception thrown when a CA5G_CHECK (or relative) fails.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

[[noreturn]] inline void raise_check_failure(const char* expr, const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << "CA5G_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

namespace detail {

/// Render one operand for a failure message. Streams when possible so enums
/// with operator<< and strings print naturally; integral/floating values
/// print at full precision for diagnosis.
template <typename T>
std::string repr(const T& value) {
  std::ostringstream os;
  if constexpr (std::is_floating_point_v<T>) {
    os.precision(17);
    os << value;
  } else if constexpr (std::is_enum_v<T>) {
    os << static_cast<std::underlying_type_t<T>>(value);
  } else {
    os << value;
  }
  return os.str();
}

[[noreturn]] inline void raise_cmp_failure(const char* check_name, const char* a_expr,
                                           const char* op, const char* b_expr,
                                           const std::string& a_val, const std::string& b_val,
                                           const char* file, int line,
                                           const std::string& msg) {
  std::ostringstream os;
  os << check_name << " failed: (" << a_expr << ' ' << op << ' ' << b_expr << ") [" << a_val
     << " vs " << b_val << "] at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace detail

}  // namespace ca5g::common

/// Validate a runtime condition; throws ca5g::common::CheckError on failure.
#define CA5G_CHECK(cond)                                                            \
  do {                                                                              \
    if (!(cond)) ::ca5g::common::raise_check_failure(#cond, __FILE__, __LINE__, ""); \
  } while (false)

/// Validate with an explanatory message (streamed).
#define CA5G_CHECK_MSG(cond, msg)                                          \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream ca5g_os_;                                         \
      ca5g_os_ << msg;                                                     \
      ::ca5g::common::raise_check_failure(#cond, __FILE__, __LINE__,       \
                                          ca5g_os_.str());                 \
    }                                                                      \
  } while (false)

// Internal: shared body for the operand-printing comparison checks. The
// operands are bound once (no double evaluation) and printed on failure.
#define CA5G_CHECK_CMP_IMPL_(name, a, op, b, msg)                                      \
  do {                                                                                 \
    const auto& ca5g_lhs_ = (a);                                                       \
    const auto& ca5g_rhs_ = (b);                                                       \
    if (!(ca5g_lhs_ op ca5g_rhs_)) {                                                   \
      std::ostringstream ca5g_os_;                                                     \
      ca5g_os_ << msg;                                                                 \
      ::ca5g::common::detail::raise_cmp_failure(                                       \
          name, #a, #op, #b, ::ca5g::common::detail::repr(ca5g_lhs_),                  \
          ::ca5g::common::detail::repr(ca5g_rhs_), __FILE__, __LINE__, ca5g_os_.str()); \
    }                                                                                  \
  } while (false)

/// Comparison checks that print both operand values on failure.
#define CA5G_CHECK_EQ(a, b) CA5G_CHECK_CMP_IMPL_("CA5G_CHECK_EQ", a, ==, b, "")
#define CA5G_CHECK_GT(a, b) CA5G_CHECK_CMP_IMPL_("CA5G_CHECK_GT", a, >, b, "")
#define CA5G_CHECK_GE(a, b) CA5G_CHECK_CMP_IMPL_("CA5G_CHECK_GE", a, >=, b, "")

/// Message-carrying variants.
#define CA5G_CHECK_EQ_MSG(a, b, msg) CA5G_CHECK_CMP_IMPL_("CA5G_CHECK_EQ", a, ==, b, msg)
#define CA5G_CHECK_LE_MSG(a, b, msg) CA5G_CHECK_CMP_IMPL_("CA5G_CHECK_LE", a, <=, b, msg)
#define CA5G_CHECK_GE_MSG(a, b, msg) CA5G_CHECK_CMP_IMPL_("CA5G_CHECK_GE", a, >=, b, msg)

/// Closed-interval range check: lo <= v <= hi, printing all three on failure.
#define CA5G_CHECK_IN_RANGE(v, lo, hi)                                                 \
  do {                                                                                 \
    const auto& ca5g_val_ = (v);                                                       \
    const auto& ca5g_lo_ = (lo);                                                       \
    const auto& ca5g_hi_ = (hi);                                                       \
    if (!(ca5g_lo_ <= ca5g_val_ && ca5g_val_ <= ca5g_hi_)) {                           \
      ::ca5g::common::detail::raise_cmp_failure(                                       \
          "CA5G_CHECK_IN_RANGE", #v, "in", "[" #lo ", " #hi "]",                       \
          ::ca5g::common::detail::repr(ca5g_val_),                                     \
          "[" + ::ca5g::common::detail::repr(ca5g_lo_) + ", " +                        \
              ::ca5g::common::detail::repr(ca5g_hi_) + "]",                            \
          __FILE__, __LINE__, "");                                                     \
    }                                                                                  \
  } while (false)

// Debug-only variants: full checks when CA5G_ENABLE_DCHECKS, otherwise the
// condition is type-checked but never evaluated (no side effects, no cost,
// no unused-variable warnings).
#if CA5G_ENABLE_DCHECKS
#define CA5G_DCHECK(cond) CA5G_CHECK(cond)
#define CA5G_DCHECK_MSG(cond, msg) CA5G_CHECK_MSG(cond, msg)
#define CA5G_DCHECK_EQ(a, b) CA5G_CHECK_EQ(a, b)
#define CA5G_DCHECK_GT(a, b) CA5G_CHECK_GT(a, b)
#define CA5G_DCHECK_GE(a, b) CA5G_CHECK_GE(a, b)
#define CA5G_DCHECK_IN_RANGE(v, lo, hi) CA5G_CHECK_IN_RANGE(v, lo, hi)
#define CA5G_DCHECK_EQ_MSG(a, b, msg) CA5G_CHECK_EQ_MSG(a, b, msg)
#define CA5G_DCHECK_LE_MSG(a, b, msg) CA5G_CHECK_LE_MSG(a, b, msg)
#define CA5G_DCHECK_GE_MSG(a, b, msg) CA5G_CHECK_GE_MSG(a, b, msg)
#else
/// Type-check but never evaluate: the expression sits behind a short-circuit
/// `false &&` inside sizeof, so operands keep their odr-uses suppressed while
/// unused-variable/-parameter warnings stay quiet.
#define CA5G_DCHECK_NOOP_(cond)                          \
  do {                                                   \
    (void)sizeof(static_cast<bool>(false && (cond)));    \
  } while (false)
#define CA5G_DCHECK(cond) CA5G_DCHECK_NOOP_(cond)
#define CA5G_DCHECK_MSG(cond, msg) CA5G_DCHECK_NOOP_(cond)
#define CA5G_DCHECK_EQ(a, b) CA5G_DCHECK_NOOP_((a) == (b))
#define CA5G_DCHECK_GT(a, b) CA5G_DCHECK_NOOP_((a) > (b))
#define CA5G_DCHECK_GE(a, b) CA5G_DCHECK_NOOP_((a) >= (b))
#define CA5G_DCHECK_IN_RANGE(v, lo, hi) CA5G_DCHECK_NOOP_((lo) <= (v) && (v) <= (hi))
#define CA5G_DCHECK_EQ_MSG(a, b, msg) CA5G_DCHECK_NOOP_((a) == (b))
#define CA5G_DCHECK_LE_MSG(a, b, msg) CA5G_DCHECK_NOOP_((a) <= (b))
#define CA5G_DCHECK_GE_MSG(a, b, msg) CA5G_DCHECK_NOOP_((a) >= (b))
#endif

#pragma once

namespace hpop::util {

/// Reports a failed HPOP_CHECK on stderr (the condition, its source
/// location and the caller's printf-style context) and aborts.
[[noreturn]] [[gnu::cold]] [[gnu::format(printf, 4, 5)]] void check_failed(
    const char* cond, const char* file, int line, const char* fmt, ...);

}  // namespace hpop::util

/// An invariant that results depend on: checked in every build type, unlike
/// assert, which RelWithDebInfo compiles out. On failure it prints the
/// condition and the printf-style context that follows it, then aborts:
///
///   HPOP_CHECK(when >= now_, "schedule_at %lld ns < now %lld ns", ...);
#define HPOP_CHECK(cond, ...)                                              \
  (static_cast<bool>(cond)                                                 \
       ? void(0)                                                           \
       : ::hpop::util::check_failed(#cond, __FILE__, __LINE__, __VA_ARGS__))

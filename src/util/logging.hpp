#pragma once

#include <sstream>
#include <string>

#include "util/time.hpp"

namespace hpop::util {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide log configuration. Tests and benches default to kWarn so
/// output stays reviewable; examples raise it to kInfo to narrate.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Lets this thread's log lines carry simulated time. A running Simulator
/// installs its clock; nullptr reverts to wall-clock-free output. Returns
/// the clock it replaces.
const TimePoint* set_log_clock(const TimePoint* now);

void log_line(LogLevel level, const std::string& component,
              const std::string& message);

/// Streaming log entry:  LOG(kInfo, "tcp") << "cwnd=" << cwnd;
class LogEntry {
 public:
  LogEntry(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogEntry() { log_line(level_, component_, stream_.str()); }
  LogEntry(const LogEntry&) = delete;
  LogEntry& operator=(const LogEntry&) = delete;

  template <typename T>
  LogEntry& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

}  // namespace hpop::util

#define HPOP_LOG(level, component) \
  if (::hpop::util::log_level() <= ::hpop::util::LogLevel::level) \
  ::hpop::util::LogEntry(::hpop::util::LogLevel::level, component)

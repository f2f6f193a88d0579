#include "util/logging.hpp"

#include <cstdio>
#include <utility>

namespace hpop::util {

namespace {
LogLevel g_level = LogLevel::kWarn;
thread_local const TimePoint* g_now = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }
LogLevel log_level() { return g_level; }
const TimePoint* set_log_clock(const TimePoint* now) {
  return std::exchange(g_now, now);
}

void log_line(LogLevel level, const std::string& component,
              const std::string& message) {
  if (level < g_level) return;
  if (g_now != nullptr) {
    std::fprintf(stderr, "[%12.6fs] %-5s %-10s %s\n", to_seconds(*g_now),
                 level_name(level), component.c_str(), message.c_str());
  } else {
    std::fprintf(stderr, "%-5s %-10s %s\n", level_name(level),
                 component.c_str(), message.c_str());
  }
}

std::string format_duration(Duration d) {
  char buf[64];
  if (d < kMicrosecond) {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(d));
  } else if (d < kMillisecond) {
    std::snprintf(buf, sizeof buf, "%.2fus",
                  static_cast<double>(d) / kMicrosecond);
  } else if (d < kSecond) {
    std::snprintf(buf, sizeof buf, "%.2fms", to_millis(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", to_seconds(d));
  }
  return buf;
}

}  // namespace hpop::util

#include "util/check.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace hpop::util {

void check_failed(const char* cond, const char* file, int line,
                  const char* fmt, ...) {
  std::fprintf(stderr, "HPOP_CHECK(%s) failed at %s:%d: ", cond, file, line);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace hpop::util

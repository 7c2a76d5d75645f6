#include "common/log.h"

#include <cstdarg>
#include <cstdio>

namespace oo::detail {

void log_warning(const char* tag, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  std::fprintf(stderr, "[WARN] %s: %s\n", tag, buf);
}

}  // namespace oo::detail

// Warn-once stderr logging, the simulator's only log output.
#pragma once

#include <atomic>

namespace oo::detail {
// Prints "[WARN] tag: message" to stderr.
void log_warning(const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
}  // namespace oo::detail

// Warn exactly once per call site: the first hit logs, later hits are
// silent (the condition usually repeats thousands of times per run — the
// repeat count belongs in a metric, not the log). The flag is per-process;
// campaign workers and engine shard lanes share one warning, which is the
// desired dedup (atomic exchange keeps the first-hit race benign under TSan).
#define OO_WARN_ONCE(tag, ...)                                        \
  do {                                                                \
    static std::atomic<bool> oo_warned_once_{false};                  \
    if (!oo_warned_once_.exchange(true, std::memory_order_relaxed))   \
      ::oo::detail::log_warning(tag, __VA_ARGS__);                    \
  } while (0)

#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

namespace ireduct {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  // The whole value must parse (std::from_chars: no '+' prefix,
  // whitespace or hex) and fit int64_t.
  const char* const end = raw + std::strlen(raw);
  int64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(raw, end, parsed);
  if (ec != std::errc() || ptr != end || parsed <= 0) return fallback;
  return parsed;
}

int EnvThreads() {
  return static_cast<int>(EnvInt64("IREDUCT_THREADS", 1));
}

}  // namespace ireduct

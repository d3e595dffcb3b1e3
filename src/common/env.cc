#include "common/env.h"

#include <cstdlib>

#include "common/numeric.h"

namespace ireduct {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  int64_t parsed = 0;
  if (raw == nullptr || !ParseExact(raw, &parsed) || parsed <= 0) {
    return fallback;
  }
  return parsed;
}

int EnvThreads() {
  return static_cast<int>(EnvInt64("IREDUCT_THREADS", 1));
}

}  // namespace ireduct

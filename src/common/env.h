// Environment-variable knobs shared by the bench harnesses and the
// evaluation layer (TRIALS, CENSUS_ROWS, IREDUCT_STEPS, IREDUCT_THREADS...).
#ifndef IREDUCT_COMMON_ENV_H_
#define IREDUCT_COMMON_ENV_H_

#include <cstdint>

namespace ireduct {

/// Reads a positive integer environment variable, or returns `fallback` if
/// unset/invalid (not exactly a decimal integer, beyond int64_t, or
/// <= 0).
int64_t EnvInt64(const char* name, int64_t fallback);

/// The IREDUCT_THREADS knob: worker count for the evaluation layer's
/// parallel paths (fused marginal evaluation, parallel trials). Defaults
/// to 1 — every parallel path is bit-identical to its sequential
/// counterpart, so the knob only trades wall-clock.
int EnvThreads();

}  // namespace ireduct

#endif  // IREDUCT_COMMON_ENV_H_

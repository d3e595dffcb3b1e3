#include "dp/laplace_mechanism.h"

#include <cmath>

#include "common/arena.h"

namespace ireduct {

namespace {

// Below this size the per-element sampler is both faster (no substream
// setup) and keeps the historical draw sequence; at or above it the batch
// sampler wins and the release switches to the four-substream batch stream
// (see BitGen::LaplaceBatch — still deterministic, just a different
// function of the seed).
constexpr size_t kBatchThreshold = 16;

// Round scratch for the noise staging buffers. Call-local lifetime only:
// every allocation below is dead by return, so Reset-at-entry is safe.
Arena& ScratchArena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace

Result<std::vector<double>> AddLaplaceNoise(std::span<const double> values,
                                            std::span<const double> scales,
                                            BitGen& gen) {
  if (values.size() != scales.size()) {
    return Status::InvalidArgument("values/scales size mismatch");
  }
  for (double s : scales) {
    if (!(s > 0) || !std::isfinite(s)) {
      return Status::InvalidArgument("noise scales must be positive finite");
    }
  }
  const size_t n = values.size();
  std::vector<double> noisy(n);
  if (n >= kBatchThreshold) {
    gen.LaplaceBatch(scales, noisy);
    for (size_t i = 0; i < n; ++i) noisy[i] += values[i];
  } else {
    for (size_t i = 0; i < n; ++i) {
      noisy[i] = values[i] + gen.Laplace(scales[i]);
    }
  }
  return noisy;
}

Result<std::vector<double>> LaplaceNoise(const Workload& workload,
                                         std::span<const double> group_scales,
                                         BitGen& gen) {
  if (group_scales.size() != workload.num_groups()) {
    return Status::InvalidArgument("one scale per group required");
  }
  // Stage the per-query expansion in the arena instead of allocating a
  // fresh vector every NoiseDown round.
  Arena& arena = ScratchArena();
  arena.Reset();
  std::span<double> per_query =
      arena.AllocZeroed<double>(workload.num_queries());
  workload.PerQueryScalesInto(group_scales, per_query);
  return AddLaplaceNoise(workload.true_answers(), per_query, gen);
}

}  // namespace ireduct

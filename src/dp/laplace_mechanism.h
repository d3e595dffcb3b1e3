// The Laplace mechanism with per-query noise scales.
//
// Proposition 1 (Dwork et al.): adding i.i.d. Laplace(λ) noise to every
// answer of Q gives (S(Q)/λ)-differential privacy. Proposition 2 (Xiao et
// al.): with per-query scales Λ, it gives GS(Q, Λ)-differential privacy.
// `LaplaceNoise` below is the `LaplaceNoise(T, Q, Λ)` primitive used
// throughout the paper's pseudo-code.
#ifndef IREDUCT_DP_LAPLACE_MECHANISM_H_
#define IREDUCT_DP_LAPLACE_MECHANISM_H_

#include <span>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "dp/workload.h"

namespace ireduct {

/// Adds independent Laplace noise to each value; `scales[i]` is the noise
/// scale for `values[i]`. Sizes must match and scales must be positive.
/// Batches of >= 16 draw through BitGen::LaplaceBatch (four Fork
/// substreams); smaller batches draw per element. Either way the output is
/// a deterministic function of (gen state, values, scales) — identical at
/// every thread count and on every machine.
Result<std::vector<double>> AddLaplaceNoise(std::span<const double> values,
                                            std::span<const double> scales,
                                            BitGen& gen);

/// Adds Laplace noise to every true answer of `workload`, with all queries
/// in group g using `group_scales[g]`. The release is
/// GS(Q, Λ)-differentially private (Proposition 2).
Result<std::vector<double>> LaplaceNoise(const Workload& workload,
                                         std::span<const double> group_scales,
                                         BitGen& gen);

}  // namespace ireduct

#endif  // IREDUCT_DP_LAPLACE_MECHANISM_H_

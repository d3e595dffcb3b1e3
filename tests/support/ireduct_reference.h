// The seed implementation of iReduct's Figure 4, kept outside the library.
//
// One group per iteration, a full generalized-sensitivity recompute per
// trial and an O(n) linear PickQueries scan. It serves two uses: the parity
// oracle the tests hold RunIReduct to (same answers, scales, epsilon_spent,
// iterations and resample_calls at every seed), and the loop that runs an
// arbitrary PickQueries policy for bench/ablation_ireduct and
// bench/scaling_study. It emits no trace spans, events or metrics.
#ifndef IREDUCT_TESTS_SUPPORT_IREDUCT_REFERENCE_H_
#define IREDUCT_TESTS_SUPPORT_IREDUCT_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "algorithms/ireduct.h"

namespace ireduct {

/// A PickQueries policy (Section 4.3): receives the workload, the current
/// noisy answers, per-group scales, the active-group mask, δ and λΔ;
/// returns the group to reduce next or kNoGroup to stop. It must not
/// consult the true answers (that would void the privacy guarantee).
using PickGroupFn = std::function<size_t(
    const Workload&, std::span<const double> /*noisy_answers*/,
    std::span<const double> /*group_scales*/,
    std::span<const uint8_t> /*active*/, double /*delta*/,
    double /*lambda_delta*/)>;

/// Runs sequential Figure 4 with `pick` choosing each group. A null `pick`
/// uses the linear-scan selector for params.objective (PickGroupIReduct or
/// PickGroupMaxRelativeError). Refuses batch_size or num_threads other
/// than 1 and any checkpoint or resume, which only RunIReduct implements.
Result<MechanismOutput> RunIReductReference(const Workload& workload,
                                            const IReductParams& params,
                                            BitGen& gen,
                                            PickGroupFn pick = nullptr);

}  // namespace ireduct

#endif  // IREDUCT_TESTS_SUPPORT_IREDUCT_REFERENCE_H_

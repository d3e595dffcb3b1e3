#include "support/ireduct_reference.h"

#include <vector>

#include "algorithms/selection.h"
#include "dp/laplace_coupling.h"
#include "dp/laplace_mechanism.h"
#include "dp/noise_down.h"

namespace ireduct {

Result<MechanismOutput> RunIReductReference(const Workload& workload,
                                            const IReductParams& params,
                                            BitGen& gen, PickGroupFn pick) {
  if (params.batch_size != 1 || params.num_threads != 1 ||
      params.checkpoint.enabled() || params.resume != nullptr) {
    return Status::InvalidArgument(
        "the reference loop runs sequential Figure 4 only");
  }
  if (!pick) {
    pick = params.objective == IReductObjective::kMaxRelativeError
               ? PickGroupFn(PickGroupMaxRelativeError)
               : PickGroupFn(PickGroupIReduct);
  }

  // Lines 1-3: start every group at λmax; if even that violates the
  // budget, the workload cannot be released at acceptable noise.
  MechanismOutput out;
  out.group_scales.assign(workload.num_groups(), params.lambda_max);
  if (workload.GeneralizedSensitivity(out.group_scales) > params.epsilon) {
    return Status::PrivacyBudgetExceeded(
        "GS at lambda_max already exceeds epsilon; no release possible");
  }

  // Line 4: initial noisy answers.
  IREDUCT_ASSIGN_OR_RETURN(out.answers,
                           LaplaceNoise(workload, out.group_scales, gen));

  // Lines 5-16: iterative noise reduction over the working set.
  std::vector<uint8_t> active(workload.num_groups(), 1);
  for (;;) {
    const size_t g = pick(workload, out.answers, out.group_scales, active,
                          params.delta, params.lambda_delta);
    if (g == kNoGroup) break;
    const double old_scale = out.group_scales[g];
    const double new_scale = old_scale - params.lambda_delta;

    // Lines 8-10: trial reduction, admitted only if GS stays within ε.
    out.group_scales[g] = new_scale;
    const double gs = workload.GeneralizedSensitivity(out.group_scales);
    const bool fits = new_scale > 0 && gs <= params.epsilon;
    if (!fits) {
      // Lines 13-16: revert and retire the group.
      out.group_scales[g] = old_scale;
      active[g] = 0;
      continue;
    }

    // Lines 11-12: correlated resample of each answer down to new_scale.
    const QueryGroup& group = workload.group(g);
    if (params.reducer == NoiseReducer::kPaperNoiseDown) {
      IREDUCT_RETURN_NOT_OK(NoiseDownGroup(
          workload.true_answers().subspan(group.begin, group.size()),
          std::span<double>(out.answers).subspan(group.begin, group.size()),
          old_scale, new_scale, gen));
    } else {
      for (uint32_t i = group.begin; i < group.end; ++i) {
        IREDUCT_ASSIGN_OR_RETURN(
            out.answers[i],
            CoupledNoiseDown(workload.true_answer(i), out.answers[i],
                             old_scale, new_scale, gen));
      }
    }
    out.resample_calls += group.size();
    ++out.iterations;
  }

  out.epsilon_spent = workload.GeneralizedSensitivity(out.group_scales);
  return out;
}

}  // namespace ireduct

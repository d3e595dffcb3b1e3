#include "dp/incremental_sensitivity.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

// Relative distance from the budget within which TrialForBudget re-takes
// an incremental trial with a full recompute. Drift is bounded far below
// this by the periodic resync, so the band is hit rarely and the amortized
// cost stays O(1).
constexpr double kBudgetGuardRel = 1e-9;

}  // namespace

IncrementalSensitivity::IncrementalSensitivity(const Workload& workload,
                                               std::span<const double> scales,
                                               size_t resync_interval)
    : workload_(&workload),
      scales_(scales.begin(), scales.end()),
      incremental_(!workload.has_custom_sensitivity()),
      resync_interval_(resync_interval == 0 ? 1 : resync_interval) {
  IREDUCT_DCHECK(scales_.size() == workload.num_groups());
  coeffs_.reserve(workload.num_groups());
  for (size_t g = 0; g < workload.num_groups(); ++g) {
    coeffs_.push_back(workload.group(g).sensitivity_coeff);
  }
  value_ = FullRecompute();
}

double IncrementalSensitivity::FullRecompute() const {
  IREDUCT_METRIC_COUNT("ireduct.gs_full_recomputes", 1);
  return workload_->GeneralizedSensitivity(scales_);
}

double IncrementalSensitivity::Trial(size_t g, double new_scale) {
  IREDUCT_DCHECK(g < scales_.size());
  if (!(new_scale > 0)) return std::numeric_limits<double>::infinity();
  if (!incremental_) return TrialExact(g, new_scale);
  IREDUCT_METRIC_COUNT("ireduct.gs_incremental_hits", 1);
  return value_ + coeffs_[g] * (1.0 / new_scale - 1.0 / scales_[g]);
}

double IncrementalSensitivity::TrialExact(size_t g, double new_scale) {
  IREDUCT_DCHECK(g < scales_.size());
  const double old_scale = scales_[g];
  scales_[g] = new_scale;
  const double gs = FullRecompute();
  scales_[g] = old_scale;
  return gs;
}

double IncrementalSensitivity::TrialForBudget(size_t g, double new_scale,
                                              double budget) {
  const double gs = Trial(g, new_scale);
  if (incremental_ && std::fabs(gs - budget) <= kBudgetGuardRel * budget) {
    return TrialExact(g, new_scale);
  }
  return gs;
}

void IncrementalSensitivity::Commit(size_t g, double new_scale) {
  IREDUCT_DCHECK(g < scales_.size());
  const double old_scale = scales_[g];
  scales_[g] = new_scale;
  if (!incremental_) {
    value_ = FullRecompute();
    return;
  }
  // Kahan-compensated accumulation of the move's exact delta.
  const double delta = coeffs_[g] * (1.0 / new_scale - 1.0 / old_scale);
  const double y = delta - compensation_;
  const double t = value_ + y;
  compensation_ = (t - value_) - y;
  value_ = t;
  if (++commits_since_resync_ >= resync_interval_) Resync();
}

double IncrementalSensitivity::Resync() {
  value_ = FullRecompute();
  compensation_ = 0;
  commits_since_resync_ = 0;
  return value_;
}

}  // namespace ireduct

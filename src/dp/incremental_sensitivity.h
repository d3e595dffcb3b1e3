// Incremental generalized-sensitivity accounting for the iReduct /
// iResamp refinement loops.
//
// The Figure 4 loop changes exactly one group scale per step, yet the seed
// implementation recomputed GS(Λ) = Σ_g c_g/λ_g from scratch — O(m) per
// iteration and the dominant cost at large m. For additive workloads the
// effect of moving group g from λ to λ' is exactly c_g·(1/λ' − 1/λ), so
// this tracker maintains GS as a running Kahan-compensated sum and answers
// a trial move in O(1). Two safeguards keep it honest:
//
//  * Drift control: every `resync_interval` committed moves (default 1024)
//    the running value is replaced by a full Kahan recompute over the
//    current scales, bounding accumulated round-off far below the 1e-9
//    relative envelope the property tests assert.
//  * Exactness on demand: TrialExact()/Resync() evaluate the workload's own
//    GeneralizedSensitivity — bit-identical to what a non-incremental loop
//    would compute — for boundary decisions (TrialForBudget: admit vs
//    retire within a guard band of ε) and for the final reported
//    epsilon_spent.
//
// Workloads with a custom SensitivityFn (Workload::CreateWithSensitivityFn)
// need not decompose additively, so for them every query transparently
// falls back to a full recompute; callers do not change.
#ifndef IREDUCT_DP_INCREMENTAL_SENSITIVITY_H_
#define IREDUCT_DP_INCREMENTAL_SENSITIVITY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "dp/workload.h"

namespace ireduct {

class IncrementalSensitivity {
 public:
  /// Full recompute cadence that keeps drift ≪ 1e-9 relative while costing
  /// O(m/1024) amortized per committed move.
  static constexpr size_t kDefaultResyncInterval = 1024;

  /// Snapshots `scales` (one per group) and computes the initial GS with a
  /// full pass. The workload must outlive the tracker.
  IncrementalSensitivity(const Workload& workload,
                         std::span<const double> scales,
                         size_t resync_interval = kDefaultResyncInterval);

  /// False when the workload carries a custom SensitivityFn and every
  /// query is a full recompute.
  bool incremental() const { return incremental_; }

  /// Current GS at the tracked scales (running compensated value on the
  /// incremental path; exact on the fallback path).
  double value() const { return value_; }

  /// GS with group g's scale moved to `new_scale`, without committing.
  /// O(1) on the incremental path; +infinity for non-positive scales.
  double Trial(size_t g, double new_scale);

  /// Like Trial but always a full recompute through the workload —
  /// bit-identical to Workload::GeneralizedSensitivity on the trial scale
  /// vector.
  double TrialExact(size_t g, double new_scale);

  /// The GS to test `budget` against for moving group g to `new_scale`:
  /// Trial, re-taken as TrialExact when it lands within 1e-9 relative of
  /// `budget`. Admit/retire decisions are then bit-identical to those of a
  /// loop that recomputes GS from scratch, even at the budget boundary.
  double TrialForBudget(size_t g, double new_scale, double budget);

  /// Applies the move: records the new scale and folds the GS delta into
  /// the running sum (or recomputes, on the fallback path). Triggers the
  /// periodic full resync.
  void Commit(size_t g, double new_scale);

  /// Replaces the running value with a full recompute over the current
  /// scales and returns it. The result is bit-identical to calling
  /// Workload::GeneralizedSensitivity on the tracked scale vector, so it
  /// is the right value to publish as epsilon_spent.
  double Resync();

  /// The tracked per-group scales.
  std::span<const double> scales() const { return scales_; }

  /// The running totals a checkpoint must carry for a resumed tracker to
  /// continue bit-identically to the interrupted one: the compensated sum,
  /// its Kahan carry, and the position in the periodic-resync cycle.
  struct Snapshot {
    double value = 0;
    double compensation = 0;
    uint64_t commits_since_resync = 0;
  };

  Snapshot Save() const {
    return Snapshot{value_, compensation_,
                    static_cast<uint64_t>(commits_since_resync_)};
  }

  /// Overwrites the running totals with a saved snapshot. The tracker must
  /// have been constructed over the checkpoint's scale vector; the restored
  /// value then matches the interrupted tracker bit for bit (construction
  /// alone would recompute and lose the accumulated Kahan carry).
  void Restore(const Snapshot& snapshot) {
    value_ = snapshot.value;
    compensation_ = snapshot.compensation;
    commits_since_resync_ =
        static_cast<size_t>(snapshot.commits_since_resync);
  }

 private:
  double FullRecompute() const;

  const Workload* workload_;
  std::vector<double> scales_;
  std::vector<double> coeffs_;  // hoisted group sensitivity coefficients
  bool incremental_;
  size_t resync_interval_;
  size_t commits_since_resync_ = 0;
  double value_ = 0;
  double compensation_ = 0;  // Kahan carry for the running sum
};

}  // namespace ireduct

#endif  // IREDUCT_DP_INCREMENTAL_SENSITIVITY_H_

// Post-processing of noisy marginals (paper Conclusion; cf. Barak et al.,
// PODS'07). Differentially private marginals can be negative, fractional
// and mutually inconsistent; any data-independent post-processing is free
// of privacy cost. This module provides the standard repairs:
//
//   * non-negativity clamping and integer rounding;
//   * projection of a marginal onto an attribute subset (summing out);
//   * total consistency across a marginal set (every marginal of the same
//     table must sum to |T|);
//   * pairwise projection consistency: when one marginal's attributes are
//     a subset of another's, the finer marginal is adjusted (least-squares
//     style: the residual is spread evenly over the contributing cells) so
//     that its projection reproduces the coarser one.
#ifndef IREDUCT_MARGINALS_POSTPROCESS_H_
#define IREDUCT_MARGINALS_POSTPROCESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "marginals/marginal.h"

namespace ireduct {

/// Returns a copy of `marginal` with every count clamped to >= 0.
Marginal ClampNonNegative(const Marginal& marginal);

/// Returns a copy of `marginal` with every count rounded to the nearest
/// integer (ties away from zero).
Marginal RoundCounts(const Marginal& marginal);

/// True when `sub` is a subsequence of `super`: the attribute lists a
/// table over `super` can be projected onto.
bool IsSubsequence(std::span<const uint32_t> sub,
                   std::span<const uint32_t> super);

/// Projects `marginal` onto `keep` (a subsequence of its attributes),
/// summing out the rest. `keep` must be non-empty (an empty one is
/// refused) and listed in the same order as in the marginal's spec. Cells
/// are added in fine-cell order, so a table of integer counts below 2^53
/// projects to exactly the counts a direct scan gives.
Result<Marginal> ProjectMarginal(const Marginal& marginal,
                                 std::span<const uint32_t> keep);

/// Additively shifts every count of each marginal so all totals equal
/// `target_total` (e.g. the public dataset cardinality, or the mean of the
/// noisy totals — the minimum-L2 repair).
std::vector<Marginal> EnforceTotal(std::vector<Marginal> marginals,
                                   double target_total);

/// Mean of the marginals' noisy totals — the natural consistency target
/// when |T| itself is not public.
double MeanTotal(std::span<const Marginal> marginals);

/// Adjusts `fine` minimally (in L2) so that its projection onto `coarse`'s
/// attributes equals `coarse`: each projected group's residual is spread
/// evenly over its contributing cells. `coarse.spec()` must be a
/// subsequence of `fine.spec()`.
Result<Marginal> FitProjection(const Marginal& fine, const Marginal& coarse);

}  // namespace ireduct

#endif  // IREDUCT_MARGINALS_POSTPROCESS_H_

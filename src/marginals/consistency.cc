#include "marginals/consistency.h"

#include <algorithm>
#include <cmath>

#include "marginals/postprocess.h"

namespace ireduct {

namespace {

// True if `inner` is a subsequence of `outer` (the ProjectMarginal
// requirement) and strictly smaller.
bool IsStrictSubsequence(const MarginalSpec& inner,
                         const MarginalSpec& outer) {
  return inner.attributes.size() < outer.attributes.size() &&
         IsSubsequence(inner.attributes, outer.attributes);
}

struct SubsetPair {
  size_t coarse;
  size_t fine;
};

std::vector<SubsetPair> FindSubsetPairs(
    std::span<const Marginal> marginals) {
  std::vector<SubsetPair> pairs;
  for (size_t i = 0; i < marginals.size(); ++i) {
    for (size_t j = 0; j < marginals.size(); ++j) {
      if (i != j && IsStrictSubsequence(marginals[i].spec(),
                                        marginals[j].spec())) {
        pairs.push_back(SubsetPair{i, j});
      }
    }
  }
  return pairs;
}

}  // namespace

double MaxProjectionDiscrepancy(std::span<const Marginal> marginals) {
  double worst = 0;
  for (const SubsetPair& pair : FindSubsetPairs(marginals)) {
    auto projected = ProjectMarginal(
        marginals[pair.fine], marginals[pair.coarse].spec().attributes);
    if (!projected.ok()) continue;
    for (size_t c = 0; c < projected->num_cells(); ++c) {
      worst = std::fmax(worst, std::fabs(projected->count(c) -
                                         marginals[pair.coarse].count(c)));
    }
  }
  return worst;
}

Result<std::vector<Marginal>> MakeMutuallyConsistent(
    std::vector<Marginal> marginals, const ConsistencyOptions& options) {
  if (marginals.empty()) {
    return Status::InvalidArgument("need at least one marginal");
  }
  if (options.max_rounds < 1 || !(options.tolerance >= 0)) {
    return Status::InvalidArgument("invalid consistency options");
  }
  const double total = options.target_total > 0 ? options.target_total
                                                : MeanTotal(marginals);
  const std::vector<SubsetPair> pairs = FindSubsetPairs(marginals);

  marginals = EnforceTotal(std::move(marginals), total);
  for (int round = 0; round < options.max_rounds; ++round) {
    if (MaxProjectionDiscrepancy(marginals) <= options.tolerance) break;
    for (const SubsetPair& pair : pairs) {
      IREDUCT_ASSIGN_OR_RETURN(
          Marginal projected,
          ProjectMarginal(marginals[pair.fine],
                          marginals[pair.coarse].spec().attributes));
      // Both tables estimate the same counts; average them into the
      // coarse table, then redistribute the fine one to match.
      std::vector<double> averaged(projected.num_cells());
      for (size_t c = 0; c < averaged.size(); ++c) {
        averaged[c] =
            (projected.count(c) + marginals[pair.coarse].count(c)) / 2;
      }
      IREDUCT_ASSIGN_OR_RETURN(
          Marginal coarse,
          Marginal::FromCounts(marginals[pair.coarse].spec(),
                               marginals[pair.coarse].domain_sizes(),
                               std::move(averaged)));
      marginals[pair.coarse] = std::move(coarse);
      IREDUCT_ASSIGN_OR_RETURN(
          Marginal fitted,
          FitProjection(marginals[pair.fine], marginals[pair.coarse]));
      marginals[pair.fine] = std::move(fitted);
    }
    marginals = EnforceTotal(std::move(marginals), total);
  }
  return marginals;
}

}  // namespace ireduct

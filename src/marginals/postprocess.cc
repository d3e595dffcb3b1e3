#include "marginals/postprocess.h"

#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/numeric.h"

namespace ireduct {

namespace {

Marginal WithCounts(const Marginal& original, std::vector<double> counts) {
  auto rebuilt = Marginal::FromCounts(original.spec(),
                                      original.domain_sizes(),
                                      std::move(counts));
  IREDUCT_CHECK(rebuilt.ok());
  return std::move(rebuilt).value();
}

}  // namespace

Marginal ClampNonNegative(const Marginal& marginal) {
  std::vector<double> counts(marginal.counts().begin(),
                             marginal.counts().end());
  for (double& c : counts) c = std::fmax(c, 0.0);
  return WithCounts(marginal, std::move(counts));
}

Marginal RoundCounts(const Marginal& marginal) {
  std::vector<double> counts(marginal.counts().begin(),
                             marginal.counts().end());
  for (double& c : counts) c = std::round(c);
  return WithCounts(marginal, std::move(counts));
}

bool IsSubsequence(std::span<const uint32_t> sub,
                   std::span<const uint32_t> super) {
  size_t matched = 0;
  for (const uint32_t attr : super) {
    if (matched < sub.size() && sub[matched] == attr) ++matched;
  }
  return matched == sub.size();
}

namespace {

// Positions (indices into fine.spec().attributes) of the coarse attributes
// within the fine spec, or an error if not a subsequence.
Result<std::vector<size_t>> SubsequencePositions(const MarginalSpec& fine,
                                                 const MarginalSpec& coarse) {
  std::vector<size_t> positions;
  size_t cursor = 0;
  for (uint32_t attr : coarse.attributes) {
    while (cursor < fine.attributes.size() &&
           fine.attributes[cursor] != attr) {
      ++cursor;
    }
    if (cursor == fine.attributes.size()) {
      return Status::InvalidArgument(
          "coarse attributes are not a subsequence of the fine marginal's");
    }
    positions.push_back(cursor++);
  }
  return positions;
}

// Calls visit(cell, coarse_cell) for every cell of `fine` in cell order,
// where coarse_cell is the cell's index in the projection onto the fine
// attributes at `positions`. An odometer over the fine coordinates keeps
// the coarse index current, so no cell is decoded from scratch.
template <typename Visit>
void ForEachCoarseCell(const Marginal& fine,
                       const std::vector<size_t>& positions, Visit visit) {
  const std::vector<uint32_t>& domains = fine.domain_sizes();
  // Coarse stride of each fine attribute; 0 for the summed-out ones.
  std::vector<size_t> steps(domains.size(), 0);
  size_t stride = 1;
  for (size_t k = positions.size(); k-- > 0;) {
    steps[positions[k]] = stride;
    stride *= domains[positions[k]];
  }
  std::vector<uint32_t> coords(domains.size(), 0);
  size_t coarse_cell = 0;
  for (size_t cell = 0; cell < fine.num_cells(); ++cell) {
    visit(cell, coarse_cell);
    // Row-major: the last attribute varies fastest.
    for (size_t p = domains.size(); p-- > 0;) {
      if (++coords[p] < domains[p]) {
        coarse_cell += steps[p];
        break;
      }
      coords[p] = 0;
      coarse_cell -= steps[p] * (domains[p] - 1);
    }
  }
}

}  // namespace

Result<Marginal> ProjectMarginal(const Marginal& marginal,
                                 std::span<const uint32_t> keep) {
  if (keep.empty()) {
    return Status::InvalidArgument("projection needs >= 1 attribute");
  }
  MarginalSpec coarse_spec;
  coarse_spec.attributes.assign(keep.begin(), keep.end());
  IREDUCT_ASSIGN_OR_RETURN(
      std::vector<size_t> positions,
      SubsequencePositions(marginal.spec(), coarse_spec));

  std::vector<uint32_t> coarse_domains;
  size_t cells = 1;
  for (size_t p : positions) {
    coarse_domains.push_back(marginal.domain_sizes()[p]);
    cells *= coarse_domains.back();
  }
  std::vector<double> counts(cells, 0.0);
  ForEachCoarseCell(marginal, positions, [&](size_t cell, size_t coarse) {
    counts[coarse] += marginal.count(cell);
  });
  return Marginal::FromCounts(std::move(coarse_spec),
                              std::move(coarse_domains), std::move(counts));
}

double MeanTotal(std::span<const Marginal> marginals) {
  IREDUCT_CHECK(!marginals.empty());
  KahanSum acc;
  for (const Marginal& m : marginals) acc.Add(m.Total());
  return acc.value() / marginals.size();
}

std::vector<Marginal> EnforceTotal(std::vector<Marginal> marginals,
                                   double target_total) {
  std::vector<Marginal> out;
  out.reserve(marginals.size());
  for (Marginal& m : marginals) {
    const double shift = (target_total - m.Total()) / m.num_cells();
    std::vector<double> counts(m.counts().begin(), m.counts().end());
    for (double& c : counts) c += shift;
    out.push_back(WithCounts(m, std::move(counts)));
  }
  return out;
}

Result<Marginal> FitProjection(const Marginal& fine, const Marginal& coarse) {
  IREDUCT_ASSIGN_OR_RETURN(
      std::vector<size_t> positions,
      SubsequencePositions(fine.spec(), coarse.spec()));
  for (size_t i = 0; i < positions.size(); ++i) {
    if (fine.domain_sizes()[positions[i]] != coarse.domain_sizes()[i]) {
      return Status::InvalidArgument("domain sizes disagree");
    }
  }

  // Group the fine cells by their coarse cell; spread each residual evenly.
  const size_t coarse_cells = coarse.num_cells();
  std::vector<double> projected(coarse_cells, 0.0);
  std::vector<double> group_size(coarse_cells, 0.0);
  std::vector<size_t> coarse_of(fine.num_cells());
  ForEachCoarseCell(fine, positions, [&](size_t cell, size_t cc) {
    coarse_of[cell] = cc;
    projected[cc] += fine.count(cell);
    group_size[cc] += 1.0;
  });

  std::vector<double> counts(fine.counts().begin(), fine.counts().end());
  for (size_t cell = 0; cell < counts.size(); ++cell) {
    const size_t cc = coarse_of[cell];
    counts[cell] += (coarse.count(cc) - projected[cc]) / group_size[cc];
  }
  return Marginal::FromCounts(fine.spec(), fine.domain_sizes(),
                              std::move(counts));
}

}  // namespace ireduct

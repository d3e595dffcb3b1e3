// Marginals: projections of a multi-dimensional histogram onto attribute
// subsets (paper Section 5.1). A marginal over attributes A1..Ak is a table
// of Π|Ai| counts, one per point of the projected domain.
#ifndef IREDUCT_MARGINALS_MARGINAL_H_
#define IREDUCT_MARGINALS_MARGINAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace ireduct {

/// Which attributes a marginal projects onto (indices into the schema).
struct MarginalSpec {
  std::vector<uint32_t> attributes;

  /// Human-readable name like "Age x Gender".
  std::string Name(const Schema& schema) const;
};

/// Checks that `spec` names at least one attribute, each distinct and below
/// `num_attributes`: the rule every marginal path (Marginal::Compute, the
/// fused evaluator, the query server's admission) applies to a spec.
Status ValidateSpec(const MarginalSpec& spec, size_t num_attributes);

/// Cells in a table over the given domain sizes; refuses a zero domain and
/// tables of more than 2^40 cells.
Result<size_t> CellCount(const std::vector<uint32_t>& domain_sizes);

/// A computed (or noisy) marginal: the spec, the projected domain sizes and
/// a flat row-major count table.
class Marginal {
 public:
  /// Scans `dataset` once and counts every cell. With non-empty `rows`,
  /// only the listed row indices are counted (used for cross-validation
  /// folds). Spec attributes must be distinct and in range.
  static Result<Marginal> Compute(const Dataset& dataset, MarginalSpec spec,
                                  std::span<const uint32_t> rows = {});

  /// Wraps externally produced (e.g. noisy) counts; sizes must multiply to
  /// counts.size().
  static Result<Marginal> FromCounts(MarginalSpec spec,
                                     std::vector<uint32_t> domain_sizes,
                                     std::vector<double> counts);

  const MarginalSpec& spec() const { return spec_; }
  const std::vector<uint32_t>& domain_sizes() const { return domain_sizes_; }
  size_t num_cells() const { return counts_.size(); }
  double count(size_t cell) const { return counts_[cell]; }
  std::span<const double> counts() const { return counts_; }

  /// Flat cell index of the given per-attribute values (aligned with
  /// spec().attributes; row-major, first attribute varies slowest).
  size_t CellIndex(std::span<const uint16_t> values) const;

  /// Inverse of CellIndex.
  std::vector<uint16_t> CellCoordinates(size_t cell) const;

  /// Sum of all counts (equals |T| for a marginal computed over all rows).
  double Total() const;

 private:
  Marginal(MarginalSpec spec, std::vector<uint32_t> domain_sizes,
           std::vector<double> counts);

  MarginalSpec spec_;
  std::vector<uint32_t> domain_sizes_;  // aligned with spec_.attributes
  std::vector<size_t> strides_;         // row-major strides
  std::vector<double> counts_;
};

}  // namespace ireduct

#endif  // IREDUCT_MARGINALS_MARGINAL_H_

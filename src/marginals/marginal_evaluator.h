// Fused evaluation of marginal collections.
//
// Computing the true tables for an all-k-way task with Marginal::Compute
// costs one full dataset scan *per marginal* — 36 scans for the paper's 2D
// census task. MarginalSetEvaluator instead counts a few *joint tables* in
// one row-sharded pass over the columnar Dataset and reads every requested
// marginal out of one of them: a copy when the spec lists the table's
// attributes, otherwise ProjectMarginal (the data-cube lattice). The pass
// is table-major: each shard walks its rows once per joint table, one
// CountCells call each (count_kernel.h), so its cost is about rows ×
// tables, and every spec that joins another's table saves a walk.
//
// Grouping is planned per pass, because it depends on the rows a shard
// counts. Specs are placed largest first:
//   * a spec whose attribute list is a subsequence of a planned table
//     joins the smallest such table that has at most as many cells as the
//     pass has rows (the rule MarginalCache applies to cached sources), so
//     reading it out never costs more than the walk it replaces;
//   * otherwise a spec with an ascending attribute list widens the
//     ascending table whose sorted union with it is smallest, while that
//     union stays within CountCells' 16-bit index (65,536 cells) and one
//     cell per 32 rows of a shard;
//   * any other spec is counted as its own table.
//
// Parallelism and determinism: with a ThreadPool the row range is split
// into one shard per worker, each shard counts into its own uint32
// accumulator block, and the blocks are merged in fixed shard order.
// Because cell counts are integers (every row contributes exactly +1 to
// one cell per table), integer merging is associative, and a projection
// adds integer-valued doubles below 2^53, so the final double tables are
// bit-identical to sequential Marginal::Compute at any thread count — the
// evaluation-layer analogue of the BitGen::Fork substream discipline the
// batched iReduct rounds use.
#ifndef IREDUCT_MARGINALS_MARGINAL_EVALUATOR_H_
#define IREDUCT_MARGINALS_MARGINAL_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "marginals/marginal.h"

namespace ireduct {

class ColumnarFile;

/// Precomputed plan for evaluating a fixed set of marginal specs over
/// datasets of one schema in a single pass.
class MarginalSetEvaluator {
 public:
  /// Validates every spec against `schema` (distinct in-range attributes,
  /// bounded cell counts — the same checks Marginal::Compute applies). The
  /// evaluator may be reused across datasets that share the schema.
  static Result<MarginalSetEvaluator> Create(const Schema& schema,
                                             std::vector<MarginalSpec> specs);

  /// Counts every marginal over `dataset` (restricted to `rows` when
  /// non-empty) in one pass. With a non-null `pool` the pass is sharded
  /// across its workers; the result is bit-identical to per-spec
  /// Marginal::Compute regardless of `pool` and its size. The dataset must
  /// have at least as many attributes as the plan's schema, with domain
  /// sizes no smaller than planned.
  Result<std::vector<Marginal>> Compute(const Dataset& dataset,
                                        std::span<const uint32_t> rows = {},
                                        ThreadPool* pool = nullptr) const;

  /// Out-of-core pass: counts every marginal over a columnar file
  /// block-by-block without materializing the table, holding at most two
  /// blocks of decoded values (double-buffered: with a `pool`, the next
  /// block decodes asynchronously while the current one is counted, and
  /// each block's rows are sharded across the remaining workers). Only the
  /// referenced columns are ever decoded. Counts are integers, so the
  /// result is bit-identical to Compute over the materialized dataset —
  /// and to per-spec Marginal::Compute — at any thread count and any
  /// block size.
  Result<std::vector<Marginal>> ComputeStreaming(
      const ColumnarFile& file, ThreadPool* pool = nullptr) const;

 private:
  struct SpecPlan {
    MarginalSpec spec;
    size_t cells = 0;
  };

  // One table a pass counts, and the specs read out of it.
  struct JointTable {
    std::vector<uint32_t> attributes;
    std::vector<uint32_t> domain_sizes;  // aligned with `attributes`
    size_t cells = 0;
    // Per attribute: (index into columns_, row-major stride), first
    // attribute varying slowest. cell = offset + sum(stride * value).
    std::vector<std::pair<uint32_t, size_t>> terms;
    size_t offset = 0;  // start of this table in a shard's count block
    std::vector<size_t> members;  // indices into plans_
  };

  struct Pass {
    std::vector<JointTable> tables;
    size_t total_cells = 0;  // a shard's count block
    // Largest striping-eligible table (capped so the scratch stays
    // cache-resident); sizes the per-shard lane scratch.
    size_t max_kernel_cells = 0;
  };

  MarginalSetEvaluator() = default;

  // kInvalidArgument unless `schema` has the planned attributes with the
  // planned domain sizes.
  Status CheckSchema(const Schema& schema) const;

  // Groups the specs into joint tables for a pass over `rows` rows split
  // into `num_shards` shards (see the header comment).
  Pass PlanPass(size_t rows, size_t num_shards) const;

  // Merges per-shard counts (each of size pass.total_cells) in shard order
  // and reads every spec out of its table, in spec order.
  Result<std::vector<Marginal>> ToMarginals(
      const Pass& pass,
      const std::vector<std::vector<uint32_t>>& shard_counts) const;

  // Shared counting core: `cols[i]` is the code pointer for columns_[i]
  // (a full dataset column, or one decoded block in the streaming pass).
  static void CountColumns(const Pass& pass, const uint16_t* const* cols,
                           const uint32_t* row_idx, size_t begin, size_t end,
                           uint32_t* counts);

  std::vector<SpecPlan> plans_;
  std::vector<uint32_t> columns_;  // sorted union of referenced attributes
  // Planned domain size of every schema attribute.
  std::vector<uint32_t> domain_sizes_;
};

}  // namespace ireduct

#endif  // IREDUCT_MARGINALS_MARGINAL_EVALUATOR_H_

// The counting kernel behind MarginalSetEvaluator: folds a row range of
// uint16 attribute codes into one marginal's count table, for every arity,
// row subset and mode, in plain C++.
//
// Each block of 128 rows first gets its cell indices (cell = sum over k of
// strides[k] * cols[k][r]) written into a stack buffer, one column at a
// time; those loops have no branch on the data and the compiler vectorizes
// them at the baseline target. The block's increments then go round robin
// to four lane tables. With `lane_scratch` the lanes are four private
// tables, merged into `counts` in lane order: on Zipf-hot cells that
// breaks the store-to-load chain a single ++counts[cell] serializes on.
// Without it all four lanes are `counts` itself. Counts are integers, so
// every mode yields the same totals.
#ifndef IREDUCT_MARGINALS_COUNT_KERNEL_H_
#define IREDUCT_MARGINALS_COUNT_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace ireduct {

/// Number of lane tables a striped count spreads its increments over.
inline constexpr size_t kCountLanes = 4;

/// One marginal's counting pass over a row range.
struct CountArgs {
  const uint16_t* const* cols = nullptr;  // `arity` column code pointers
  const size_t* strides = nullptr;        // `arity` row-major strides
  size_t arity = 0;
  const uint32_t* row_idx = nullptr;  // row subset; null = dense range
  size_t begin = 0;                   // row range [begin, end)
  size_t end = 0;
  uint32_t* counts = nullptr;  // `cells` entries, added into
  size_t cells = 0;
  // Optional scratch of kCountLanes * cells uint32s (need not be zeroed;
  // the kernel clears it). Null counts straight into `counts`.
  uint32_t* lane_scratch = nullptr;
};

/// Adds the range's rows into args.counts.
void CountCells(const CountArgs& args);

}  // namespace ireduct

#endif  // IREDUCT_MARGINALS_COUNT_KERNEL_H_

// Row-at-a-time counting loops, kept outside the library as oracles for
// its blocked kernels:
//  * the conjunctive count, for EvaluateQuery's column kernel:
//    predicate_test holds the kernel to it on every store and around the
//    block size, and bench/micro_primitives times the two side by side;
//  * the direct marginal count, for CountCells: count_kernel_test holds
//    the kernel to it at every arity, index width, row subset and mode.
#ifndef IREDUCT_TESTS_SUPPORT_COUNT_REFERENCE_H_
#define IREDUCT_TESTS_SUPPORT_COUNT_REFERENCE_H_

#include "common/result.h"
#include "data/dataset.h"
#include "marginals/count_kernel.h"
#include "queries/predicate.h"

namespace ireduct {

/// Validates `query` like EvaluateQuery, then counts the rows matching every
/// predicate one row at a time, stopping at a row's first mismatch.
Result<double> EvaluateQueryRowLoop(const Dataset& dataset,
                                    const ConjunctiveQuery& query);

/// Adds args' rows into args.counts one row at a time, straight into the
/// table (args.lane_scratch is ignored).
void CountCellsRowLoop(const CountArgs& args);

}  // namespace ireduct

#endif  // IREDUCT_TESTS_SUPPORT_COUNT_REFERENCE_H_

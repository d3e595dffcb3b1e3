// The row-at-a-time conjunctive count, kept outside the library as the
// oracle for EvaluateQuery's blocked column kernel: predicate_test holds
// the kernel to it on every store and around the block size, and
// bench/micro_primitives times the two side by side.
#ifndef IREDUCT_TESTS_SUPPORT_COUNT_REFERENCE_H_
#define IREDUCT_TESTS_SUPPORT_COUNT_REFERENCE_H_

#include "common/result.h"
#include "data/dataset.h"
#include "queries/predicate.h"

namespace ireduct {

/// Validates `query` like EvaluateQuery, then counts the rows matching every
/// predicate one row at a time, stopping at a row's first mismatch.
Result<double> EvaluateQueryRowLoop(const Dataset& dataset,
                                    const ConjunctiveQuery& query);

}  // namespace ireduct

#endif  // IREDUCT_TESTS_SUPPORT_COUNT_REFERENCE_H_

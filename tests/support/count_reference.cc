#include "support/count_reference.h"

namespace ireduct {

namespace {

template <bool kIndirect>
void CountNDirect(const CountArgs& a) {
  uint32_t* const counts = a.counts;
  const uint16_t* const* const cols = a.cols;
  const size_t* const strides = a.strides;
  const size_t arity = a.arity;
  for (size_t i = a.begin; i < a.end; ++i) {
    const size_t r = kIndirect ? a.row_idx[i] : i;
    size_t cell = 0;
    for (size_t k = 0; k < arity; ++k) cell += strides[k] * cols[k][r];
    ++counts[cell];
  }
}

}  // namespace

Result<double> EvaluateQueryRowLoop(const Dataset& dataset,
                                    const ConjunctiveQuery& query) {
  IREDUCT_RETURN_NOT_OK(ValidateQuery(dataset.schema(), query));
  size_t count = 0;
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    bool match = true;
    for (const EqualityPredicate& p : query.predicates) {
      if (dataset.value(r, p.attribute) != p.value) {
        match = false;
        break;
      }
    }
    count += match;
  }
  return static_cast<double>(count);
}

void CountCellsRowLoop(const CountArgs& args) {
  (args.row_idx != nullptr ? CountNDirect<true> : CountNDirect<false>)(args);
}

}  // namespace ireduct

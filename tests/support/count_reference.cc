#include "support/count_reference.h"

namespace ireduct {

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

}  // namespace ireduct

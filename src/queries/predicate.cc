#include "queries/predicate.h"

#include <algorithm>
#include <cstdint>

namespace ireduct {

std::string ConjunctiveQuery::ToString(const Schema& schema) const {
  if (predicates.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) out += " AND ";
    out += schema.attribute(predicates[i].attribute).name;
    out += '=';
    out += std::to_string(predicates[i].value);
  }
  return out;
}

Status ValidateQuery(const Schema& schema, const ConjunctiveQuery& query) {
  for (const EqualityPredicate& p : query.predicates) {
    if (p.attribute >= schema.num_attributes()) {
      return Status::OutOfRange("predicate attribute out of range");
    }
    if (p.value >= schema.attribute(p.attribute).domain_size) {
      return Status::OutOfRange("predicate value outside domain of '" +
                                schema.attribute(p.attribute).name + "'");
    }
  }
  return Status::OK();
}

Result<double> EvaluateQuery(const Dataset& dataset,
                             const ConjunctiveQuery& query) {
  IREDUCT_RETURN_NOT_OK(ValidateQuery(dataset.schema(), query));
  const size_t rows = dataset.num_rows();
  if (query.predicates.empty()) return static_cast<double>(rows);
  // Column at a time over fixed blocks of rows: the first predicate writes
  // a byte mask, each further one ANDs into it, and the block's mask sum
  // joins the total. No branch depends on the data, so the compiler
  // vectorizes every loop at the baseline target.
  constexpr size_t kBlockRows = 4096;
  const EqualityPredicate first = query.predicates.front();
  uint8_t mask[kBlockRows];
  uint64_t count = 0;
  for (size_t begin = 0; begin < rows; begin += kBlockRows) {
    const size_t len = std::min(kBlockRows, rows - begin);
    const uint16_t* column = dataset.column(first.attribute).data() + begin;
    for (size_t i = 0; i < len; ++i) mask[i] = column[i] == first.value;
    for (size_t p = 1; p < query.predicates.size(); ++p) {
      const uint16_t value = query.predicates[p].value;
      column = dataset.column(query.predicates[p].attribute).data() + begin;
      for (size_t i = 0; i < len; ++i) mask[i] &= column[i] == value;
    }
    uint32_t matches = 0;
    for (size_t i = 0; i < len; ++i) matches += mask[i];
    count += matches;
  }
  return static_cast<double>(count);
}

Result<Workload> BuildPredicateWorkload(
    const Dataset& dataset, std::span<const ConjunctiveQuery> queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("need at least one query");
  }
  std::vector<double> answers;
  answers.reserve(queries.size());
  for (const ConjunctiveQuery& q : queries) {
    IREDUCT_ASSIGN_OR_RETURN(double answer, EvaluateQuery(dataset, q));
    answers.push_back(answer);
  }
  return Workload::PerQuery(std::move(answers), /*sensitivity_coeff=*/1.0);
}

}  // namespace ireduct

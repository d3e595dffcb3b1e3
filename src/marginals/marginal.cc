#include "marginals/marginal.h"

#include <unordered_set>

#include "common/logging.h"
#include "common/numeric.h"

namespace ireduct {

std::string MarginalSpec::Name(const Schema& schema) const {
  std::string name;
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (i > 0) name += " x ";
    name += schema.attribute(attributes[i]).name;
  }
  return name;
}

Status ValidateSpec(const MarginalSpec& spec, size_t num_attributes) {
  if (spec.attributes.empty()) {
    return Status::InvalidArgument("marginal spec needs >= 1 attribute");
  }
  std::unordered_set<uint32_t> seen;
  for (uint32_t a : spec.attributes) {
    if (a >= num_attributes) {
      return Status::OutOfRange("attribute index out of range");
    }
    if (!seen.insert(a).second) {
      return Status::InvalidArgument("duplicate attribute in marginal spec");
    }
  }
  return Status::OK();
}

Result<size_t> CellCount(const std::vector<uint32_t>& domain_sizes) {
  size_t cells = 1;
  for (uint32_t ds : domain_sizes) {
    if (ds == 0) return Status::InvalidArgument("zero domain size");
    if (cells > (static_cast<size_t>(1) << 40) / ds) {
      return Status::InvalidArgument("marginal domain too large");
    }
    cells *= ds;
  }
  return cells;
}

Marginal::Marginal(MarginalSpec spec, std::vector<uint32_t> domain_sizes,
                   std::vector<double> counts)
    : spec_(std::move(spec)),
      domain_sizes_(std::move(domain_sizes)),
      counts_(std::move(counts)) {
  strides_.resize(domain_sizes_.size());
  size_t stride = 1;
  for (size_t i = domain_sizes_.size(); i-- > 0;) {
    strides_[i] = stride;
    stride *= domain_sizes_[i];
  }
}

Result<Marginal> Marginal::Compute(const Dataset& dataset, MarginalSpec spec,
                                   std::span<const uint32_t> rows) {
  IREDUCT_RETURN_NOT_OK(
      ValidateSpec(spec, dataset.schema().num_attributes()));
  std::vector<uint32_t> domain_sizes;
  domain_sizes.reserve(spec.attributes.size());
  for (uint32_t a : spec.attributes) {
    domain_sizes.push_back(dataset.schema().attribute(a).domain_size);
  }
  IREDUCT_ASSIGN_OR_RETURN(const size_t cells, CellCount(domain_sizes));

  Marginal marginal(std::move(spec), std::move(domain_sizes),
                    std::vector<double>(cells, 0.0));
  const auto count_row = [&](size_t r) {
    size_t cell = 0;
    for (size_t i = 0; i < marginal.spec_.attributes.size(); ++i) {
      cell += marginal.strides_[i] *
              dataset.value(r, marginal.spec_.attributes[i]);
    }
    marginal.counts_[cell] += 1.0;
  };
  if (rows.empty()) {
    for (size_t r = 0; r < dataset.num_rows(); ++r) count_row(r);
  } else {
    for (uint32_t r : rows) {
      if (r >= dataset.num_rows()) {
        return Status::OutOfRange("row index out of range");
      }
      count_row(r);
    }
  }
  return marginal;
}

Result<Marginal> Marginal::FromCounts(MarginalSpec spec,
                                      std::vector<uint32_t> domain_sizes,
                                      std::vector<double> counts) {
  if (spec.attributes.size() != domain_sizes.size()) {
    return Status::InvalidArgument("spec/domain arity mismatch");
  }
  IREDUCT_ASSIGN_OR_RETURN(const size_t cells, CellCount(domain_sizes));
  if (cells != counts.size()) {
    return Status::InvalidArgument("count table size does not match domain");
  }
  return Marginal(std::move(spec), std::move(domain_sizes),
                  std::move(counts));
}

size_t Marginal::CellIndex(std::span<const uint16_t> values) const {
  IREDUCT_DCHECK(values.size() == domain_sizes_.size());
  size_t cell = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    IREDUCT_DCHECK(values[i] < domain_sizes_[i]);
    cell += strides_[i] * values[i];
  }
  return cell;
}

std::vector<uint16_t> Marginal::CellCoordinates(size_t cell) const {
  IREDUCT_DCHECK(cell < counts_.size());
  std::vector<uint16_t> coords(domain_sizes_.size());
  for (size_t i = 0; i < domain_sizes_.size(); ++i) {
    coords[i] = static_cast<uint16_t>((cell / strides_[i]) % domain_sizes_[i]);
  }
  return coords;
}

double Marginal::Total() const { return StableSum(counts_); }

}  // namespace ireduct

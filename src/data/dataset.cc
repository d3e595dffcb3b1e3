#include "data/dataset.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace ireduct {

namespace {

std::vector<uint32_t> DomainSizesOf(const Schema& schema) {
  std::vector<uint32_t> sizes(schema.num_attributes());
  for (size_t c = 0; c < sizes.size(); ++c) {
    sizes[c] = schema.attribute(c).domain_size;
  }
  return sizes;
}

}  // namespace

Dataset::Dataset(Schema schema)
    : schema_(std::move(schema)), domain_sizes_(DomainSizesOf(schema_)) {
  owned_.resize(schema_.num_attributes());
  RefreshViews();
}

Dataset::Dataset(const Dataset& other)
    : schema_(other.schema_),
      domain_sizes_(other.domain_sizes_),
      num_rows_(other.num_rows_),
      owned_(other.owned_),
      backing_(other.backing_) {
  RefreshViews();
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  domain_sizes_ = other.domain_sizes_;
  num_rows_ = other.num_rows_;
  owned_ = other.owned_;
  backing_ = other.backing_;
  RefreshViews();
  return *this;
}

void Dataset::RefreshViews() {
  cols_.resize(schema_.num_attributes());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c] = backing_ != nullptr ? backing_->column(c)
                                   : std::span<const uint16_t>(owned_[c]);
  }
}

Result<Dataset> Dataset::FromBacking(
    Schema schema, std::shared_ptr<const DatasetBacking> backing) {
  if (backing == nullptr) {
    return Status::InvalidArgument("dataset backing is null");
  }
  Dataset dataset(std::move(schema));
  const size_t rows = backing->num_rows();
  for (size_t c = 0; c < dataset.schema_.num_attributes(); ++c) {
    const std::span<const uint16_t> col = backing->column(c);
    if (col.size() != rows) {
      return Status::InvalidArgument(
          "backing column " + std::to_string(c) + " holds " +
          std::to_string(col.size()) + " rows, expected " +
          std::to_string(rows));
    }
    // One branch-free max-scan per column; everything downstream (marginal
    // counting included) indexes tables by these values, so an
    // out-of-domain code here would be an out-of-bounds write there.
    uint16_t max_value = 0;
    for (const uint16_t v : col) max_value = std::max(max_value, v);
    if (rows > 0 && max_value >= dataset.domain_sizes_[c]) {
      return Status::OutOfRange(
          "backing column '" + dataset.schema_.attribute(c).name +
          "' holds value " + std::to_string(max_value) +
          " outside its domain of " +
          std::to_string(dataset.domain_sizes_[c]));
    }
  }
  dataset.owned_.clear();
  dataset.backing_ = std::move(backing);
  dataset.num_rows_ = rows;
  dataset.RefreshViews();
  return dataset;
}

Result<Dataset> Dataset::FromColumns(
    Schema schema, std::vector<std::vector<uint16_t>> columns) {
  Dataset dataset(std::move(schema));
  if (columns.size() != dataset.schema_.num_attributes()) {
    return Status::InvalidArgument("column count does not match schema");
  }
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].size() != rows) {
      return Status::InvalidArgument("ragged columns: column " +
                                     std::to_string(c) + " holds " +
                                     std::to_string(columns[c].size()) +
                                     " rows, expected " +
                                     std::to_string(rows));
    }
    uint16_t max_value = 0;
    for (const uint16_t v : columns[c]) max_value = std::max(max_value, v);
    if (rows > 0 && max_value >= dataset.domain_sizes_[c]) {
      return Status::OutOfRange(
          "column '" + dataset.schema_.attribute(c).name + "' holds value " +
          std::to_string(max_value) + " outside its domain of " +
          std::to_string(dataset.domain_sizes_[c]));
    }
  }
  dataset.owned_ = std::move(columns);
  dataset.num_rows_ = rows;
  dataset.RefreshViews();
  return dataset;
}

Status Dataset::AppendRow(std::span<const uint16_t> values) {
  // Exactly one row — AppendRows alone would accept any multiple of the
  // arity, silently turning a too-wide row into several rows.
  if (values.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  return AppendRows(values);
}

Status Dataset::AppendRows(std::span<const uint16_t> values) {
  if (backing_ != nullptr) {
    return Status::FailedPrecondition(
        "dataset is routed onto immutable backing storage");
  }
  const size_t width = schema_.num_attributes();
  if (width == 0 || values.size() % width != 0) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  const size_t rows = values.size() / width;
  // Validate everything up front so a failure appends nothing. The domain
  // sizes are the hoisted flat copy, not per-value schema lookups.
  const uint32_t* domains = domain_sizes_.data();
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= domains[i % width]) {
      return Status::OutOfRange(
          "value " + std::to_string(values[i]) +
          " outside domain of attribute '" +
          schema_.attribute(i % width).name + "'");
    }
  }
  for (size_t c = 0; c < width; ++c) {
    std::vector<uint16_t>& col = owned_[c];
    const size_t old_size = col.size();
    col.resize(old_size + rows);
    uint16_t* dst = col.data() + old_size;
    const uint16_t* src = values.data() + c;
    for (size_t r = 0; r < rows; ++r) dst[r] = src[r * width];
  }
  num_rows_ += rows;
  RefreshViews();
  return Status::OK();
}

void Dataset::Reserve(size_t rows) {
  for (auto& col : owned_) col.reserve(rows);
  RefreshViews();
}

Result<std::vector<uint8_t>> Dataset::FoldAssignment(int k,
                                                     BitGen& gen) const {
  if (k < 2 || static_cast<size_t>(k) > num_rows_) {
    return Status::InvalidArgument("fold count must be in [2, num_rows]");
  }
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0);
  // Fisher-Yates shuffle driven by our deterministic BitGen.
  for (size_t i = num_rows_ - 1; i > 0; --i) {
    const size_t j = gen.UniformInt(i + 1);
    std::swap(order[i], order[j]);
  }
  std::vector<uint8_t> fold(num_rows_);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    fold[order[pos]] = static_cast<uint8_t>(pos % k);
  }
  return fold;
}

Dataset Dataset::Select(std::span<const uint32_t> rows) const {
  // Source values are already schema-validated, so gather column-wise into
  // presized columns — no per-row AppendRow revalidation or push_back
  // growth checks on this hot path.
  for (uint32_t r : rows) {
    IREDUCT_DCHECK(r < num_rows_);
    (void)r;
  }
  Dataset subset(schema_);
  for (size_t c = 0; c < cols_.size(); ++c) {
    const uint16_t* src = cols_[c].data();
    std::vector<uint16_t>& dst = subset.owned_[c];
    dst.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) dst[i] = src[rows[i]];
  }
  subset.num_rows_ = rows.size();
  subset.RefreshViews();
  return subset;
}

uint64_t Dataset::Fingerprint() const {
  // FNV-1a 64 over the schema shape and the column-major value stream.
  // The starting value is not the standard basis; it stays because every
  // columnar file header stores the result.
  uint64_t h = 1469598103934665603ULL;
  h = Fnv1a64Int(h, num_rows_);
  h = Fnv1a64Int(h, cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    h = Fnv1a64Int(h, schema_.attribute(c).domain_size);
    for (uint16_t v : cols_[c]) h = Fnv1a64Int(h, v, 2);
  }
  return h;
}

}  // namespace ireduct

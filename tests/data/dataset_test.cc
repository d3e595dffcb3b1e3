#include "data/dataset.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace ireduct {
namespace {

Dataset MakeDataset() {
  auto schema = Schema::Create({{"A", 3}, {"B", 2}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  for (uint16_t a = 0; a < 3; ++a) {
    for (uint16_t b = 0; b < 2; ++b) {
      const std::array<uint16_t, 2> row{a, b};
      EXPECT_TRUE(d.AppendRow(row).ok());
    }
  }
  return d;
}

TEST(DatasetTest, AppendAndRead) {
  const Dataset d = MakeDataset();
  EXPECT_EQ(d.num_rows(), 6u);
  EXPECT_EQ(d.num_columns(), 2u);
  EXPECT_EQ(d.value(0, 0), 0);
  EXPECT_EQ(d.value(5, 0), 2);
  EXPECT_EQ(d.value(5, 1), 1);
  EXPECT_EQ(d.column(1).size(), 6u);
}

TEST(DatasetTest, AppendValidatesArityAndDomain) {
  auto schema = Schema::Create({{"A", 3}});
  ASSERT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  const std::array<uint16_t, 2> too_wide{0, 0};
  EXPECT_FALSE(d.AppendRow(too_wide).ok());
  const std::array<uint16_t, 1> out_of_domain{3};
  EXPECT_EQ(d.AppendRow(out_of_domain).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(d.num_rows(), 0u);
}

TEST(DatasetTest, AppendRowsBulkMatchesRowByRow) {
  auto schema = Schema::Create({{"A", 3}, {"B", 2}});
  ASSERT_TRUE(schema.ok());
  Dataset bulk(schema.value());
  const std::vector<uint16_t> rows{0, 1, 2, 0, 1, 1};  // three rows
  ASSERT_TRUE(bulk.AppendRows(rows).ok());
  EXPECT_EQ(bulk.num_rows(), 3u);

  Dataset single(std::move(schema).value());
  for (size_t r = 0; r < 3; ++r) {
    ASSERT_TRUE(
        single.AppendRow(std::span(rows).subspan(r * 2, 2)).ok());
  }
  EXPECT_EQ(bulk.Fingerprint(), single.Fingerprint());

  // Appending nothing is a no-op, not an error.
  ASSERT_TRUE(bulk.AppendRows({}).ok());
  EXPECT_EQ(bulk.num_rows(), 3u);
}

TEST(DatasetTest, AppendRowsValidatesBeforeMutating) {
  auto schema = Schema::Create({{"A", 3}, {"B", 2}});
  ASSERT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  // Not a multiple of the arity.
  EXPECT_FALSE(d.AppendRows(std::vector<uint16_t>{0, 1, 2}).ok());
  // Out-of-domain value in the *second* row: the first row must not land.
  const std::vector<uint16_t> bad{0, 1, 9, 0};
  EXPECT_EQ(d.AppendRows(bad).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(d.num_rows(), 0u);
}

TEST(DatasetTest, FromColumnsBuildsOwnedDataset) {
  auto schema = Schema::Create({{"A", 3}, {"B", 2}});
  ASSERT_TRUE(schema.ok());
  auto d = Dataset::FromColumns(schema.value(), {{0, 1, 2}, {1, 0, 1}});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->owns_storage());
  EXPECT_EQ(d->num_rows(), 3u);
  EXPECT_EQ(d->value(2, 0), 2);
  EXPECT_EQ(d->value(1, 1), 0);

  // Ragged columns and out-of-domain values are refused.
  EXPECT_FALSE(
      Dataset::FromColumns(schema.value(), {{0, 1}, {1}}).ok());
  EXPECT_FALSE(
      Dataset::FromColumns(std::move(schema).value(), {{0, 3}, {1, 1}}).ok());
}

// Minimal backing: owned vectors served through the DatasetBacking
// interface — the in-memory stand-in for an mmap'd columnar file.
class VectorBacking : public DatasetBacking {
 public:
  explicit VectorBacking(std::vector<std::vector<uint16_t>> cols)
      : cols_(std::move(cols)) {}
  size_t num_rows() const override {
    return cols_.empty() ? 0 : cols_[0].size();
  }
  std::span<const uint16_t> column(size_t c) const override {
    return cols_[c];
  }

 private:
  std::vector<std::vector<uint16_t>> cols_;
};

TEST(DatasetTest, FromBackingServesReadOnlyViews) {
  auto schema = Schema::Create({{"A", 3}, {"B", 2}});
  ASSERT_TRUE(schema.ok());
  auto backing = std::make_shared<VectorBacking>(
      std::vector<std::vector<uint16_t>>{{0, 1, 2}, {1, 0, 1}});
  auto d = Dataset::FromBacking(schema.value(), backing);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->owns_storage());
  EXPECT_EQ(d->num_rows(), 3u);
  EXPECT_EQ(d->value(2, 0), 2);
  EXPECT_EQ(d->column(1).size(), 3u);

  // Backed datasets are immutable.
  const std::array<uint16_t, 2> row{0, 0};
  EXPECT_FALSE(d->AppendRow(row).ok());
  EXPECT_FALSE(d->AppendRows(row).ok());

  // Same content, same fingerprint as an owned build; Select always
  // materializes into owned storage.
  auto owned =
      Dataset::FromColumns(schema.value(), {{0, 1, 2}, {1, 0, 1}});
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(d->Fingerprint(), owned->Fingerprint());
  const Dataset sub = d->Select(std::vector<uint32_t>{2, 0});
  EXPECT_TRUE(sub.owns_storage());
  EXPECT_EQ(sub.value(0, 0), 2);

  // Copies of a backed dataset share the backing and keep it alive.
  const Dataset copy = *d;
  EXPECT_FALSE(copy.owns_storage());
  EXPECT_EQ(copy.value(1, 1), 0);

  // A backing that disagrees with the schema is refused.
  EXPECT_FALSE(Dataset::FromBacking(
                   std::move(schema).value(),
                   std::make_shared<VectorBacking>(
                       std::vector<std::vector<uint16_t>>{{0, 3}, {1, 1}}))
                   .ok());
}

TEST(DatasetTest, FoldAssignmentPartitionsEvenly) {
  const Dataset d = MakeDataset();
  BitGen gen(1);
  auto folds = d.FoldAssignment(3, gen);
  ASSERT_TRUE(folds.ok());
  std::vector<int> counts(3, 0);
  for (uint8_t f : *folds) {
    ASSERT_LT(f, 3);
    ++counts[f];
  }
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
}

TEST(DatasetTest, FoldAssignmentValidatesK) {
  const Dataset d = MakeDataset();
  BitGen gen(1);
  EXPECT_FALSE(d.FoldAssignment(1, gen).ok());
  EXPECT_FALSE(d.FoldAssignment(7, gen).ok());
}

TEST(DatasetTest, FoldAssignmentIsSeedDeterministicAndShuffled) {
  const Dataset d = MakeDataset();
  BitGen g1(5), g2(5), g3(6);
  auto a = d.FoldAssignment(2, g1);
  auto b = d.FoldAssignment(2, g2);
  auto c = d.FoldAssignment(2, g3);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *b);
  // Different seeds usually differ (6 rows, 20 balanced splits).
  EXPECT_TRUE(*a != *c || true);  // at minimum it must not crash
}

TEST(DatasetTest, SelectMaterializesSubset) {
  const Dataset d = MakeDataset();
  const std::vector<uint32_t> rows{5, 0, 3};
  const Dataset sub = d.Select(rows);
  EXPECT_EQ(sub.num_rows(), 3u);
  EXPECT_EQ(sub.value(0, 0), 2);  // original row 5
  EXPECT_EQ(sub.value(1, 0), 0);  // original row 0
  EXPECT_EQ(sub.value(2, 0), 1);  // original row 3
}

// The column-wise gather fast path must match a row-by-row AppendRow
// rebuild exactly (duplicates and arbitrary order included).
TEST(DatasetTest, SelectMatchesAppendRowReference) {
  const Dataset d = MakeDataset();
  const std::vector<uint32_t> rows{3, 3, 0, 5, 1, 0};
  const Dataset sub = d.Select(rows);

  Dataset reference(d.schema());
  for (uint32_t r : rows) {
    std::vector<uint16_t> row(d.num_columns());
    for (size_t c = 0; c < d.num_columns(); ++c) row[c] = d.value(r, c);
    ASSERT_TRUE(reference.AppendRow(row).ok());
  }
  ASSERT_EQ(sub.num_rows(), reference.num_rows());
  for (size_t c = 0; c < d.num_columns(); ++c) {
    for (size_t r = 0; r < sub.num_rows(); ++r) {
      EXPECT_EQ(sub.value(r, c), reference.value(r, c))
          << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(sub.Fingerprint(), reference.Fingerprint());
}

TEST(DatasetTest, SelectOfNothingIsEmpty) {
  const Dataset d = MakeDataset();
  const Dataset sub = d.Select({});
  EXPECT_EQ(sub.num_rows(), 0u);
  EXPECT_EQ(sub.num_columns(), d.num_columns());
}

TEST(DatasetTest, FingerprintIsStableAndContentSensitive) {
  const Dataset a = MakeDataset();
  const Dataset b = MakeDataset();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  Dataset c = MakeDataset();
  const std::array<uint16_t, 2> row{1, 1};
  ASSERT_TRUE(c.AppendRow(row).ok());
  EXPECT_NE(c.Fingerprint(), a.Fingerprint());

  // Same multiset of rows in a different order is different content.
  const std::vector<uint32_t> reversed{5, 4, 3, 2, 1, 0};
  EXPECT_NE(a.Select(reversed).Fingerprint(), a.Fingerprint());

  // Empty datasets over different schemas differ too.
  auto s1 = Schema::Create({{"A", 3}});
  auto s2 = Schema::Create({{"A", 4}});
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE(Dataset(std::move(s1).value()).Fingerprint(),
            Dataset(std::move(s2).value()).Fingerprint());
}

TEST(DatasetTest, FingerprintMatchesPinnedValue) {
  // Pins the hash itself, not just its stability: the value is written at
  // byte 32 of every columnar file header, so a changed basis, prime or
  // byte order would orphan existing files. Values >= 256 exercise the
  // low-byte-first order of each 16-bit code.
  auto schema = Schema::Create({{"A", 3}, {"B", 1000}});
  ASSERT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  for (const std::array<uint16_t, 2> row :
       {std::array<uint16_t, 2>{0, 0}, {2, 258}, {1, 999}, {2, 511}}) {
    ASSERT_TRUE(d.AppendRow(row).ok());
  }
  EXPECT_EQ(d.Fingerprint(), 0xc90832d27916f78dULL);
}

}  // namespace
}  // namespace ireduct

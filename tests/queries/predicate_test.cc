#include "queries/predicate.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/columnar.h"
#include "support/count_reference.h"

namespace ireduct {
namespace {

Dataset MakeDataset() {
  auto schema = Schema::Create({{"Age", 100}, {"Gender", 2}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  for (uint16_t age : {20, 20, 30, 30, 30, 40}) {
    EXPECT_TRUE(d.AppendRow(std::vector<uint16_t>{
                    age, static_cast<uint16_t>(age == 30 ? 1 : 0)})
                    .ok());
  }
  return d;
}

TEST(PredicateTest, EvaluateSinglePredicate) {
  const Dataset d = MakeDataset();
  auto count = EvaluateQuery(d, ConjunctiveQuery{{{0, 30}}});
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 3);
}

TEST(PredicateTest, EvaluateConjunction) {
  const Dataset d = MakeDataset();
  auto count = EvaluateQuery(d, ConjunctiveQuery{{{0, 30}, {1, 1}}});
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 3);
  auto none = EvaluateQuery(d, ConjunctiveQuery{{{0, 20}, {1, 1}}});
  ASSERT_TRUE(none.ok());
  EXPECT_DOUBLE_EQ(*none, 0);
}

TEST(PredicateTest, EmptyQueryCountsAllRows) {
  const Dataset d = MakeDataset();
  auto count = EvaluateQuery(d, ConjunctiveQuery{});
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 6);
}

TEST(PredicateTest, ContradictionCountsZero) {
  const Dataset d = MakeDataset();
  auto count = EvaluateQuery(d, ConjunctiveQuery{{{0, 20}, {0, 30}}});
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 0);
}

TEST(PredicateTest, ValidatesAttributeAndValue) {
  const Dataset d = MakeDataset();
  EXPECT_FALSE(EvaluateQuery(d, ConjunctiveQuery{{{5, 0}}}).ok());
  EXPECT_FALSE(EvaluateQuery(d, ConjunctiveQuery{{{1, 2}}}).ok());
}

TEST(PredicateTest, ToStringFormats) {
  const Dataset d = MakeDataset();
  EXPECT_EQ(ConjunctiveQuery{}.ToString(d.schema()), "TRUE");
  const ConjunctiveQuery q{{{0, 30}, {1, 1}}};
  EXPECT_EQ(q.ToString(d.schema()), "Age=30 AND Gender=1");
}

TEST(PredicateTest, BuildsWorkload) {
  const Dataset d = MakeDataset();
  const std::vector<ConjunctiveQuery> queries{
      ConjunctiveQuery{{{0, 20}}},
      ConjunctiveQuery{{{0, 30}}},
      ConjunctiveQuery{{{1, 0}}},
  };
  auto w = BuildPredicateWorkload(d, queries);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->num_queries(), 3u);
  EXPECT_DOUBLE_EQ(w->true_answer(0), 2);
  EXPECT_DOUBLE_EQ(w->true_answer(1), 3);
  EXPECT_DOUBLE_EQ(w->true_answer(2), 3);
  EXPECT_FALSE(BuildPredicateWorkload(d, {}).ok());
}

// EvaluateQuery's block size (queries/predicate.cc); the row counts below
// straddle it.
constexpr size_t kBlockRows = 4096;

// Four attributes from a 1-bit domain to a wide one whose values sit mostly
// in a small head, so multi-predicate conjunctions still match rows.
Dataset MakeRandomDataset(size_t rows, uint64_t seed) {
  auto schema = Schema::Create({{"Bit", 2}, {"Tri", 3}, {"Five", 5},
                                {"Wide", 300}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  BitGen gen(seed);
  for (size_t r = 0; r < rows; ++r) {
    const std::vector<uint16_t> row{
        static_cast<uint16_t>(gen.UniformInt(2)),
        static_cast<uint16_t>(gen.UniformInt(3)),
        static_cast<uint16_t>(gen.UniformInt(4) == 0 ? 4 : gen.UniformInt(2)),
        static_cast<uint16_t>(gen.UniformInt(10) < 8 ? gen.UniformInt(4)
                                                     : gen.UniformInt(300))};
    EXPECT_TRUE(d.AppendRow(row).ok());
  }
  return d;
}

// Hand-picked shapes (0 to 4 predicates, repeated attributes with equal
// and with different values, values at 0 and at the top of a domain) and
// random ones whose values are copied from a row, so they match something.
std::vector<ConjunctiveQuery> MakeQueries(const Dataset& d, uint64_t seed) {
  std::vector<ConjunctiveQuery> queries{
      ConjunctiveQuery{},
      ConjunctiveQuery{{{0, 1}}},
      ConjunctiveQuery{{{3, 0}}},
      ConjunctiveQuery{{{3, 299}}},
      ConjunctiveQuery{{{0, 1}, {1, 2}}},
      ConjunctiveQuery{{{0, 0}, {0, 0}}},
      ConjunctiveQuery{{{1, 1}, {1, 2}}},
      ConjunctiveQuery{{{0, 1}, {1, 0}, {2, 4}}},
      ConjunctiveQuery{{{0, 1}, {1, 2}, {2, 0}, {3, 0}}},
      ConjunctiveQuery{{{2, 4}, {3, 299}, {0, 1}, {2, 4}}},
  };
  BitGen gen(seed);
  for (size_t k = 0; k <= 4; ++k) {
    for (int q = 0; q < 8; ++q) {
      const size_t row = gen.UniformInt(d.num_rows());
      ConjunctiveQuery query;
      for (size_t p = 0; p < k; ++p) {
        const uint32_t attribute =
            static_cast<uint32_t>(gen.UniformInt(d.num_columns()));
        query.predicates.push_back({attribute, d.value(row, attribute)});
      }
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

// Counts every query on `d` with the kernel, the row-loop oracle and
// BuildPredicateWorkload; all three must agree exactly.
void ExpectKernelMatchesRowLoop(const Dataset& d, const std::string& store) {
  const std::vector<ConjunctiveQuery> queries = MakeQueries(d, d.num_rows());
  std::vector<double> expected;
  for (const ConjunctiveQuery& q : queries) {
    auto oracle = EvaluateQueryRowLoop(d, q);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    auto kernel = EvaluateQuery(d, q);
    ASSERT_TRUE(kernel.ok()) << kernel.status();
    EXPECT_EQ(*kernel, *oracle) << store << " store, " << d.num_rows()
                                << " rows, " << q.ToString(d.schema());
    expected.push_back(*oracle);
  }
  auto w = BuildPredicateWorkload(d, queries);
  ASSERT_TRUE(w.ok()) << w.status();
  ASSERT_EQ(w->num_queries(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(w->true_answer(i), expected[i])
        << store << " store, " << d.num_rows() << " rows, workload query "
        << i;
  }
}

TEST(PredicateTest, KernelMatchesRowLoopOnEveryStore) {
  const std::string path = testing::TempDir() + "/ireduct_predicate_test_" +
                           std::to_string(::getpid()) + ".col";
  for (const size_t rows : {size_t{1}, kBlockRows - 1, kBlockRows,
                            kBlockRows + 1, 3 * kBlockRows + 5}) {
    const Dataset owned = MakeRandomDataset(rows, 40 + rows);
    ExpectKernelMatchesRowLoop(owned, "owned");
    for (const bool zero_copy : {true, false}) {
      ColumnarWriteOptions options;
      options.zero_copy_layout = zero_copy;
      ASSERT_TRUE(WriteColumnar(owned, path, options).ok());
      auto loaded = ReadColumnar(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      // Zero-copy files come back mmap-backed, packed ones decoded.
      EXPECT_EQ(loaded->owns_storage(), !zero_copy);
      ExpectKernelMatchesRowLoop(*loaded, zero_copy ? "zero-copy" : "packed");
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ireduct

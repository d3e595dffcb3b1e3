#include "marginals/marginal_evaluator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "marginals/marginal_set.h"

namespace ireduct {
namespace {

Dataset RandomDataset(uint64_t seed, size_t rows) {
  auto schema = Schema::Create({{"A", 3}, {"B", 5}, {"C", 2}, {"D", 7}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  BitGen gen(seed);
  for (size_t r = 0; r < rows; ++r) {
    const std::array<uint16_t, 4> row{
        static_cast<uint16_t>(gen.UniformInt(3)),
        static_cast<uint16_t>(gen.UniformInt(5)),
        static_cast<uint16_t>(gen.UniformInt(2)),
        static_cast<uint16_t>(gen.UniformInt(7))};
    EXPECT_TRUE(d.AppendRow(row).ok());
  }
  return d;
}

std::vector<MarginalSpec> OneAndTwoWaySpecs(const Schema& schema) {
  auto one = AllKWaySpecs(schema, 1);
  auto two = AllKWaySpecs(schema, 2);
  EXPECT_TRUE(one.ok() && two.ok());
  std::vector<MarginalSpec> specs = std::move(*one);
  for (MarginalSpec& s : *two) specs.push_back(std::move(s));
  return specs;
}

void ExpectBitIdentical(const std::vector<Marginal>& got,
                        const std::vector<Marginal>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].spec().attributes, want[i].spec().attributes);
    ASSERT_EQ(got[i].domain_sizes(), want[i].domain_sizes());
    ASSERT_EQ(got[i].num_cells(), want[i].num_cells());
    EXPECT_EQ(std::memcmp(got[i].counts().data(), want[i].counts().data(),
                          got[i].num_cells() * sizeof(double)),
              0)
        << "marginal " << i << " differs";
  }
}

// The hard parity bar: fused evaluation must match per-marginal
// Marginal::Compute bit for bit at every thread count, across seeds.
TEST(MarginalEvaluatorTest, FusedMatchesPerMarginalAtEveryThreadCount) {
  for (const uint64_t seed : {1ull, 42ull, 2011ull}) {
    const Dataset d = RandomDataset(seed, 4096);
    const std::vector<MarginalSpec> specs = OneAndTwoWaySpecs(d.schema());
    std::vector<Marginal> reference;
    for (const MarginalSpec& spec : specs) {
      reference.push_back(std::move(*Marginal::Compute(d, spec)));
    }
    auto evaluator = MarginalSetEvaluator::Create(d.schema(), specs);
    ASSERT_TRUE(evaluator.ok());
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      auto fused = evaluator->Compute(d, {}, threads > 1 ? &pool : nullptr);
      ASSERT_TRUE(fused.ok()) << "seed " << seed << " threads " << threads;
      ExpectBitIdentical(*fused, reference);
    }
  }
}

TEST(MarginalEvaluatorTest, RowSubsetMatchesPerMarginal) {
  const Dataset d = RandomDataset(7, 2000);
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < d.num_rows(); r += 3) rows.push_back(r);
  const std::vector<MarginalSpec> specs = OneAndTwoWaySpecs(d.schema());
  std::vector<Marginal> reference;
  for (const MarginalSpec& spec : specs) {
    reference.push_back(std::move(*Marginal::Compute(d, spec, rows)));
  }
  auto evaluator = MarginalSetEvaluator::Create(d.schema(), specs);
  ASSERT_TRUE(evaluator.ok());
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    auto fused = evaluator->Compute(d, rows, threads > 1 ? &pool : nullptr);
    ASSERT_TRUE(fused.ok());
    ExpectBitIdentical(*fused, reference);
  }
}

TEST(MarginalEvaluatorTest, CensusParityMatchesComputeMarginals) {
  CensusConfig config;
  config.rows = 10'000;
  auto dataset = GenerateCensus(config);
  ASSERT_TRUE(dataset.ok());
  auto specs = AllKWaySpecs(dataset->schema(), 2);
  ASSERT_TRUE(specs.ok());
  std::vector<Marginal> reference;
  for (const MarginalSpec& spec : *specs) {
    reference.push_back(std::move(*Marginal::Compute(*dataset, spec)));
  }
  // ComputeMarginals is itself routed through the evaluator now; its
  // contract with the per-marginal path must hold.
  auto via_set = ComputeMarginals(*dataset, *specs);
  ASSERT_TRUE(via_set.ok());
  ExpectBitIdentical(*via_set, reference);
  ThreadPool pool(8);
  auto evaluator = MarginalSetEvaluator::Create(dataset->schema(), *specs);
  ASSERT_TRUE(evaluator.ok());
  auto fused = evaluator->Compute(*dataset, {}, &pool);
  ASSERT_TRUE(fused.ok());
  ExpectBitIdentical(*fused, reference);
}

TEST(MarginalEvaluatorTest, RejectsWhatMarginalComputeRejects) {
  const Dataset d = RandomDataset(1, 16);
  EXPECT_FALSE(
      MarginalSetEvaluator::Create(d.schema(), {MarginalSpec{{}}}).ok());
  EXPECT_EQ(MarginalSetEvaluator::Create(d.schema(), {MarginalSpec{{9}}})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(
      MarginalSetEvaluator::Create(d.schema(), {MarginalSpec{{1, 1}}}).ok());

  auto evaluator =
      MarginalSetEvaluator::Create(d.schema(), {MarginalSpec{{0, 1}}});
  ASSERT_TRUE(evaluator.ok());
  const std::vector<uint32_t> bad_rows{999};
  EXPECT_EQ(evaluator->Compute(d, bad_rows).status().code(),
            StatusCode::kOutOfRange);
}

TEST(MarginalEvaluatorTest, RejectsMismatchedDomains) {
  const Dataset d = RandomDataset(1, 16);
  auto other_schema = Schema::Create({{"A", 3}, {"B", 4}});
  ASSERT_TRUE(other_schema.ok());
  auto evaluator = MarginalSetEvaluator::Create(*other_schema,
                                                {MarginalSpec{{0, 1}}});
  ASSERT_TRUE(evaluator.ok());
  // d's attribute 1 has domain 5, the plan expects 4.
  EXPECT_FALSE(evaluator->Compute(d).ok());
}

TEST(MarginalEvaluatorTest, EmptySpecSetAndEmptyDataset) {
  const Dataset d = RandomDataset(1, 0);
  auto evaluator = MarginalSetEvaluator::Create(
      d.schema(), OneAndTwoWaySpecs(d.schema()));
  ASSERT_TRUE(evaluator.ok());
  auto fused = evaluator->Compute(d);
  ASSERT_TRUE(fused.ok());
  for (const Marginal& m : *fused) EXPECT_EQ(m.Total(), 0.0);

  auto empty = MarginalSetEvaluator::Create(d.schema(), {});
  ASSERT_TRUE(empty.ok());
  auto none = empty->Compute(d);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

}  // namespace
}  // namespace ireduct

#include "marginals/marginal_evaluator.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "data/columnar.h"
#include "marginals/marginal_set.h"
#include "obs/metrics.h"

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

// ------------------------------------------------------- joint tables

Dataset RandomDataset(uint64_t seed, size_t rows,
                      const std::vector<uint32_t>& domains) {
  std::vector<Attribute> attributes;
  for (size_t a = 0; a < domains.size(); ++a) {
    attributes.push_back({std::string(1, static_cast<char>('A' + a)),
                          domains[a]});
  }
  auto schema = Schema::Create(attributes);
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  BitGen gen(seed);
  std::vector<uint16_t> row(domains.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < domains.size(); ++a) {
      row[a] = static_cast<uint16_t>(gen.UniformInt(domains[a]));
    }
    EXPECT_TRUE(d.AppendRow(row).ok());
  }
  return d;
}

// Marginal::Compute, one scan per distinct attribute list.
std::vector<Marginal> Reference(const Dataset& d,
                                const std::vector<MarginalSpec>& specs,
                                std::span<const uint32_t> rows = {}) {
  std::map<std::vector<uint32_t>, Marginal> tables;
  std::vector<Marginal> out;
  for (const MarginalSpec& spec : specs) {
    auto it = tables.find(spec.attributes);
    if (it == tables.end()) {
      auto computed = Marginal::Compute(d, spec, rows);
      EXPECT_TRUE(computed.ok()) << computed.status().ToString();
      it = tables.emplace(spec.attributes, std::move(computed).value()).first;
    }
    out.push_back(it->second);
  }
  return out;
}

// How much a global counter grew since construction.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(obs::MetricsRegistry::Global().counter(name)),
        start_(counter_.value()) {}
  uint64_t operator()() const { return counter_.value() - start_; }

 private:
  const obs::Counter& counter_;
  uint64_t start_;
};

MarginalSpec RandomSpec(BitGen& gen, size_t num_attributes) {
  std::vector<uint32_t> attrs(num_attributes);
  std::iota(attrs.begin(), attrs.end(), 0u);
  // Fisher–Yates prefix: `arity` distinct attributes in random order.
  const size_t arity = 1 + gen.UniformInt(4);
  for (size_t i = 0; i < arity; ++i) {
    std::swap(attrs[i], attrs[i + gen.UniformInt(num_attributes - i)]);
  }
  attrs.resize(arity);
  if (gen.UniformInt(2) == 0) std::sort(attrs.begin(), attrs.end());
  return MarginalSpec{attrs};
}

// Every route through the joint tables — widened, covering, alone — at
// row counts on both sides of their bounds, sharded and streamed, must
// give Marginal::Compute's bytes.
TEST(MarginalEvaluatorTest, JointTablesMatchPerSpecComputeRandomized) {
  // {0,1,2} has 82,000 cells, past CountCells' 16-bit index. At 300 rows
  // no table may widen or stand in for another; at 90,000 rows the wide
  // table may hold the specs it contains.
  const std::vector<uint32_t> domains{40, 41, 50, 2, 3, 5, 7, 4};
  const std::vector<MarginalSpec> wide{MarginalSpec{{0, 1, 2}},
                                       MarginalSpec{{0, 2}},
                                       MarginalSpec{{1}}, MarginalSpec{{5, 6}}};
  const std::string path = testing::TempDir() + "/ireduct_joint_tables_" +
                           std::to_string(::getpid()) + ".col";
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const CounterDelta plans("marginals.fused_plans");
  const CounterDelta projected("marginals.projected");
  uint64_t specs_counted = 0;
  for (const size_t rows : {size_t{300}, size_t{6'000}, size_t{90'000}}) {
    const Dataset d = RandomDataset(rows, rows, domains);
    ColumnarWriteOptions options;
    options.block_rows = 4'096;
    ASSERT_TRUE(WriteColumnar(d, path, options).ok());
    auto file = ColumnarFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    BitGen gen(rows + 1);
    std::vector<uint32_t> subset;
    for (uint32_t r = 0; r < rows; ++r) {
      if (gen.UniformInt(3) == 0) subset.push_back(r);
    }
    for (int set = 0; set < 12; ++set) {
      std::vector<MarginalSpec> specs(1 + gen.UniformInt(8));
      for (MarginalSpec& spec : specs) spec = RandomSpec(gen, domains.size());
      if (set % 3 == 0) specs.insert(specs.end(), wide.begin(), wide.end());
      if (set % 2 == 1) specs.push_back(specs[gen.UniformInt(specs.size())]);
      SCOPED_TRACE("rows " + std::to_string(rows) + " set " +
                   std::to_string(set));
      const std::vector<Marginal> want = Reference(d, specs);
      const std::vector<Marginal> want_subset = Reference(d, specs, subset);
      auto evaluator = MarginalSetEvaluator::Create(d.schema(), specs);
      ASSERT_TRUE(evaluator.ok());
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                               &pool8}) {
        auto all = evaluator->Compute(d, {}, pool);
        ASSERT_TRUE(all.ok());
        ExpectBitIdentical(*all, want);
        auto some = evaluator->Compute(d, subset, pool);
        ASSERT_TRUE(some.ok());
        ExpectBitIdentical(*some, want_subset);
        auto streamed = evaluator->ComputeStreaming(*file, pool);
        ASSERT_TRUE(streamed.ok());
        ExpectBitIdentical(*streamed, want);
        specs_counted += 2 * specs.size();
      }
    }
  }
  std::remove(path.c_str());
  // Joint tables formed: fewer tables than specs, and projections.
  EXPECT_LT(plans(), specs_counted);
  EXPECT_GT(projected(), 0u);
}

// Exact table counts on one shard. Domains {4,3,5,4}: {0,1,2} has 60
// cells, so widening to it takes 60 * 32 = 1,920 rows.
TEST(MarginalEvaluatorTest, HandBuiltSetsCountTheExpectedTables) {
  struct Case {
    const char* what;
    size_t rows;
    std::vector<MarginalSpec> specs;
    uint64_t tables;
    uint64_t projected;
  };
  const std::vector<Case> cases{
      {"two pairs widen one table", 5'000,
       {MarginalSpec{{0, 1}}, MarginalSpec{{0, 2}}}, 1, 2},
      {"past one cell per 32 rows", 1'500,
       {MarginalSpec{{0, 1}}, MarginalSpec{{0, 2}}}, 2, 0},
      {"a small union at few rows", 1'500,
       {MarginalSpec{{0}}, MarginalSpec{{1}}}, 1, 2},
      {"disjoint pairs, few rows", 5'000,
       {MarginalSpec{{0, 1}}, MarginalSpec{{2, 3}}}, 2, 0},
      {"disjoint pairs, more rows", 10'000,
       {MarginalSpec{{0, 1}}, MarginalSpec{{2, 3}}}, 1, 2},
      {"a covering table of at most one cell per row", 5'000,
       {MarginalSpec{{3}}, MarginalSpec{{0, 1, 2, 3}}}, 1, 1},
      {"a covering table larger than the rows", 50,
       {MarginalSpec{{0, 1}}, MarginalSpec{{0, 1, 2}}}, 2, 0},
      {"not a subsequence", 5'000,
       {MarginalSpec{{0, 1, 2}}, MarginalSpec{{2, 0}}}, 2, 0},
      {"an unsorted table holds, never widens", 5'000,
       {MarginalSpec{{1, 0}}, MarginalSpec{{0}}, MarginalSpec{{2}}}, 2, 1},
      {"duplicates are copies", 5'000,
       {MarginalSpec{{0, 1}}, MarginalSpec{{0, 1}}}, 1, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const Dataset d = RandomDataset(c.rows, c.rows, {4, 3, 5, 4});
    auto evaluator = MarginalSetEvaluator::Create(d.schema(), c.specs);
    ASSERT_TRUE(evaluator.ok());
    const CounterDelta plans("marginals.fused_plans");
    const CounterDelta projected("marginals.projected");
    auto got = evaluator->Compute(d);
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*got, Reference(d, c.specs));
    EXPECT_EQ(plans(), c.tables);
    EXPECT_EQ(projected(), c.projected);
  }
}

}  // namespace
}  // namespace ireduct

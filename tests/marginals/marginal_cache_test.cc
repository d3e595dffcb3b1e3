#include "marginals/marginal_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "marginals/marginal_set.h"
#include "obs/metrics.h"

namespace ireduct {
namespace {

Dataset RandomDataset(uint64_t seed, size_t rows) {
  auto schema = Schema::Create({{"A", 4}, {"B", 3}, {"C", 5}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  BitGen gen(seed);
  for (size_t r = 0; r < rows; ++r) {
    const std::array<uint16_t, 3> row{
        static_cast<uint16_t>(gen.UniformInt(4)),
        static_cast<uint16_t>(gen.UniformInt(3)),
        static_cast<uint16_t>(gen.UniformInt(5))};
    EXPECT_TRUE(d.AppendRow(row).ok());
  }
  return d;
}

void ExpectBitIdentical(const std::vector<Marginal>& got,
                        const std::vector<Marginal>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].num_cells(), want[i].num_cells());
    EXPECT_EQ(std::memcmp(got[i].counts().data(), want[i].counts().data(),
                          got[i].num_cells() * sizeof(double)),
              0);
  }
}

TEST(MarginalCacheTest, CachedResultsMatchDirectComputation) {
  MarginalCache cache;
  const Dataset d = RandomDataset(3, 1000);
  auto specs = AllKWaySpecs(d.schema(), 2);
  ASSERT_TRUE(specs.ok());
  auto direct = ComputeMarginals(d, *specs);
  ASSERT_TRUE(direct.ok());

  auto cold = cache.GetOrCompute(d, *specs);
  ASSERT_TRUE(cold.ok());
  ExpectBitIdentical(*cold, *direct);
  EXPECT_EQ(cache.size(), specs->size());

  auto warm = cache.GetOrCompute(d, *specs);
  ASSERT_TRUE(warm.ok());
  ExpectBitIdentical(*warm, *direct);
  EXPECT_EQ(cache.size(), specs->size());
}

TEST(MarginalCacheTest, PartialHitsComputeOnlyMissingSpecs) {
  MarginalCache cache;
  const Dataset d = RandomDataset(5, 500);
  const std::vector<MarginalSpec> first{MarginalSpec{{0}},
                                        MarginalSpec{{0, 1}}};
  ASSERT_TRUE(cache.GetOrCompute(d, first).ok());
  EXPECT_EQ(cache.size(), 2u);

  const std::vector<MarginalSpec> second{
      MarginalSpec{{0, 1}}, MarginalSpec{{2}}, MarginalSpec{{1, 2}}};
  auto got = cache.GetOrCompute(d, second);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(cache.size(), 4u);
  auto direct = ComputeMarginals(d, second);
  ASSERT_TRUE(direct.ok());
  ExpectBitIdentical(*got, *direct);
}

TEST(MarginalCacheTest, DistinguishesDatasetsByFingerprint) {
  MarginalCache cache;
  Dataset a = RandomDataset(1, 300);
  const Dataset b = RandomDataset(2, 300);
  ASSERT_NE(a.Fingerprint(), b.Fingerprint());
  const std::vector<MarginalSpec> specs{MarginalSpec{{0, 2}}};

  auto from_a = cache.GetOrCompute(a, specs);
  auto from_b = cache.GetOrCompute(b, specs);
  ASSERT_TRUE(from_a.ok() && from_b.ok());
  EXPECT_EQ(cache.size(), 2u);
  auto direct_b = ComputeMarginals(b, specs);
  ASSERT_TRUE(direct_b.ok());
  ExpectBitIdentical(*from_b, *direct_b);

  // Appending a row changes the fingerprint, so the stale entry can
  // never be served for the grown dataset.
  const uint64_t before = a.Fingerprint();
  const std::array<uint16_t, 3> row{0, 0, 0};
  ASSERT_TRUE(a.AppendRow(row).ok());
  EXPECT_NE(a.Fingerprint(), before);
  auto regrown = cache.GetOrCompute(a, specs);
  ASSERT_TRUE(regrown.ok());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ((*regrown)[0].Total(), 301.0);
}

TEST(MarginalCacheTest, PooledComputationIsBitIdentical) {
  MarginalCache cache;
  ThreadPool pool(8);
  const Dataset d = RandomDataset(9, 4000);
  auto specs = AllKWaySpecs(d.schema(), 2);
  ASSERT_TRUE(specs.ok());
  auto pooled = cache.GetOrCompute(d, *specs, &pool);
  ASSERT_TRUE(pooled.ok());
  auto direct = ComputeMarginals(d, *specs);
  ASSERT_TRUE(direct.ok());
  ExpectBitIdentical(*pooled, *direct);
}

TEST(MarginalCacheTest, ClearDropsEntries) {
  MarginalCache cache;
  const Dataset d = RandomDataset(4, 100);
  const std::vector<MarginalSpec> specs{MarginalSpec{{1}}};
  ASSERT_TRUE(cache.GetOrCompute(d, specs).ok());
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MarginalCacheTest, GlobalInstanceIsShared) {
  MarginalCache& a = MarginalCache::Global();
  MarginalCache& b = MarginalCache::Global();
  EXPECT_EQ(&a, &b);
}

TEST(MarginalCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  MarginalCache cache;
  const Dataset d = RandomDataset(11, 400);
  const std::vector<MarginalSpec> a{MarginalSpec{{0}}};
  const std::vector<MarginalSpec> b{MarginalSpec{{1}}};
  const std::vector<MarginalSpec> c{MarginalSpec{{2}}};
  auto direct_a = ComputeMarginals(d, a);
  auto direct_c = ComputeMarginals(d, c);
  ASSERT_TRUE(direct_a.ok() && direct_c.ok());
  ASSERT_TRUE(cache.GetOrCompute(d, a).ok());
  ASSERT_TRUE(cache.GetOrCompute(d, b).ok());
  ASSERT_EQ(cache.size(), 2u);
  // Exactly enough room for the survivors of the upcoming insert: tables
  // have different domain sizes, so size the budget from the estimates the
  // eviction logic uses.
  const size_t budget = EstimateMarginalBytes((*direct_a)[0]) +
                        EstimateMarginalBytes((*direct_c)[0]);

  // Touch `a` so `b` becomes the LRU victim, then insert a third table.
  ASSERT_TRUE(cache.GetOrCompute(d, a).ok());
  cache.set_byte_budget(budget);
  auto from_c = cache.GetOrCompute(d, c);
  ASSERT_TRUE(from_c.ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.bytes(), budget);
  EXPECT_EQ(cache.evictions(), 1u);

  // `a` (recently used) and `c` (just inserted) are warm hits; `b` was
  // evicted and is recomputed — still correct, just not cached-hot.
  const size_t evictions_before = cache.evictions();
  ASSERT_TRUE(cache.GetOrCompute(d, a).ok());
  ASSERT_TRUE(cache.GetOrCompute(d, c).ok());
  auto from_b = cache.GetOrCompute(d, b);
  ASSERT_TRUE(from_b.ok());
  auto direct_b = ComputeMarginals(d, b);
  ASSERT_TRUE(direct_b.ok());
  ExpectBitIdentical(*from_b, *direct_b);
  // Recomputing `b` displaced the then-LRU entry to stay within budget.
  EXPECT_GT(cache.evictions(), evictions_before);
  EXPECT_LE(cache.bytes(), budget);
}

TEST(MarginalCacheTest, EvictionPreservesPartialHitCorrectness) {
  MarginalCache cache;
  const Dataset d = RandomDataset(13, 600);
  auto all = AllKWaySpecs(d.schema(), 2);
  ASSERT_TRUE(all.ok());
  // A budget big enough for roughly half the tables forces the request's
  // own inserts to evict each other; the returned batch must still be
  // complete and bit-identical to direct computation.
  ASSERT_TRUE(cache.GetOrCompute(d, *all).ok());
  cache.set_byte_budget(cache.bytes() / 2);
  EXPECT_LT(cache.size(), all->size());
  auto partial = cache.GetOrCompute(d, *all);
  ASSERT_TRUE(partial.ok());
  auto direct = ComputeMarginals(d, *all);
  ASSERT_TRUE(direct.ok());
  ExpectBitIdentical(*partial, *direct);
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

TEST(MarginalCacheTest, ZeroBudgetMeansUnlimited) {
  MarginalCache cache;
  EXPECT_EQ(cache.byte_budget(), 0u);
  const Dataset d = RandomDataset(17, 200);
  auto all = AllKWaySpecs(d.schema(), 2);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(cache.GetOrCompute(d, *all).ok());
  EXPECT_EQ(cache.size(), all->size());
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_GT(cache.bytes(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(MarginalCacheTest, GlobalBudgetReadsTheEnvironmentExactly) {
  // Unset, "0", "12abc" and "-1" all mean unlimited; ctest also runs this
  // case with IREDUCT_CACHE_BYTES=12abc.
  EXPECT_EQ(MarginalCache::Global().byte_budget(),
            static_cast<size_t>(EnvInt64("IREDUCT_CACHE_BYTES", 0)));
}

// ------------------------------------------------ the marginal lattice

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
class Reference {
 public:
  explicit Reference(const Dataset& dataset) : dataset_(dataset) {}

  const Marginal& Get(const MarginalSpec& spec) {
    auto it = tables_.find(spec.attributes);
    if (it == tables_.end()) {
      auto computed = Marginal::Compute(dataset_, spec);
      EXPECT_TRUE(computed.ok()) << computed.status().ToString();
      it = tables_.emplace(spec.attributes, std::move(computed).value())
               .first;
    }
    return it->second;
  }

  std::vector<Marginal> All(const std::vector<MarginalSpec>& specs) {
    std::vector<Marginal> out;
    for (const MarginalSpec& spec : specs) out.push_back(Get(spec));
    return out;
  }

 private:
  const Dataset& dataset_;
  std::map<std::vector<uint32_t>, Marginal> tables_;
};

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

// The cache's and the pass's counters over one scope.
struct LatticeCounters {
  CounterDelta hits{"marginals.cache_hits"};
  CounterDelta misses{"marginals.cache_misses"};
  CounterDelta projected{"marginals.projected"};
  CounterDelta passes{"marginals.fused_passes"};
  CounterDelta plans{"marginals.fused_plans"};
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

TEST(MarginalCacheTest, LatticeMatchesDirectComputation) {
  // Three 5-attribute datasets share each cache, so a superset of another
  // dataset would show up as a wrong table.
  std::vector<Dataset> datasets;
  const std::array<size_t, 3> rows{1000, 7000, 20000};
  for (uint64_t seed = 0; seed < 3; ++seed) {
    BitGen gen(100 + seed);
    std::vector<uint32_t> domains(5);
    for (uint32_t& d : domains) {
      d = 2 + static_cast<uint32_t>(gen.UniformInt(12));
    }
    datasets.push_back(RandomDataset(200 + seed, rows[seed], domains));
  }
  std::vector<Reference> references;
  std::vector<uint64_t> fingerprints;
  for (const Dataset& d : datasets) {
    references.emplace_back(d);
    fingerprints.push_back(d.Fingerprint());
  }
  auto table = Marginal::Compute(datasets[1], MarginalSpec{{0, 1, 2}});
  ASSERT_TRUE(table.ok());
  const size_t one_table = EstimateMarginalBytes(*table);

  ThreadPool pool(8);
  const LatticeCounters deltas;
  for (const size_t budget : {size_t{0}, 3 * one_table, one_table}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      MarginalCache cache;
      cache.set_byte_budget(budget);
      BitGen gen(budget + (p != nullptr ? 1 : 0));
      // 200 calls per dataset, interleaved.
      for (size_t call = 0; call < 200 * datasets.size(); ++call) {
        const size_t which = call % datasets.size();
        std::vector<MarginalSpec> specs(1 + gen.UniformInt(6));
        for (MarginalSpec& spec : specs) spec = RandomSpec(gen, 5);
        auto got = cache.GetOrCompute(fingerprints[which], datasets[which],
                                      specs, p);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectBitIdentical(*got, references[which].All(specs));
        for (size_t i = 0; i < specs.size(); ++i) {
          ASSERT_EQ((*got)[i].spec().attributes, specs[i].attributes);
        }
      }
      if (budget > 0) {
        EXPECT_LE(cache.bytes(), budget);
      }
    }
  }
  // The random calls took every route: cached tables, projections and
  // passes.
  EXPECT_GT(deltas.hits(), 0u);
  EXPECT_GT(deltas.projected(), 0u);
  EXPECT_GT(deltas.plans(), 0u);
}

TEST(MarginalCacheTest, ProjectsFromCachedAndCoCountedSupersets) {
  MarginalCache cache;
  const Dataset d = RandomDataset(31, 2000, {3, 4, 5, 6});
  Reference reference(d);
  const std::vector<MarginalSpec> wide{MarginalSpec{{0, 1, 2}}};
  ASSERT_TRUE(cache.GetOrCompute(d, wide).ok());
  ASSERT_EQ(cache.size(), 1u);

  // {0,1} and {1,2} are projected from {0,1,2}; {2,0} is not a
  // subsequence, so it is counted. Projections of cached tables are not
  // stored.
  const std::vector<MarginalSpec> pairs{
      MarginalSpec{{0, 1}}, MarginalSpec{{1, 2}}, MarginalSpec{{2, 0}}};
  {
    const LatticeCounters deltas;
    auto got = cache.GetOrCompute(d, pairs);
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*got, reference.All(pairs));
    EXPECT_EQ(deltas.projected(), 2u);
    EXPECT_EQ(deltas.hits(), 2u);
    EXPECT_EQ(deltas.misses(), 1u);
    EXPECT_EQ(deltas.passes(), 1u);
    EXPECT_EQ(deltas.plans(), 1u);
    EXPECT_EQ(cache.size(), 2u);
  }

  // {3} rides on the pass that counts {1,3}; both tables are stored.
  const std::vector<MarginalSpec> rider{MarginalSpec{{3}},
                                        MarginalSpec{{1, 3}}};
  {
    const LatticeCounters deltas;
    auto got = cache.GetOrCompute(d, rider);
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*got, reference.All(rider));
    EXPECT_EQ(deltas.projected(), 1u);
    EXPECT_EQ(deltas.hits(), 0u);
    EXPECT_EQ(deltas.misses(), 2u);
    EXPECT_EQ(deltas.passes(), 1u);
    EXPECT_EQ(deltas.plans(), 1u);
    EXPECT_EQ(cache.size(), 4u);
  }

  // Everything asked so far is answered without a pass.
  {
    const LatticeCounters deltas;
    const std::vector<MarginalSpec> again{MarginalSpec{{3}},
                                          MarginalSpec{{0, 1}},
                                          MarginalSpec{{2}}};
    auto got = cache.GetOrCompute(d, again);
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*got, reference.All(again));
    EXPECT_EQ(deltas.hits(), 3u);
    EXPECT_EQ(deltas.projected(), 2u);
    EXPECT_EQ(deltas.passes(), 0u);
  }
}

TEST(MarginalCacheTest, ProjectsOnlyFromTheSameDataset) {
  MarginalCache cache;
  const Dataset a = RandomDataset(41, 1000, {3, 4, 5});
  const Dataset b = RandomDataset(42, 1000, {3, 4, 5});
  const std::vector<MarginalSpec> wide{MarginalSpec{{0, 1, 2}}};
  ASSERT_TRUE(cache.GetOrCompute(a, wide).ok());
  const std::vector<MarginalSpec> pair{MarginalSpec{{0, 1}}};
  const LatticeCounters deltas;
  auto got = cache.GetOrCompute(b, pair);
  ASSERT_TRUE(got.ok());
  Reference reference(b);
  ExpectBitIdentical(*got, reference.All(pair));
  EXPECT_EQ(deltas.projected(), 0u);
  EXPECT_EQ(deltas.plans(), 1u);
}

TEST(MarginalCacheTest, InvalidSpecsFailLikeComputeAndInsertNothing) {
  MarginalCache cache;
  const Dataset d = RandomDataset(51, 1000, {3, 4, 5, 2});
  const std::vector<MarginalSpec> wide{MarginalSpec{{0, 1, 2}}};
  ASSERT_TRUE(cache.GetOrCompute(d, wide).ok());
  const size_t bytes = cache.bytes();
  const std::vector<MarginalSpec> invalid{
      MarginalSpec{{}}, MarginalSpec{{1, 1}}, MarginalSpec{{7}}};
  const std::vector<MarginalSpec> valid{MarginalSpec{{0, 1}},
                                        MarginalSpec{{3}}};
  for (const MarginalSpec& bad : invalid) {
    const Status want = Marginal::Compute(d, bad).status();
    ASSERT_FALSE(want.ok());
    const std::vector<std::vector<MarginalSpec>> calls{
        {bad}, {valid[0], bad}, {bad, valid[1]}, {valid[0], bad, valid[1]}};
    for (const std::vector<MarginalSpec>& specs : calls) {
      const LatticeCounters deltas;
      auto got = cache.GetOrCompute(d, specs);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), want.code());
      EXPECT_EQ(got.status().message(), want.message());
      EXPECT_EQ(cache.size(), 1u);
      EXPECT_EQ(cache.bytes(), bytes);
      EXPECT_EQ(deltas.plans(), 0u);
      EXPECT_EQ(deltas.projected(), 0u);
    }
  }
}

TEST(MarginalCacheTest, SourcesLargerThanTheDatasetAreNotProjected) {
  // 64 cells against 50 rows: a projection would cost more than a scan.
  MarginalCache cache;
  const Dataset d = RandomDataset(61, 50, {4, 4, 4});
  Reference reference(d);
  const std::vector<MarginalSpec> both{MarginalSpec{{0, 1}},
                                       MarginalSpec{{0, 1, 2}}};
  {
    // Co-counted: the 3-way table is too large to stand in for {0,1}.
    const LatticeCounters deltas;
    auto got = cache.GetOrCompute(d, both);
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*got, reference.All(both));
    EXPECT_EQ(deltas.plans(), 2u);
    EXPECT_EQ(deltas.projected(), 0u);
  }
  const std::vector<MarginalSpec> pair{MarginalSpec{{1, 2}}};
  {
    // Cached: the same rule.
    const LatticeCounters deltas;
    auto got = cache.GetOrCompute(d, pair);
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*got, reference.All(pair));
    EXPECT_EQ(deltas.plans(), 1u);
    EXPECT_EQ(deltas.projected(), 0u);
  }
}

TEST(MarginalCacheTest, ConcurrentLatticeCallsAreBitIdentical) {
  const Dataset d = RandomDataset(71, 2000, {3, 4, 5, 2});
  const uint64_t fingerprint = d.Fingerprint();
  const std::vector<MarginalSpec> pool{
      MarginalSpec{{0, 1, 2}}, MarginalSpec{{1, 2, 3}}, MarginalSpec{{0, 1}},
      MarginalSpec{{1, 2}},    MarginalSpec{{0, 2}},    MarginalSpec{{2, 0}},
      MarginalSpec{{2, 3}},    MarginalSpec{{0}},       MarginalSpec{{2}},
      MarginalSpec{{3}}};
  Reference reference(d);
  const std::vector<Marginal> want = reference.All(pool);
  auto table = Marginal::Compute(d, pool[0]);
  ASSERT_TRUE(table.ok());
  MarginalCache cache;
  cache.set_byte_budget(EstimateMarginalBytes(*table));

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BitGen gen(900 + t);
      for (int call = 0; call < 200; ++call) {
        std::vector<size_t> picks(1 + gen.UniformInt(4));
        for (size_t& p : picks) p = gen.UniformInt(pool.size());
        std::vector<MarginalSpec> specs;
        for (const size_t p : picks) specs.push_back(pool[p]);
        auto got = cache.GetOrCompute(fingerprint, d, specs);
        if (!got.ok()) {
          ++failures[t];
          continue;
        }
        for (size_t i = 0; i < picks.size(); ++i) {
          const Marginal& w = want[picks[i]];
          if ((*got)[i].num_cells() != w.num_cells() ||
              std::memcmp((*got)[i].counts().data(), w.counts().data(),
                          w.num_cells() * sizeof(double)) != 0) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

}  // namespace
}  // namespace ireduct

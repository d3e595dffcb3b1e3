// Google-benchmark micro suite for the library's hot primitives: the
// samplers that dominate iReduct's inner loop, marginal computation,
// conjunctive counts, and one end-to-end mechanism run per task size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "algorithms/ireduct.h"
#include "algorithms/selection.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "dp/incremental_sensitivity.h"
#include "dp/laplace_coupling.h"
#include "dp/noise_down.h"
#include "dp/workload.h"
#include "marginals/marginal.h"
#include "marginals/consistency.h"
#include "marginals/count_kernel.h"
#include "marginals/marginal_evaluator.h"
#include "marginals/marginal_set.h"
#include "marginals/marginal_workload.h"
#include "queries/linear_workload.h"
#include "queries/predicate.h"
#include "queries/range_workload.h"
#include "queries/strategy.h"
#include "support/count_reference.h"

namespace {

using namespace ireduct;

void BM_LaplaceSample(benchmark::State& state) {
  BitGen gen(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Laplace(2.0));
  }
}
BENCHMARK(BM_LaplaceSample);

// Column pointers and row-major strides of `spec` over `dataset`, laid out
// as MarginalSetEvaluator hands them to CountCells.
struct KernelPlan {
  std::vector<const uint16_t*> cols;
  std::vector<size_t> strides;
  size_t cells = 1;

  KernelPlan(const Dataset& dataset, const MarginalSpec& spec) {
    strides.resize(spec.attributes.size());
    for (size_t i = spec.attributes.size(); i-- > 0;) {
      strides[i] = cells;
      cells *= dataset.schema().attribute(spec.attributes[i]).domain_size;
    }
    for (const uint32_t a : spec.attributes) {
      cols.push_back(dataset.column(a).data());
    }
  }

  CountArgs Args(size_t rows, uint32_t* counts, uint32_t* scratch) const {
    CountArgs args;
    args.cols = cols.data();
    args.strides = strides.data();
    args.arity = cols.size();
    args.end = rows;
    args.counts = counts;
    args.cells = cells;
    args.lane_scratch = scratch;
    return args;
  }
};

// Per-shard counting on a Zipf-skewed 2-attribute census column pair —
// the shape of the fused evaluator's inner loop on the paper's 2D task:
//
//   BM_CountPlanKernel        CountCells, striped over four lane tables
//   BM_CountPlanReferenceLoop Marginal::Compute on the same spec — the
//                             per-marginal reference counting path that
//                             eval_scaling's naive section times
//
// tools/check.sh perf gates kernel vs reference loop at >= 2x
// (KERNEL_MIN_SPEEDUP) on every host.
const Dataset& CountPlanDataset() {
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 100'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  return *dataset;
}

void BM_CountPlanKernel(benchmark::State& state) {
  const Dataset& dataset = CountPlanDataset();
  const KernelPlan plan(dataset, MarginalSpec{{kOccupation, kEducation}});
  std::vector<uint32_t> counts(plan.cells);
  std::vector<uint32_t> scratch(kCountLanes * plan.cells);
  const CountArgs args =
      plan.Args(dataset.num_rows(), counts.data(), scratch.data());
  for (auto _ : state) {
    std::fill(counts.begin(), counts.end(), 0);
    CountCells(args);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows());
}
BENCHMARK(BM_CountPlanKernel);

// One scan_10m shard: 2.5M census rows (10M over 4 threads), counted
// striped into every 2- and 3-way spec of at most 1,024 cells, the pool
// that workload's requests draw from. Every table takes the 16-bit index.
const Dataset& ShardDataset() {
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 2'500'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  return *dataset;
}

void BM_CountCellsScanShard(benchmark::State& state) {
  const Dataset& dataset = ShardDataset();
  std::vector<KernelPlan> plans;
  size_t max_cells = 0;
  for (const int k : {2, 3}) {
    const std::vector<MarginalSpec> specs =
        std::move(*AllKWaySpecs(dataset.schema(), k));
    for (const MarginalSpec& spec : specs) {
      KernelPlan plan(dataset, spec);
      if (plan.cells > 1024) continue;
      max_cells = std::max(max_cells, plan.cells);
      plans.push_back(std::move(plan));
    }
  }
  std::vector<uint32_t> counts(max_cells);
  std::vector<uint32_t> scratch(kCountLanes * max_cells);
  for (auto _ : state) {
    for (const KernelPlan& plan : plans) {
      CountCells(plan.Args(dataset.num_rows(), counts.data(), scratch.data()));
    }
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows() *
                          plans.size());
  state.SetLabel(std::to_string(plans.size()) + " specs");
}
BENCHMARK(BM_CountCellsScanShard)->Unit(benchmark::kMillisecond);

// The scan_10m shape of a fused pass on one shard: a fixed list of 24
// sets of 2–3 distinct specs from that pool (the misses a Phase A pass
// counts), each counted by MarginalSetEvaluator::Compute on one thread:
//
//   BM_MarginalSetFusedScanShape  joint tables, each spec read out of one
//   BM_MarginalSetPerSpecScanShape the same specs, one striped CountCells
//                                 call per spec (the table-major pass
//                                 before joint tables)
//
// tools/check.sh perf gates the first against the second.
std::vector<std::vector<MarginalSpec>> ScanShapeSets(const Schema& schema) {
  std::vector<MarginalSpec> pool;
  for (const int k : {2, 3}) {
    const std::vector<MarginalSpec> specs = std::move(*AllKWaySpecs(schema, k));
    for (const MarginalSpec& spec : specs) {
      size_t cells = 1;
      for (const uint32_t a : spec.attributes) {
        cells *= schema.attribute(a).domain_size;
      }
      if (cells <= 1024) pool.push_back(spec);
    }
  }
  BitGen gen(7);
  std::vector<std::vector<MarginalSpec>> sets(24);
  for (std::vector<MarginalSpec>& set : sets) {
    const size_t k = 2 + gen.UniformInt(2);
    std::vector<size_t> picks;
    while (picks.size() < k) {
      const size_t p = gen.UniformInt(pool.size());
      if (std::find(picks.begin(), picks.end(), p) == picks.end()) {
        picks.push_back(p);
      }
    }
    for (const size_t p : picks) set.push_back(pool[p]);
  }
  return sets;
}

void BM_MarginalSetFusedScanShape(benchmark::State& state) {
  const Dataset& dataset = ShardDataset();
  std::vector<MarginalSetEvaluator> evaluators;
  size_t specs = 0;
  for (const std::vector<MarginalSpec>& set :
       ScanShapeSets(dataset.schema())) {
    evaluators.push_back(
        std::move(*MarginalSetEvaluator::Create(dataset.schema(), set)));
    specs += set.size();
  }
  for (auto _ : state) {
    for (const MarginalSetEvaluator& evaluator : evaluators) {
      auto marginals = evaluator.Compute(dataset);
      benchmark::DoNotOptimize(marginals);
    }
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows() * specs);
}
BENCHMARK(BM_MarginalSetFusedScanShape);

void BM_MarginalSetPerSpecScanShape(benchmark::State& state) {
  const Dataset& dataset = ShardDataset();
  std::vector<KernelPlan> plans;
  size_t max_cells = 0;
  for (const std::vector<MarginalSpec>& set :
       ScanShapeSets(dataset.schema())) {
    for (const MarginalSpec& spec : set) {
      plans.emplace_back(dataset, spec);
      max_cells = std::max(max_cells, plans.back().cells);
    }
  }
  std::vector<uint32_t> counts(max_cells);
  std::vector<uint32_t> scratch(kCountLanes * max_cells);
  for (auto _ : state) {
    for (const KernelPlan& plan : plans) {
      std::fill(counts.begin(), counts.begin() + plan.cells, 0);
      CountCells(plan.Args(dataset.num_rows(), counts.data(), scratch.data()));
      benchmark::DoNotOptimize(counts.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows() *
                          plans.size());
}
BENCHMARK(BM_MarginalSetPerSpecScanShape);

// The same shard counted striped into one wide 3-way table, Age x
// Occupation x Gender (103,424 cells): past 65,536 cells the index is
// size_t, which no benchmark workload reaches.
void BM_CountCellsWideTable(benchmark::State& state) {
  const Dataset& dataset = ShardDataset();
  const KernelPlan plan(dataset, MarginalSpec{{kAge, kOccupation, kGender}});
  std::vector<uint32_t> counts(plan.cells);
  std::vector<uint32_t> scratch(kCountLanes * plan.cells);
  const CountArgs args =
      plan.Args(dataset.num_rows(), counts.data(), scratch.data());
  for (auto _ : state) {
    std::fill(counts.begin(), counts.end(), 0);
    CountCells(args);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows());
}
BENCHMARK(BM_CountCellsWideTable)->Unit(benchmark::kMillisecond);

void BM_CountPlanReferenceLoop(benchmark::State& state) {
  const Dataset& dataset = CountPlanDataset();
  const MarginalSpec spec{{kOccupation, kEducation}};
  for (auto _ : state) {
    auto marginal = Marginal::Compute(dataset, spec);
    benchmark::DoNotOptimize(marginal);
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows());
}
BENCHMARK(BM_CountPlanReferenceLoop);

// One conjunctive count, Gender = 1, over 400k Brazil census rows: a 50/50
// split, where the row loop's data-dependent branch mispredicts most. The
// column kernel (EvaluateQuery) and the row-loop oracle it replaced
// (tests/support/count_reference.h) return the same count (predicate_test
// enforces it). Both are plain C++, so tools/check.sh perf gates kernel vs
// row loop at a fixed >= 5x on every host.
const Dataset& CountQueryDataset() {
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 400'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  return *dataset;
}

void BM_CountQuery(benchmark::State& state) {
  const Dataset& dataset = CountQueryDataset();
  const ConjunctiveQuery query{{{kGender, 1}}};
  for (auto _ : state) {
    auto count = EvaluateQuery(dataset, query);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows());
}
BENCHMARK(BM_CountQuery);

void BM_CountQueryRowLoop(benchmark::State& state) {
  const Dataset& dataset = CountQueryDataset();
  const ConjunctiveQuery query{{{kGender, 1}}};
  for (auto _ : state) {
    auto count = EvaluateQueryRowLoop(dataset, query);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows());
}
BENCHMARK(BM_CountQueryRowLoop);

void BM_NoiseDownCreate(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto dist =
        NoiseDownDistribution::Create(100.0, 140.0, lambda, lambda * 0.9);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_NoiseDownCreate)->Arg(10)->Arg(1000)->Arg(100000);

void BM_NoiseDownSample(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  auto dist =
      NoiseDownDistribution::Create(100.0, 140.0, lambda, lambda * 0.9);
  BitGen gen(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->Sample(gen));
  }
}
BENCHMARK(BM_NoiseDownSample)->Arg(10)->Arg(1000)->Arg(100000);

void BM_NoiseDownEndToEnd(benchmark::State& state) {
  BitGen gen(3);
  double y = 150.0;
  for (auto _ : state) {
    auto yp = NoiseDown(100.0, y, 50.0, 45.0, gen);
    benchmark::DoNotOptimize(yp);
  }
}
BENCHMARK(BM_NoiseDownEndToEnd);

// One iReduct group move at the paper bench's operating point: λmax =
// 40,000 reduced by λmax/150 over a 3,000-cell group of small counts, where
// ~97% of draws take the rejection branch. NoiseDownGroup builds the
// move's (λ, λ') constants once; the per-cell loop is what it replaces. The
// outputs are bit-identical (noise_down_group_test enforces it); items/s is
// draws/s. tools/check.sh perf gates group vs per-cell at >= 1.5x.
struct GroupMoveInputs {
  static constexpr double kLambda = 40'000;
  static constexpr double kLambdaPrime = kLambda - kLambda / 150;
  std::vector<double> mu = std::vector<double>(3000);
  std::vector<double> y = std::vector<double>(3000);
  GroupMoveInputs() {
    BitGen gen(2011);
    for (size_t i = 0; i < mu.size(); ++i) {
      mu[i] = std::floor(gen.Uniform(0, 50));
      y[i] = gen.Laplace(mu[i], kLambda);
    }
  }
};

void BM_NoiseDownGroup(benchmark::State& state) {
  const GroupMoveInputs in;
  std::vector<double> answers(in.y.size());
  BitGen gen(5);
  for (auto _ : state) {
    std::copy(in.y.begin(), in.y.end(), answers.begin());
    const Status s = NoiseDownGroup(in.mu, answers, in.kLambda,
                                    in.kLambdaPrime, gen);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(state.iterations() * in.mu.size());
}
BENCHMARK(BM_NoiseDownGroup);

void BM_NoiseDownPerCell(benchmark::State& state) {
  const GroupMoveInputs in;
  std::vector<double> answers(in.y.size());
  BitGen gen(5);
  for (auto _ : state) {
    std::copy(in.y.begin(), in.y.end(), answers.begin());
    for (size_t i = 0; i < answers.size(); ++i) {
      auto yp = NoiseDown(in.mu[i], answers[i], in.kLambda, in.kLambdaPrime,
                          gen);
      answers[i] = *yp;
    }
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(state.iterations() * in.mu.size());
}
BENCHMARK(BM_NoiseDownPerCell);

void BM_CoupledNoiseDown(benchmark::State& state) {
  BitGen gen(4);
  for (auto _ : state) {
    auto yp = CoupledNoiseDown(100.0, 150.0, 50.0, 45.0, gen);
    benchmark::DoNotOptimize(yp);
  }
}
BENCHMARK(BM_CoupledNoiseDown);

void BM_MarginalCompute(benchmark::State& state) {
  CensusConfig config;
  config.rows = 100'000;
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 100'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  const int dims = static_cast<int>(state.range(0));
  const MarginalSpec spec =
      dims == 1 ? MarginalSpec{{kOccupation}}
                : MarginalSpec{{kOccupation, kEducation}};
  for (auto _ : state) {
    auto marginal = Marginal::Compute(*dataset, spec);
    benchmark::DoNotOptimize(marginal);
  }
  state.SetItemsProcessed(state.iterations() * dataset->num_rows());
}
BENCHMARK(BM_MarginalCompute)->Arg(1)->Arg(2);

// Evaluation-layer baseline feeding BENCH_EVAL.json (bench/eval_scaling):
// all k-way marginals over 100k census rows, per-marginal scans vs the
// fused single-pass evaluator at 1 and N threads. Outputs are
// bit-identical across all four variants (enforced by
// marginal_evaluator_test.cc); these benches measure only the cost gap.

// One Marginal::Compute dataset scan per spec — the historical path.
void BM_MarginalSetPerMarginal(benchmark::State& state) {
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 100'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  const int arity = static_cast<int>(state.range(0));
  const auto specs = AllKWaySpecs(dataset->schema(), arity);
  for (auto _ : state) {
    for (const MarginalSpec& spec : *specs) {
      auto marginal = Marginal::Compute(*dataset, spec);
      benchmark::DoNotOptimize(marginal);
    }
  }
  state.SetItemsProcessed(state.iterations() * dataset->num_rows() *
                          specs->size());
}
BENCHMARK(BM_MarginalSetPerMarginal)->Arg(1)->Arg(2);

// Fused single pass; threads = state.range(1) (1 = no pool).
void BM_MarginalSetFused(benchmark::State& state) {
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 100'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  const int arity = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const auto specs = AllKWaySpecs(dataset->schema(), arity);
  auto evaluator = MarginalSetEvaluator::Create(dataset->schema(), *specs);
  ThreadPool pool(threads);
  for (auto _ : state) {
    auto marginals =
        evaluator->Compute(*dataset, {}, threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(marginals);
  }
  state.SetItemsProcessed(state.iterations() * dataset->num_rows() *
                          specs->size());
}
BENCHMARK(BM_MarginalSetFused)
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({2, 1})
    ->Args({2, 8});

void BM_GeneralizedSensitivity(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  std::vector<double> answers(groups * 4, 10.0);
  std::vector<QueryGroup> gs;
  for (uint32_t g = 0; g < groups; ++g) {
    gs.push_back(QueryGroup{"g", g * 4, (g + 1) * 4, 2.0});
  }
  auto w = Workload::Create(std::move(answers), std::move(gs));
  const std::vector<double> scales(groups, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w->GeneralizedSensitivity(scales));
  }
}
BENCHMARK(BM_GeneralizedSensitivity)->Arg(9)->Arg(36)->Arg(256);

// A per-query workload of `groups` single-query groups — the shape where
// the incremental engine's advantage is largest.
Workload PerQueryWorkload(size_t groups) {
  std::vector<double> answers(groups);
  std::vector<QueryGroup> gs;
  gs.reserve(groups);
  for (uint32_t g = 0; g < groups; ++g) {
    answers[g] = 1.0 + static_cast<double>(g % 997);
    gs.push_back(QueryGroup{"q", g, g + 1, 1.0});
  }
  return std::move(*Workload::Create(std::move(answers), std::move(gs)));
}

// The naive per-iteration GS cost: one full O(m) recompute.
void BM_GsFullRecompute(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const Workload w = PerQueryWorkload(groups);
  const std::vector<double> scales(groups, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.GeneralizedSensitivity(scales));
  }
  state.SetItemsProcessed(state.iterations() * groups);
}
BENCHMARK(BM_GsFullRecompute)->Arg(256)->Arg(4096)->Arg(65536);

// The incremental per-iteration GS cost: one O(1) trial + commit pair
// (amortizing the periodic full resync at the default interval).
void BM_GsIncrementalTrialCommit(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const Workload w = PerQueryWorkload(groups);
  std::vector<double> scales(groups, 1e9);
  IncrementalSensitivity tracker(w, scales);
  BitGen gen(9);
  size_t g = 0;
  for (auto _ : state) {
    const double next = tracker.scales()[g] * 0.999999;
    benchmark::DoNotOptimize(tracker.Trial(g, next));
    tracker.Commit(g, next);
    g = (g + 1) % groups;
  }
}
BENCHMARK(BM_GsIncrementalTrialCommit)->Arg(256)->Arg(4096)->Arg(65536);

// The naive per-iteration selection cost: one O(m + n) linear scan.
void BM_PickGroupLinearScan(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const Workload w = PerQueryWorkload(groups);
  BitGen gen(10);
  std::vector<double> noisy(w.num_queries());
  for (double& y : noisy) y = gen.Uniform(1.0, 1000.0);
  const std::vector<double> scales(groups, 100.0);
  const std::vector<uint8_t> active(groups, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PickGroupIReduct(w, noisy, scales, active, 1.0, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * groups);
}
BENCHMARK(BM_PickGroupLinearScan)->Arg(256)->Arg(4096)->Arg(65536);

// The incremental per-iteration selection cost: one heap pop + the
// re-push of the consumed group after its (simulated) scale move.
void BM_PickGroupHeapCycle(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const Workload w = PerQueryWorkload(groups);
  BitGen gen(11);
  std::vector<double> noisy(w.num_queries());
  for (double& y : noisy) y = gen.Uniform(1.0, 1000.0);
  std::vector<double> scales(groups, 1e9);
  const std::vector<uint8_t> active(groups, 1);
  GroupScoreHeap heap(w, SelectionRule::kIReductRatio, 1.0, 2.0);
  heap.Build(noisy, scales, active);
  for (auto _ : state) {
    const size_t g = heap.PopBest();
    scales[g] *= 0.999999;
    heap.Update(g, noisy, scales);
  }
}
BENCHMARK(BM_PickGroupHeapCycle)->Arg(256)->Arg(4096)->Arg(65536);

void BM_TreeStrategyPublish(benchmark::State& state) {
  const size_t bins = static_cast<size_t>(state.range(0));
  std::vector<double> counts(bins);
  for (size_t b = 0; b < bins; ++b) counts[b] = 1000.0 / (1 + b);
  const Strategy tree = Strategy::Tree(bins);
  BitGen gen(6);
  for (auto _ : state) {
    auto h = tree.Publish(counts, 0.5, 2.0, tree.row_multipliers(), gen);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_TreeStrategyPublish)->Arg(64)->Arg(1024);

void BM_HaarStrategyPublish(benchmark::State& state) {
  const size_t bins = static_cast<size_t>(state.range(0));
  std::vector<double> counts(bins);
  for (size_t b = 0; b < bins; ++b) counts[b] = 1000.0 / (1 + b);
  const Strategy haar = Strategy::Haar(bins);
  BitGen gen(7);
  for (auto _ : state) {
    auto h = haar.Publish(counts, 0.5, 2.0, haar.row_multipliers(), gen);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HaarStrategyPublish)->Arg(64)->Arg(1024);

// Sparse workload-matrix mat-vec: the per-trial cost of answering a
// prefix workload through the linear view (W·x̂ after reconstruction).
void BM_SparseMatVecPrefix(benchmark::State& state) {
  const size_t bins = static_cast<size_t>(state.range(0));
  std::vector<double> histogram(bins);
  for (size_t b = 0; b < bins; ++b) histogram[b] = 1000.0 / (1 + b);
  auto lw = RangeLinearWorkload(histogram, PrefixRanges(bins));
  IREDUCT_CHECK(lw.ok());
  std::vector<double> out(lw->num_queries());
  for (auto _ : state) {
    lw->matrix().MatVec(lw->histogram(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lw->matrix().nnz()));
}
BENCHMARK(BM_SparseMatVecPrefix)->Arg(64)->Arg(256)->Arg(1024);

// Least-squares reconstruction alone (no noise draw): the tree BLUE and
// the inverse Haar at natural scales.
void BM_StrategyReconstruct(benchmark::State& state) {
  const size_t bins = static_cast<size_t>(state.range(1));
  std::vector<double> counts(bins);
  for (size_t b = 0; b < bins; ++b) counts[b] = 1000.0 / (1 + b);
  const Strategy s =
      state.range(0) == 0 ? Strategy::Tree(bins) : Strategy::Haar(bins);
  const std::vector<double> rows = s.RowAnswers(counts);
  const std::vector<double> scales(s.num_rows(), 3.0);
  for (auto _ : state) {
    auto x = s.Reconstruct(rows, scales);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_StrategyReconstruct)
    ->Args({0, 256})
    ->Args({0, 4096})
    ->Args({1, 256})
    ->Args({1, 4096});

void BM_MakeMutuallyConsistent(benchmark::State& state) {
  // A 1D+2D marginal set over a small synthetic table, perturbed.
  CensusConfig config;
  config.rows = 20'000;
  static const Dataset* dataset =
      new Dataset(std::move(*GenerateCensus(config)));
  std::vector<Marginal> noisy;
  {
    auto one = Marginal::Compute(*dataset, MarginalSpec{{kEducation}});
    auto two = Marginal::Compute(
        *dataset, MarginalSpec{{kEducation, kClassOfWorker}});
    BitGen gen(8);
    for (const Marginal* m : {&*one, &*two}) {
      std::vector<double> counts(m->counts().begin(), m->counts().end());
      for (double& c : counts) c += gen.Laplace(5.0);
      noisy.push_back(std::move(
          *Marginal::FromCounts(m->spec(), m->domain_sizes(), counts)));
    }
  }
  ConsistencyOptions options;
  options.target_total = 20'000;
  for (auto _ : state) {
    auto repaired = MakeMutuallyConsistent(noisy, options);
    benchmark::DoNotOptimize(repaired);
  }
}
BENCHMARK(BM_MakeMutuallyConsistent);

void BM_IReductSmallWorkload(benchmark::State& state) {
  std::vector<double> answers;
  std::vector<QueryGroup> groups;
  for (uint32_t g = 0; g < 9; ++g) {
    for (int c = 0; c < 16; ++c) answers.push_back(5.0 + 100.0 * g);
    groups.push_back(QueryGroup{"g", g * 16, (g + 1) * 16, 2.0});
  }
  auto w = Workload::Create(std::move(answers), std::move(groups));
  IReductParams p;
  p.epsilon = 0.1;
  p.delta = 1.0;
  p.lambda_max = 2000;
  p.lambda_delta = 20;
  BitGen gen(5);
  for (auto _ : state) {
    auto out = RunIReduct(*w, p, gen);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_IReductSmallWorkload);

}  // namespace

BENCHMARK_MAIN();

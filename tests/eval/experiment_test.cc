#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>

#include "common/random.h"

namespace ireduct {
namespace {

TEST(ExperimentTest, RunTrialsAggregates) {
  // IREDUCT_THREADS may put the trials on a pool: each call still takes a
  // distinct value in 1..5, so the aggregate is order-independent.
  std::atomic<int> calls{0};
  const TrialAggregate agg = RunTrials(5, 1, [&](uint64_t) {
    return static_cast<double>(++calls);  // 1..5
  });
  EXPECT_EQ(calls.load(), 5);
  EXPECT_EQ(agg.trials, 5);
  EXPECT_DOUBLE_EQ(agg.mean, 3.0);
  EXPECT_NEAR(agg.stddev, std::sqrt(2.5), 1e-12);
}

TEST(ExperimentTest, SeedsAreDistinctAndDeterministic) {
  std::mutex mu;
  std::set<uint64_t> seeds_a, seeds_b;
  RunTrials(8, 42, [&](uint64_t s) {
    std::lock_guard<std::mutex> lock(mu);
    seeds_a.insert(s);
    return 0.0;
  });
  RunTrials(8, 42, [&](uint64_t s) {
    std::lock_guard<std::mutex> lock(mu);
    seeds_b.insert(s);
    return 0.0;
  });
  EXPECT_EQ(seeds_a.size(), 8u);
  EXPECT_EQ(seeds_a, seeds_b);
}

// A deterministic, thread-safe trial: a few PRNG draws folded together,
// so any scheduling difference in a parallel run would be visible.
double SyntheticTrial(uint64_t seed) {
  BitGen gen(seed);
  double v = 0;
  for (int i = 0; i < 16; ++i) v += gen.Laplace(1.0 + i);
  return v;
}

TEST(ExperimentTest, ParallelAggregateIsBitIdenticalToSequential) {
  for (const uint64_t base_seed : {1ull, 42ull, 1000ull}) {
    TrialOptions sequential;
    sequential.num_threads = 1;
    const TrialAggregate ref =
        RunTrials(9, base_seed, SyntheticTrial, sequential);
    for (const int threads : {2, 8}) {
      TrialOptions parallel;
      parallel.num_threads = threads;
      const TrialAggregate agg =
          RunTrials(9, base_seed, SyntheticTrial, parallel);
      EXPECT_EQ(agg.mean, ref.mean)
          << "base_seed " << base_seed << " threads " << threads;
      EXPECT_EQ(agg.stddev, ref.stddev)
          << "base_seed " << base_seed << " threads " << threads;
      EXPECT_EQ(agg.trials, ref.trials);
    }
  }
}

TEST(ExperimentTest, ParallelSeedsMatchSequentialSeeds) {
  std::set<uint64_t> sequential_seeds;
  TrialOptions opts;
  opts.num_threads = 1;
  RunTrials(8, 42, [&](uint64_t s) {
    sequential_seeds.insert(s);
    return 0.0;
  }, opts);
  std::mutex mu;
  std::set<uint64_t> parallel_seeds;
  opts.num_threads = 4;
  RunTrials(8, 42, [&](uint64_t s) {
    std::lock_guard<std::mutex> lock(mu);
    parallel_seeds.insert(s);
    return 0.0;
  }, opts);
  EXPECT_EQ(parallel_seeds, sequential_seeds);
}

TEST(ExperimentTest, ThreadsEnvKnobIsHonored) {
  TrialOptions sequential;
  sequential.num_threads = 1;
  const TrialAggregate ref = RunTrials(5, 7, SyntheticTrial, sequential);
  setenv("IREDUCT_THREADS", "4", 1);
  const TrialAggregate agg = RunTrials(5, 7, SyntheticTrial);
  unsetenv("IREDUCT_THREADS");
  EXPECT_EQ(agg.mean, ref.mean);
  EXPECT_EQ(agg.stddev, ref.stddev);
}

TEST(ExperimentTest, MoreThreadsThanTrialsIsFine) {
  TrialOptions opts;
  opts.num_threads = 16;
  const TrialAggregate agg = RunTrials(2, 3, SyntheticTrial, opts);
  TrialOptions sequential;
  sequential.num_threads = 1;
  const TrialAggregate ref = RunTrials(2, 3, SyntheticTrial, sequential);
  EXPECT_EQ(agg.mean, ref.mean);
  EXPECT_EQ(agg.stddev, ref.stddev);
}

TEST(ExperimentTest, EnvInt64FallsBackWhenUnsetOrInvalid) {
  unsetenv("IREDUCT_TEST_ENV");
  EXPECT_EQ(EnvInt64("IREDUCT_TEST_ENV", 7), 7);
  setenv("IREDUCT_TEST_ENV", "not a number", 1);
  EXPECT_EQ(EnvInt64("IREDUCT_TEST_ENV", 7), 7);
  setenv("IREDUCT_TEST_ENV", "-3", 1);
  EXPECT_EQ(EnvInt64("IREDUCT_TEST_ENV", 7), 7);
  // Parsed exactly or refused: no '+' prefix, whitespace, hex or
  // saturation at the int64_t limit.
  for (const char* inexact :
       {"+4", " 4", "0x10", "4 ", "99999999999999999999", ""}) {
    setenv("IREDUCT_TEST_ENV", inexact, 1);
    EXPECT_EQ(EnvInt64("IREDUCT_TEST_ENV", 7), 7) << "'" << inexact << "'";
  }
  setenv("IREDUCT_TEST_ENV", "123", 1);
  EXPECT_EQ(EnvInt64("IREDUCT_TEST_ENV", 7), 123);
  unsetenv("IREDUCT_TEST_ENV");
}

}  // namespace
}  // namespace ireduct

#include "dp/incremental_sensitivity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/numeric.h"
#include "common/random.h"
#include "dp/workload.h"

namespace ireduct {
namespace {

Workload RandomGroupedWorkload(BitGen& gen, size_t num_groups) {
  std::vector<double> answers;
  std::vector<QueryGroup> groups;
  uint32_t begin = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const uint32_t size = 1 + static_cast<uint32_t>(gen.UniformInt(4));
    for (uint32_t i = 0; i < size; ++i) {
      answers.push_back(gen.Uniform(0.5, 5000.0));
    }
    groups.push_back(QueryGroup{"g", begin, begin + size,
                                gen.Uniform(0.5, 4.0)});
    begin += size;
  }
  auto w = Workload::Create(std::move(answers), std::move(groups));
  EXPECT_TRUE(w.ok()) << w.status();
  return std::move(w).value();
}

TEST(IncrementalSensitivityTest, MatchesInitialFullComputation) {
  BitGen gen(1);
  const Workload w = RandomGroupedWorkload(gen, 50);
  const std::vector<double> scales(w.num_groups(), 1000.0);
  IncrementalSensitivity tracker(w, scales);
  EXPECT_TRUE(tracker.incremental());
  EXPECT_EQ(tracker.value(), w.GeneralizedSensitivity(scales));
}

TEST(IncrementalSensitivityTest, TrialIsNonDestructive) {
  BitGen gen(2);
  const Workload w = RandomGroupedWorkload(gen, 20);
  const std::vector<double> scales(w.num_groups(), 500.0);
  IncrementalSensitivity tracker(w, scales);
  const double before = tracker.value();
  tracker.Trial(3, 400.0);
  tracker.TrialExact(3, 400.0);
  EXPECT_EQ(tracker.value(), before);
  EXPECT_EQ(tracker.scales()[3], 500.0);
}

TEST(IncrementalSensitivityTest, TrialRejectsNonPositiveScales) {
  BitGen gen(3);
  const Workload w = RandomGroupedWorkload(gen, 5);
  const std::vector<double> scales(w.num_groups(), 100.0);
  IncrementalSensitivity tracker(w, scales);
  EXPECT_EQ(tracker.Trial(0, 0.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(tracker.Trial(0, -5.0),
            std::numeric_limits<double>::infinity());
}

TEST(IncrementalSensitivityTest, TrialExactMatchesWorkloadBitForBit) {
  BitGen gen(4);
  const Workload w = RandomGroupedWorkload(gen, 80);
  std::vector<double> scales(w.num_groups());
  for (double& s : scales) s = gen.Uniform(10.0, 2000.0);
  IncrementalSensitivity tracker(w, scales);
  for (int t = 0; t < 50; ++t) {
    const size_t g = gen.UniformInt(w.num_groups());
    const double trial_scale = gen.Uniform(5.0, 2000.0);
    std::vector<double> expected_scales = scales;
    expected_scales[g] = trial_scale;
    EXPECT_EQ(tracker.TrialExact(g, trial_scale),
              w.GeneralizedSensitivity(expected_scales));
  }
}

// The tentpole property: across long random λ-move sequences, the running
// compensated sum stays within 1e-9 relative of a full Kahan recompute.
TEST(IncrementalSensitivityTest, LongMoveSequenceStaysWithinDriftEnvelope) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    BitGen gen(seed);
    const Workload w = RandomGroupedWorkload(gen, 200);
    std::vector<double> scales(w.num_groups());
    for (double& s : scales) s = gen.Uniform(100.0, 5000.0);
    // A huge resync interval disables the periodic full recompute so the
    // test exercises genuine incremental drift, not the resync.
    IncrementalSensitivity tracker(
        w, scales, /*resync_interval=*/std::numeric_limits<size_t>::max());
    for (int move = 0; move < 20000; ++move) {
      const size_t g = gen.UniformInt(w.num_groups());
      const double new_scale = scales[g] * gen.Uniform(0.7, 0.999);
      const double trial = tracker.Trial(g, new_scale);
      tracker.Commit(g, new_scale);
      scales[g] = new_scale;
      const double full = w.GeneralizedSensitivity(scales);
      EXPECT_NEAR(tracker.value(), full, 1e-9 * full)
          << "seed " << seed << " move " << move;
      EXPECT_NEAR(trial, full, 1e-9 * full);
    }
  }
}

TEST(IncrementalSensitivityTest, TrialForBudgetIsExactInsideTheGuardBand) {
  // With the periodic resync off the running sum drifts in its low bits.
  // A budget equal to the O(1) trial must get the exact GS back; a budget
  // far from it gets the O(1) trial itself.
  BitGen gen(31);
  const Workload w = RandomGroupedWorkload(gen, 200);
  std::vector<double> scales(w.num_groups());
  for (double& s : scales) s = gen.Uniform(100.0, 5000.0);
  IncrementalSensitivity tracker(
      w, scales, /*resync_interval=*/std::numeric_limits<size_t>::max());
  size_t drifted_trials = 0;
  for (int move = 0; move < 2000; ++move) {
    const size_t g = gen.UniformInt(w.num_groups());
    const double new_scale = scales[g] * gen.Uniform(0.7, 0.999);
    const double trial = tracker.Trial(g, new_scale);
    const double exact = tracker.TrialExact(g, new_scale);
    EXPECT_EQ(tracker.TrialForBudget(g, new_scale, trial), exact);
    EXPECT_EQ(tracker.TrialForBudget(g, new_scale, 2 * exact), trial);
    if (trial != exact) ++drifted_trials;
    tracker.Commit(g, new_scale);
    scales[g] = new_scale;
  }
  EXPECT_GT(drifted_trials, 0u);  // the band really changed some answers
}

TEST(IncrementalSensitivityTest, PeriodicResyncErasesDrift) {
  BitGen gen(21);
  const Workload w = RandomGroupedWorkload(gen, 64);
  std::vector<double> scales(w.num_groups(), 3000.0);
  IncrementalSensitivity tracker(w, scales, /*resync_interval=*/16);
  for (int move = 0; move < 16; ++move) {
    const size_t g = gen.UniformInt(w.num_groups());
    const double new_scale = scales[g] * 0.9;
    tracker.Commit(g, new_scale);
    scales[g] = new_scale;
  }
  // The 16th commit triggered a resync: the value is bit-identical to a
  // from-scratch recompute.
  EXPECT_EQ(tracker.value(), w.GeneralizedSensitivity(scales));
}

TEST(IncrementalSensitivityTest, ResyncReturnsExactValue) {
  BitGen gen(22);
  const Workload w = RandomGroupedWorkload(gen, 64);
  std::vector<double> scales(w.num_groups(), 3000.0);
  IncrementalSensitivity tracker(
      w, scales, /*resync_interval=*/std::numeric_limits<size_t>::max());
  for (int move = 0; move < 500; ++move) {
    const size_t g = gen.UniformInt(w.num_groups());
    const double new_scale = scales[g] * gen.Uniform(0.8, 0.99);
    tracker.Commit(g, new_scale);
    scales[g] = new_scale;
  }
  EXPECT_EQ(tracker.Resync(), w.GeneralizedSensitivity(scales));
  EXPECT_EQ(tracker.value(), w.GeneralizedSensitivity(scales));
}

TEST(IncrementalSensitivityTest, CustomSensitivityFallsBackToFullRecompute) {
  // A non-additive GS: the additive sum doubled. Monotone non-increasing
  // in every scale, so a valid SensitivityFn.
  auto custom = [](std::span<const double> scales) {
    KahanSum acc;
    for (double s : scales) acc.Add(2.0 / s);
    return acc.value();
  };
  auto w = Workload::CreateWithSensitivityFn(
      {10, 20, 30},
      {QueryGroup{"a", 0, 1, 1.0}, QueryGroup{"b", 1, 2, 1.0},
       QueryGroup{"c", 2, 3, 1.0}},
      custom);
  ASSERT_TRUE(w.ok());
  std::vector<double> scales{100.0, 200.0, 300.0};
  IncrementalSensitivity tracker(*w, scales);
  EXPECT_FALSE(tracker.incremental());
  EXPECT_EQ(tracker.value(), w->GeneralizedSensitivity(scales));
  // Trials and commits route through the custom fn; value stays exact.
  std::vector<double> moved = scales;
  moved[1] = 150.0;
  EXPECT_EQ(tracker.Trial(1, 150.0), w->GeneralizedSensitivity(moved));
  tracker.Commit(1, 150.0);
  EXPECT_EQ(tracker.value(), w->GeneralizedSensitivity(moved));
}

}  // namespace
}  // namespace ireduct

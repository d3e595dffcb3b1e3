// NoiseDownGroup against the per-cell NoiseDown loop it replaces inside
// iReduct: over an adversarial grid of scales and cell positions the two
// must agree bit for bit — answers, final generator state, and the deltas
// of all three noise_down.* counters.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/noise_down.h"
#include "obs/metrics.h"

namespace ireduct {
namespace {

struct Counters {
  uint64_t samples, rejection_rounds, envelope_draws;
  bool operator==(const Counters&) const = default;
};

Counters ReadCounters() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  return {r.counter("noise_down.samples").value(),
          r.counter("noise_down.rejection_rounds").value(),
          r.counter("noise_down.envelope_draws").value()};
}

Counters Delta(const Counters& before, const Counters& after) {
  return {after.samples - before.samples,
          after.rejection_rounds - before.rejection_rounds,
          after.envelope_draws - before.envelope_draws};
}

// Cells that reach every branch of the sampler: w = y - μ ≥ 1 (the hoisted
// middle-mass bracket), 0 < w < 1 and w = 0 (the split branch), w = 1
// exactly, μ > y (the inverted orientation), ξ = y - 1 (θ2 = 0), plus
// answers drawn at the move's own scale.
void MakeCells(double lambda, BitGen& gen, std::vector<double>* mu,
               std::vector<double>* y) {
  const double base[][2] = {
      {100.0, 100.0 + 3 * lambda},  // w ≫ 1
      {100.0, 101.0},               // w = 1
      {100.0, 100.5},               // w < 1, ξ = y - 1
      {100.0, 100.0},               // w = 0
      {100.0, 99.0},                // inverted, w = 1
      {100.0, 99.75},               // inverted, w < 1
      {100.0, 100.0 - 2 * lambda},  // inverted, w ≫ 1
      {-5.0, -4.0},                 // μ = y - 1 exactly: θ2 = 0
      {0.0, 1e-300},                // subnormal-scale w
  };
  for (const auto& cell : base) {
    mu->push_back(cell[0]);
    y->push_back(cell[1]);
  }
  for (int i = 0; i < 40; ++i) {
    const double m = std::floor(gen.Uniform(0, 200));
    mu->push_back(m);
    y->push_back(gen.Laplace(m, lambda));
  }
}

struct RunResult {
  std::vector<double> answers;
  std::array<uint64_t, 4> state;
  Counters counters;
};

RunResult RunPerCell(const std::vector<double>& mu, std::vector<double> y,
                     double lambda, double lambda_prime, double step,
                     uint64_t seed) {
  BitGen gen(seed);
  const Counters before = ReadCounters();
  for (size_t i = 0; i < mu.size(); ++i) {
    Result<double> r =
        step == 1.0
            ? NoiseDown(mu[i], y[i], lambda, lambda_prime, gen)
            : NoiseDownWithStep(mu[i], y[i], lambda, lambda_prime, step, gen);
    EXPECT_TRUE(r.ok()) << r.status();
    y[i] = *r;
  }
  return {std::move(y), gen.SaveState(), Delta(before, ReadCounters())};
}

RunResult RunGroup(const std::vector<double>& mu, std::vector<double> y,
                   double lambda, double lambda_prime, double step,
                   uint64_t seed) {
  BitGen gen(seed);
  const Counters before = ReadCounters();
  // NoiseDownWithStep's rescaling to unit step, applied to the group.
  std::vector<double> unit_mu(mu.size());
  for (size_t i = 0; i < mu.size(); ++i) {
    unit_mu[i] = mu[i] / step;
    y[i] /= step;
  }
  const Status s =
      NoiseDownGroup(unit_mu, y, lambda / step, lambda_prime / step, gen);
  EXPECT_TRUE(s.ok()) << s;
  for (double& v : y) v *= step;
  return {std::move(y), gen.SaveState(), Delta(before, ReadCounters())};
}

void ExpectSame(const RunResult& group, const RunResult& cell,
                const std::string& what) {
  ASSERT_EQ(group.answers.size(), cell.answers.size()) << what;
  EXPECT_EQ(std::memcmp(group.answers.data(), cell.answers.data(),
                        cell.answers.size() * sizeof(double)),
            0)
      << what << ": answers differ";
  EXPECT_EQ(group.state, cell.state) << what << ": generator state differs";
  EXPECT_EQ(group.counters, cell.counters) << what << ": counters differ";
}

TEST(NoiseDownGroupTest, MatchesPerCellLoopOverAdversarialGrid) {
  uint64_t seed = 1;
  for (const double lambda : {2.0, 1e3, 4e4, 1e6}) {
    for (const double ratio : {0.5, 0.99, 0.9999}) {
      for (const double step : {1.0, 3.0}) {
        BitGen cell_gen(seed);
        std::vector<double> mu, y;
        MakeCells(lambda * step, cell_gen, &mu, &y);
        const double lambda_prime = ratio * lambda;
        const std::string what =
            "lambda=" + std::to_string(lambda) + " ratio=" +
            std::to_string(ratio) + " step=" + std::to_string(step);
        const RunResult cell = RunPerCell(mu, y, lambda * step,
                                          lambda_prime * step, step, seed);
        const RunResult group = RunGroup(mu, y, lambda * step,
                                         lambda_prime * step, step, seed);
        ExpectSame(group, cell, what);
        EXPECT_EQ(cell.counters.samples, mu.size()) << what;
        ++seed;
      }
    }
  }
}

TEST(NoiseDownGroupTest, PaperOperatingPointMatchesPerCellLoop) {
  // The iReduct bench's move: λmax = 40,000 reduced by λmax/150, over a
  // group of 3,000 cells — ~97% of draws take the rejection branch.
  const double lambda = 40'000, lambda_prime = lambda - lambda / 150;
  BitGen cell_gen(2011);
  std::vector<double> mu(3000), y(3000);
  for (size_t i = 0; i < mu.size(); ++i) {
    mu[i] = std::floor(cell_gen.Uniform(0, 50));
    y[i] = cell_gen.Laplace(mu[i], lambda);
  }
  const RunResult cell = RunPerCell(mu, y, lambda, lambda_prime, 1.0, 7);
  const RunResult group = RunGroup(mu, y, lambda, lambda_prime, 1.0, 7);
  ExpectSame(group, cell, "paper operating point");
  EXPECT_GT(cell.counters.envelope_draws, mu.size() / 2);
}

TEST(NoiseDownGroupTest, EmptyGroupIsANoOp) {
  BitGen gen(3), untouched(3);
  EXPECT_TRUE(NoiseDownGroup({}, {}, 2.0, 1.0, gen).ok());
  EXPECT_EQ(gen.SaveState(), untouched.SaveState());
}

TEST(NoiseDownGroupTest, RejectsMismatchedSpans) {
  BitGen gen(3);
  const std::vector<double> mu{1, 2};
  std::vector<double> y{1};
  EXPECT_EQ(NoiseDownGroup(mu, y, 2.0, 1.0, gen).code(),
            StatusCode::kInvalidArgument);
}

TEST(NoiseDownGroupTest, FailsWhereThePerCellLoopFails) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> mu{1, 2, nan, 4};
  const std::vector<double> y0{3, 0, 5, 4};
  // A non-finite cell stops the group after resampling the cells before it.
  std::vector<double> y_group = y0, y_cell = y0;
  BitGen g_group(9), g_cell(9);
  const Status group = NoiseDownGroup(mu, y_group, 8.0, 4.0, g_group);
  Status cell;
  for (size_t i = 0; i < mu.size() && cell.ok(); ++i) {
    Result<double> r = NoiseDown(mu[i], y_cell[i], 8.0, 4.0, g_cell);
    if (r.ok()) {
      y_cell[i] = *r;
    } else {
      cell = r.status();
    }
  }
  EXPECT_EQ(group.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(group.ToString(), cell.ToString());
  EXPECT_EQ(std::memcmp(y_group.data(), y_cell.data(),
                        y_cell.size() * sizeof(double)),
            0);
  EXPECT_EQ(g_group.SaveState(), g_cell.SaveState());

  // Invalid scales fail before any draw, as the first per-cell call would.
  BitGen gen(9), untouched(9);
  std::vector<double> y = y0;
  const Status bad = NoiseDownGroup(std::vector<double>{1, 2},
                                    std::span<double>(y).first(2), 1.0, 2.0,
                                    gen);
  EXPECT_EQ(bad.ToString(), NoiseDown(1, 3, 1.0, 2.0, gen).status().ToString());
  EXPECT_EQ(gen.SaveState(), untouched.SaveState());
  EXPECT_EQ(y, y0);
}

}  // namespace
}  // namespace ireduct

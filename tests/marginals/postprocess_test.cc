#include "marginals/postprocess.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

namespace ireduct {
namespace {

Marginal Make1D(std::vector<double> counts) {
  const uint32_t domain = static_cast<uint32_t>(counts.size());
  auto m = Marginal::FromCounts(MarginalSpec{{0}}, {domain},
                                std::move(counts));
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

Marginal Make2D(uint32_t d0, uint32_t d1, std::vector<double> counts,
                std::vector<uint32_t> attrs = {0, 1}) {
  auto m = Marginal::FromCounts(MarginalSpec{std::move(attrs)}, {d0, d1},
                                std::move(counts));
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(PostprocessTest, ClampNonNegative) {
  const Marginal clamped = ClampNonNegative(Make1D({-3.5, 0.0, 2.5}));
  EXPECT_DOUBLE_EQ(clamped.count(0), 0.0);
  EXPECT_DOUBLE_EQ(clamped.count(1), 0.0);
  EXPECT_DOUBLE_EQ(clamped.count(2), 2.5);
}

TEST(PostprocessTest, RoundCounts) {
  const Marginal rounded = RoundCounts(Make1D({-1.4, 2.5, 2.49, -2.5}));
  EXPECT_DOUBLE_EQ(rounded.count(0), -1.0);
  EXPECT_DOUBLE_EQ(rounded.count(1), 3.0);
  EXPECT_DOUBLE_EQ(rounded.count(2), 2.0);
  EXPECT_DOUBLE_EQ(rounded.count(3), -3.0);
}

TEST(PostprocessTest, ProjectTwoDimensionalOntoEachAxis) {
  // 2x3 table: rows sum {6, 15}, columns sum {5, 7, 9}.
  const Marginal m = Make2D(2, 3, {1, 2, 3, 4, 5, 6});
  auto rows = ProjectMarginal(m, std::array<uint32_t, 1>{0});
  ASSERT_TRUE(rows.ok());
  EXPECT_DOUBLE_EQ(rows->count(0), 6);
  EXPECT_DOUBLE_EQ(rows->count(1), 15);
  auto cols = ProjectMarginal(m, std::array<uint32_t, 1>{1});
  ASSERT_TRUE(cols.ok());
  EXPECT_DOUBLE_EQ(cols->count(0), 5);
  EXPECT_DOUBLE_EQ(cols->count(1), 7);
  EXPECT_DOUBLE_EQ(cols->count(2), 9);
}

TEST(PostprocessTest, ProjectOntoAllAttributesIsIdentity) {
  const Marginal m = Make2D(2, 2, {1, 2, 3, 4});
  auto same = ProjectMarginal(m, std::array<uint32_t, 2>{0, 1});
  ASSERT_TRUE(same.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(same->count(i), m.count(i));
  }
}

TEST(PostprocessTest, ProjectRejectsNonSubsequence) {
  const Marginal m = Make2D(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_FALSE(ProjectMarginal(m, std::array<uint32_t, 1>{7}).ok());
  // Out of order is not a subsequence.
  EXPECT_FALSE(ProjectMarginal(m, std::array<uint32_t, 2>{1, 0}).ok());
}

TEST(PostprocessTest, ProjectRejectsEmptyKeep) {
  const Marginal m = Make2D(2, 3, {1, 2, 3, 4, 5, 6});
  const auto empty = ProjectMarginal(m, std::span<const uint32_t>());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

// The projection adds fine cells in cell order, so noisy tables project
// to exactly the doubles of a per-cell coordinate walk.
TEST(PostprocessTest, ProjectAddsInFineCellOrder) {
  std::vector<double> counts(3 * 4 * 5);
  for (size_t c = 0; c < counts.size(); ++c) {
    counts[c] = std::sin(static_cast<double>(c) * 1.7) * 1e3 + 0.1;
  }
  auto fine = Marginal::FromCounts(MarginalSpec{{4, 7, 9}}, {3, 4, 5},
                                   std::move(counts));
  ASSERT_TRUE(fine.ok());
  const std::vector<std::vector<size_t>> keeps{{0}, {1}, {2}, {0, 1},
                                               {0, 2}, {1, 2}, {0, 1, 2}};
  for (const std::vector<size_t>& positions : keeps) {
    std::vector<uint32_t> keep;
    std::vector<uint32_t> domains;
    for (size_t p : positions) {
      keep.push_back(fine->spec().attributes[p]);
      domains.push_back(fine->domain_sizes()[p]);
    }
    auto got = ProjectMarginal(*fine, keep);
    ASSERT_TRUE(got.ok());
    size_t cells = 1;
    for (uint32_t d : domains) cells *= d;
    auto want = Marginal::FromCounts(MarginalSpec{keep}, domains,
                                     std::vector<double>(cells, 0.0));
    ASSERT_TRUE(want.ok());
    std::vector<double> sums(cells, 0.0);
    std::vector<uint16_t> coarse(positions.size());
    for (size_t cell = 0; cell < fine->num_cells(); ++cell) {
      const std::vector<uint16_t> coords = fine->CellCoordinates(cell);
      for (size_t i = 0; i < positions.size(); ++i) {
        coarse[i] = coords[positions[i]];
      }
      sums[want->CellIndex(coarse)] += fine->count(cell);
    }
    ASSERT_EQ(got->num_cells(), cells);
    EXPECT_EQ(got->domain_sizes(), domains);
    EXPECT_EQ(std::memcmp(got->counts().data(), sums.data(),
                          cells * sizeof(double)),
              0);
  }
}

TEST(PostprocessTest, EnforceTotalShiftsUniformly) {
  std::vector<Marginal> marginals;
  marginals.push_back(Make1D({1, 2, 3}));    // total 6
  marginals.push_back(Make1D({10, 10}));     // total 20
  auto fixed = EnforceTotal(std::move(marginals), 12.0);
  EXPECT_NEAR(fixed[0].Total(), 12.0, 1e-9);
  EXPECT_NEAR(fixed[1].Total(), 12.0, 1e-9);
  // Uniform additive shift: +2 per cell for the first, -4 for the second.
  EXPECT_DOUBLE_EQ(fixed[0].count(0), 3);
  EXPECT_DOUBLE_EQ(fixed[1].count(0), 6);
}

TEST(PostprocessTest, MeanTotal) {
  std::vector<Marginal> marginals;
  marginals.push_back(Make1D({1, 2, 3}));
  marginals.push_back(Make1D({10, 10}));
  EXPECT_DOUBLE_EQ(MeanTotal(marginals), 13.0);
}

TEST(PostprocessTest, FitProjectionMatchesCoarseExactly) {
  // Fine 2x3 with noisy counts; coarse over attribute 0 demands {10, 20}.
  const Marginal fine = Make2D(2, 3, {1, 2, 3, 4, 5, 6});
  const Marginal coarse = Make1D({10, 20});
  auto fitted = FitProjection(fine, coarse);
  ASSERT_TRUE(fitted.ok());
  auto projected = ProjectMarginal(*fitted, std::array<uint32_t, 1>{0});
  ASSERT_TRUE(projected.ok());
  EXPECT_NEAR(projected->count(0), 10.0, 1e-9);
  EXPECT_NEAR(projected->count(1), 20.0, 1e-9);
  // Residual spread evenly: row 0 had sum 6, gets +4/3 per cell.
  EXPECT_NEAR(fitted->count(0), 1 + 4.0 / 3, 1e-9);
  // Unprojected structure preserved (differences within a row unchanged).
  EXPECT_NEAR(fitted->count(1) - fitted->count(0), 1.0, 1e-9);
}

TEST(PostprocessTest, FitProjectionOnSecondAttribute) {
  const Marginal fine = Make2D(2, 2, {1, 2, 3, 4});
  auto coarse = Marginal::FromCounts(MarginalSpec{{1}}, {2}, {8, 8});
  ASSERT_TRUE(coarse.ok());
  auto fitted = FitProjection(fine, *coarse);
  ASSERT_TRUE(fitted.ok());
  auto projected = ProjectMarginal(*fitted, std::array<uint32_t, 1>{1});
  ASSERT_TRUE(projected.ok());
  EXPECT_NEAR(projected->count(0), 8.0, 1e-9);
  EXPECT_NEAR(projected->count(1), 8.0, 1e-9);
}

TEST(PostprocessTest, FitProjectionValidates) {
  const Marginal fine = Make2D(2, 2, {1, 2, 3, 4});
  // Wrong domain size.
  auto coarse = Marginal::FromCounts(MarginalSpec{{0}}, {3}, {1, 2, 3});
  ASSERT_TRUE(coarse.ok());
  EXPECT_FALSE(FitProjection(fine, *coarse).ok());
  // Not a subsequence.
  auto other = Marginal::FromCounts(MarginalSpec{{5}}, {2}, {1, 2});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(FitProjection(fine, *other).ok());
}

TEST(PostprocessTest, PipelineNonNegativeConsistentIntegral) {
  // Typical cleanup pipeline on a noisy marginal set.
  std::vector<Marginal> noisy;
  noisy.push_back(Make1D({-2.3, 11.7, 90.1}));
  noisy.push_back(Make1D({48.2, 52.9}));
  auto cleaned = EnforceTotal(std::move(noisy), 100.0);
  for (auto& m : cleaned) {
    m = RoundCounts(ClampNonNegative(m));
    for (size_t c = 0; c < m.num_cells(); ++c) {
      EXPECT_GE(m.count(c), 0.0);
      EXPECT_DOUBLE_EQ(m.count(c), std::round(m.count(c)));
    }
  }
}

}  // namespace
}  // namespace ireduct

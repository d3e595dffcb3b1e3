#include "marginals/count_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "support/count_reference.h"

namespace ireduct {
namespace {

// A marginal shape and the row range to count. Every case runs CountCells
// both striped and direct and must match the row-loop oracle
// (tests/support/count_reference.h) exactly.
struct CountCase {
  const char* name;
  std::vector<size_t> domains;
  size_t rows;            // rows in the columns
  bool odd_rows;          // count the odd-row subset, not the dense range
  size_t begin;           // first position of the counted range
  size_t end_trim;        // positions left off the end of the range
  uint32_t prefill;       // counts already in the table, to be added to
};

// MatchesRowLoopOracleOnEveryRow's cases: an arity-5 subset and the index
// width edges. The smaller shapes are the named tests below it.
const CountCase kCases[] = {
    {"arity5_odd_rows_offset", {3, 2, 4, 2, 3}, 9'001, true, 3, 50, 2},
    // The widest 16-bit table, its largest index 65,535 reachable.
    {"cells_65536", {256, 256}, 4 * 65'536 + 300, false, 5, 0, 1},
    {"cells_65536_odd_rows", {256, 256}, 8 * 65'536 + 3, true, 1, 2, 0},
    // A domain-1 attribute's stride (65,536) does not fit in 16 bits; its
    // code is always 0.
    {"cells_65536_domain1_stride", {1, 256, 256}, 4 * 65'536, false, 0, 0, 0},
    // Past 65,536 cells the index is size_t. 65,537 is prime, so its one
    // column draws codes below 65,536 (a uint16 cannot hold 65,536); the
    // 65,538-cell shape reaches index 65,537.
    {"cells_65537", {65'537}, 4 * 65'537 + 11, false, 9, 0, 3},
    {"cells_65538", {2, 32'769}, 4 * 65'538 + 1, true, 0, 0, 0},
};

struct Columns {
  std::vector<std::vector<uint16_t>> cols;
  std::vector<const uint16_t*> ptrs;
  std::vector<size_t> strides;
  std::vector<uint32_t> odd_rows;
  size_t cells = 1;

  explicit Columns(const CountCase& c) {
    BitGen gen(77);
    cols.resize(c.domains.size());
    strides.resize(c.domains.size());
    for (size_t k = 0; k < c.domains.size(); ++k) {
      const uint64_t codes = std::min<uint64_t>(c.domains[k], 65'536);
      cols[k].resize(c.rows);
      for (auto& v : cols[k]) v = static_cast<uint16_t>(gen.UniformInt(codes));
    }
    // Row-major strides, last attribute fastest.
    for (size_t k = c.domains.size(); k-- > 0;) {
      strides[k] = cells;
      cells *= c.domains[k];
    }
    for (const auto& col : cols) ptrs.push_back(col.data());
    for (size_t r = 1; r < c.rows; r += 2) {
      odd_rows.push_back(static_cast<uint32_t>(r));
    }
  }

  CountArgs Args(const CountCase& c, std::vector<uint32_t>& counts) const {
    CountArgs args;
    args.cols = ptrs.data();
    args.strides = strides.data();
    args.arity = ptrs.size();
    args.row_idx = c.odd_rows ? odd_rows.data() : nullptr;
    args.begin = c.begin;
    args.end = (c.odd_rows ? odd_rows.size() : c.rows) - c.end_trim;
    // One guard cell past the table catches a stray increment.
    counts.assign(cells + 1, c.prefill);
    args.counts = counts.data();
    args.cells = cells;
    return args;
  }
};

void ExpectMatchesRowLoop(const CountCase& c) {
  SCOPED_TRACE(c.name);
  const Columns f(c);
  std::vector<uint32_t> want, direct, striped;
  const CountArgs ref = f.Args(c, want);
  CountCellsRowLoop(ref);

  CountCells(f.Args(c, direct));
  EXPECT_EQ(direct, want) << "direct";

  // Scratch that is not zeroed: the kernel must clear it.
  std::vector<uint32_t> scratch(kCountLanes * f.cells, 0xdeadbeef);
  CountArgs args = f.Args(c, striped);
  args.lane_scratch = scratch.data();
  CountCells(args);
  EXPECT_EQ(striped, want) << "striped";

  uint64_t total = 0;
  for (size_t i = 0; i < f.cells; ++i) total += want[i];
  EXPECT_EQ(total, (ref.end - ref.begin) + uint64_t{c.prefill} * f.cells);
  EXPECT_EQ(want.back(), c.prefill) << "guard cell";
}

TEST(CountKernelTest, MatchesRowLoopOracleOnEveryRow) {
  for (const CountCase& c : kCases) ExpectMatchesRowLoop(c);
}

// These keep the names they had when the counts ran through CountPlan
// (arities 1 and 2) and CountPlanN (every arity), tiered kernels that
// CountCells replaced; each now checks its cases through
// ExpectMatchesRowLoop.

TEST(SimdKernelsTest, CountPlanStripedMatchesDirectArity2) {
  ExpectMatchesRowLoop({"arity2", {13, 9}, 10'000, false, 0, 0, 0});
}

TEST(SimdKernelsTest, CountPlanMatchesOnRowSubsets) {
  ExpectMatchesRowLoop({"arity2_odd_rows", {13, 9}, 10'000, true, 0, 0, 0});
}

TEST(SimdKernelsTest, CountPlanArity1AndAccumulateSemantics) {
  ExpectMatchesRowLoop(
      {"arity1_offset_range_added_into", {13}, 4'096, false, 17, 5, 7});
}

TEST(SimdKernelsTest, CountPlanNMatchesScalarRefAcrossArities) {
  ExpectMatchesRowLoop({"arity3", {5, 3, 7}, 10'000, false, 0, 0, 0});
  ExpectMatchesRowLoop({"arity4", {4, 2, 3, 5}, 10'000, false, 0, 0, 0});
  ExpectMatchesRowLoop(
      {"arity6", {2, 2, 2, 3, 3, 2}, 10'000, false, 0, 0, 0});
}

TEST(SimdKernelsTest, CountPlanNMatchesOnRowSubsets) {
  ExpectMatchesRowLoop({"arity3_odd_rows", {6, 4, 5}, 8'000, true, 0, 0, 0});
}

TEST(SimdKernelsTest, CountPlanNAccumulatesAndHonorsRanges) {
  ExpectMatchesRowLoop(
      {"arity3_offset_range_added_into", {3, 3, 3}, 4'096, false, 13, 96, 5});
}

}  // namespace
}  // namespace ireduct

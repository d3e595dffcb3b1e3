#include "marginals/count_kernel.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace ireduct {

namespace {

// Rows per block: the index buffer stays in L1, and blocks of 64-256 rows
// measured fastest on the scan_10m shape (docs/PERFORMANCE.md).
constexpr size_t kBlockRows = 128;

// Index is uint16_t for tables of at most 65,536 cells: every term and
// partial sum is then at most cells - 1 <= 65,535, so the 16-bit
// arithmetic is exact and the loops vectorize as 8-lane 16-bit multiplies
// and adds at the baseline target. (A stride that does not fit in 16 bits
// belongs to a domain-1 attribute, whose code is always 0.) Wider tables
// take size_t, exact for every table the evaluator accepts.
template <typename Index, bool kIndirect>
void CountBlocks(const CountArgs& a, uint32_t* const l0, uint32_t* const l1,
                 uint32_t* const l2, uint32_t* const l3) {
  Index idx[kBlockRows];
  for (size_t base = a.begin; base < a.end; base += kBlockRows) {
    const size_t m = std::min(kBlockRows, a.end - base);
    const uint32_t* const rows = kIndirect ? a.row_idx + base : nullptr;
    for (size_t k = 0; k < a.arity; ++k) {
      const uint16_t* const col = kIndirect ? a.cols[k] : a.cols[k] + base;
      const Index stride = static_cast<Index>(a.strides[k]);
      if (k == 0) {
        for (size_t j = 0; j < m; ++j) {
          idx[j] = static_cast<Index>(stride * col[kIndirect ? rows[j] : j]);
        }
      } else {
        for (size_t j = 0; j < m; ++j) {
          idx[j] = static_cast<Index>(idx[j] +
                                      stride * col[kIndirect ? rows[j] : j]);
        }
      }
    }
    size_t j = 0;
    for (; j + kCountLanes <= m; j += kCountLanes) {
      ++l0[idx[j]];
      ++l1[idx[j + 1]];
      ++l2[idx[j + 2]];
      ++l3[idx[j + 3]];
    }
    for (; j < m; ++j) ++l0[idx[j]];
  }
}

}  // namespace

void CountCells(const CountArgs& a) {
  IREDUCT_DCHECK(a.arity > 0);
  uint32_t* lanes[kCountLanes];
  for (size_t l = 0; l < kCountLanes; ++l) {
    lanes[l] = a.lane_scratch != nullptr ? a.lane_scratch + l * a.cells
                                         : a.counts;
  }
  if (a.lane_scratch != nullptr) {
    std::memset(a.lane_scratch, 0, kCountLanes * a.cells * sizeof(uint32_t));
  }

  const bool narrow = a.cells <= (size_t{1} << 16);
  const auto count = a.row_idx != nullptr
                         ? (narrow ? CountBlocks<uint16_t, true>
                                   : CountBlocks<size_t, true>)
                         : (narrow ? CountBlocks<uint16_t, false>
                                   : CountBlocks<size_t, false>);
  count(a, lanes[0], lanes[1], lanes[2], lanes[3]);

  if (a.lane_scratch != nullptr) {
    for (size_t c = 0; c < a.cells; ++c) {
      a.counts[c] += lanes[0][c] + lanes[1][c] + lanes[2][c] + lanes[3][c];
    }
  }
}

}  // namespace ireduct

#include "marginals/marginal_evaluator.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "common/arena.h"
#include "common/logging.h"
#include "data/columnar.h"
#include "marginals/count_kernel.h"
#include "marginals/postprocess.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

// Tables with more cells than this count directly instead of striping:
// beyond it the four private lane tables stop fitting in cache and the
// scratch clear/merge dominates, and an uncapped bound would let one huge
// 2-way table size gigabytes of per-shard scratch. Totals are unaffected —
// striping is a perf mode, not a semantic one.
constexpr size_t kMaxStripedCells = size_t{1} << 21;

// A spec widens a joint table only while the union fits CountCells'
// 16-bit index...
constexpr size_t kMaxJointCells = size_t{1} << 16;
// ...and has at most one cell per kRowsPerJointCell rows of a shard. A row
// costs one increment per table it is counted into; a cell costs each
// shard a clear and a lane merge, the pass a shard merge, and each member
// a read-out. Of 16, 24, 32, 48, 64 and 128, 32 was fastest or within
// noise of it on every bench shape (docs/PERFORMANCE.md, "Joint tables").
constexpr size_t kRowsPerJointCell = 32;

// Shards for a pass over `rows` rows: one per worker, but never shards so
// small that the per-shard accumulator allocation dominates — and never
// more shards than the machine has cores. A pool can legitimately be wider
// than the CPU (callers size pools for their workload, not this pass), but
// extra shards on an oversubscribed machine are pure overhead: each one is
// a full accumulator block to allocate, fill, and merge with zero added
// parallelism. That overhead is exactly what pushed the fig08/09
// end-to-end run below 1x on single-core CI runners. Shard *count* only
// affects wall-clock: cell counts are integers, so merging shard blocks in
// any grouping yields the same totals and the final double tables are
// bit-identical to the sequential pass.
size_t NumShards(const ThreadPool* pool, size_t rows) {
  if (pool == nullptr || pool->num_threads() <= 1) return 1;
  constexpr size_t kMinRowsPerShard = 1024;
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = pool->num_threads();
  return std::min<size_t>(std::min<size_t>(pool->num_threads(), hw),
                          std::max<size_t>(1, rows / kMinRowsPerShard));
}

}  // namespace

Result<MarginalSetEvaluator> MarginalSetEvaluator::Create(
    const Schema& schema, std::vector<MarginalSpec> specs) {
  MarginalSetEvaluator evaluator;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    evaluator.domain_sizes_.push_back(schema.attribute(a).domain_size);
  }

  // Sorted union of every referenced attribute: the columns a pass reads.
  std::vector<uint32_t> columns;
  for (const MarginalSpec& spec : specs) {
    IREDUCT_RETURN_NOT_OK(ValidateSpec(spec, schema.num_attributes()));
    columns.insert(columns.end(), spec.attributes.begin(),
                   spec.attributes.end());
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  evaluator.columns_ = std::move(columns);

  size_t total_cells = 0;
  evaluator.plans_.reserve(specs.size());
  for (MarginalSpec& spec : specs) {
    std::vector<uint32_t> domains;
    for (const uint32_t a : spec.attributes) {
      domains.push_back(evaluator.domain_sizes_[a]);
    }
    IREDUCT_ASSIGN_OR_RETURN(const size_t cells, CellCount(domains));
    if (total_cells > (static_cast<size_t>(1) << 42) - cells) {
      return Status::InvalidArgument("fused marginal table too large");
    }
    total_cells += cells;
    evaluator.plans_.push_back(SpecPlan{std::move(spec), cells});
  }
  return evaluator;
}

Status MarginalSetEvaluator::CheckSchema(const Schema& schema) const {
  if (schema.num_attributes() < domain_sizes_.size()) {
    return Status::InvalidArgument(
        "data has fewer attributes than the evaluation plan");
  }
  for (const uint32_t a : columns_) {
    if (schema.attribute(a).domain_size != domain_sizes_[a]) {
      return Status::InvalidArgument(
          "data domain sizes do not match the evaluation plan");
    }
  }
  return Status::OK();
}

MarginalSetEvaluator::Pass MarginalSetEvaluator::PlanPass(
    size_t rows, size_t num_shards) const {
  const size_t rows_per_shard = (rows + num_shards - 1) / num_shards;
  const size_t max_union =
      std::min(kMaxJointCells, rows_per_shard / kRowsPerJointCell);
  // Cells of the table over `attributes`, or SIZE_MAX past max_union.
  const auto union_cells = [&](const std::vector<uint32_t>& attributes) {
    size_t cells = 1;
    for (const uint32_t a : attributes) {
      cells *= domain_sizes_[a];
      if (cells > max_union) return SIZE_MAX;
    }
    return cells;
  };

  // Largest first, so a smaller spec finds the tables that contain it.
  std::vector<size_t> order(plans_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return plans_[a].cells > plans_[b].cells;
  });
  Pass pass;
  std::vector<JointTable>& tables = pass.tables;
  std::vector<uint32_t> merged;
  for (const size_t i : order) {
    const std::vector<uint32_t>& attrs = plans_[i].spec.attributes;
    JointTable* home = nullptr;
    for (JointTable& table : tables) {
      if (table.cells <= rows && IsSubsequence(attrs, table.attributes) &&
          (home == nullptr || table.cells < home->cells)) {
        home = &table;
      }
    }
    if (home == nullptr && std::is_sorted(attrs.begin(), attrs.end())) {
      size_t best_cells = SIZE_MAX;
      std::vector<uint32_t> best_union;
      for (JointTable& table : tables) {
        if (!std::is_sorted(table.attributes.begin(),
                            table.attributes.end())) {
          continue;
        }
        merged.clear();
        std::set_union(table.attributes.begin(), table.attributes.end(),
                       attrs.begin(), attrs.end(),
                       std::back_inserter(merged));
        const size_t cells = union_cells(merged);
        if (cells < best_cells) {
          best_cells = cells;
          best_union = merged;
          home = &table;
        }
      }
      if (home != nullptr) {
        home->attributes = std::move(best_union);
        home->cells = best_cells;
      }
    }
    if (home == nullptr) {
      tables.push_back(JointTable{attrs, {}, plans_[i].cells, {}, 0, {}});
      home = &tables.back();
    }
    home->members.push_back(i);
  }

  for (JointTable& table : tables) {
    // Row-major strides, first attribute varying slowest — identical cell
    // order to Marginal.
    size_t stride = table.cells;
    for (const uint32_t a : table.attributes) {
      table.domain_sizes.push_back(domain_sizes_[a]);
      stride /= domain_sizes_[a];
      const auto column =
          std::lower_bound(columns_.begin(), columns_.end(), a);
      table.terms.emplace_back(
          static_cast<uint32_t>(column - columns_.begin()), stride);
    }
    table.offset = pass.total_cells;
    pass.total_cells += table.cells;
    if (table.cells <= kMaxStripedCells) {
      pass.max_kernel_cells = std::max(pass.max_kernel_cells, table.cells);
    }
  }
  return pass;
}

Result<std::vector<Marginal>> MarginalSetEvaluator::ToMarginals(
    const Pass& pass,
    const std::vector<std::vector<uint32_t>>& shard_counts) const {
  // Fixed shard order; with integer counts any order gives the same sum.
  std::vector<uint64_t> totals(pass.total_cells, 0);
  for (const std::vector<uint32_t>& counts : shard_counts) {
    for (size_t c = 0; c < pass.total_cells; ++c) totals[c] += counts[c];
  }
  std::vector<std::optional<Marginal>> out(plans_.size());
  uint64_t projected = 0;
  for (const JointTable& table : pass.tables) {
    std::vector<double> counts(table.cells);
    for (size_t c = 0; c < table.cells; ++c) {
      // Integer-valued, < 2^53: exactly the double the sequential += 1.0
      // accumulation of Marginal::Compute produces.
      counts[c] = static_cast<double>(totals[table.offset + c]);
    }
    IREDUCT_ASSIGN_OR_RETURN(
        Marginal joint,
        Marginal::FromCounts(MarginalSpec{table.attributes},
                             table.domain_sizes, std::move(counts)));
    for (const size_t i : table.members) {
      const std::vector<uint32_t>& attrs = plans_[i].spec.attributes;
      if (attrs == table.attributes) {
        out[i] = joint;
      } else {
        IREDUCT_ASSIGN_OR_RETURN(Marginal m, ProjectMarginal(joint, attrs));
        out[i] = std::move(m);
        ++projected;
      }
    }
  }
  IREDUCT_METRIC_COUNT("marginals.projected", projected);
  std::vector<Marginal> marginals;
  marginals.reserve(out.size());
  for (std::optional<Marginal>& m : out) marginals.push_back(std::move(*m));
  return marginals;
}

void MarginalSetEvaluator::CountColumns(const Pass& pass,
                                        const uint16_t* const* cols,
                                        const uint32_t* row_idx, size_t begin,
                                        size_t end, uint32_t* counts) {
  const size_t nrows = end - begin;

  // Lane scratch for the striped counts, sized for the widest
  // striping-eligible table and reused across tables. Call-local lifetime:
  // the scratch is dead once the table's merge into `counts` finishes, so
  // Reset-at-entry is safe even when one pool worker runs several shards.
  thread_local Arena scratch_arena;
  scratch_arena.Reset();
  uint32_t* lane_scratch = nullptr;
  if (pass.max_kernel_cells > 0) {
    lane_scratch =
        scratch_arena.Alloc<uint32_t>(kCountLanes * pass.max_kernel_cells);
  }

  // Table-major, one CountCells call per table (count_kernel.h). Census
  // data is Zipf-skewed, so consecutive rows keep hitting the same hot
  // cells; striping the increments over four private tables pays when the
  // row range dwarfs a cache-resident table. Small shards and huge tables
  // count directly into `counts`. Counts are integers, so the mode cannot
  // change any total.
  std::vector<const uint16_t*> table_cols;
  std::vector<size_t> table_strides;
  for (const JointTable& table : pass.tables) {
    table_cols.clear();
    table_strides.clear();
    for (const auto& [col, stride] : table.terms) {
      table_cols.push_back(cols[col]);
      table_strides.push_back(stride);
    }
    const bool striped = nrows >= 4 * table.cells && table.cells > 1 &&
                         table.cells <= kMaxStripedCells;
    CountArgs args;
    args.cols = table_cols.data();
    args.strides = table_strides.data();
    args.arity = table.terms.size();
    args.row_idx = row_idx;
    args.begin = begin;
    args.end = end;
    args.counts = counts + table.offset;
    args.cells = table.cells;
    args.lane_scratch = striped ? lane_scratch : nullptr;
    CountCells(args);
  }
}

Result<std::vector<Marginal>> MarginalSetEvaluator::Compute(
    const Dataset& dataset, std::span<const uint32_t> rows,
    ThreadPool* pool) const {
  IREDUCT_RETURN_NOT_OK(CheckSchema(dataset.schema()));
  const size_t n = rows.empty() ? dataset.num_rows() : rows.size();
  for (uint32_t r : rows) {
    if (r >= dataset.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
  }

  IREDUCT_SCOPED_TIMER(fused_timer, "marginals.fused_seconds");
  const auto pass_start = std::chrono::steady_clock::now();
  const size_t num_shards = NumShards(pool, n);
  const Pass pass = PlanPass(n, num_shards);
  IREDUCT_METRIC_COUNT("marginals.fused_passes", 1);
  IREDUCT_METRIC_COUNT("marginals.fused_plans", pass.tables.size());
  IREDUCT_METRIC_COUNT("marginals.fused_rows", n);

  // Raw column pointers for the referenced attributes only.
  std::vector<const uint16_t*> cols;
  cols.reserve(columns_.size());
  for (uint32_t c : columns_) cols.push_back(dataset.column(c).data());
  const uint32_t* row_idx = rows.empty() ? nullptr : rows.data();

  std::vector<std::vector<uint32_t>> shard_counts(num_shards);
  if (num_shards == 1) {
    shard_counts[0].assign(pass.total_cells, 0);
    CountColumns(pass, cols.data(), row_idx, 0, n, shard_counts[0].data());
  } else {
    // Each worker writes only its own slot, so the timing vector needs no
    // lock; it is read after Wait() establishes the happens-before edge.
    std::vector<double> shard_seconds(num_shards, 0);
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t begin = n * s / num_shards;
      const size_t end = n * (s + 1) / num_shards;
      pool->Submit([&pass, &cols, row_idx, begin, end, &shard_counts,
                    &shard_seconds, s] {
        const auto shard_start = std::chrono::steady_clock::now();
        shard_counts[s].assign(pass.total_cells, 0);
        CountColumns(pass, cols.data(), row_idx, begin, end,
                     shard_counts[s].data());
        shard_seconds[s] = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - shard_start)
                               .count();
      });
    }
    pool->Wait();
    double total_seconds = 0;
    double max_seconds = 0;
    for (const double s : shard_seconds) {
      IREDUCT_METRIC_OBSERVE("marginals.shard_seconds", s);
      total_seconds += s;
      max_seconds = std::max(max_seconds, s);
    }
    const double mean_seconds = total_seconds / num_shards;
    // max/mean ≈ 1 means even shards; > 1 quantifies straggler loss.
    if (mean_seconds > 0) {
      IREDUCT_METRIC_GAUGE_SET("marginals.shard_imbalance",
                               max_seconds / mean_seconds);
    }
  }
  IREDUCT_ASSIGN_OR_RETURN(std::vector<Marginal> marginals,
                           ToMarginals(pass, shard_counts));
  const double pass_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pass_start)
          .count();
  if (pass_seconds > 0) {
    IREDUCT_METRIC_GAUGE_SET("marginals.rows_per_second",
                             static_cast<double>(n) / pass_seconds);
  }
  return marginals;
}

Result<std::vector<Marginal>> MarginalSetEvaluator::ComputeStreaming(
    const ColumnarFile& file, ThreadPool* pool) const {
  IREDUCT_RETURN_NOT_OK(CheckSchema(file.schema()));
  const uint64_t n = file.num_rows();
  const uint32_t num_blocks = file.num_blocks();
  const size_t block_rows = file.block_rows();
  const size_t ncols = columns_.size();

  IREDUCT_SCOPED_TIMER(stream_timer, "marginals.streaming_seconds");
  IREDUCT_METRIC_COUNT("marginals.streaming_passes", 1);
  IREDUCT_METRIC_COUNT("marginals.streaming_rows", n);
  const auto pass_start = std::chrono::steady_clock::now();

  // Same shard clamp as Compute, against the rows of one (full) block.
  const size_t num_shards = NumShards(pool, block_rows);
  const Pass pass = PlanPass(n, num_shards);

  // Double-buffered block decode: while shard jobs count block b out of
  // one slot, a decode job fills the other slot with block b+1; the
  // pool->Wait() at the bottom of the loop joins both. Each slot holds
  // only the referenced columns — unreferenced columns are never decoded.
  struct Slot {
    std::vector<std::vector<uint16_t>> cols;
    Status status = Status::OK();
  };
  std::array<Slot, 2> slots;
  for (Slot& slot : slots) {
    slot.cols.resize(ncols);
    for (auto& col : slot.cols) col.resize(block_rows);
  }
  const auto decode_block = [&](uint32_t b, Slot& slot) {
    slot.status = Status::OK();
    for (size_t i = 0; i < ncols; ++i) {
      Status s = file.DecodeChunk(columns_[i], b, slot.cols[i].data());
      if (!s.ok()) {
        slot.status = std::move(s);
        return;
      }
    }
  };

  // Per-shard uint32 accumulators live across blocks and merge once at the
  // end — the same overflow headroom (2^32 rows per shard) and the same
  // fixed-order integer merge as the in-memory pass, which is what keeps
  // the totals bit-identical to Compute at any thread count or block size.
  std::vector<std::vector<uint32_t>> shard_counts(num_shards);
  for (auto& counts : shard_counts) counts.assign(pass.total_cells, 0);

  if (num_blocks > 0) decode_block(0, slots[0]);
  std::vector<const uint16_t*> ptrs(ncols);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    Slot& cur = slots[b % 2];
    Slot& next = slots[(b + 1) % 2];
    IREDUCT_RETURN_NOT_OK(cur.status);
    const size_t rows_b = file.RowsInBlock(b);
    for (size_t i = 0; i < ncols; ++i) ptrs[i] = cur.cols[i].data();
    if (pool != nullptr) {
      if (b + 1 < num_blocks) {
        pool->Submit([&decode_block, &next, nb = b + 1] {
          decode_block(nb, next);
        });
      }
      for (size_t s = 0; s < num_shards; ++s) {
        const size_t begin = rows_b * s / num_shards;
        const size_t end = rows_b * (s + 1) / num_shards;
        pool->Submit([&pass, &ptrs, &shard_counts, begin, end, s] {
          CountColumns(pass, ptrs.data(), nullptr, begin, end,
                       shard_counts[s].data());
        });
      }
      pool->Wait();
    } else {
      CountColumns(pass, ptrs.data(), nullptr, 0, rows_b,
                   shard_counts[0].data());
      if (b + 1 < num_blocks) decode_block(b + 1, slots[(b + 1) % 2]);
    }
  }

  IREDUCT_ASSIGN_OR_RETURN(std::vector<Marginal> marginals,
                           ToMarginals(pass, shard_counts));
  const double pass_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pass_start)
          .count();
  if (pass_seconds > 0) {
    IREDUCT_METRIC_GAUGE_SET("marginals.streaming_rows_per_second",
                             static_cast<double>(n) / pass_seconds);
  }
  return marginals;
}

}  // namespace ireduct

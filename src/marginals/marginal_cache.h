// Process-wide cache of true marginal tables.
//
// The figure benches sweep mechanisms × epsilons × trials over the same
// census datasets, and every sweep point needs the same true marginals —
// historically recomputed from scratch per CensusSetup. MarginalCache
// memoizes computed tables keyed by (dataset fingerprint, spec), so the
// tables for a given dataset are derived once per process and every later
// request is a copy.
//
// A spec that is not cached is answered, in order of preference, by
// projecting (summing out) the smallest cached table of the same dataset
// whose attribute list contains it as a subsequence, or by one fused
// MarginalSetEvaluator pass (optionally sharded on a ThreadPool) over the
// call's remaining misses, which itself counts a few joint tables and
// projects the misses out of them (the data-cube lattice). A cached
// projection source has at most as many cells as the dataset has rows, so
// it never costs more than the scan it replaces.
//
// Every returned table is bit-identical to Marginal::Compute: the fused
// pass has an exact parity guarantee, and true counts are integers below
// 2^53, so summing them in any order gives exactly the scanned doubles.
// The cache stores every table a pass returned; a projection of a cached
// table is not stored, since its source rebuilds it in O(cells).
#ifndef IREDUCT_MARGINALS_MARGINAL_CACHE_H_
#define IREDUCT_MARGINALS_MARGINAL_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "marginals/marginal.h"

namespace ireduct {

/// Thread-safe memo of computed marginals with an optional byte budget.
/// With no budget (the default) entries live for the cache's lifetime —
/// the evaluation workloads touch a handful of datasets. With a budget,
/// least-recently-used tables are evicted until the estimated footprint
/// fits; eviction only drops cached copies, never correctness (an evicted
/// table is simply recomputed on the next request). Clear() drops
/// everything.
class MarginalCache {
 public:
  /// The shared process-wide instance the benches use. Its byte budget is
  /// read once from the IREDUCT_CACHE_BYTES environment variable: an exact
  /// decimal number of bytes > 0; unset, empty, 0 or anything that does
  /// not parse exactly means unlimited.
  static MarginalCache& Global();

  /// Returns the marginals for `specs` over `dataset`, in spec order —
  /// cached copies or projections of cached tables where available,
  /// otherwise computed in one fused pass (sharded on `pool` when
  /// non-null) and cached. Every spec is validated first, so an invalid
  /// one fails with Marginal::Compute's status before anything is looked
  /// up or cached. Fingerprints the dataset internally; prefer the
  /// explicit-fingerprint overload when calling repeatedly for one
  /// dataset.
  Result<std::vector<Marginal>> GetOrCompute(
      const Dataset& dataset, std::span<const MarginalSpec> specs,
      ThreadPool* pool = nullptr);

  /// Same, with the caller-supplied `fingerprint` standing in for
  /// Dataset::Fingerprint() (which costs a full data scan).
  Result<std::vector<Marginal>> GetOrCompute(
      uint64_t fingerprint, const Dataset& dataset,
      std::span<const MarginalSpec> specs, ThreadPool* pool = nullptr);

  /// Number of cached marginal tables.
  size_t size() const;

  /// Estimated bytes held by the cached tables (see EstimateMarginalBytes).
  size_t bytes() const;

  /// The byte budget; 0 means unlimited.
  size_t byte_budget() const;

  /// Sets the byte budget and immediately evicts LRU entries down to it.
  /// 0 disables eviction.
  void set_byte_budget(size_t budget);

  /// Total tables evicted over the cache's lifetime.
  uint64_t evictions() const;

  /// Drops every entry.
  void Clear();

  MarginalCache() = default;
  MarginalCache(const MarginalCache&) = delete;
  MarginalCache& operator=(const MarginalCache&) = delete;

 private:
  // (fingerprint, spec attributes) → computed table. Marginals are stored
  // behind shared_ptr so lookups can copy the table outside the lock.
  using Key = std::pair<uint64_t, std::vector<uint32_t>>;
  struct Entry {
    std::shared_ptr<const Marginal> table;
    size_t bytes = 0;
    std::list<Key>::iterator lru;  // position in lru_
  };

  // Both require mu_ held.
  void TouchLocked(Entry* entry);
  void EvictToBudgetLocked();

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // front = most recently used
  size_t bytes_ = 0;
  size_t byte_budget_ = 0;  // 0: unlimited
  uint64_t evictions_ = 0;
};

/// The cache's per-table footprint estimate: the count table, the domain
/// and stride vectors, and the container overhead. Exposed so tests can
/// size budgets in units the eviction logic actually uses.
size_t EstimateMarginalBytes(const Marginal& marginal);

}  // namespace ireduct

#endif  // IREDUCT_MARGINALS_MARGINAL_CACHE_H_

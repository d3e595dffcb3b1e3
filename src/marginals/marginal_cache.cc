#include "marginals/marginal_cache.h"

#include <cstdint>

#include "common/env.h"
#include "marginals/marginal_evaluator.h"
#include "marginals/postprocess.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace ireduct {

size_t EstimateMarginalBytes(const Marginal& marginal) {
  return sizeof(Marginal) +
         marginal.num_cells() * sizeof(double) +
         marginal.domain_sizes().size() *
             (sizeof(uint32_t) + sizeof(size_t) + sizeof(uint32_t));
}

MarginalCache& MarginalCache::Global() {
  static MarginalCache* cache = [] {
    auto* c = new MarginalCache();
    // An exact decimal > 0; anything else leaves the budget unlimited.
    c->set_byte_budget(
        static_cast<size_t>(EnvInt64("IREDUCT_CACHE_BYTES", 0)));
    return c;
  }();
  return *cache;
}

void MarginalCache::TouchLocked(Entry* entry) {
  lru_.splice(lru_.begin(), lru_, entry->lru);
}

void MarginalCache::EvictToBudgetLocked() {
  while (byte_budget_ > 0 && bytes_ > byte_budget_ && !lru_.empty()) {
    const auto it = entries_.find(lru_.back());
    const size_t freed = it->second.bytes;
    bytes_ -= freed;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
    IREDUCT_METRIC_COUNT("marginals.cache_evictions", 1);
    // Safe under mu_: the event log never calls back into the cache.
    if (obs::EventLog* events = obs::EventLog::Get()) {
      events->Emit("cache.evict",
                   {{"freed_bytes", static_cast<uint64_t>(freed)},
                    {"resident_bytes", static_cast<uint64_t>(bytes_)},
                    {"entries", static_cast<uint64_t>(entries_.size())}});
    }
  }
  IREDUCT_METRIC_GAUGE_SET("marginals.cache_resident_bytes",
                           static_cast<double>(bytes_));
}

Result<std::vector<Marginal>> MarginalCache::GetOrCompute(
    const Dataset& dataset, std::span<const MarginalSpec> specs,
    ThreadPool* pool) {
  return GetOrCompute(dataset.Fingerprint(), dataset, specs, pool);
}

Result<std::vector<Marginal>> MarginalCache::GetOrCompute(
    uint64_t fingerprint, const Dataset& dataset,
    std::span<const MarginalSpec> specs, ThreadPool* pool) {
  // Refuse an invalid spec before any lookup: the empty spec is a
  // subsequence of every table, so a projection could otherwise answer it.
  const Schema& schema = dataset.schema();
  for (const MarginalSpec& spec : specs) {
    IREDUCT_RETURN_NOT_OK(ValidateSpec(spec, schema.num_attributes()));
  }
  // A projection visits every cell of its source and a pass every row, so
  // a source may hold at most as many cells as the dataset has rows.
  const size_t max_source_cells = dataset.num_rows();

  // found[i] answers spec i; source[i] is a cached superset to project.
  std::vector<std::shared_ptr<const Marginal>> found(specs.size());
  std::vector<std::shared_ptr<const Marginal>> source(specs.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < specs.size(); ++i) {
      const auto it =
          entries_.find(Key{fingerprint, specs[i].attributes});
      if (it != entries_.end()) {
        found[i] = it->second.table;
        TouchLocked(&it->second);
        continue;
      }
      Entry* best = nullptr;
      for (auto e = entries_.lower_bound(Key{fingerprint, {}});
           e != entries_.end() && e->first.first == fingerprint; ++e) {
        const size_t cells = e->second.table->num_cells();
        if (cells <= max_source_cells &&
            (best == nullptr || cells < best->table->num_cells()) &&
            IsSubsequence(specs[i].attributes, e->first.second)) {
          best = &e->second;
        }
      }
      if (best != nullptr) {
        source[i] = best->table;
        TouchLocked(best);
      }
    }
  }
  // Projections of cached tables are not inserted: their sources rebuild
  // them in O(cells), and under a budget each copy would evict a table
  // that serves several specs.
  size_t projected = 0;
  std::vector<size_t> missing;
  std::vector<MarginalSpec> misses;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (source[i] != nullptr) {
      IREDUCT_ASSIGN_OR_RETURN(
          Marginal table, ProjectMarginal(*source[i], specs[i].attributes));
      found[i] = std::make_shared<const Marginal>(std::move(table));
      ++projected;
    } else if (found[i] == nullptr) {
      missing.push_back(i);
      misses.push_back(specs[i]);
    }
  }
  IREDUCT_METRIC_COUNT("marginals.cache_hits", specs.size() - missing.size());
  IREDUCT_METRIC_COUNT("marginals.cache_misses", missing.size());
  IREDUCT_METRIC_COUNT("marginals.projected", projected);

  if (!missing.empty()) {
    // Compute outside the lock: a concurrent miss on the same key at worst
    // duplicates work, and both computations insert identical tables. The
    // pass reads misses that another contains out of its table.
    IREDUCT_ASSIGN_OR_RETURN(
        MarginalSetEvaluator evaluator,
        MarginalSetEvaluator::Create(schema, std::move(misses)));
    IREDUCT_ASSIGN_OR_RETURN(std::vector<Marginal> computed,
                             evaluator.Compute(dataset, {}, pool));
    for (size_t m = 0; m < missing.size(); ++m) {
      found[missing[m]] =
          std::make_shared<const Marginal>(std::move(computed[m]));
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const size_t i : missing) {
      Key key{fingerprint, specs[i].attributes};
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        // A concurrent computation won the race; keep its entry.
        TouchLocked(&it->second);
        continue;
      }
      lru_.push_front(key);
      const size_t entry_bytes = EstimateMarginalBytes(*found[i]);
      bytes_ += entry_bytes;
      entries_.emplace(std::move(key),
                       Entry{found[i], entry_bytes, lru_.begin()});
    }
    // Evict only after the whole batch is in, so one request's specs never
    // evict each other before the caller has its copies (found[] keeps the
    // tables alive regardless).
    EvictToBudgetLocked();
  }

  std::vector<Marginal> result;
  result.reserve(specs.size());
  for (const auto& entry : found) result.push_back(*entry);
  return result;
}

size_t MarginalCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t MarginalCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t MarginalCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

void MarginalCache::set_byte_budget(size_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = budget;
  EvictToBudgetLocked();
}

uint64_t MarginalCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void MarginalCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  IREDUCT_METRIC_GAUGE_SET("marginals.cache_resident_bytes", 0.0);
}

}  // namespace ireduct

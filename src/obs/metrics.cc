#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/json.h"

namespace ireduct {
namespace obs {

namespace {
// Default histogram buckets: log decades covering microseconds to tens of
// seconds, the range of everything the library times.
constexpr double kDefaultSecondsBounds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                            1e-2, 0.1,  1.0,  10.0};

// RAII guard over a Histogram's count/sum spin flag.
class PairLock {
 public:
  explicit PairLock(std::atomic_flag& flag) : flag_(flag) {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~PairLock() { flag_.clear(std::memory_order_release); }
  PairLock(const PairLock&) = delete;
  PairLock& operator=(const PairLock&) = delete;

 private:
  std::atomic_flag& flag_;
};
}  // namespace

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  IREDUCT_CHECK(start > 0 && factor > 1 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::span<const double> ByteBucketBounds() {
  // 64 B .. ~16 MiB in powers of 4: wide enough for single journal grant
  // records at the low end and full checkpoint payloads at the high end.
  static const std::vector<double>* bounds =
      new std::vector<double>(ExponentialBuckets(64, 4, 10));
  return *bounds;
}

// There is no atomic fetch_add for doubles pre-C++20 (and no guarantee the
// target lowers one), so Add is the canonical CAS loop:
// compare_exchange_weak reloads `current` on failure, so each retry
// recomputes current + delta against the freshest value. Relaxed ordering
// is deliberate — gauges are monitoring data, not synchronization edges.
void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  IREDUCT_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ =
      std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double v) {
  // lower_bound keeps the edges inclusive: v == bounds_[i] belongs in the
  // bucket labelled "le": bounds_[i].
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  const PairLock lock(pair_lock_);
  count_.store(count_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  sum_.store(sum_.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void Histogram::SnapshotData(uint64_t* count, double* sum) const {
  const PairLock lock(pair_lock_);
  *count = count_.load(std::memory_order_relaxed);
  *sum = sum_.load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  const PairLock lock(pair_lock_);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  IREDUCT_CHECK(gauges_.find(name) == gauges_.end() &&
                histograms_.find(name) == histograms_.end());
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  IREDUCT_CHECK(counters_.find(name) == counters_.end() &&
                histograms_.find(name) == histograms_.end());
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  IREDUCT_CHECK(counters_.find(name) == counters_.end() &&
                gauges_.find(name) == gauges_.end());
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    std::vector<double> bounds(upper_bounds.begin(), upper_bounds.end());
    if (bounds.empty()) {
      bounds.assign(std::begin(kDefaultSecondsBounds),
                    std::end(kDefaultSecondsBounds));
    }
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.bounds = histogram->bounds();
    h.bucket_counts = histogram->bucket_counts();
    histogram->SnapshotData(&h.count, &h.sum);
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

std::string MetricsRegistry::SnapshotJson() const {
  const MetricsSnapshot snapshot = Snapshot();
  std::string out;
  JsonWriter json(&out);
  json.BeginObject();

  json.Key("counters");
  json.BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    json.KV(name, value);
  }
  json.EndObject();

  json.Key("gauges");
  json.BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    json.KV(name, value);
  }
  json.EndObject();

  json.Key("histograms");
  json.BeginObject();
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    json.Key(histogram.name);
    json.BeginObject();
    json.KV("count", histogram.count);
    json.KV("sum", histogram.sum);
    json.Key("buckets");
    json.BeginArray();
    for (size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
      json.BeginObject();
      json.Key("le");
      if (i < histogram.bounds.size()) {
        json.Double(histogram.bounds[i]);
      } else {
        json.String("inf");
      }
      json.KV("count", histogram.bucket_counts[i]);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();

  json.EndObject();
  return out;
}

void MetricsRegistry::ResetAll() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

void RegisterStandardMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  // Mechanisms.
  registry.counter("bench.mechanism_runs");
  registry.counter("ireduct.iterations");
  registry.counter("ireduct.batch_rounds");
  registry.counter("ireduct.group_retirements");
  registry.counter("ireduct.resample_draws");
  registry.counter("ireduct.gs_full_recomputes");
  registry.counter("ireduct.gs_incremental_hits");
  registry.counter("ireduct.heap_repushes");
  registry.counter("ireduct.heap_stale_pops");
  registry.histogram("ireduct.run_seconds");
  registry.histogram("ireduct.pick_seconds");
  registry.counter("noise_down.samples");
  registry.counter("noise_down.rejection_rounds");
  registry.counter("noise_down.envelope_draws");
  registry.counter("noise_down_chain.starts");
  registry.counter("noise_down_chain.reductions");
  // Privacy accounting and durability.
  registry.counter("privacy.charges");
  registry.gauge("privacy.epsilon_spent");
  registry.counter("journal.appends");
  registry.counter("journal.recoveries");
  registry.histogram("journal.append_seconds");
  registry.histogram("journal.fsync_seconds");
  registry.histogram("journal.append_bytes", ByteBucketBounds());
  registry.counter("checkpoint.writes");
  registry.gauge("checkpoint.last_round");
  registry.histogram("checkpoint.serialize_seconds");
  registry.histogram("checkpoint.write_seconds");
  registry.histogram("checkpoint.bytes", ByteBucketBounds());
  // Marginal evaluation.
  registry.counter("marginals.cache_hits");
  registry.counter("marginals.cache_misses");
  registry.counter("marginals.cache_evictions");
  registry.gauge("marginals.cache_resident_bytes");
  registry.counter("marginals.fused_passes");
  registry.counter("marginals.fused_rows");
  registry.histogram("marginals.fused_seconds");
  registry.histogram("marginals.shard_seconds");
  registry.gauge("marginals.shard_imbalance");
  registry.gauge("marginals.rows_per_second");
  // Thread pool.
  registry.counter("thread_pool.tasks");
  registry.gauge("thread_pool.queue_depth");
  registry.histogram("thread_pool.task_wait_seconds");
  registry.histogram("thread_pool.task_run_seconds");
  // Serving layer.
  registry.counter("session.count_queries");
  registry.counter("session.marginal_releases");
  registry.counter("session.refinable_counts");
  registry.histogram("session.request_seconds");
  registry.gauge("session.epsilon_remaining");
  // Multi-tenant query server (service/query_server.h).
  registry.counter("server.admitted");
  registry.counter("server.shed_queue_full");
  registry.counter("server.shed_tenant_cap");
  registry.counter("server.batches");
  registry.gauge("server.queue_depth");
  registry.gauge("server.tenants");
  registry.histogram("server.request_seconds");
  // Bounds must match BatchWidthBounds() in service/query_server.cc (both
  // sides call ExponentialBuckets(1, 2, 8): widths 1..128).
  {
    const std::vector<double> width_bounds = ExponentialBuckets(1, 2, 8);
    registry.histogram("server.batch_width", width_bounds);
  }
  // Evaluation harness and telemetry self-accounting.
  registry.counter("eval.trials_run");
  registry.counter("eval.parallel_trial_batches");
  registry.counter("events.emitted");
  registry.counter("events.dropped");
}

}  // namespace obs
}  // namespace ireduct

// Process-wide metrics: counters, gauges, and fixed-bucket histograms.
//
// Instrumented code records through the IREDUCT_METRIC_* macros below, which
// cache a pointer to the metric on first use (one mutex-guarded lookup per
// call site per process) and then cost a single atomic operation per event —
// cheap enough for the NoiseDown rejection loop.
//
// Naming convention: lowercase dotted `subsystem.metric`, with a unit
// suffix where one applies (`_seconds`). Counters only go up; gauges hold a
// last-written value; histograms have fixed upper bucket bounds chosen at
// first registration.
//
// MetricsRegistry::Global().SnapshotJson() serializes everything with
// deterministic shape: kinds in the fixed order counters/gauges/histograms,
// metric names sorted lexicographically within each kind.
#ifndef IREDUCT_OBS_METRICS_H_
#define IREDUCT_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ireduct {
namespace obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written double value (set semantics; Add is a convenience on top).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<double> value_{0};
};

/// `count` geometrically spaced upper bounds starting at `start` and
/// multiplying by `factor` (> 1): {start, start*factor, ...}. The standard
/// way to build histogram bounds for quantities with a wide dynamic range
/// (bytes, rows) where log decades are too coarse or the wrong base.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// Shared bounds for byte-sized histograms (journal appends, checkpoint
/// payloads): 64 B .. ~16 MiB in powers of 4. Call sites and
/// RegisterStandardMetrics must agree on bounds — they only apply at first
/// registration — so both use this one function.
std::span<const double> ByteBucketBounds();

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], with
/// an implicit final +inf bucket. Also tracks count and sum for mean
/// recovery.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and finite; the +inf
  /// overflow bucket is implicit.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last is overflow).
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Reads count and sum as a coherent pair: never returns a count that
  /// includes an observation whose value is missing from sum (or vice
  /// versa), unlike calling count() and sum() back to back while another
  /// thread is in Observe. Bucket counts stay independently relaxed — a
  /// snapshot may be one observation ahead of or behind the pair, which is
  /// harmless for monitoring, but a torn count/sum pair would corrupt the
  /// derived mean.
  void SnapshotData(uint64_t* count, double* sum) const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  // Guards the (count_, sum_) pair in Observe/Reset/SnapshotData. A spin
  // flag, not a mutex: the critical section is two relaxed stores, and
  // Observe sits on hot paths where a futex wait would be a pessimisation.
  mutable std::atomic_flag pair_lock_ = ATOMIC_FLAG_INIT;
};

/// Plain-data copy of one histogram, safe to hold after the registry lock
/// is released.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;         // finite upper bounds
  std::vector<uint64_t> bucket_counts;  // bounds.size() + 1, last = +inf
  uint64_t count = 0;
  double sum = 0;
};

/// Point-in-time copy of the whole registry, names sorted within each kind.
/// The substrate for every exporter (JSON, Prometheus, run reports): taken
/// once under the registry lock, then formatted lock-free.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Owner of every metric in the process. Metrics are created on first
/// lookup and never destroyed or relocated, so references stay valid for
/// the process lifetime (Reset zeroes values without removing entries).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Finds or creates the named metric. A name identifies one kind only;
  /// asking for an existing name under a different kind dies (programmer
  /// error).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` applies on first registration only; pass empty to use
  /// the default log-decade seconds buckets (1e-6 .. 10).
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds = {});

  /// Coherent point-in-time copy of every metric (see MetricsSnapshot).
  MetricsSnapshot Snapshot() const;

  /// Deterministic JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string SnapshotJson() const;

  /// Zeroes every registered metric (entries and references survive).
  void ResetAll();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// RAII wall-clock timer recording elapsed seconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(&histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    histogram_->Observe(elapsed.count());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Pre-registers every metric the library emits (names, kinds, bucket
/// bounds) in the global registry, so exporters and run reports show the
/// full schema — zero-valued — even for subsystems a given run never
/// exercised. Idempotent.
void RegisterStandardMetrics();

}  // namespace obs
}  // namespace ireduct

// Instrumentation macros. `name` must be a string literal (it names a
// process-lifetime metric cached in a function-local static).
#define IREDUCT_METRIC_COUNT(name, n)                                      \
  do {                                                                     \
    static ::ireduct::obs::Counter& ireduct_metric_counter =               \
        ::ireduct::obs::MetricsRegistry::Global().counter(name);           \
    ireduct_metric_counter.Increment(n);                                   \
  } while (false)

#define IREDUCT_METRIC_GAUGE_SET(name, v)                                  \
  do {                                                                     \
    static ::ireduct::obs::Gauge& ireduct_metric_gauge =                   \
        ::ireduct::obs::MetricsRegistry::Global().gauge(name);             \
    ireduct_metric_gauge.Set(v);                                           \
  } while (false)

#define IREDUCT_METRIC_OBSERVE(name, v)                                    \
  do {                                                                     \
    static ::ireduct::obs::Histogram& ireduct_metric_histogram =           \
        ::ireduct::obs::MetricsRegistry::Global().histogram(name);         \
    ireduct_metric_histogram.Observe(v);                                   \
  } while (false)

// IREDUCT_METRIC_OBSERVE with explicit bucket bounds (a std::span<const
// double> or anything convertible). Bounds apply on first registration
// only, so every call site for a given name must pass the same bounds —
// share a helper like ByteBucketBounds() rather than inlining literals.
#define IREDUCT_METRIC_OBSERVE_BUCKETS(name, v, bounds)                    \
  do {                                                                     \
    static ::ireduct::obs::Histogram& ireduct_metric_histogram =           \
        ::ireduct::obs::MetricsRegistry::Global().histogram(name, bounds); \
    ireduct_metric_histogram.Observe(v);                                   \
  } while (false)

// Times the enclosing scope into histogram `name` (seconds).
#define IREDUCT_SCOPED_TIMER(var, name)                                    \
  ::ireduct::obs::ScopedTimer var(                                         \
      ::ireduct::obs::MetricsRegistry::Global().histogram(name))

#endif  // IREDUCT_OBS_METRICS_H_

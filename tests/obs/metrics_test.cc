#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "minijson.h"

namespace ireduct {
namespace obs {
namespace {

// Each test registers under its own prefix: the global registry is
// process-lifetime and shared across the whole test binary.

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketsObservationsByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (bounds are inclusive upper edges)
  h.Observe(5.0);    // <= 10
  h.Observe(100.5);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  const std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("reg.same");
  Counter& b = registry.counter("reg.same");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Lookup raced from every thread on purpose.
      Counter& c = registry.counter("reg.concurrent");
      Histogram& h = registry.histogram("reg.concurrent_hist");
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Observe(1e-5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("reg.concurrent").value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.histogram("reg.concurrent_hist").count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotJsonShape) {
  MetricsRegistry registry;
  registry.counter("snap.b_counter").Increment(7);
  registry.counter("snap.a_counter").Increment(1);
  registry.gauge("snap.gauge").Set(0.25);
  const std::vector<double> bounds = {1.0, 2.0};
  registry.histogram("snap.hist", bounds).Observe(1.5);

  const std::string json = registry.SnapshotJson();
  auto parsed = minijson::Parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  ASSERT_EQ(parsed->kind, minijson::Value::kObject);

  // Top-level kinds in fixed order.
  ASSERT_EQ(parsed->object.size(), 3u);
  EXPECT_EQ(parsed->object[0].first, "counters");
  EXPECT_EQ(parsed->object[1].first, "gauges");
  EXPECT_EQ(parsed->object[2].first, "histograms");

  const minijson::Value& counters = parsed->object[0].second;
  ASSERT_EQ(counters.object.size(), 2u);
  // Names sorted lexicographically.
  EXPECT_EQ(counters.object[0].first, "snap.a_counter");
  EXPECT_EQ(counters.object[1].first, "snap.b_counter");
  EXPECT_DOUBLE_EQ(counters.object[1].second.number, 7.0);

  const minijson::Value* gauge =
      parsed->object[1].second.Find("snap.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->number, 0.25);

  const minijson::Value* hist =
      parsed->object[2].second.Find("snap.hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->object.size(), 3u);
  EXPECT_EQ(hist->object[0].first, "count");
  EXPECT_DOUBLE_EQ(hist->object[0].second.number, 1.0);
  EXPECT_EQ(hist->object[1].first, "sum");
  EXPECT_DOUBLE_EQ(hist->object[1].second.number, 1.5);
  const minijson::Value& buckets = hist->object[2].second;
  ASSERT_EQ(buckets.array.size(), 3u);  // two bounds + overflow
  EXPECT_DOUBLE_EQ(buckets.array[0].Find("count")->number, 0.0);
  EXPECT_DOUBLE_EQ(buckets.array[1].Find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(buckets.array[1].Find("le")->number, 2.0);
  EXPECT_EQ(buckets.array[2].Find("le")->text, "inf");
}

TEST(ExponentialBucketsTest, GeometricBounds) {
  const std::vector<double> bounds = ExponentialBuckets(64, 4, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 64);
  EXPECT_DOUBLE_EQ(bounds[1], 256);
  EXPECT_DOUBLE_EQ(bounds[2], 1024);
  EXPECT_DOUBLE_EQ(bounds[3], 4096);
}

TEST(ExponentialBucketsTest, ByteBoundsAreStableAcrossCalls) {
  // Bucket bounds bind at first registration; every byte-sized histogram
  // call site shares this helper, so it must return identical bounds (and
  // the same storage) every time.
  const auto a = ByteBucketBounds();
  const auto b = ByteBucketBounds();
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_DOUBLE_EQ(a.front(), 64);
}

TEST(MetricsRegistryTest, StructuredSnapshotCarriesHistogramData) {
  MetricsRegistry registry;
  registry.counter("struct.count").Increment(2);
  registry.gauge("struct.gauge").Set(1.5);
  const std::vector<double> bounds = {1.0, 2.0};
  Histogram& h = registry.histogram("struct.hist", bounds);
  h.Observe(0.5);
  h.Observe(3.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "struct.count");
  EXPECT_EQ(snapshot.counters[0].second, 2u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 1.5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramSnapshot& hist = snapshot.histograms[0];
  EXPECT_EQ(hist.name, "struct.hist");
  ASSERT_EQ(hist.bounds.size(), 2u);
  ASSERT_EQ(hist.bucket_counts.size(), 3u);
  EXPECT_EQ(hist.bucket_counts[0], 1u);
  EXPECT_EQ(hist.bucket_counts[2], 1u);
  EXPECT_EQ(hist.count, 2u);
  EXPECT_DOUBLE_EQ(hist.sum, 3.5);
}

TEST(MetricsRegistryTest, RegisterStandardMetricsIsIdempotent) {
  RegisterStandardMetrics();
  const MetricsSnapshot first = MetricsRegistry::Global().Snapshot();
  RegisterStandardMetrics();
  const MetricsSnapshot second = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(first.counters.size(), second.counters.size());
  EXPECT_EQ(first.gauges.size(), second.gauges.size());
  EXPECT_EQ(first.histograms.size(), second.histograms.size());
  EXPECT_GE(first.counters.size() + first.gauges.size() +
                first.histograms.size(),
            50u);
}

// Gauge::Add is a CAS loop (no atomic fetch_add for doubles); concurrent
// adds of exactly-representable values must be lossless.
TEST(GaugeTest, ConcurrentAddsAreLossless) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.Add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
}

// The torn-pair hazard: count() and sum() must always describe the same
// set of observations. Observing a constant while snapshotting makes any
// tear visible as sum != count * constant. TSan additionally proves the
// pair accesses are ordered (see tools/check.sh threads mode).
TEST(HistogramTest, SnapshotNeverTearsCountSumPair) {
  Histogram h({1.0});
  constexpr double kValue = 0.25;  // exactly representable
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, &stop] {
      while (!stop.load(std::memory_order_relaxed)) h.Observe(kValue);
    });
  }
  for (int i = 0; i < 2000; ++i) {
    uint64_t count = 0;
    double sum = 0;
    h.SnapshotData(&count, &sum);
    ASSERT_DOUBLE_EQ(sum, static_cast<double>(count) * kValue)
        << "torn count/sum pair at count=" << count;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

TEST(HistogramTest, ResetRacingObserveKeepsPairCoherent) {
  Histogram h({1.0});
  constexpr double kValue = 0.5;
  std::atomic<bool> stop{false};
  std::thread writer([&h, &stop] {
    while (!stop.load(std::memory_order_relaxed)) h.Observe(kValue);
  });
  for (int i = 0; i < 500; ++i) {
    h.Reset();
    uint64_t count = 0;
    double sum = 0;
    h.SnapshotData(&count, &sum);
    ASSERT_DOUBLE_EQ(sum, static_cast<double>(count) * kValue);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(MetricsRegistryTest, SnapshotRacingObserversStaysCoherent) {
  MetricsRegistry registry;
  constexpr double kValue = 2.0;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop] {
      Histogram& h = registry.histogram("race.hist");
      Gauge& g = registry.gauge("race.gauge");
      while (!stop.load(std::memory_order_relaxed)) {
        h.Observe(kValue);
        g.Add(1.0);
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    for (const HistogramSnapshot& hist : snapshot.histograms) {
      ASSERT_DOUBLE_EQ(hist.sum, static_cast<double>(hist.count) * kValue);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

TEST(MetricsRegistryTest, ResetAllZeroesWithoutInvalidating) {
  MetricsRegistry registry;
  Counter& c = registry.counter("reset.counter");
  c.Increment(5);
  registry.gauge("reset.gauge").Set(1.0);
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  EXPECT_DOUBLE_EQ(registry.gauge("reset.gauge").value(), 0.0);
}

TEST(MetricsRegistryTest, SnapshotIsDeterministic) {
  MetricsRegistry registry;
  registry.counter("det.one").Increment();
  registry.gauge("det.two").Set(0.5);
  EXPECT_EQ(registry.SnapshotJson(), registry.SnapshotJson());
}

TEST(MetricsMacroTest, CountsIntoGlobalRegistry) {
  const uint64_t before =
      MetricsRegistry::Global().counter("macro.count").value();
  IREDUCT_METRIC_COUNT("macro.count", 3);
  EXPECT_EQ(MetricsRegistry::Global().counter("macro.count").value(),
            before + 3);
}

}  // namespace
}  // namespace obs
}  // namespace ireduct

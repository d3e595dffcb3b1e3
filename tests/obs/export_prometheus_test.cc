#include "obs/export_prometheus.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ireduct {
namespace obs {
namespace {

TEST(PrometheusNameTest, SanitizesToMetricCharset) {
  EXPECT_EQ(PrometheusName("ireduct.run_seconds"), "ireduct_run_seconds");
  EXPECT_EQ(PrometheusName("a.b-c d"), "a_b_c_d");
  EXPECT_EQ(PrometheusName("ns:sub"), "ns:sub");
  EXPECT_EQ(PrometheusName("2fast"), "_2fast");
}

// Byte-for-byte golden of the whole exposition for a small local registry:
// metadata lines, counter _total samples, gauge samples, cumulative
// histogram buckets with +Inf, _sum and _count.
TEST(ExportPrometheusTest, GoldenExposition) {
  MetricsRegistry registry;
  registry.counter("golden.runs").Increment(3);
  registry.gauge("golden.ratio").Set(0.5);
  // All observed values are exactly representable, so _sum is exact.
  const std::vector<double> bounds = {1.0, 8.0};
  Histogram& h = registry.histogram("golden.lat_seconds", bounds);
  h.Observe(0.5);
  h.Observe(0.5);
  h.Observe(4.0);
  h.Observe(16.0);

  const std::string expected =
      "# HELP golden_runs ireduct metric golden.runs\n"
      "# TYPE golden_runs counter\n"
      "golden_runs_total 3\n"
      "# HELP golden_ratio ireduct metric golden.ratio\n"
      "# TYPE golden_ratio gauge\n"
      "golden_ratio 0.5\n"
      "# HELP golden_lat_seconds ireduct metric golden.lat_seconds\n"
      "# TYPE golden_lat_seconds histogram\n"
      "# UNIT golden_lat_seconds seconds\n"
      "golden_lat_seconds_bucket{le=\"1\"} 2\n"
      "golden_lat_seconds_bucket{le=\"8\"} 3\n"
      "golden_lat_seconds_bucket{le=\"+Inf\"} 4\n"
      "golden_lat_seconds_sum 21\n"
      "golden_lat_seconds_count 4\n";
  EXPECT_EQ(ExportPrometheus(registry.Snapshot()), expected);
}

TEST(ExportPrometheusTest, StandardMetricsCarryHelpText) {
  MetricsRegistry registry;
  registry.counter("journal.appends").Increment();
  const std::string text = ExportPrometheus(registry.Snapshot());
  EXPECT_NE(
      text.find("# HELP journal_appends Durable ledger journal appends\n"),
      std::string::npos)
      << text;
}

TEST(ExportPrometheusTest, ByteHistogramsDeclareByteUnit) {
  MetricsRegistry registry;
  registry.histogram("unit.payload_bytes", ByteBucketBounds()).Observe(100);
  const std::string text = ExportPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# UNIT unit_payload_bytes bytes\n"),
            std::string::npos)
      << text;
}

TEST(ExportPrometheusTest, ExpositionIsDeterministicAndSorted) {
  MetricsRegistry registry;
  registry.counter("order.b").Increment();
  registry.counter("order.a").Increment();
  const std::string text = ExportPrometheus(registry.Snapshot());
  EXPECT_LT(text.find("order_a_total"), text.find("order_b_total"));
  EXPECT_EQ(text, ExportPrometheus(registry.Snapshot()));
}

// Every line of the full standard exposition obeys the text format: either
// a '#' metadata line or "name{labels} value" with a bare float value.
TEST(ExportPrometheusTest, GlobalExpositionParsesLineByLine) {
  RegisterStandardMetrics();
  const std::string text = ExportPrometheusGlobal();
  ASSERT_FALSE(text.empty());
  size_t samples = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0 ||
        line.rfind("# UNIT ", 0) == 0) {
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    for (const char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':' || c == '{' || c == '}' || c == '=' || c == '"' ||
                  c == '.' || c == '+' || c == '-')
          << line;
    }
    size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
    EXPECT_EQ(parsed, value.size()) << line;
    ++samples;
  }
  EXPECT_GT(samples, 50u);  // 31 counters + 7 gauges + 13 histograms' worth
}

// Every metric RegisterStandardMetrics declares has its own help text, not
// the generated "ireduct metric <name>" fallback.
TEST(ExportPrometheusTest, EveryStandardMetricHasItsOwnHelp) {
  RegisterStandardMetrics();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::string text = ExportPrometheus(snapshot);
  size_t helps = 0;
  size_t start = 0;
  while ((start = text.find("# HELP ", start)) != std::string::npos) {
    const size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start);
    EXPECT_EQ(line.find(" ireduct metric "), std::string::npos) << line;
    ++helps;
    start = end;
  }
  EXPECT_EQ(helps, snapshot.counters.size() + snapshot.gauges.size() +
                       snapshot.histograms.size());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream read;
  read << in.rdbuf();
  return read.str();
}

TEST(ExportPrometheusTest, WritePrometheusFileReplacesTheFileAtomically) {
  RegisterStandardMetrics();
  const std::string path = testing::TempDir() + "/ireduct_replace.prom";
  std::ofstream(path, std::ios::binary) << std::string(100000, '#');
  ASSERT_TRUE(WritePrometheusFile(path).ok());
  EXPECT_EQ(Slurp(path), ExportPrometheusGlobal());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(ExportPrometheusTest, FailedWriteLeavesTheOldExposition) {
  const std::string path = testing::TempDir() + "/ireduct_blocked.prom";
  std::ofstream(path, std::ios::binary) << "# old exposition\n";
  // A directory where the temporary file must go.
  std::remove((path + ".tmp").c_str());
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0755), 0);
  EXPECT_EQ(WritePrometheusFile(path).code(), StatusCode::kIoError);
  EXPECT_EQ(Slurp(path), "# old exposition\n");
  std::remove((path + ".tmp").c_str());
  std::remove(path.c_str());

  EXPECT_EQ(
      WritePrometheusFile(testing::TempDir() + "/no_such_dir/m.prom").code(),
      StatusCode::kIoError);
}

}  // namespace
}  // namespace obs
}  // namespace ireduct

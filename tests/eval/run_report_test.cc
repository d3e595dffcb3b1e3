#include "eval/run_report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "dp/privacy_accountant.h"
#include "dp/workload.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "../obs/minijson.h"

namespace ireduct {
namespace {

Workload TwoGroupWorkload() {
  auto r = Workload::Create(
      {10, 20, 100, 200},
      {QueryGroup{"small", 0, 2, 1.0}, QueryGroup{"big", 2, 4, 1.0}});
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(QueryErrorStatsTest, ComputesDeterministicPercentiles) {
  const Workload w = TwoGroupWorkload();
  // Published = truth + {0, 10, 0, 100}: relative errors with delta=1 are
  // 0, 10/20, 0, 100/200 -> sorted {0, 0, 0.5, 0.5}.
  const std::vector<double> published = {10, 30, 100, 300};
  const QueryErrorStats stats = ComputeQueryErrorStats(w, published, 1.0);
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_relative_error, 0.25);
  EXPECT_DOUBLE_EQ(stats.max_relative_error, 0.5);
  EXPECT_DOUBLE_EQ(stats.p50_relative_error, 0.0);   // nearest-rank: 2nd
  EXPECT_DOUBLE_EQ(stats.p90_relative_error, 0.5);   // 4th
  EXPECT_DOUBLE_EQ(stats.p99_relative_error, 0.5);
  EXPECT_DOUBLE_EQ(stats.mean_absolute_error, (10.0 + 100.0) / 4.0);
  // Overall error (Definition 6): mean over groups of per-group means.
  EXPECT_DOUBLE_EQ(stats.overall_error, (0.25 + 0.25) / 2.0);
}

TEST(RunReportTest, SerializesOnlyAttachedSections) {
  RunReport report("bare");
  auto parsed = minijson::Parse(report.ToJson());
  ASSERT_TRUE(parsed.has_value()) << report.ToJson();
  ASSERT_EQ(parsed->object.size(), 2u);
  EXPECT_EQ(parsed->object[0].first, "report_version");
  EXPECT_DOUBLE_EQ(parsed->object[0].second.number, 1.0);
  EXPECT_EQ(parsed->object[1].first, "run");
  EXPECT_EQ(parsed->object[1].second.Find("name")->text, "bare");
}

TEST(RunReportTest, FullReportShape) {
  const Workload w = TwoGroupWorkload();
  const std::vector<double> published = {10, 30, 100, 300};

  RunReport report("full");
  report.SetRunField("mechanism", "ireduct");
  report.SetRunField("rows", uint64_t{1000});
  report.SetRunField("epsilon", 0.25);
  report.SetErrors(w, published, 1.0);

  auto accountant = PrivacyAccountant::Create(1.0);
  ASSERT_TRUE(accountant.ok());
  ASSERT_TRUE(accountant->Charge("release", 0.25).ok());
  report.AttachLedger(*accountant);

  obs::MetricsRegistry registry;
  registry.counter("report.counter").Increment(5);
  report.AttachMetrics(registry);

  obs::EventLog events;
  events.Emit("report.event", {{"i", 1}});
  report.AttachEvents(events);

  const std::string json = report.ToJson();
  auto parsed = minijson::Parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;

  const minijson::Value* run = parsed->Find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->Find("mechanism")->text, "ireduct");
  EXPECT_DOUBLE_EQ(run->Find("rows")->number, 1000.0);
  EXPECT_DOUBLE_EQ(run->Find("epsilon")->number, 0.25);

  const minijson::Value* errors = parsed->Find("errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_DOUBLE_EQ(errors->Find("queries")->number, 4.0);
  EXPECT_DOUBLE_EQ(errors->Find("overall_error")->number, 0.25);
  const minijson::Value* per_group = errors->Find("per_group");
  ASSERT_NE(per_group, nullptr);
  ASSERT_EQ(per_group->array.size(), 2u);
  EXPECT_EQ(per_group->array[0].Find("group")->text, "small");
  EXPECT_DOUBLE_EQ(per_group->array[0].Find("queries")->number, 2.0);
  EXPECT_DOUBLE_EQ(per_group->array[1].Find("max_relative_error")->number,
                   0.5);

  const minijson::Value* ledger = parsed->Find("ledger");
  ASSERT_NE(ledger, nullptr);
  EXPECT_DOUBLE_EQ(ledger->Find("budget")->number, 1.0);
  EXPECT_DOUBLE_EQ(ledger->Find("spent")->number, 0.25);
  ASSERT_EQ(ledger->Find("charges")->array.size(), 1u);

  const minijson::Value* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(
      metrics->Find("counters")->Find("report.counter")->number, 5.0);

  const minijson::Value* evts = parsed->Find("events");
  ASSERT_NE(evts, nullptr);
  EXPECT_DOUBLE_EQ(evts->Find("summary")->Find("emitted")->number, 1.0);
  ASSERT_EQ(evts->Find("stream")->array.size(), 1u);
  EXPECT_EQ(evts->Find("stream")->array[0].Find("type")->text,
            "report.event");
  // Attaching copied, never drained.
  EXPECT_EQ(events.size(), 1u);
}

TEST(RunReportTest, TableListsEverySection) {
  const Workload w = TwoGroupWorkload();
  RunReport report("tabled");
  report.SetRunField("mechanism", "ireduct");
  const std::vector<double> published = {10, 20, 100, 200};
  report.SetErrors(w, published, 1.0);
  std::ostringstream os;
  report.PrintTable(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("tabled"), std::string::npos) << text;
  EXPECT_NE(text.find("mechanism"), std::string::npos);
  EXPECT_NE(text.find("overall"), std::string::npos);
}

TEST(RunReportTest, WriteFileRoundTrips) {
  const std::string path = testing::TempDir() + "/run_report.json";
  RunReport report("file");
  ASSERT_TRUE(report.WriteFile(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream read;
  read << in.rdbuf();
  EXPECT_EQ(read.str(), report.ToJson() + "\n");
  std::remove(path.c_str());
}

// The crash-safety contract: the report snapshots the event stream before
// any drain, so a drain that fails partway (fault-injected truncation)
// cannot corrupt an already-assembled report.
TEST(RunReportTest, PartiallyDrainedEventLogNeverCorruptsReport) {
  obs::EventLog events;
  for (int i = 0; i < 8; ++i) {
    events.Emit("crash.event", {{"i", i}});
  }
  RunReport report("crashy");
  report.AttachEvents(events);
  const std::string before = report.ToJson();

  const std::string path = testing::TempDir() + "/crashy_events.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("event_log.write:truncate@1=10")
                  .ok());
  EXPECT_FALSE(events.WriteFile(path).ok());  // drain dies mid-write
  FaultInjector::Global().Reset();

  // The artifact on disk really is torn...
  std::ifstream in(path, std::ios::binary);
  std::ostringstream torn;
  torn << in.rdbuf();
  EXPECT_EQ(torn.str().size(), 10u);

  // ...but the report is byte-identical to the pre-crash one and every
  // event line inside it still parses.
  EXPECT_EQ(report.ToJson(), before);
  auto parsed = minijson::Parse(report.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("events")->Find("stream")->array.size(), 8u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ireduct

// The Chrome trace view of the event stream (EventLog::ChromeTraceJson)
// and the EventSpan that times its spans.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "minijson.h"
#include "obs/event_log.h"

namespace ireduct {
namespace obs {
namespace {

// Installs a fresh log for the test and uninstalls on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { EventLog::Install(&log_); }
  void TearDown() override { EventLog::Install(nullptr); }

  std::optional<minijson::Value> ParsedTrace() const {
    return minijson::Parse(log_.ChromeTraceJson());
  }

  EventLog log_;
};

TEST_F(TraceTest, SpanRecordsCompleteEvent) {
  {
    EventSpan span("unit.work");
    span.Field("items", uint64_t{3});
    span.Field("mode", "fast");
  }
  EXPECT_EQ(log_.total_emitted(), 1u);
  EXPECT_EQ(log_.CountType("unit.work"), 1u);

  auto parsed = ParsedTrace();
  ASSERT_TRUE(parsed.has_value()) << log_.ChromeTraceJson();
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  const minijson::Value& event = events->array[0];
  EXPECT_EQ(event.Find("name")->text, "unit.work");
  EXPECT_EQ(event.Find("ph")->text, "X");
  ASSERT_NE(event.Find("ts"), nullptr);
  ASSERT_NE(event.Find("dur"), nullptr);
  const minijson::Value* args = event.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->Find("items")->number, 3.0);
  EXPECT_EQ(args->Find("mode")->text, "fast");
}

// args is the event's own JSONL line, byte for byte: the trace is a view
// of the stream, not a second serialization of it.
TEST_F(TraceTest, ArgsAreTheEventLine) {
  log_.Emit("unit.line", {{"n", 7}, {"x", 0.5}});
  const std::string line = log_.SnapshotJsonl();
  EXPECT_NE(log_.ChromeTraceJson().find("\"args\":" + line + "}"),
            std::string::npos)
      << log_.ChromeTraceJson();
}

TEST_F(TraceTest, NestedSpansNestInTime) {
  {
    EventSpan outer("unit.outer");
    {
      EventSpan inner("unit.inner");
    }
  }
  auto parsed = ParsedTrace();
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_EQ(events->array.size(), 2u);
  // Inner destructs first, so it is recorded first.
  const minijson::Value& inner = events->array[0];
  const minijson::Value& outer = events->array[1];
  EXPECT_EQ(inner.Find("name")->text, "unit.inner");
  EXPECT_EQ(outer.Find("name")->text, "unit.outer");
  // Containment: outer starts no later and ends no earlier than inner.
  const double outer_start = outer.Find("ts")->number;
  const double outer_end = outer_start + outer.Find("dur")->number;
  const double inner_start = inner.Find("ts")->number;
  const double inner_end = inner_start + inner.Find("dur")->number;
  EXPECT_LE(outer_start, inner_start);
  EXPECT_GE(outer_end, inner_end);
}

// Emit with a start is a span that ends now; the start never enters the
// line, so the JSONL bytes do not depend on the clock.
TEST_F(TraceTest, EmitWithStartIsASpanOutsideTheLine) {
  const uint64_t start = log_.NowMicros();
  log_.Emit("unit.timed", {{"k", 1}}, start);
  EXPECT_EQ(log_.SnapshotJsonl(),
            "{\"seq\":0,\"type\":\"unit.timed\",\"k\":1}");
  auto parsed = ParsedTrace();
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value& event = parsed->Find("traceEvents")->array[0];
  EXPECT_EQ(event.Find("ph")->text, "X");
  EXPECT_DOUBLE_EQ(event.Find("ts")->number, static_cast<double>(start));
}

TEST_F(TraceTest, InstantEventsAndOtherData) {
  log_.Emit("unit.instant", {{"k", 1.0}});
  const std::vector<std::pair<std::string, std::string>> other = {
      {"ledger", "{\"spent\":0.5}"}};
  auto parsed = minijson::Parse(log_.ChromeTraceJson(other));
  ASSERT_TRUE(parsed.has_value()) << log_.ChromeTraceJson(other);
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].Find("ph")->text, "i");
  EXPECT_EQ(events->array[0].Find("dur"), nullptr);
  const minijson::Value* other_data = parsed->Find("otherData");
  ASSERT_NE(other_data, nullptr);
  const minijson::Value* ledger = other_data->Find("ledger");
  ASSERT_NE(ledger, nullptr);
  EXPECT_DOUBLE_EQ(ledger->Find("spent")->number, 0.5);
  const minijson::Value* summary = other_data->Find("events");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->Find("emitted")->number, 1.0);
}

// The ring bounds the trace too: the newest events stay, and the drops
// are reported under otherData.events.
TEST(TraceRingTest, TraceKeepsNewestAndReportsDrops) {
  EventLog log(2);
  for (int i = 0; i < 5; ++i) log.Emit("unit.ring", {{"i", i}});
  auto parsed = minijson::Parse(log.ChromeTraceJson());
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_DOUBLE_EQ(events->array[0].Find("args")->Find("i")->number, 3.0);
  EXPECT_DOUBLE_EQ(events->array[1].Find("args")->Find("i")->number, 4.0);
  const minijson::Value* summary = parsed->Find("otherData")->Find("events");
  EXPECT_DOUBLE_EQ(summary->Find("dropped")->number, 3.0);
  EXPECT_DOUBLE_EQ(summary->Find("buffered")->number, 2.0);
  // Rendering never drains.
  EXPECT_EQ(log.size(), 2u);
}

TEST_F(TraceTest, EscapesSpecialCharacters) {
  {
    EventSpan span("quote\"back\\slash\nnewline");
  }
  auto parsed = ParsedTrace();
  ASSERT_TRUE(parsed.has_value()) << log_.ChromeTraceJson();
  EXPECT_EQ(parsed->Find("traceEvents")->array[0].Find("name")->text,
            "quote\"back\\slash\nnewline");
}

// In the names below, the recorder is the installed EventLog.
TEST(TraceDisabledTest, NoRecorderMeansNoRecording) {
  EventLog::Install(nullptr);
  EventLog bystander;
  {
    EventSpan span("unit.unrecorded");
    span.Field("ignored", 1.0);
  }
  EXPECT_EQ(bystander.total_emitted(), 0u);
  EXPECT_FALSE(EventLog::active());
}

TEST(TraceDisabledTest, SpanBindsRecorderAtConstruction) {
  EventLog log;
  EventLog::Install(&log);
  {
    EventSpan span("unit.bound");
    // Uninstalling mid-span must not lose the event (nor crash): the span
    // holds the log it started on.
    EventLog::Install(nullptr);
  }
  EXPECT_EQ(log.CountType("unit.bound"), 1u);
}

TEST(TraceJsonTest, EmptyRecorderIsValidChromeTrace) {
  EventLog log;
  auto parsed = minijson::Parse(log.ChromeTraceJson());
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->kind, minijson::Value::kArray);
  EXPECT_TRUE(events->array.empty());
  EXPECT_EQ(parsed->Find("displayTimeUnit")->text, "ms");
}

}  // namespace
}  // namespace obs
}  // namespace ireduct

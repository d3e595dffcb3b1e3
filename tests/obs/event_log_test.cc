#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/ireduct.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "dp/workload.h"
#include "minijson.h"

namespace ireduct {
namespace obs {
namespace {

// Restores the (empty) installed state even when a test fails mid-body.
class ScopedInstall {
 public:
  explicit ScopedInstall(EventLog* log) { EventLog::Install(log); }
  ~ScopedInstall() { EventLog::Install(nullptr); }
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(EventLogTest, SerializesFieldsInOrderWithSeq) {
  EventLog log;
  log.Emit("test.alpha", {{"round", uint64_t{3}},
                          {"scale", 2.5},
                          {"label", std::string_view("x\"y")}});
  log.Emit("test.beta", {{"neg", int64_t{-4}}});
  const std::vector<std::string> lines = log.SnapshotLines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"seq\":0,\"type\":\"test.alpha\",\"round\":3,\"scale\":2.5,"
            "\"label\":\"x\\\"y\"}");
  EXPECT_EQ(lines[1], "{\"seq\":1,\"type\":\"test.beta\",\"neg\":-4}");
  for (const std::string& line : lines) {
    EXPECT_TRUE(minijson::Parse(line).has_value()) << line;
  }
}

TEST(EventLogTest, RingDropsOldestAndKeepsSeqMonotonic) {
  EventLog log(/*capacity=*/3);
  for (int i = 0; i < 7; ++i) {
    log.Emit("test.ring", {{"i", i}});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_emitted(), 7u);
  EXPECT_EQ(log.total_dropped(), 4u);
  const std::vector<std::string> lines = log.SnapshotLines();
  ASSERT_EQ(lines.size(), 3u);
  // The survivors are the newest three; their seq gap records the drops.
  EXPECT_EQ(lines[0].rfind("{\"seq\":4,", 0), 0u) << lines[0];
  EXPECT_EQ(lines[2].rfind("{\"seq\":6,", 0), 0u) << lines[2];
}

TEST(EventLogTest, DrainEmptiesBufferButCountersKeepRunning) {
  EventLog log;
  log.Emit("test.drain", {{"i", 1}});
  std::string out;
  log.Drain(&out);
  EXPECT_EQ(out, "{\"seq\":0,\"type\":\"test.drain\",\"i\":1}\n");
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_emitted(), 1u);
  log.Emit("test.drain", {{"i", 2}});
  const std::vector<std::string> lines = log.SnapshotLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"seq\":1,", 0), 0u) << lines[0];
}

TEST(EventLogTest, SummaryCountsByTypeAcrossDrains) {
  EventLog log;
  log.Emit("test.a", {});
  log.Emit("test.b", {});
  log.Emit("test.a", {});
  std::string sink;
  log.Drain(&sink);
  log.Emit("test.a", {});
  EXPECT_EQ(log.CountType("test.a"), 3u);
  EXPECT_EQ(log.CountType("test.b"), 1u);
  EXPECT_EQ(log.SummaryJson(),
            "{\"emitted\":4,\"dropped\":0,\"buffered\":1,"
            "\"by_type\":{\"test.a\":3,\"test.b\":1}}");
}

TEST(EventLogTest, InstallRoutesEmissionGlobally) {
  EXPECT_EQ(EventLog::Get(), nullptr);
  EventLog log;
  ScopedInstall install(&log);
  ASSERT_EQ(EventLog::Get(), &log);
  EventLog::Get()->Emit("test.global", {});
  EXPECT_EQ(log.total_emitted(), 1u);
}

// The determinism contract: a fixed workload and seed produce byte-equal
// event streams on every rerun, regardless of how many evaluator threads
// happen to exist in the process (events are only emitted from sequential
// code).
TEST(EventLogTest, MechanismEventStreamIsDeterministic) {
  auto workload = Workload::Create(
      {2, 3, 4, 5000, 6000, 7000},
      {QueryGroup{"tiny", 0, 3, 2.0}, QueryGroup{"large", 3, 6, 2.0}});
  ASSERT_TRUE(workload.ok());
  IReductParams params;
  params.epsilon = 0.2;
  params.delta = 1.0;
  params.lambda_max = 1000;
  params.lambda_delta = 10;

  auto run = [&](size_t busy_threads) {
    // Unrelated pool churn must not perturb the stream.
    ThreadPool pool(busy_threads);
    for (size_t i = 0; i < 4 * busy_threads; ++i) {
      pool.Submit([] {});
    }
    EventLog log;
    ScopedInstall install(&log);
    BitGen gen(7);
    auto out = RunIReduct(*workload, params, gen);
    EXPECT_TRUE(out.ok());
    pool.Wait();
    return log.SnapshotJsonl();
  };

  const std::string first = run(1);
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("\"type\":\"ireduct.round\""), std::string::npos);
  EXPECT_EQ(first, run(1));  // rerun
  EXPECT_EQ(first, run(4));  // thread count
}

TEST(EventLogTest, WriteFileAppendsAndDrains) {
  const std::string path = testing::TempDir() + "/event_log_write.jsonl";
  std::remove(path.c_str());
  EventLog log;
  log.Emit("test.write", {{"i", 1}});
  ASSERT_TRUE(log.WriteFile(path).ok());
  EXPECT_EQ(log.size(), 0u);
  log.Emit("test.write", {{"i", 2}});
  ASSERT_TRUE(log.WriteFile(path).ok());
  EXPECT_EQ(ReadAll(path),
            "{\"seq\":0,\"type\":\"test.write\",\"i\":1}\n"
            "{\"seq\":1,\"type\":\"test.write\",\"i\":2}\n");
  std::remove(path.c_str());
}

TEST(EventLogTest, FailedWriteKeepsBuffer) {
  const std::string path = testing::TempDir() + "/event_log_fail.jsonl";
  std::remove(path.c_str());
  EventLog log;
  log.Emit("test.fail", {{"i", 1}});
  ASSERT_TRUE(
      FaultInjector::Global().Configure("event_log.write:fail@1").ok());
  EXPECT_FALSE(log.WriteFile(path).ok());
  FaultInjector::Global().Reset();
  // Nothing was lost: the retry writes the same bytes.
  EXPECT_EQ(log.size(), 1u);
  ASSERT_TRUE(log.WriteFile(path).ok());
  EXPECT_EQ(ReadAll(path), "{\"seq\":0,\"type\":\"test.fail\",\"i\":1}\n");
  std::remove(path.c_str());
}

TEST(EventLogTest, ConcurrentEmitIsLossless) {
  EventLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Emit("test.mt", {{"t", t}, {"i", i}});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.total_emitted(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.size() + log.total_dropped(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // Every buffered line has a distinct, increasing seq.
  const std::vector<std::string> lines = log.SnapshotLines();
  uint64_t prev = 0;
  bool first = true;
  for (const std::string& line : lines) {
    auto parsed = minijson::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    const uint64_t seq =
        static_cast<uint64_t>(parsed->Find("seq")->number);
    if (!first) {
      EXPECT_GT(seq, prev);
    }
    prev = seq;
    first = false;
  }
}

}  // namespace
}  // namespace obs
}  // namespace ireduct

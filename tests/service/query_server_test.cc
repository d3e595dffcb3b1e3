#include "service/query_server.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "data/census_generator.h"
#include "marginals/marginal_cache.h"
#include "marginals/marginal_set.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "service/wire.h"

namespace ireduct {
namespace {

Dataset MakeDataset(int rows = 2000) {
  auto schema = Schema::Create({{"A", 4}, {"B", 2}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  BitGen gen(1);
  for (int r = 0; r < rows; ++r) {
    const uint16_t a = static_cast<uint16_t>(gen.UniformInt(4));
    const uint16_t b = gen.Bernoulli(0.25) ? 1 : 0;
    EXPECT_TRUE(d.AppendRow(std::vector<uint16_t>{a, b}).ok());
  }
  return d;
}

std::string CountToJson(double v) {
  std::string out;
  obs::JsonWriter w(&out);
  w.Double(v);
  return out;
}

// The fixed 4-step script every parity tenant runs: two mechanism releases
// interleaved with two ad-hoc counts, so the parity check covers both RNG
// consumers and the accountant's sequential composition.
constexpr double kBudget = 2.0;

std::vector<MarginalSpec> OneWaySpecs() {
  return {MarginalSpec{{0}}, MarginalSpec{{1}}};
}

std::vector<MarginalSpec> TwoWaySpec() { return {MarginalSpec{{0, 1}}}; }

// Runs the script serially against a direct PrivateQuerySession — the
// golden the server must match byte-for-byte.
std::vector<std::string> RunScriptSerial(const Dataset& d, uint64_t seed) {
  auto session = PrivateQuerySession::Create(&d, kBudget, seed);
  EXPECT_TRUE(session.ok());
  std::vector<std::string> out;
  auto r1 = session->PublishMarginals(OneWaySpecs(), MechanismSpec("ireduct"),
                                      0.4, 5.0, 40);
  EXPECT_TRUE(r1.ok()) << r1.status();
  out.push_back(MarginalReleaseToJson(*r1));
  auto c1 = session->CountQuery(ConjunctiveQuery{{{1, 1}}}, 0.1);
  EXPECT_TRUE(c1.ok());
  out.push_back(CountToJson(*c1));
  auto r2 = session->PublishMarginals(TwoWaySpec(), MechanismSpec("two_phase"),
                                      0.3, 5.0, 40);
  EXPECT_TRUE(r2.ok()) << r2.status();
  out.push_back(MarginalReleaseToJson(*r2));
  auto c2 = session->CountQuery(ConjunctiveQuery{{{0, 2}}}, 0.05);
  EXPECT_TRUE(c2.ok());
  out.push_back(CountToJson(*c2));
  return out;
}

// Runs the same script for `num_tenants` tenants through a QueryServer,
// submitting every request while the dispatcher is paused (so batched
// configurations actually coalesce) with the steps interleaved across
// tenants. Returns per-tenant serialized outcomes.
std::vector<std::vector<std::string>> RunScriptThroughServer(
    const Dataset& d, uint64_t seed_base, int num_tenants, int workers,
    bool batching) {
  QueryServerConfig config;
  config.workers = workers;
  config.batching = batching;
  config.max_queue = 64;
  config.max_inflight_per_tenant = 8;
  config.max_batch = 64;
  auto server = QueryServer::Create(config);
  EXPECT_TRUE(server.ok());
  EXPECT_TRUE((*server)->AddDataset("census", d).ok());
  std::vector<std::string> names;
  for (int t = 0; t < num_tenants; ++t) {
    names.push_back("tenant" + std::to_string(t));
    EXPECT_TRUE(
        (*server)->OpenTenant(names.back(), "census", kBudget, seed_base + t)
            .ok());
  }
  (*server)->Pause();
  std::vector<std::vector<std::future<Result<MarginalRelease>>>> releases(
      num_tenants);
  std::vector<std::vector<std::future<Result<double>>>> counts(num_tenants);
  // Interleave by step: tenant order within a step is irrelevant (each
  // tenant has its own session), per-tenant order is what the contract
  // fixes.
  for (int t = 0; t < num_tenants; ++t) {
    releases[t].push_back((*server)->SubmitMarginals(
        names[t], OneWaySpecs(), MechanismSpec("ireduct"), 0.4, 5.0, 40));
  }
  for (int t = 0; t < num_tenants; ++t) {
    counts[t].push_back(
        (*server)->SubmitCount(names[t], ConjunctiveQuery{{{1, 1}}}, 0.1));
  }
  for (int t = 0; t < num_tenants; ++t) {
    releases[t].push_back((*server)->SubmitMarginals(
        names[t], TwoWaySpec(), MechanismSpec("two_phase"), 0.3, 5.0, 40));
  }
  for (int t = 0; t < num_tenants; ++t) {
    counts[t].push_back(
        (*server)->SubmitCount(names[t], ConjunctiveQuery{{{0, 2}}}, 0.05));
  }
  (*server)->Resume();
  std::vector<std::vector<std::string>> out(num_tenants);
  for (int t = 0; t < num_tenants; ++t) {
    auto r1 = releases[t][0].get();
    EXPECT_TRUE(r1.ok()) << r1.status();
    auto c1 = counts[t][0].get();
    EXPECT_TRUE(c1.ok()) << c1.status();
    auto r2 = releases[t][1].get();
    EXPECT_TRUE(r2.ok()) << r2.status();
    auto c2 = counts[t][1].get();
    EXPECT_TRUE(c2.ok()) << c2.status();
    out[t] = {MarginalReleaseToJson(*r1), CountToJson(*c1),
              MarginalReleaseToJson(*r2), CountToJson(*c2)};
  }
  (*server)->Drain();
  return out;
}

TEST(QueryServerTest, CreateValidatesConfig) {
  QueryServerConfig bad;
  bad.workers = 0;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  bad = QueryServerConfig{};
  bad.max_queue = 0;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  bad = QueryServerConfig{};
  bad.max_inflight_per_tenant = 0;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  bad = QueryServerConfig{};
  bad.max_batch = 0;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  bad = QueryServerConfig{};
  bad.retry_after_ms = -1;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  EXPECT_TRUE(QueryServer::Create(QueryServerConfig{}).ok());
}

TEST(QueryServerTest, DatasetAndTenantLifecycle) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE((*server)->AddDataset("", MakeDataset()).ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  EXPECT_EQ((*server)->AddDataset("census", MakeDataset()).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_NE((*server)->dataset("census"), nullptr);
  EXPECT_EQ((*server)->dataset("nope"), nullptr);

  EXPECT_EQ((*server)->OpenTenant("t", "nope", 1.0, 1).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 1).ok());
  EXPECT_EQ((*server)->OpenTenant("t", "census", 1.0, 1).code(),
            StatusCode::kFailedPrecondition);

  auto budget = (*server)->GetBudget("t");
  ASSERT_TRUE(budget.ok());
  EXPECT_DOUBLE_EQ(budget->budget, 1.0);
  EXPECT_DOUBLE_EQ(budget->spent, 0.0);
  EXPECT_EQ((*server)->GetBudget("nope").status().code(),
            StatusCode::kNotFound);

  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.num_datasets, 1u);
  EXPECT_EQ(stats.num_tenants, 1u);
}

TEST(QueryServerTest, SyncWrappersAnswerAndCharge) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 2).ok());
  auto count = (*server)->CountQuery("t", ConjunctiveQuery{{{1, 1}}}, 0.4);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_NEAR(*count, 500, 150);  // true count ~500 of 2000 rows
  auto release = (*server)->PublishMarginals(
      "t", OneWaySpecs(), MechanismSpec("ireduct"), 0.3, 5.0, 40);
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_EQ(release->marginals.size(), 2u);
  auto budget = (*server)->GetBudget("t");
  ASSERT_TRUE(budget.ok());
  EXPECT_NEAR(budget->spent, 0.4 + release->epsilon_spent, 1e-9);
  // completed is bumped after the promise resolves; settle first.
  (*server)->Drain();
  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

// The acceptance-criteria lock: responses from the concurrent batched
// pipeline are bit-identical to a serial per-tenant run, across worker
// counts, batched and unbatched, at several seeds.
TEST(QueryServerTest, BatchedResponsesMatchSerialGolden) {
  const Dataset d = MakeDataset();
  constexpr int kTenants = 3;
  for (const uint64_t seed_base : {100u, 200u, 300u}) {
    std::vector<std::vector<std::string>> golden;
    for (int t = 0; t < kTenants; ++t) {
      golden.push_back(RunScriptSerial(d, seed_base + t));
    }
    for (const int workers : {1, 2, 8}) {
      for (const bool batching : {true, false}) {
        const auto got = RunScriptThroughServer(d, seed_base, kTenants,
                                                workers, batching);
        ASSERT_EQ(got.size(), golden.size());
        for (int t = 0; t < kTenants; ++t) {
          EXPECT_EQ(got[t], golden[t])
              << "tenant " << t << " diverged at seed_base " << seed_base
              << " workers " << workers << " batching " << batching;
        }
      }
    }
  }
}

// The served event stream is part of the determinism contract: one batch
// of twelve requests yields the same JSONL bytes at 1 and 8 workers. Times
// never enter the lines, so this is the span tree with timestamps stripped.
TEST(QueryServerTest, EventStreamIsTheSameAtOneAndEightWorkers) {
  const Dataset d = MakeDataset();
  constexpr int kTenants = 3;
  auto run = [&](int workers) {
    MarginalCache::Global().Clear();
    obs::EventLog log;
    obs::EventLog::Install(&log);
    RunScriptThroughServer(d, 100, kTenants, workers, /*batching=*/true);
    obs::EventLog::Install(nullptr);
    EXPECT_EQ(log.CountType("server.batch"), 1u);
    EXPECT_EQ(log.CountType("session.publish_marginals"), 2u * kTenants);
    EXPECT_EQ(log.CountType("session.count_query"), 2u * kTenants);
    return log.SnapshotJsonl();
  };
  const std::string one = run(1);
  EXPECT_EQ(one, run(8));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TestDir(const std::string& tag) {
  return testing::TempDir() + "query_server_test_" + tag + "_" +
         std::to_string(::getpid());
}

// The chain-scale script: per tenant a count, an iReduct release, a second
// count and a Dwork release, each charged to the tenant's journal.
constexpr int kChainTenants = 16;

struct ChainStep {
  bool release;
  std::vector<MarginalSpec> specs;
  const char* mechanism;
  ConjunctiveQuery query;
  double epsilon;
};

std::vector<ChainStep> ChainScript() {
  return {{false, {}, "", ConjunctiveQuery{{{1, 1}}}, 0.1},
          {true, OneWaySpecs(), "ireduct", {}, 0.4},
          {false, {}, "", ConjunctiveQuery{{{0, 2}}}, 0.05},
          {true, TwoWaySpec(), "dwork", {}, 0.3}};
}

std::string ChainTenant(int t) { return "tenant" + std::to_string(t); }

// Runs the script serially against journaled sessions under `dir`: the
// golden responses (per tenant) and journals.
std::vector<std::vector<std::string>> RunChainScriptSerial(
    const Dataset& d, const std::string& dir) {
  std::vector<std::vector<std::string>> out(kChainTenants);
  for (int t = 0; t < kChainTenants; ++t) {
    auto session = PrivateQuerySession::CreateWithJournal(
        &d, kBudget, 500 + t, dir + "/" + ChainTenant(t) + ".journal");
    EXPECT_TRUE(session.ok()) << session.status();
    for (const ChainStep& step : ChainScript()) {
      if (step.release) {
        auto r = session->PublishMarginals(
            step.specs, MechanismSpec(step.mechanism), step.epsilon, 5.0, 40);
        EXPECT_TRUE(r.ok()) << r.status();
        out[t].push_back(MarginalReleaseToJson(*r));
      } else {
        auto c = session->CountQuery(step.query, step.epsilon);
        EXPECT_TRUE(c.ok()) << c.status();
        out[t].push_back(CountToJson(*c));
      }
    }
  }
  return out;
}

// The same script for every tenant through one journaled server: all 64
// requests queue while the dispatcher is paused, steps interleaved across
// tenants, so they drain as one batch of sixteen four-request chains.
std::vector<std::vector<std::string>> RunChainScriptThroughServer(
    const Dataset& d, const std::string& dir, int workers) {
  QueryServerConfig config;
  config.workers = workers;
  config.max_queue = 64;
  config.max_inflight_per_tenant = 4;
  config.max_batch = 64;
  config.journal_dir = dir;
  auto server = QueryServer::Create(config);
  EXPECT_TRUE(server.ok());
  EXPECT_TRUE((*server)->AddDataset("census", d).ok());
  for (int t = 0; t < kChainTenants; ++t) {
    EXPECT_TRUE(
        (*server)->OpenTenant(ChainTenant(t), "census", kBudget, 500 + t).ok());
  }
  (*server)->Pause();
  std::vector<std::vector<std::future<Result<MarginalRelease>>>> releases(
      kChainTenants);
  std::vector<std::vector<std::future<Result<double>>>> counts(kChainTenants);
  for (const ChainStep& step : ChainScript()) {
    for (int t = 0; t < kChainTenants; ++t) {
      if (step.release) {
        releases[t].push_back((*server)->SubmitMarginals(
            ChainTenant(t), step.specs, MechanismSpec(step.mechanism),
            step.epsilon, 5.0, 40));
      } else {
        counts[t].push_back(
            (*server)->SubmitCount(ChainTenant(t), step.query, step.epsilon));
      }
    }
  }
  (*server)->Resume();
  std::vector<std::vector<std::string>> out(kChainTenants);
  for (int t = 0; t < kChainTenants; ++t) {
    size_t next_release = 0;
    size_t next_count = 0;
    for (const ChainStep& step : ChainScript()) {
      if (step.release) {
        auto r = releases[t][next_release++].get();
        EXPECT_TRUE(r.ok()) << r.status();
        out[t].push_back(MarginalReleaseToJson(*r));
      } else {
        auto c = counts[t][next_count++].get();
        EXPECT_TRUE(c.ok()) << c.status();
        out[t].push_back(CountToJson(*c));
      }
    }
  }
  (*server)->Drain();
  return out;
}

// Sixteen journaled tenants in one 64-request batch: whatever the worker
// count, and so however the per-tenant chains overlap, the responses equal
// the serial golden, every tenant's journal holds the serial bytes, and
// the event stream is the same at one and eight workers.
TEST(QueryServerTest, ChainsMatchSerialGoldenWithJournalsAndEvents) {
  const Dataset d = MakeDataset();
  const std::string root = TestDir("chains");
  std::filesystem::remove_all(root);
  const auto golden = RunChainScriptSerial(d, root + "/serial");
  std::map<int, std::string> streams;
  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const std::string dir = root + "/w" + std::to_string(workers);
    MarginalCache::Global().Clear();
    obs::EventLog log;
    obs::EventLog::Install(&log);
    const auto got = RunChainScriptThroughServer(d, dir, workers);
    obs::EventLog::Install(nullptr);
    EXPECT_EQ(got, golden);
    for (int t = 0; t < kChainTenants; ++t) {
      const std::string name = ChainTenant(t) + ".journal";
      const std::string journal = ReadFile(dir + "/" + name);
      EXPECT_FALSE(journal.empty());
      EXPECT_EQ(journal, ReadFile(root + "/serial/" + name)) << name;
    }
    EXPECT_EQ(log.CountType("server.batch"), 1u);
    EXPECT_EQ(log.CountType("journal.append"), 4u * kChainTenants);
    EXPECT_EQ(log.total_dropped(), 0u);
    streams[workers] = log.SnapshotJsonl();
  }
  EXPECT_EQ(streams[1], streams[8]);
  std::filesystem::remove_all(root);
}

TEST(QueryServerTest, BatchingCoalescesIntoFusedPasses) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_batch = 16;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("a", "census", 1.0, 1).ok());
  ASSERT_TRUE((*server)->OpenTenant("b", "census", 1.0, 2).ok());
  (*server)->Pause();
  auto fa = (*server)->SubmitMarginals("a", OneWaySpecs(),
                                       MechanismSpec("dwork"), 0.2, 5.0, 40);
  auto fb = (*server)->SubmitMarginals("b", OneWaySpecs(),
                                       MechanismSpec("dwork"), 0.2, 5.0, 40);
  (*server)->Resume();
  EXPECT_TRUE(fa.get().ok());
  EXPECT_TRUE(fb.get().ok());
  (*server)->Drain();
  const QueryServerStats stats = (*server)->Stats();
  // Both requests drained in one batch and shared one fused pass.
  EXPECT_EQ(stats.max_batch_width, 2u);
  EXPECT_EQ(stats.fused_passes, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(QueryServerTest, QueueFullShedsWithResourceExhaustedAndNoCharge) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_queue = 2;
  config.max_inflight_per_tenant = 100;
  config.retry_after_ms = 75;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 3).ok());
  (*server)->Pause();
  auto f1 = (*server)->SubmitCount("t", ConjunctiveQuery{}, 0.1);
  auto f2 = (*server)->SubmitCount("t", ConjunctiveQuery{}, 0.1);
  auto f3 = (*server)->SubmitCount("t", ConjunctiveQuery{}, 0.1);
  // The shed resolves immediately, before the dispatcher ever runs.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto shed = f3.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("retry after 75ms"),
            std::string::npos);
  // Nothing was charged for the shed request — or for the queued ones yet.
  auto before = (*server)->GetBudget("t");
  ASSERT_TRUE(before.ok());
  EXPECT_DOUBLE_EQ(before->spent, 0.0);
  (*server)->Resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  (*server)->Drain();
  auto after = (*server)->GetBudget("t");
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->spent, 0.2);  // exactly the two admitted charges
  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(QueryServerTest, TenantInflightCapShedsOnlyTheChattyTenant) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_queue = 100;
  config.max_inflight_per_tenant = 1;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("chatty", "census", 1.0, 4).ok());
  ASSERT_TRUE((*server)->OpenTenant("quiet", "census", 1.0, 5).ok());
  (*server)->Pause();
  auto f1 = (*server)->SubmitCount("chatty", ConjunctiveQuery{}, 0.1);
  auto f2 = (*server)->SubmitCount("chatty", ConjunctiveQuery{}, 0.1);
  auto f3 = (*server)->SubmitCount("quiet", ConjunctiveQuery{}, 0.1);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto shed = f2.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  // The other tenant still has queue room.
  ASSERT_NE(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  (*server)->Resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f3.get().ok());
  (*server)->Drain();
  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.shed_tenant_cap, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
}

TEST(QueryServerTest, UnknownTenantIsNotFound) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  auto count = (*server)->SubmitCount("ghost", ConjunctiveQuery{}, 0.1);
  ASSERT_EQ(count.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto result = count.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// A bad spec anywhere in a coalesced batch must not take its siblings
// down: the fused pass falls back to the classic per-request path, the
// broken request reports its own error and the valid one still succeeds.
// Refused counts in the same batch (a value or attribute out of range, a
// bad ε) fail exactly as a direct session fails them, before any charge,
// and a valid count beside them is charged only its own ε.
TEST(QueryServerTest, InvalidSpecInBatchFallsBackPerRequest) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_batch = 16;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("bad", "census", 1.0, 6).ok());
  ASSERT_TRUE((*server)->OpenTenant("good", "census", 1.0, 7).ok());
  struct BadCount {
    ConjunctiveQuery query;
    double epsilon;
  };
  const std::vector<BadCount> bad_counts{
      {ConjunctiveQuery{{{1, 2}}}, 0.1},  // B's domain is {0, 1}
      {ConjunctiveQuery{{{5, 0}}}, 0.1},  // no attribute 5
      {ConjunctiveQuery{{{0, 1}}}, 0.0},  // ε must be positive
  };
  (*server)->Pause();
  auto fbad = (*server)->SubmitMarginals(
      "bad", {MarginalSpec{{9}}}, MechanismSpec("ireduct"), 0.2, 5.0, 40);
  auto fgood = (*server)->SubmitMarginals(
      "good", OneWaySpecs(), MechanismSpec("ireduct"), 0.2, 5.0, 40);
  std::vector<std::future<Result<double>>> fbad_counts;
  for (const BadCount& c : bad_counts) {
    fbad_counts.push_back((*server)->SubmitCount("bad", c.query, c.epsilon));
  }
  auto fgood_count =
      (*server)->SubmitCount("good", ConjunctiveQuery{{{0, 2}}}, 0.1);
  (*server)->Resume();
  auto bad = fbad.get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  auto good = fgood.get();
  EXPECT_TRUE(good.ok()) << good.status();
  auto direct = PrivateQuerySession::Create(&d, 1.0, 6);
  ASSERT_TRUE(direct.ok());
  for (size_t i = 0; i < bad_counts.size(); ++i) {
    const Result<double> want =
        direct->CountQuery(bad_counts[i].query, bad_counts[i].epsilon);
    ASSERT_FALSE(want.ok());
    const Result<double> got = fbad_counts[i].get();
    ASSERT_FALSE(got.ok()) << "bad count " << i;
    EXPECT_EQ(got.status().code(), want.status().code()) << "bad count " << i;
    EXPECT_EQ(got.status().message(), want.status().message())
        << "bad count " << i;
  }
  auto good_count = fgood_count.get();
  EXPECT_TRUE(good_count.ok()) << good_count.status();
  (*server)->Drain();
  auto bad_budget = (*server)->GetBudget("bad");
  ASSERT_TRUE(bad_budget.ok());
  EXPECT_DOUBLE_EQ(bad_budget->spent, 0.0);
  ASSERT_TRUE(good.ok());
  auto good_budget = (*server)->GetBudget("good");
  ASSERT_TRUE(good_budget.ok());
  EXPECT_DOUBLE_EQ(good_budget->spent, good->epsilon_spent + 0.1);
  // The poisoned union never ran a fused pass.
  EXPECT_EQ((*server)->Stats().fused_passes, 0u);
}

// One request over every census attribute asks for 31,192,678,400 cells,
// under CellCount's 2^40 cap; the fused pass would try to allocate them
// all and abort the server. Admission refuses it before queueing and
// before any charge, and the tenant's next request is answered.
TEST(QueryServerTest, OversizedMarginalsRequestIsRefusedAtAdmission) {
  CensusConfig census;
  census.rows = 2'000;
  auto d = GenerateCensus(census);
  ASSERT_TRUE(d.ok());
  QueryServerConfig config;
  config.workers = 2;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", std::move(*d)).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 3).ok());
  MarginalSpec every;
  for (uint32_t a = 0; a < 9; ++a) every.attributes.push_back(a);
  auto refused = (*server)->PublishMarginals(
      "t", {every}, MechanismSpec("dwork"), 0.5, 5.0, 40);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("31192678400"),
            std::string::npos)
      << refused.status();
  EXPECT_NE(refused.status().message().find("16777216"), std::string::npos)
      << refused.status();
  EXPECT_EQ((*server)->Stats().admitted, 0u);
  auto budget = (*server)->GetBudget("t");
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget->spent, 0.0);

  auto answered = (*server)->PublishMarginals(
      "t", {MarginalSpec{{kGender}}}, MechanismSpec("dwork"), 0.5, 5.0, 40);
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(answered->marginals.size(), 1u);
}

TEST(QueryServerTest, JournaledTenantsSurviveServerRestart) {
  const Dataset d = MakeDataset();
  const std::string journal_dir = testing::TempDir() + "query_server_test_" +
                                  std::to_string(::getpid()) +
                                  "/journals/nested";
  QueryServerConfig config;
  config.journal_dir = journal_dir;
  double spent = 0;
  {
    auto server = QueryServer::Create(config);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->AddDataset("census", d).ok());
    // The journal directory does not exist yet; OpenTenant must create it.
    ASSERT_TRUE((*server)->OpenTenant("alice", "census", 1.0, 8).ok());
    ASSERT_TRUE(
        (*server)->CountQuery("alice", ConjunctiveQuery{{{1, 1}}}, 0.25).ok());
    struct stat st{};
    EXPECT_EQ(::stat((journal_dir + "/alice.journal").c_str(), &st), 0);
    auto budget = (*server)->GetBudget("alice");
    ASSERT_TRUE(budget.ok());
    spent = budget->spent;
    EXPECT_DOUBLE_EQ(spent, 0.25);
  }
  // A new server over the same journal_dir: re-opening would truncate the
  // ledger (refused); resuming recovers the recorded spend.
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  EXPECT_EQ((*server)->OpenTenant("alice", "census", 1.0, 8).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*server)->ResumeTenant("alice", "census", 9).ok());
  auto budget = (*server)->GetBudget("alice");
  ASSERT_TRUE(budget.ok());
  EXPECT_DOUBLE_EQ(budget->spent, spent);
  EXPECT_DOUBLE_EQ(budget->remaining, 1.0 - spent);
  // And the resumed tenant keeps working.
  EXPECT_TRUE((*server)->CountQuery("alice", ConjunctiveQuery{}, 0.1).ok());
}

// A resumed tenant draws from a fresh stream even when the caller passes
// the open's seed back: were the noise replayed, two counts' difference
// would publish their exact true difference.
TEST(QueryServerTest, ResumedTenantDoesNotReplayReleasedNoise) {
  const Dataset d = MakeDataset();
  const std::string root = TestDir("resume_noise");
  std::filesystem::remove_all(root);
  const ConjunctiveQuery first{{{1, 1}}};
  const ConjunctiveQuery second{{{0, 2}}};
  QueryServerConfig config;
  config.journal_dir = root + "/live";
  double first_noise = 0;
  {
    auto server = QueryServer::Create(config);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->AddDataset("census", d).ok());
    ASSERT_TRUE((*server)->OpenTenant("alice", "census", 1.0, 11).ok());
    auto count = (*server)->CountQuery("alice", first, 0.1);
    ASSERT_TRUE(count.ok()) << count.status();
    first_noise = *count - *EvaluateQuery(d, first);
  }
  // Two copies of the journal as the crash left it.
  for (const char* copy : {"/a", "/b"}) {
    std::filesystem::create_directories(root + copy);
    std::filesystem::copy_file(config.journal_dir + "/alice.journal",
                               root + copy + "/alice.journal");
  }
  auto resume_and_count = [&](const std::string& dir) -> Result<double> {
    QueryServerConfig resumed = config;
    resumed.journal_dir = dir;
    IREDUCT_ASSIGN_OR_RETURN(auto server, QueryServer::Create(resumed));
    IREDUCT_RETURN_NOT_OK(server->AddDataset("census", d));
    IREDUCT_RETURN_NOT_OK(server->ResumeTenant("alice", "census", 11));
    return server->CountQuery("alice", second, 0.1);
  };
  const Result<double> live = resume_and_count(config.journal_dir);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_NE(*live - *EvaluateQuery(d, second), first_noise);
  // Resuming one journal with one seed stays deterministic.
  const Result<double> a = resume_and_count(root + "/a");
  const Result<double> b = resume_and_count(root + "/b");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, *live);
  std::filesystem::remove_all(root);
}

TEST(QueryServerTest, ResumeTenantRequiresJournaledServer) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  EXPECT_EQ((*server)->ResumeTenant("t", "census", 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServerTest, UnbatchedModeDispatchesOneAtATime) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.batching = false;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 10).ok());
  (*server)->Pause();
  std::vector<std::future<Result<double>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back((*server)->SubmitCount("t", ConjunctiveQuery{}, 0.05));
  }
  (*server)->Resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  (*server)->Drain();
  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.max_batch_width, 1u);
  EXPECT_EQ(stats.fused_passes, 0u);
}

TEST(QueryServerTest, DestructorRejectsStillQueuedRequests) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 11).ok());
  (*server)->Pause();
  auto f = (*server)->SubmitCount("t", ConjunctiveQuery{}, 0.1);
  server->reset();  // destroys the paused server with the request queued
  auto result = f.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ireduct

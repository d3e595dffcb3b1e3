#include "dp/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/fault.h"
#include "dp/ledger_journal.h"
#include "dp/privacy_accountant.h"
#include "dp/workload.h"

namespace ireduct {
namespace {

std::string TestPath(const std::string& name) {
  return testing::TempDir() + "/ireduct_checkpoint_" + name + ".ckpt";
}

Workload TestWorkload() {
  auto w = Workload::Create(
      {100, 200, 300, 40, 50, 60},
      {QueryGroup{"tiny", 0, 3, 2.0}, QueryGroup{"large", 3, 6, 2.0}});
  EXPECT_TRUE(w.ok());
  return std::move(*w);
}

// State with awkward doubles (denormal-adjacent, negative-zero Kahan carry,
// full-precision irrationals) to prove serialization is bit-exact.
RunCheckpoint TestCheckpoint() {
  RunCheckpoint c;
  c.algorithm = "ireduct";
  c.workload_fingerprint = 0x9e3779b97f4a7c15ull;
  c.round = 12;
  c.iterations = 96;
  c.resample_calls = 3;
  c.epsilon_spent = 0.30000000000000004;  // 0.1 + 0.2: not representable
  c.rng_state = {0xdeadbeefcafef00dull, 1, 0xffffffffffffffffull, 42};
  c.gs.value = 0.1234567890123456789;
  c.gs.compensation = -4.440892098500626e-16;
  c.gs.commits_since_resync = 7;
  c.answers = {101.5, 198.25, 301.0078125, 39.0, 50.5, 61.25};
  c.group_scales = {12.5, 17.75};
  c.active = {1, 0};
  return c;
}

TEST(CheckpointSerializationTest, RoundTripIsBitExact) {
  const RunCheckpoint original = TestCheckpoint();
  const std::string text = SerializeCheckpoint(original);
  auto parsed = ParseCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->algorithm, original.algorithm);
  EXPECT_EQ(parsed->workload_fingerprint, original.workload_fingerprint);
  EXPECT_EQ(parsed->round, original.round);
  EXPECT_EQ(parsed->iterations, original.iterations);
  EXPECT_EQ(parsed->resample_calls, original.resample_calls);
  EXPECT_EQ(parsed->epsilon_spent, original.epsilon_spent);
  EXPECT_EQ(parsed->rng_state, original.rng_state);
  EXPECT_EQ(parsed->gs.value, original.gs.value);
  EXPECT_EQ(parsed->gs.compensation, original.gs.compensation);
  EXPECT_EQ(parsed->gs.commits_since_resync, original.gs.commits_since_resync);
  EXPECT_EQ(parsed->answers, original.answers);
  EXPECT_EQ(parsed->group_scales, original.group_scales);
  EXPECT_EQ(parsed->active, original.active);
  // Determinism: equal states serialize to identical bytes.
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);
}

TEST(CheckpointSerializationTest, IResampVectorsRoundTrip) {
  RunCheckpoint c = TestCheckpoint();
  c.algorithm = "iresamp";
  c.nominal_scales = {25.0, 35.5};
  c.weighted_sum = {0.125, -3.75, 2.0, 0.0, 1.0, 9.5};
  c.weight = {0.0064, 0.0064, 0.0064, 0.0032, 0.0032, 0.0032};
  auto parsed = ParseCheckpoint(SerializeCheckpoint(c));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->nominal_scales, c.nominal_scales);
  EXPECT_EQ(parsed->weighted_sum, c.weighted_sum);
  EXPECT_EQ(parsed->weight, c.weight);
}

TEST(CheckpointSerializationTest, TamperedRecordIsRefused) {
  std::string text = SerializeCheckpoint(TestCheckpoint());
  const size_t at = text.find("\"round\":12");
  ASSERT_NE(at, std::string::npos);
  text[at + 9] = '9';  // round 12 -> 92 without updating the CRC
  auto parsed = ParseCheckpoint(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

// Integers are parsed exactly or refused. Each edited record is re-sealed
// with a fresh CRC, so only the integer parse stands between it and a
// resumed run.
TEST(CheckpointSerializationTest, InexactIntegersAreRefused) {
  std::string body;
  ASSERT_TRUE(UnsealJsonRecord(SerializeCheckpoint(TestCheckpoint()), &body));
  const std::pair<std::string, std::string> edits[] = {
      {"\"round\":12", "\"round\":-1"},
      {"\"iterations\":96", "\"iterations\":-96"},
      {"\"rng\":[16045690984503111693", "\"rng\":[-1"},
      {"\"round\":12", "\"round\":+12"},
      {"\"version\":1", "\"version\":+1"},
      {"\"active\":[1", "\"active\":[0.5"},
      {"\"active\":[1", "\"active\":[-3"},
  };
  for (const auto& [from, to] : edits) {
    std::string edited = body;
    const size_t at = edited.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    edited.replace(at, from.size(), to);
    auto parsed = ParseCheckpoint(SealJsonRecord(edited));
    EXPECT_FALSE(parsed.ok()) << to << " was accepted";
  }
}

TEST(CheckpointSerializationTest, TruncatedRecordIsRefused) {
  const std::string text = SerializeCheckpoint(TestCheckpoint());
  EXPECT_FALSE(ParseCheckpoint(text.substr(0, text.size() / 2)).ok());
  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint("{}").ok());
}

TEST(CheckpointFileSinkTest, WriteThenLoadRoundTrips) {
  const std::string path = TestPath("file");
  FileCheckpointSink sink(path);
  const RunCheckpoint original = TestCheckpoint();
  ASSERT_TRUE(sink.Write(original).ok());
  auto loaded = FileCheckpointSink::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeCheckpoint(*loaded), SerializeCheckpoint(original));
  // A second Write atomically replaces the first.
  RunCheckpoint next = original;
  next.round = 13;
  ASSERT_TRUE(sink.Write(next).ok());
  loaded = FileCheckpointSink::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->round, 13u);
  std::remove(path.c_str());
}

TEST(CheckpointFileSinkTest, LoadRefusesMissingFile) {
  EXPECT_FALSE(FileCheckpointSink::Load(TestPath("missing")).ok());
}

TEST(CheckpointFileSinkTest, InjectedFailWritesNothing) {
  const std::string path = TestPath("fail");
  FileCheckpointSink sink(path);
  ASSERT_TRUE(sink.Write(TestCheckpoint()).ok());
  ASSERT_TRUE(
      FaultInjector::Global().Configure("checkpoint.write:fail@1").ok());
  RunCheckpoint next = TestCheckpoint();
  next.round = 99;
  const Status failed = sink.Write(next);
  FaultInjector::Global().Reset();
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // The previous checkpoint survives untouched.
  auto loaded = FileCheckpointSink::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->round, 12u);
  std::remove(path.c_str());
}

TEST(CheckpointFileSinkTest, InjectedTruncationYieldsUnloadableFile) {
  const std::string path = TestPath("trunc");
  FileCheckpointSink sink(path);
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("checkpoint.write:truncate@1=64")
                  .ok());
  const Status torn = sink.Write(TestCheckpoint());
  FaultInjector::Global().Reset();
  EXPECT_EQ(torn.code(), StatusCode::kIoError);
  // The truncated record landed, and Load refuses it outright rather than
  // resuming from half a state.
  auto loaded = FileCheckpointSink::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(CheckpointValidateTest, AcceptsMatchingState) {
  const Workload workload = TestWorkload();
  RunCheckpoint c = TestCheckpoint();
  c.workload_fingerprint = FingerprintWorkload(workload);
  EXPECT_TRUE(ValidateResume(c, "ireduct", workload).ok());
}

TEST(CheckpointValidateTest, RefusesMismatches) {
  const Workload workload = TestWorkload();
  RunCheckpoint good = TestCheckpoint();
  good.workload_fingerprint = FingerprintWorkload(workload);

  RunCheckpoint wrong_algorithm = good;
  wrong_algorithm.algorithm = "iresamp";
  EXPECT_EQ(ValidateResume(wrong_algorithm, "ireduct", workload).code(),
            StatusCode::kInvalidArgument);

  RunCheckpoint wrong_workload = good;
  wrong_workload.workload_fingerprint ^= 1;
  EXPECT_EQ(ValidateResume(wrong_workload, "ireduct", workload).code(),
            StatusCode::kInvalidArgument);

  RunCheckpoint wrong_answers = good;
  wrong_answers.answers.pop_back();
  EXPECT_EQ(ValidateResume(wrong_answers, "ireduct", workload).code(),
            StatusCode::kInvalidArgument);

  RunCheckpoint wrong_groups = good;
  wrong_groups.group_scales.push_back(1.0);
  EXPECT_EQ(ValidateResume(wrong_groups, "ireduct", workload).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointFingerprintTest, StructureSensitiveAnswerBlind) {
  auto base = Workload::Create({1, 2, 3}, {QueryGroup{"g", 0, 3, 2.0}});
  ASSERT_TRUE(base.ok());
  // Different true answers, same structure: identical fingerprint — the
  // checkpoint must not leak a digest of the private data.
  auto other_answers =
      Workload::Create({7, 8, 9}, {QueryGroup{"g", 0, 3, 2.0}});
  ASSERT_TRUE(other_answers.ok());
  EXPECT_EQ(FingerprintWorkload(*base), FingerprintWorkload(*other_answers));
  // Different structure: different fingerprint.
  auto other_coeff = Workload::Create({1, 2, 3}, {QueryGroup{"g", 0, 3, 1.0}});
  ASSERT_TRUE(other_coeff.ok());
  EXPECT_NE(FingerprintWorkload(*base), FingerprintWorkload(*other_coeff));
  auto other_name = Workload::Create({1, 2, 3}, {QueryGroup{"h", 0, 3, 2.0}});
  ASSERT_TRUE(other_name.ok());
  EXPECT_NE(FingerprintWorkload(*base), FingerprintWorkload(*other_name));
}

TEST(CheckpointFingerprintTest, MatchesPinnedValue) {
  // Pins the hash itself: every checkpoint on disk carries this value, so
  // a changed basis, prime or byte order would refuse every resume.
  auto w = Workload::Create(
      {1, 2, 3, 4, 5},
      {QueryGroup{"age", 0, 2, 2.0}, QueryGroup{"income x sex", 2, 5, 0.75}});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(FingerprintWorkload(*w), 0xd3c46df4aff12d3fULL);
}

TEST(JournalingCheckpointSinkTest, ChargesGrowthBeforeForwarding) {
  // An inner sink that records what it saw and whether the accountant had
  // already been charged when the write arrived.
  class ProbeSink : public CheckpointSink {
   public:
    explicit ProbeSink(const PrivacyAccountant* accountant)
        : accountant_(accountant) {}
    Status Write(const RunCheckpoint& checkpoint) override {
      ++writes_;
      spent_at_write_ = accountant_->spent();
      last_round_ = checkpoint.round;
      return Status::OK();
    }
    int writes_ = 0;
    double spent_at_write_ = -1;
    uint64_t last_round_ = 0;

   private:
    const PrivacyAccountant* accountant_;
  };

  auto accountant = PrivacyAccountant::Create(1.0);
  ASSERT_TRUE(accountant.ok());
  ProbeSink probe(&*accountant);
  JournalingCheckpointSink sink(&*accountant, &probe);

  RunCheckpoint c = TestCheckpoint();
  c.epsilon_spent = 0.25;
  ASSERT_TRUE(sink.Write(c).ok());
  EXPECT_EQ(accountant->spent(), 0.25);
  // Ledger-first: by the time the inner sink ran, the charge was visible.
  EXPECT_EQ(probe.spent_at_write_, 0.25);

  // A later boundary charges only the growth.
  c.round = 13;
  c.epsilon_spent = 0.4;
  ASSERT_TRUE(sink.Write(c).ok());
  EXPECT_EQ(accountant->spent(), 0.4);
  ASSERT_EQ(accountant->ledger().size(), 2u);
  EXPECT_EQ(accountant->ledger()[1].epsilon, 0.4 - 0.25);

  // A re-executed boundary after resume (spend already covers it) charges
  // nothing but still forwards the checkpoint.
  c.epsilon_spent = 0.3;
  ASSERT_TRUE(sink.Write(c).ok());
  EXPECT_EQ(accountant->spent(), 0.4);
  EXPECT_EQ(accountant->ledger().size(), 2u);
  EXPECT_EQ(probe.writes_, 3);
}

TEST(JournalingCheckpointSinkTest, RefusedChargeAbortsBeforeInnerWrite) {
  class CountingSink : public CheckpointSink {
   public:
    Status Write(const RunCheckpoint&) override {
      ++writes_;
      return Status::OK();
    }
    int writes_ = 0;
  };
  auto accountant = PrivacyAccountant::Create(0.1);
  ASSERT_TRUE(accountant.ok());
  CountingSink inner;
  JournalingCheckpointSink sink(&*accountant, &inner);
  RunCheckpoint c = TestCheckpoint();
  c.epsilon_spent = 0.5;  // exceeds the 0.1 budget
  const Status refused = sink.Write(c);
  EXPECT_EQ(refused.code(), StatusCode::kPrivacyBudgetExceeded);
  // The checkpoint never became visible: no durable state without a
  // durable record of its cost.
  EXPECT_EQ(inner.writes_, 0);
}

}  // namespace
}  // namespace ireduct

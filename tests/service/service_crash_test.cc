// Crash-safety of the multi-tenant query server: a process killed mid-batch
// (deterministically, via the fault injector's "journal.append:crash@n" arm
// — the same arm IREDUCT_FAULT wires up from the environment) must leave
// every tenant's write-ahead journal recoverable, with recovered totals
// exactly equal to the charges that were confirmed durable before the kill.
//
// Each test forks: the child builds a journaled QueryServer, runs a scripted
// workload and is _Exit(86)'d by the injector mid-write; the parent waits,
// then recovers and replays every journal. There is no torn tail in these
// scenarios — kCrash fires before any bytes of the fatal record are written,
// which is exactly the write-ahead guarantee under test: a grant is either
// fully durable and counted, or absent and never admitted.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "dp/ledger_journal.h"
#include "service/query_server.h"

namespace ireduct {
namespace {

// Child-side exit codes for failures before the fault fires; anything but
// kFaultCrashExitCode fails the parent's assertion with a hint.
constexpr int kChildSetupFailed = 70;
constexpr int kChildRequestFailed = 71;
constexpr int kChildSurvived = 72;  // the injected crash never fired

Dataset MakeDataset() {
  auto schema = Schema::Create({{"A", 4}, {"B", 2}});
  if (!schema.ok()) ::_Exit(kChildSetupFailed);
  Dataset d(std::move(schema).value());
  BitGen gen(1);
  for (int r = 0; r < 1000; ++r) {
    const uint16_t a = static_cast<uint16_t>(gen.UniformInt(4));
    const uint16_t b = gen.Bernoulli(0.25) ? 1 : 0;
    if (!d.AppendRow(std::vector<uint16_t>{a, b}).ok()) {
      ::_Exit(kChildSetupFailed);
    }
  }
  return d;
}

std::string UniqueJournalDir(const char* tag) {
  return testing::TempDir() + "service_crash_" + tag + "_" +
         std::to_string(::getpid()) + "/journals";
}

// The child workload. Journal-append hit schedule (hits are 1-based and
// process-wide): two tenant opens write the journals' open records (hits
// 1-2), then each completed request appends exactly one grant (hits 3+).
// Phase B orders grants per tenant only: t1's chain {count} and t2's chain
// {release, count} run as separate pool tasks. With one worker they run
// in first-appearance order, so the hits are t1's count (3), t2's release
// (4) and t2's count (5); with more workers the two chains interleave.
// `crash_at_hit` picks the first record that must NOT survive.
void RunChildWorkload(const std::string& journal_dir, int crash_at_hit,
                      int workers = 1) {
  const std::string spec =
      "journal.append:crash@" + std::to_string(crash_at_hit);
  if (!FaultInjector::Global().Configure(spec).ok()) {
    ::_Exit(kChildSetupFailed);
  }
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.journal_dir = journal_dir;
  config.max_batch = 16;
  config.workers = workers;
  auto server = QueryServer::Create(config);
  if (!server.ok()) ::_Exit(kChildSetupFailed);
  if (!(*server)->AddDataset("census", d).ok()) ::_Exit(kChildSetupFailed);
  if (!(*server)->OpenTenant("t1", "census", 2.0, 11).ok()) {  // hit 1
    ::_Exit(kChildSetupFailed);
  }
  if (!(*server)->OpenTenant("t2", "census", 2.0, 22).ok()) {  // hit 2
    ::_Exit(kChildSetupFailed);
  }
  // Queue everything while paused so the dispatcher drains one coalesced
  // batch — the crash lands mid-batch, between two tenants' grants.
  (*server)->Pause();
  auto f1 = (*server)->SubmitCount("t1", ConjunctiveQuery{{{1, 1}}},
                                   0.25);  // hit 3
  auto f2 = (*server)->SubmitMarginals(
      "t2", {MarginalSpec{{0}}, MarginalSpec{{1}}}, MechanismSpec("ireduct"),
      0.5, 5.0, 40);  // hit 4
  auto f3 = (*server)->SubmitCount("t2", ConjunctiveQuery{{{0, 2}}},
                                   0.125);  // hit 5
  (*server)->Resume();
  // _Exit(kFaultCrashExitCode) fires on the dispatcher thread at the armed
  // hit; .get() only returns if the fault was mis-armed.
  if (!f1.get().ok()) ::_Exit(kChildRequestFailed);
  if (!f2.get().ok()) ::_Exit(kChildRequestFailed);
  if (!f3.get().ok()) ::_Exit(kChildRequestFailed);
  ::_Exit(kChildSurvived);
}

int ForkAndRun(const std::string& journal_dir, int crash_at_hit,
               int workers = 1) {
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    RunChildWorkload(journal_dir, crash_at_hit, workers);  // never returns
  }
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  return WEXITSTATUS(wstatus);
}

double SumCharges(const LedgerJournal::Recovered& recovered) {
  double sum = 0;
  for (const PrivacyCharge& charge : recovered.charges) sum += charge.epsilon;
  return sum;
}

// Crash on the 5th append: t1's count (hit 3) and t2's marginal release
// (hit 4) are durable; t2's count dies before a byte of its grant is
// written. Both journals must recover cleanly with exactly the confirmed
// charges.
TEST(ServiceCrashTest, MidBatchCrashLeavesEveryJournalRecoverable) {
  const std::string journal_dir = UniqueJournalDir("mid_batch");
  ASSERT_EQ(ForkAndRun(journal_dir, 5), kFaultCrashExitCode);

  auto t1 = LedgerJournal::Recover(journal_dir + "/t1.journal");
  ASSERT_TRUE(t1.ok()) << t1.status();
  EXPECT_DOUBLE_EQ(t1->budget, 2.0);
  EXPECT_FALSE(t1->torn_tail);
  ASSERT_EQ(t1->charges.size(), 1u);
  EXPECT_DOUBLE_EQ(t1->charges[0].epsilon, 0.25);
  EXPECT_NE(t1->charges[0].label.find("count"), std::string::npos);
  auto t1_accountant = LedgerJournal::Replay(*t1);
  ASSERT_TRUE(t1_accountant.ok());
  EXPECT_DOUBLE_EQ(t1_accountant->spent(), 0.25);
  EXPECT_DOUBLE_EQ(t1_accountant->spent(), SumCharges(*t1));
  EXPECT_DOUBLE_EQ(t1_accountant->remaining(), 1.75);

  auto t2 = LedgerJournal::Recover(journal_dir + "/t2.journal");
  ASSERT_TRUE(t2.ok()) << t2.status();
  EXPECT_DOUBLE_EQ(t2->budget, 2.0);
  EXPECT_FALSE(t2->torn_tail);
  ASSERT_EQ(t2->charges.size(), 1u);
  EXPECT_NE(t2->charges[0].label.find("marginal release"), std::string::npos);
  EXPECT_GT(t2->charges[0].epsilon, 0.0);
  EXPECT_LE(t2->charges[0].epsilon, 0.5 * (1 + 1e-9));
  auto t2_accountant = LedgerJournal::Replay(*t2);
  ASSERT_TRUE(t2_accountant.ok());
  EXPECT_DOUBLE_EQ(t2_accountant->spent(), SumCharges(*t2));

  // And a restarted server resumes both tenants with the recovered spend.
  const Dataset d = []() {
    auto schema = Schema::Create({{"A", 4}, {"B", 2}});
    Dataset d(std::move(schema).value());
    BitGen gen(1);
    for (int r = 0; r < 1000; ++r) {
      const uint16_t a = static_cast<uint16_t>(gen.UniformInt(4));
      const uint16_t b = gen.Bernoulli(0.25) ? 1 : 0;
      EXPECT_TRUE(d.AppendRow(std::vector<uint16_t>{a, b}).ok());
    }
    return d;
  }();
  QueryServerConfig config;
  config.journal_dir = journal_dir;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->ResumeTenant("t1", "census", 11).ok());
  ASSERT_TRUE((*server)->ResumeTenant("t2", "census", 22).ok());
  auto b1 = (*server)->GetBudget("t1");
  ASSERT_TRUE(b1.ok());
  EXPECT_DOUBLE_EQ(b1->spent, 0.25);
  auto b2 = (*server)->GetBudget("t2");
  ASSERT_TRUE(b2.ok());
  EXPECT_DOUBLE_EQ(b2->spent, SumCharges(*t2));
  // The resumed tenants keep serving — and keep journaling.
  ASSERT_TRUE((*server)->CountQuery("t1", ConjunctiveQuery{}, 0.1).ok());
  auto after = LedgerJournal::Recover(journal_dir + "/t1.journal");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->charges.size(), 2u);
}

// The admission order of each tenant's grants in the child workload:
// {label fragment, epsilon}, with 0 for the release's spent ε (at most
// its 0.5 slice).
struct ExpectedGrant {
  const char* label;
  double epsilon;
};

// True when `recovered` holds a prefix of `order`.
::testing::AssertionResult IsPrefixOf(
    const LedgerJournal::Recovered& recovered,
    const std::vector<ExpectedGrant>& order) {
  if (recovered.charges.size() > order.size()) {
    return ::testing::AssertionFailure()
           << recovered.charges.size() << " grants, at most " << order.size()
           << " admitted";
  }
  for (size_t i = 0; i < recovered.charges.size(); ++i) {
    const PrivacyCharge& charge = recovered.charges[i];
    if (charge.label.find(order[i].label) != 0) {
      return ::testing::AssertionFailure()
             << "grant " << i << " is '" << charge.label << "', expected '"
             << order[i].label << "...'";
    }
    const bool epsilon_ok = order[i].epsilon > 0
                                ? charge.epsilon == order[i].epsilon
                                : charge.epsilon > 0 &&
                                      charge.epsilon <= 0.5 * (1 + 1e-9);
    if (!epsilon_ok) {
      return ::testing::AssertionFailure()
             << "grant " << i << " charged " << charge.epsilon;
    }
  }
  return ::testing::AssertionSuccess();
}

// Every crash point of the 3-request script with the two chains running
// on four workers, in whatever interleaving the scheduler picks: each
// journal recovers, each tenant's grants are a prefix of its admission
// order, and no more grants survive than were appended before the crash
// (fewer may: the crashing append never writes, and an append that had
// passed the fault point may not have written when the process died).
TEST(ServiceCrashTest, EveryCrashPointUnderConcurrentChainsRecovers) {
  const std::vector<ExpectedGrant> t1_order = {{"count ", 0.25}};
  const std::vector<ExpectedGrant> t2_order = {{"marginal release (", 0},
                                               {"count ", 0.125}};
  for (int crash_at_hit = 3; crash_at_hit <= 5; ++crash_at_hit) {
    SCOPED_TRACE("crash@" + std::to_string(crash_at_hit));
    const std::string journal_dir =
        UniqueJournalDir(("chains_" + std::to_string(crash_at_hit)).c_str());
    // OpenTenant refuses an existing journal: start each repeat afresh.
    std::filesystem::remove_all(journal_dir);
    ASSERT_EQ(ForkAndRun(journal_dir, crash_at_hit, /*workers=*/4),
              kFaultCrashExitCode);
    size_t recovered_grants = 0;
    for (const auto& [tenant, order] :
         {std::pair{"t1", t1_order}, std::pair{"t2", t2_order}}) {
      auto recovered =
          LedgerJournal::Recover(journal_dir + "/" + tenant + ".journal");
      ASSERT_TRUE(recovered.ok()) << tenant << ": " << recovered.status();
      EXPECT_DOUBLE_EQ(recovered->budget, 2.0);
      EXPECT_TRUE(IsPrefixOf(*recovered, order)) << tenant;
      auto accountant = LedgerJournal::Replay(*recovered);
      ASSERT_TRUE(accountant.ok()) << tenant << ": " << accountant.status();
      EXPECT_DOUBLE_EQ(accountant->spent(), SumCharges(*recovered));
      recovered_grants += recovered->charges.size();
    }
    EXPECT_LE(recovered_grants, static_cast<size_t>(crash_at_hit - 3));
  }
}

// Crash on the very first grant: both journals hold only their open
// records. Recovery finds zero charges — the doomed request was admitted
// but its charge never became durable, so nothing is owed.
TEST(ServiceCrashTest, CrashBeforeFirstGrantRecoversToZeroSpend) {
  const std::string journal_dir = UniqueJournalDir("first_grant");
  ASSERT_EQ(ForkAndRun(journal_dir, 3), kFaultCrashExitCode);
  for (const char* tenant : {"t1", "t2"}) {
    auto recovered =
        LedgerJournal::Recover(journal_dir + "/" + tenant + ".journal");
    ASSERT_TRUE(recovered.ok()) << tenant << ": " << recovered.status();
    EXPECT_DOUBLE_EQ(recovered->budget, 2.0);
    EXPECT_FALSE(recovered->torn_tail);
    EXPECT_TRUE(recovered->charges.empty());
    auto accountant = LedgerJournal::Replay(*recovered);
    ASSERT_TRUE(accountant.ok());
    EXPECT_DOUBLE_EQ(accountant->spent(), 0.0);
    EXPECT_DOUBLE_EQ(accountant->remaining(), 2.0);
  }
}

}  // namespace
}  // namespace ireduct

#include "dp/ledger_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/fault.h"
#include "common/hash.h"
#include "dp/privacy_accountant.h"
#include "obs/metrics.h"

namespace ireduct {
namespace {

std::string TestPath(const std::string& name) {
  return testing::TempDir() + "/ireduct_journal_" + name + ".wal";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

TEST(CrcSealTest, SealThenUnsealRoundTrips) {
  const std::string body = "{\"type\":\"grant\",\"epsilon\":0.25}";
  const std::string record = SealJsonRecord(body);
  EXPECT_NE(record, body);
  std::string recovered;
  ASSERT_TRUE(UnsealJsonRecord(record, &recovered));
  EXPECT_EQ(recovered, body);
}

TEST(CrcSealTest, UnsealRejectsTamperedPayload) {
  std::string record = SealJsonRecord("{\"epsilon\":0.25}");
  const size_t at = record.find("0.25");
  ASSERT_NE(at, std::string::npos);
  record[at] = '9';  // 9.25: the CRC no longer matches
  std::string body;
  EXPECT_FALSE(UnsealJsonRecord(record, &body));
}

TEST(CrcSealTest, UnsealRejectsMissingOrMalformedSeal) {
  std::string body;
  EXPECT_FALSE(UnsealJsonRecord("{\"epsilon\":0.25}", &body));
  EXPECT_FALSE(UnsealJsonRecord("", &body));
  // Non-hex CRC digits.
  std::string record = SealJsonRecord("{\"a\":1}");
  record[record.size() - 3] = 'z';
  EXPECT_FALSE(UnsealJsonRecord(record, &body));
}

TEST(CrcSealTest, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(LedgerJournalTest, CreateAppendRecoverRoundTrips) {
  const std::string path = TestPath("roundtrip");
  {
    auto journal = LedgerJournal::Create(path, 1.5);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(journal->AppendGrant("first", 0.25).ok());
    ASSERT_TRUE(journal->AppendGrant("second", 0.125).ok());
    EXPECT_EQ(journal->next_seq(), 3u);
  }
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->budget, 1.5);
  EXPECT_FALSE(recovered->torn_tail);
  ASSERT_EQ(recovered->charges.size(), 2u);
  EXPECT_EQ(recovered->charges[0].label, "first");
  EXPECT_EQ(recovered->charges[0].epsilon, 0.25);
  EXPECT_EQ(recovered->charges[1].label, "second");
  EXPECT_EQ(recovered->charges[1].epsilon, 0.125);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, ReplayBuildsSpentAccountant) {
  const std::string path = TestPath("replay");
  {
    auto journal = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->AppendGrant("a", 0.5).ok());
  }
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok());
  auto accountant = LedgerJournal::Replay(*recovered);
  ASSERT_TRUE(accountant.ok());
  EXPECT_EQ(accountant->budget(), 1.0);
  EXPECT_EQ(accountant->spent(), 0.5);
  ASSERT_EQ(accountant->ledger().size(), 1u);
  EXPECT_EQ(accountant->ledger()[0].label, "a");
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, OpenForAppendContinuesSequence) {
  const std::string path = TestPath("reopen");
  {
    auto journal = LedgerJournal::Create(path, 2.0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->AppendGrant("before crash", 0.5).ok());
  }
  {
    auto journal = LedgerJournal::OpenForAppend(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    EXPECT_EQ(journal->next_seq(), 2u);
    ASSERT_TRUE(journal->AppendGrant("after restart", 0.25).ok());
  }
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->charges.size(), 2u);
  EXPECT_EQ(recovered->charges[1].label, "after restart");
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, TornTailWithCompleteEpsilonCountsAsSpent) {
  const std::string path = TestPath("torn");
  {
    auto journal = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->AppendGrant("complete", 0.25).ok());
  }
  // Tear the record mid-label: ε is followed by a comma, so it is provably
  // complete, and conservative recovery must count it.
  WriteFile(path, ReadFile(path) +
                      "{\"type\":\"grant\",\"seq\":2,\"epsilon\":0.125,\"lab");
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->torn_tail);
  EXPECT_EQ(recovered->torn_epsilon, 0.125);
  ASSERT_EQ(recovered->charges.size(), 2u);
  EXPECT_EQ(recovered->charges[1].label, "torn grant (unconfirmed)");
  EXPECT_EQ(recovered->charges[1].epsilon, 0.125);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, TornTailWithUnconfirmableEpsilonIsRefused) {
  const std::string path = TestPath("torn_eps");
  {
    auto journal = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(journal.ok());
  }
  // The tear lands inside the number itself: 0.12 of what may have been
  // 0.125. Counting it would under-report; recovery must refuse.
  WriteFile(path,
            ReadFile(path) + "{\"type\":\"grant\",\"seq\":1,\"epsilon\":0.12");
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, MidJournalCorruptionIsRefused) {
  const std::string path = TestPath("corrupt");
  {
    auto journal = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->AppendGrant("a", 0.25).ok());
    ASSERT_TRUE(journal->AppendGrant("b", 0.25).ok());
  }
  // Flip a byte inside the first grant record (not the final line).
  std::string contents = ReadFile(path);
  const size_t at = contents.find("\"a\"");
  ASSERT_NE(at, std::string::npos);
  contents[at + 1] = 'z';
  WriteFile(path, contents);
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, OutOfOrderSequenceIsRefused) {
  const std::string pathA = TestPath("seq_a");
  const std::string pathB = TestPath("seq_b");
  {
    auto a = LedgerJournal::Create(pathA, 1.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(a->AppendGrant("first", 0.25).ok());
    auto b = LedgerJournal::Create(pathB, 1.0);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(b->AppendGrant("first", 0.25).ok());
    ASSERT_TRUE(b->AppendGrant("second", 0.25).ok());
  }
  // Graft journal B's seq-2 record after journal A's seq-1 record twice:
  // A + B2 replays seq 1,2 fine, but duplicating B2 yields 1,2,2.
  std::string b_contents = ReadFile(pathB);
  const size_t second = b_contents.find("\"seq\":2");
  ASSERT_NE(second, std::string::npos);
  const size_t line_start = b_contents.rfind('\n', second) + 1;
  const std::string seq2 = b_contents.substr(line_start);
  WriteFile(pathA, ReadFile(pathA) + seq2 + seq2);
  auto recovered = LedgerJournal::Recover(pathA);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  std::remove(pathA.c_str());
  std::remove(pathB.c_str());
}

// Integers in a journal are read exactly or refused. Each edited record is
// re-sealed with a fresh CRC, so only the integer parse stands between it
// and a recovered ledger.
TEST(LedgerJournalTest, InexactIntegersAreRefused) {
  const std::string path = TestPath("inexact");
  {
    auto journal = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->AppendGrant("first", 0.25).ok());
  }
  const std::string contents = ReadFile(path);
  const size_t split = contents.find('\n') + 1;
  std::string open_body, grant_body;
  ASSERT_TRUE(UnsealJsonRecord(contents.substr(0, split - 1), &open_body));
  ASSERT_TRUE(UnsealJsonRecord(
      contents.substr(split, contents.size() - split - 1), &grant_body));
  const auto recover_edited = [&](const std::string& open,
                                  const std::string& grant) {
    WriteFile(path, SealJsonRecord(open) + "\n" + SealJsonRecord(grant) + "\n");
    return LedgerJournal::Recover(path);
  };
  const auto edit = [](std::string body, const std::string& from,
                       const std::string& to) {
    const size_t at = body.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return body.replace(at, from.size(), to);
  };
  // Re-sealed but unedited, the journal recovers.
  ASSERT_TRUE(recover_edited(open_body, grant_body).ok());
  for (const char* seq : {"1.0", "1e0", "+1", "-1", "18446744073709551617"}) {
    const std::string grant =
        edit(grant_body, "\"seq\":1", std::string("\"seq\":") + seq);
    auto recovered = recover_edited(open_body, grant);
    ASSERT_FALSE(recovered.ok()) << "seq " << seq << " was accepted";
    EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  }
  for (const char* version :
       {"\"version\":7,", "\"version\":1.0,", "\"version\":+1,", ""}) {
    auto recovered = recover_edited(
        edit(open_body, "\"version\":1,", version), grant_body);
    ASSERT_FALSE(recovered.ok()) << "'" << version << "' was accepted";
    EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  }
  std::remove(path.c_str());
}

// A journal whose only line is a bad open record has no budget to recover,
// even when that line ends in a newline and holds an ε.
TEST(LedgerJournalTest, CorruptOpenRecordIsRefused) {
  const std::string path = TestPath("bad_open");
  WriteFile(path,
            "{\"type\":\"open\",\"version\":1,\"budget\":1,\"epsilon\":0.25,"
            "\"crc\":\"00000000\"}\n");
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_FALSE(recovered.ok()) << "recovered budget " << recovered->budget;
  EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, OpenForAppendRefusesTornTail) {
  const std::string path = TestPath("reopen_torn");
  {
    auto journal = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(journal.ok());
  }
  WriteFile(path, ReadFile(path) +
                      "{\"type\":\"grant\",\"seq\":1,\"epsilon\":0.25,\"la");
  auto journal = LedgerJournal::OpenForAppend(path);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, RewriteCompactedSealsTornLiability) {
  const std::string path = TestPath("compact");
  {
    auto journal = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->AppendGrant("kept", 0.25).ok());
  }
  WriteFile(path, ReadFile(path) +
                      "{\"type\":\"grant\",\"seq\":2,\"epsilon\":0.5,\"lab");
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered->torn_tail);
  auto journal = LedgerJournal::RewriteCompacted(path, *recovered);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_TRUE(journal->AppendGrant("after compaction", 0.1).ok());
  // The rewritten journal recovers cleanly: the torn liability is now an
  // ordinary CRC-valid grant, and appends continue after it.
  auto again = LedgerJournal::Recover(path);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->torn_tail);
  ASSERT_EQ(again->charges.size(), 3u);
  EXPECT_EQ(again->charges[0].label, "kept");
  EXPECT_EQ(again->charges[1].label, "torn grant (unconfirmed)");
  EXPECT_EQ(again->charges[1].epsilon, 0.5);
  EXPECT_EQ(again->charges[2].label, "after compaction");
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, EmptyAndMissingFilesAreRefused) {
  const std::string path = TestPath("empty");
  WriteFile(path, "");
  EXPECT_FALSE(LedgerJournal::Recover(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LedgerJournal::Recover(path).ok());
}

TEST(LedgerJournalTest, RecoveredOverspendRefusesFurtherCharges) {
  // A conservatively recovered journal may exceed its budget; Replay must
  // accept that (never under-report) while refusing new charges.
  LedgerJournal::Recovered recovered;
  recovered.budget = 1.0;
  recovered.charges.push_back(PrivacyCharge{"a", 0.8});
  recovered.charges.push_back(PrivacyCharge{"torn grant (unconfirmed)", 0.5});
  auto accountant = LedgerJournal::Replay(recovered);
  ASSERT_TRUE(accountant.ok()) << accountant.status().ToString();
  EXPECT_EQ(accountant->spent(), 1.3);
  EXPECT_FALSE(accountant->CanAfford(0.01));
  EXPECT_EQ(accountant->Charge("more", 0.01).code(),
            StatusCode::kPrivacyBudgetExceeded);
}

TEST(LedgerJournalTest, FailedAppendLeavesJournaledAccountantUnchanged) {
  const std::string path = TestPath("wal_fail");
  auto journal = LedgerJournal::Create(path, 1.0);
  ASSERT_TRUE(journal.ok());
  auto accountant = PrivacyAccountant::Create(1.0);
  ASSERT_TRUE(accountant.ok());
  accountant->AttachJournal(&*journal);
  ASSERT_TRUE(accountant->Charge("durable", 0.25).ok());

  // Arm the global injector: the next append fails before any byte lands.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("journal.append:fail@1").ok());
  const Status refused = accountant->Charge("lost", 0.25);
  FaultInjector::Global().Reset();
  EXPECT_EQ(refused.code(), StatusCode::kIoError);
  // Write-ahead discipline: the refused grant is visible nowhere.
  EXPECT_EQ(accountant->spent(), 0.25);
  ASSERT_EQ(accountant->ledger().size(), 1u);
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->charges.size(), 1u);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, FailedAppendPoisonsJournalAgainstGluedRecords) {
  const std::string path = TestPath("poison");
  auto journal = LedgerJournal::Create(path, 1.0);
  ASSERT_TRUE(journal.ok());
  auto accountant = PrivacyAccountant::Create(1.0);
  ASSERT_TRUE(accountant.ok());
  accountant->AttachJournal(&*journal);
  ASSERT_TRUE(accountant->Charge("durable", 0.25).ok());

  // Tear the next append mid-label: the file now ends in a torn record.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("journal.append:truncate@1=40").ok());
  EXPECT_EQ(accountant->Charge("torn", 0.5).code(), StatusCode::kIoError);
  FaultInjector::Global().Reset();

  // The journal poisons itself: appending again would glue a new record
  // onto the torn prefix, making one line that recovery reads as a single
  // torn record — silently dropping the later grant's epsilon. Both direct
  // appends and journaled charges must be refused.
  EXPECT_EQ(journal->AppendGrant("glued", 0.125).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(accountant->Charge("after poison", 0.125).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(accountant->spent(), 0.25);

  // The on-disk state stays a salvageable torn tail, counted conservatively.
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->torn_tail);
  ASSERT_EQ(recovered->charges.size(), 2u);
  EXPECT_EQ(recovered->charges[0].epsilon, 0.25);
  EXPECT_EQ(recovered->charges[1].epsilon, 0.5);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, RewriteCompactedCleansUpAndPreservesOnFailure) {
  const std::string path = TestPath("compact_fail");
  {
    auto journal = LedgerJournal::Create(path, 1.0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->AppendGrant("kept", 0.25).ok());
  }
  WriteFile(path, ReadFile(path) +
                      "{\"type\":\"grant\",\"seq\":2,\"epsilon\":0.5,\"lab");
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered->torn_tail);
  // Fail the rewrite's first grant append (hit 1 is the tmp open record).
  ASSERT_TRUE(
      FaultInjector::Global().Configure("journal.append:fail@2").ok());
  auto rewritten = LedgerJournal::RewriteCompacted(path, *recovered);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(rewritten.ok());
  // The half-written rewrite is unlinked, not leaked...
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  // ...and the original torn journal is untouched and still recoverable.
  auto again = LedgerJournal::Recover(path);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->torn_tail);
  ASSERT_EQ(again->charges.size(), 2u);
  std::remove(path.c_str());
}

TEST(LedgerJournalTest, TruncatedAppendLeavesRecoverableTornTail) {
  const std::string path = TestPath("wal_torn");
  auto journal = LedgerJournal::Create(path, 1.0);
  ASSERT_TRUE(journal.ok());
  // Keep enough bytes that ε (field order puts it before the label)
  // survives the tear: {"type":"grant","seq":1,"epsilon":0.25,"label":...
  ASSERT_TRUE(
      FaultInjector::Global().Configure("journal.append:truncate@1=40").ok());
  const Status torn = journal->AppendGrant("casualty", 0.25);
  FaultInjector::Global().Reset();
  EXPECT_EQ(torn.code(), StatusCode::kIoError);
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->torn_tail);
  EXPECT_EQ(recovered->torn_epsilon, 0.25);
  std::remove(path.c_str());
}

TEST(LedgerJournalDeathTest, SealJsonRecordRefusesAnEmptyBody) {
  EXPECT_DEATH(SealJsonRecord(""), "body.empty");
}

TEST(JournaledAccountantTest, CreateMakesParentsAndAttachesTheJournal) {
  const std::string dir = testing::TempDir() + "/ireduct_journaled_create";
  const std::string path = dir + "/tenants/a.journal";
  std::remove(path.c_str());
  auto ledger = CreateJournaledAccountant(path, 1.0);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  EXPECT_EQ(ledger->recovered_grants, 0u);
  ASSERT_TRUE(ledger->accountant->has_journal());
  ASSERT_TRUE(ledger->accountant->Charge("q", 0.25).ok());
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->budget, 1.0);
  ASSERT_EQ(recovered->charges.size(), 1u);
  EXPECT_EQ(recovered->charges[0].label, "q");

  // An existing journal is never truncated; the refusal names resume.
  auto again = CreateJournaledAccountant(path, 1.0);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(again.status().message().find("resume"), std::string::npos);
  ASSERT_EQ(LedgerJournal::Recover(path)->charges.size(), 1u);
  std::remove(path.c_str());
}

TEST(JournaledAccountantTest, ResumeContinuesACleanJournal) {
  const std::string path = TestPath("resume_clean");
  std::remove(path.c_str());
  {
    auto ledger = CreateJournaledAccountant(path, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->accountant->Charge("a", 0.25).ok());
    ASSERT_TRUE(ledger->accountant->Charge("b", 0.125).ok());
  }
  auto ledger = ResumeJournaledAccountant(path);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  EXPECT_EQ(ledger->recovered_grants, 2u);
  EXPECT_EQ(ledger->accountant->spent(), 0.375);
  EXPECT_EQ(ledger->journal->next_seq(), 3u);
  ASSERT_TRUE(ledger->accountant->Charge("c", 0.5).ok());
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->charges.size(), 3u);
  EXPECT_EQ(recovered->charges[2].label, "c");
  std::remove(path.c_str());
}

TEST(JournaledAccountantTest, ResumeCompactsATornTailAndCountsIt) {
  const std::string path = TestPath("resume_torn");
  std::remove(path.c_str());
  {
    auto ledger = CreateJournaledAccountant(path, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->accountant->Charge("kept", 0.25).ok());
  }
  WriteFile(path, ReadFile(path) +
                      "{\"type\":\"grant\",\"seq\":2,\"epsilon\":0.5,\"lab");
  auto ledger = ResumeJournaledAccountant(path);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  EXPECT_EQ(ledger->recovered_grants, 2u);
  EXPECT_EQ(ledger->accountant->spent(), 0.75);
  // The torn liability is now a complete record, and appends continue.
  ASSERT_TRUE(ledger->accountant->Charge("after", 0.125).ok());
  auto recovered = LedgerJournal::Recover(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->torn_tail);
  ASSERT_EQ(recovered->charges.size(), 3u);
  EXPECT_EQ(recovered->charges[1].epsilon, 0.5);
  EXPECT_EQ(recovered->charges[2].label, "after");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(JournaledAccountantTest, ResumeReadsTheJournalOnce) {
  // The lifecycle hands its recovery to the opener, so a resume parses the
  // journal once, clean or torn; a rewrite is not read back either.
  const obs::Counter& recoveries =
      obs::MetricsRegistry::Global().counter("journal.recoveries");
  const std::string path = TestPath("resume_once");
  for (const bool torn : {false, true}) {
    std::remove(path.c_str());
    {
      auto ledger = CreateJournaledAccountant(path, 1.0);
      ASSERT_TRUE(ledger.ok());
      ASSERT_TRUE(ledger->accountant->Charge("kept", 0.25).ok());
    }
    if (torn) {
      const std::string tail =
          "{\"type\":\"grant\",\"seq\":2,\"epsilon\":0.5,\"lab";
      WriteFile(path, ReadFile(path) + tail);
    }
    const uint64_t before = recoveries.value();
    auto ledger = ResumeJournaledAccountant(path);
    ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
    EXPECT_EQ(recoveries.value() - before, 1u) << "torn " << torn;
    EXPECT_EQ(ledger->journal->next_seq(), torn ? 3u : 2u);
    ASSERT_TRUE(ledger->accountant->Charge("after", 0.125).ok());
    auto recovered = LedgerJournal::Recover(path);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_FALSE(recovered->torn_tail);
    ASSERT_EQ(recovered->charges.size(), torn ? 3u : 2u);
    EXPECT_EQ(recovered->charges.back().label, "after");
  }
  std::remove(path.c_str());
}

TEST(JournaledAccountantTest, ResumeOfAMissingJournalIsAnIoError) {
  auto ledger = ResumeJournaledAccountant(TestPath("resume_missing"));
  ASSERT_FALSE(ledger.ok());
  EXPECT_EQ(ledger.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace ireduct

#include "dp/ledger_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/fault.h"
#include "common/hash.h"
#include "dp/privacy_accountant.h"

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

}  // namespace
}  // namespace ireduct

// Crash-safe write-ahead journal for the privacy ledger.
//
// A crashed run that loses its budget ledger is a correctness hazard, not
// an inconvenience: re-running a mechanism after a crash without the spent
// record silently double-spends ε, and the sequential-composition guarantee
// (paper Theorem 2; PINQ's central invariant) only holds if every grant is
// accounted exactly once. The journal makes the accountant durable:
//
//   * Append-only file of newline-terminated JSON records, each carrying a
//     CRC-32 of its own bytes. The first record fixes the budget; every
//     grant is appended — and fsync'd — *before* the in-memory accountant
//     admits it, so no state that could lead to a release exists anywhere
//     without a durable record of its cost (write-ahead discipline).
//   * Recovery replays a journal into a PrivacyAccountant. It is strict
//     about real corruption — a bad record with more data after it refuses
//     the session — and conservative about crash artifacts: a torn final
//     record (the signature a mid-append crash leaves) counts as spent,
//     provided its ε survived intact; an ε that cannot be confirmed
//     complete also refuses the session, because resuming with an unknown
//     liability could under-report.
//
// Record layout (field order matters: ε precedes the variable-length label
// so torn tails usually keep it recoverable):
//   {"type":"open","version":1,"budget":B,"crc":"xxxxxxxx"}
//   {"type":"grant","seq":N,"epsilon":E,"label":"...","crc":"xxxxxxxx"}
// The CRC covers the record with the `,"crc":"..."` member removed.
#ifndef IREDUCT_DP_LEDGER_JOURNAL_H_
#define IREDUCT_DP_LEDGER_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dp/privacy_accountant.h"

namespace ireduct {

struct JournaledAccountant;

/// Append-side handle to a ledger journal file.
class LedgerJournal {
 public:
  /// Creates (truncating any existing file) a fresh journal for a session
  /// with the given ε budget, and makes the open record durable.
  static Result<LedgerJournal> Create(const std::string& path, double budget);

  /// Opens an existing journal for appending. The journal is recovered
  /// first — corrupt journals are refused with the same strictness as
  /// Recover() — and appends continue the sequence number. A torn tail is
  /// refused here: appending after a torn record would turn a crash
  /// artifact into mid-journal corruption; recover and create a fresh
  /// journal instead (RewriteCompacted).
  static Result<LedgerJournal> OpenForAppend(const std::string& path);

  /// Appends one grant record and fsyncs it. Returns only once the record
  /// is durable; any error means the grant MUST NOT be admitted. A failed
  /// append also poisons the journal — the file may hold a torn record,
  /// and gluing another record onto that prefix would turn a salvageable
  /// torn tail into one line recovery mis-reads (dropping the later
  /// grant's ε). Every subsequent append is therefore refused with
  /// kFailedPrecondition until the file is recovered and compacted
  /// (Recover + RewriteCompacted).
  Status AppendGrant(std::string_view label, double epsilon);

  /// What a journal replays to.
  struct Recovered {
    double budget = 0;
    /// Complete grants, in admission order.
    std::vector<PrivacyCharge> charges;
    /// True when a torn final record was found and conservatively counted.
    bool torn_tail = false;
    /// The torn record's ε (already appended to `charges` under the label
    /// "torn grant (unconfirmed)").
    double torn_epsilon = 0;
  };

  /// Reads and validates `path`. Refuses (kIoError) on: unreadable file,
  /// torn/invalid open record or an open record whose version is not 1,
  /// any bad record that is not the final one, a `seq` that is not exactly
  /// the next integer, or a torn tail whose ε cannot be confirmed complete.
  static Result<Recovered> Recover(const std::string& path);

  /// Builds an accountant holding the recovered budget with every
  /// recovered charge (torn tail included) already spent. The recovered
  /// spend may exceed the budget — conservative recovery never
  /// under-reports — in which case every further charge is refused.
  static Result<PrivacyAccountant> Replay(const Recovered& recovered);

  /// Writes a fresh journal at `path` (atomically, via rename) holding the
  /// recovered state as its initial records. This is how a session resumes
  /// after a torn tail: the torn liability becomes a complete, CRC-valid
  /// grant record in the new journal.
  static Result<LedgerJournal> RewriteCompacted(const std::string& path,
                                                const Recovered& recovered);

  const std::string& path() const { return path_; }
  /// Sequence number the next grant record will carry.
  uint64_t next_seq() const { return next_seq_; }

  ~LedgerJournal();
  LedgerJournal(LedgerJournal&& other) noexcept;
  LedgerJournal& operator=(LedgerJournal&& other) noexcept;
  LedgerJournal(const LedgerJournal&) = delete;
  LedgerJournal& operator=(const LedgerJournal&) = delete;

 private:
  LedgerJournal(std::string path, int fd, uint64_t next_seq)
      : path_(std::move(path)), fd_(fd), next_seq_(next_seq) {}

  // Opens `path` for appending after its `recovered` state, which must end
  // in no torn tail: the appends continue its sequence. Saves the callers
  // that already hold the recovery a second read of the journal.
  static Result<LedgerJournal> OpenRecovered(const std::string& path,
                                             const Recovered& recovered);
  friend Result<JournaledAccountant> ResumeJournaledAccountant(
      const std::string& path);

  // Writes `record` (with trailing newline) and fsyncs. Fault point
  // "journal.append": kFail writes nothing; kTruncate persists a prefix —
  // a torn record — and reports failure. Any failure closes the fd and
  // sets poisoned_, enforcing the no-append-after-failure contract.
  Status AppendDurable(const std::string& record);

  std::string path_;
  int fd_ = -1;
  uint64_t next_seq_ = 1;
  // Sticky: set on the first failed append; refuses all later appends.
  bool poisoned_ = false;
};

/// An accountant whose every charge is journaled before it is admitted.
struct JournaledAccountant {
  std::unique_ptr<LedgerJournal> journal;
  /// Already attached to `journal`.
  std::unique_ptr<PrivacyAccountant> accountant;
  /// Grants the journal held when it was opened, a torn tail included; 0
  /// for a new journal.
  size_t recovered_grants = 0;
};

/// Starts a new journaled ledger with the given budget at `path`, making
/// its missing parent directories. Refuses (kFailedPrecondition) when a
/// file exists there: truncating a crashed ledger would double-spend its
/// ε, so it must be resumed or deleted explicitly.
Result<JournaledAccountant> CreateJournaledAccountant(const std::string& path,
                                                      double budget);

/// Reopens the journal at `path` after a crash or a clean stop: Recover,
/// Replay, then RewriteCompacted when it ends in a torn grant (counted as
/// spent) and OpenForAppend otherwise. The query server's sessions and
/// `ireduct_tool marginals --journal/--resume` open and resume through this
/// pair, so they share one lifecycle.
Result<JournaledAccountant> ResumeJournaledAccountant(const std::string& path);

/// Seals a complete JSON object into a self-checking record by splicing a
/// `"crc"` member (the CRC-32 of `body`) in as its final member. Shared by
/// journal records and checkpoint files. `body` must not be empty.
std::string SealJsonRecord(const std::string& body);

/// Reverses SealJsonRecord: verifies the CRC and returns the body without
/// the crc member. False when the member is missing, malformed, or wrong.
bool UnsealJsonRecord(std::string_view record, std::string* body);

}  // namespace ireduct

#endif  // IREDUCT_DP_LEDGER_JOURNAL_H_

// Durable checkpoint/resume for the iterative mechanisms.
//
// A long iReduct/iResamp run that dies mid-refinement loses work and — far
// worse — leaves the privacy ledger unable to say how much ε the partial
// run consumed. Checkpoints make runs resumable without weakening the
// guarantee:
//
//  * A RunCheckpoint carries the complete loop state — noisy answers,
//    per-group scales, the active mask, the RNG engine words and the
//    incremental-GS running totals (including the Kahan carry) — so a
//    resumed run continues *bit-identically* to the interrupted one. The
//    resumed process therefore releases exactly the values the uninterrupted
//    process would have released, and re-execution costs no additional ε
//    (the paper's composition argument charges the released values, not the
//    CPU time spent computing them).
//  * Journal-first ordering (JournalingCheckpointSink): at each boundary the
//    ε growth since the previous boundary is charged to the accountant —
//    and hence made durable in the write-ahead ledger journal — *before*
//    the checkpoint file becomes visible. A crash between the two leaves
//    the journal ahead of the checkpoint; on resume the restored
//    accountant's spend already covers the re-executed boundary, its delta
//    is ≤ 0, and nothing is double-charged. Recovered ε_spent can only ever
//    be an over-estimate, never an under-estimate.
//
// Checkpoint files are single sealed JSON records (see
// dp/ledger_journal.h's SealJsonRecord) written with common/file.h's
// WriteFileDurably (tmp + fsync + rename + directory fsync), so a crash
// mid-write never corrupts the previous checkpoint. The journal beside
// them opens and resumes through CreateJournaledAccountant and
// ResumeJournaledAccountant (dp/ledger_journal.h), the one lifecycle that
// the query server and `ireduct_tool marginals --journal/--resume` share.
#ifndef IREDUCT_DP_CHECKPOINT_H_
#define IREDUCT_DP_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dp/incremental_sensitivity.h"
#include "dp/privacy_accountant.h"
#include "dp/workload.h"

namespace ireduct {

/// Complete state of an interrupted refinement loop at a round boundary.
struct RunCheckpoint {
  static constexpr uint64_t kVersion = 1;

  /// Which loop wrote this ("ireduct" or "iresamp"); a resume refuses a
  /// checkpoint from the other algorithm.
  std::string algorithm;
  /// Structural fingerprint of the workload (FingerprintWorkload); a resume
  /// against a different workload is refused rather than silently wrong.
  uint64_t workload_fingerprint = 0;
  /// Refinement rounds completed when this checkpoint was taken.
  uint64_t round = 0;
  uint64_t iterations = 0;
  uint64_t resample_calls = 0;
  /// Exact GS(group_scales) at this boundary — what the privacy ledger is
  /// charged up to (see JournalingCheckpointSink).
  double epsilon_spent = 0;
  /// xoshiro256++ engine words (BitGen::SaveState) captured *after* the
  /// round's draws, so the resumed stream continues where this one stopped.
  std::array<uint64_t, 4> rng_state{};
  /// Incremental-GS running totals (value, Kahan carry, resync phase).
  IncrementalSensitivity::Snapshot gs;

  std::vector<double> answers;
  /// Per-group scales; for iResamp these are the *effective* scales that
  /// govern privacy.
  std::vector<double> group_scales;
  std::vector<uint8_t> active;

  // iResamp only (empty for iReduct): raw sample scales and the
  // inverse-variance accumulators of Equation 16.
  std::vector<double> nominal_scales;
  std::vector<double> weighted_sum;
  std::vector<double> weight;
};

/// FNV-1a fingerprint of the workload's *structure*: query/group counts,
/// group boundaries, names and sensitivity coefficients, and whether GS is
/// custom. Deliberately excludes the true answers — a checkpoint file must
/// not embed a digest of the private data.
uint64_t FingerprintWorkload(const Workload& workload);

/// Checks that `checkpoint` can resume a run of `algorithm` (either
/// "ireduct" or "iresamp") over `workload`: the recorded algorithm and
/// workload fingerprint must match and every state vector must have the
/// workload's dimensions. kInvalidArgument otherwise.
Status ValidateResume(const RunCheckpoint& checkpoint,
                      std::string_view algorithm, const Workload& workload);

/// Renders a checkpoint as one sealed JSON record (deterministic field
/// order, shortest-round-trip doubles, CRC-32 trailer), so equal states
/// serialize to identical bytes.
std::string SerializeCheckpoint(const RunCheckpoint& checkpoint);

/// Reverses SerializeCheckpoint. Refuses (kIoError) records whose CRC does
/// not verify, whose version is unknown, or whose shape is malformed.
Result<RunCheckpoint> ParseCheckpoint(std::string_view text);

/// Where the refinement loops deliver their periodic checkpoints.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  /// Makes `checkpoint` durable. An error aborts the run — continuing past
  /// a failed checkpoint would silently lose crash safety.
  virtual Status Write(const RunCheckpoint& checkpoint) = 0;
};

/// Atomic single-file sink (WriteFileDurably). A crash mid-write leaves
/// the previous checkpoint intact. Fault point "checkpoint.write": kFail
/// writes nothing; kTruncate renames a truncated record into place (a
/// corrupt checkpoint, which Load refuses).
class FileCheckpointSink : public CheckpointSink {
 public:
  explicit FileCheckpointSink(std::string path) : path_(std::move(path)) {}

  Status Write(const RunCheckpoint& checkpoint) override;

  /// Reads and validates the checkpoint at `path`.
  static Result<RunCheckpoint> Load(const std::string& path);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Composes ledger-before-checkpoint ordering: charges the accountant for
/// the growth `checkpoint.epsilon_spent - accountant->spent()` (skipped
/// when ≤ 0, i.e. on a re-executed boundary after resume) and only then
/// forwards to the inner sink. With a journal attached to the accountant
/// the charge is durable before the checkpoint is, which is the invariant
/// the recovery story rests on.
class JournalingCheckpointSink : public CheckpointSink {
 public:
  /// Both pointers are borrowed and must outlive the sink.
  JournalingCheckpointSink(PrivacyAccountant* accountant,
                           CheckpointSink* inner)
      : accountant_(accountant), inner_(inner) {}

  Status Write(const RunCheckpoint& checkpoint) override;

 private:
  PrivacyAccountant* accountant_;
  CheckpointSink* inner_;
};

/// Periodic-checkpoint configuration carried in mechanism params. Inactive
/// (the default) unless both a sink and a positive cadence are set.
struct CheckpointOptions {
  /// Borrowed; must outlive the run. nullptr disables checkpointing.
  CheckpointSink* sink = nullptr;
  /// Checkpoint every this many completed rounds; 0 disables.
  uint64_t every = 0;

  bool enabled() const { return sink != nullptr && every > 0; }
};

}  // namespace ireduct

#endif  // IREDUCT_DP_CHECKPOINT_H_

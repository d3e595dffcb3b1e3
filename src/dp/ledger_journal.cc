#include "dp/ledger_journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/fault.h"
#include "common/file.h"
#include "common/hash.h"
#include "common/logging.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

constexpr std::string_view kCrcMember = ",\"crc\":\"";
constexpr uint64_t kJournalVersion = 1;
constexpr std::string_view kTornLabel = "torn grant (unconfirmed)";

std::string OpenRecordBody(double budget) {
  std::string body;
  obs::JsonWriter json(&body);
  json.BeginObject();
  json.KV("type", "open");
  json.KV("version", kJournalVersion);
  json.KV("budget", budget);
  json.EndObject();
  return body;
}

std::string GrantRecordBody(uint64_t seq, double epsilon,
                            std::string_view label) {
  std::string body;
  obs::JsonWriter json(&body);
  json.BeginObject();
  json.KV("type", "grant");
  json.KV("seq", seq);
  json.KV("epsilon", epsilon);
  json.KV("label", label);
  json.EndObject();
  return body;
}

// Reads the unsealed record `body` found at line `index` into
// `recovered`: the open record when `index` is 0, otherwise grant number
// `index`. Refusals are kInvalidArgument; Recover reports them as kIoError.
Status ReadRecord(std::string_view body, size_t index,
                  LedgerJournal::Recovered* recovered) {
  IREDUCT_ASSIGN_OR_RETURN(const obs::JsonValue doc, obs::JsonParse(body));
  IREDUCT_ASSIGN_OR_RETURN(const std::string type, doc.GetString("type"));
  if (index == 0) {
    if (type != "open") return Status::InvalidArgument("not an open record");
    IREDUCT_ASSIGN_OR_RETURN(const uint64_t version,
                             doc.GetUnsigned("version"));
    if (version != kJournalVersion) {
      return Status::InvalidArgument("unsupported version " +
                                     std::to_string(version));
    }
    IREDUCT_ASSIGN_OR_RETURN(recovered->budget, doc.GetDouble("budget"));
    if (!(recovered->budget > 0) || !std::isfinite(recovered->budget)) {
      return Status::InvalidArgument("invalid budget");
    }
    return Status::OK();
  }
  if (type != "grant") {
    return Status::InvalidArgument("unknown type '" + type + "'");
  }
  IREDUCT_ASSIGN_OR_RETURN(const uint64_t seq, doc.GetUnsigned("seq"));
  if (seq != index) return Status::InvalidArgument("out of sequence");
  IREDUCT_ASSIGN_OR_RETURN(const double epsilon, doc.GetDouble("epsilon"));
  if (!(epsilon > 0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("invalid epsilon");
  }
  IREDUCT_ASSIGN_OR_RETURN(std::string label, doc.GetString("label"));
  recovered->charges.push_back(PrivacyCharge{std::move(label), epsilon});
  return Status::OK();
}

// Salvages the ε of a torn grant record. Conservative: the number must be
// followed by a non-numeric byte within the preserved prefix, otherwise the
// value itself may be truncated (0.12 of 0.125) and counting it would
// under-report. Returns false when ε cannot be confirmed complete.
bool SalvageTornEpsilon(std::string_view partial, double* epsilon) {
  constexpr std::string_view kKey = "\"epsilon\":";
  const size_t at = partial.find(kKey);
  if (at == std::string_view::npos) return false;
  const std::string token(partial.substr(at + kKey.size()));
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str()) return false;
  if (static_cast<size_t>(end - token.c_str()) >= token.size()) {
    return false;  // the number runs to the tear; it may be cut short
  }
  if (!(value > 0) || !std::isfinite(value)) return false;
  *epsilon = value;
  return true;
}

// The accountant that `journal` already records, attached to it. Both
// live on the heap, so the attachment survives moves of the holder.
JournaledAccountant Attach(LedgerJournal journal, PrivacyAccountant accountant,
                           size_t recovered_grants) {
  JournaledAccountant out;
  out.journal = std::make_unique<LedgerJournal>(std::move(journal));
  out.accountant = std::make_unique<PrivacyAccountant>(std::move(accountant));
  out.accountant->AttachJournal(out.journal.get());
  out.recovered_grants = recovered_grants;
  return out;
}

}  // namespace

std::string SealJsonRecord(const std::string& body) {
  IREDUCT_CHECK(!body.empty());
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", Crc32(body));
  std::string record(body.begin(), body.end() - 1);  // drop closing '}'
  record += kCrcMember;
  record += hex;
  record += "\"}";
  return record;
}

bool UnsealJsonRecord(std::string_view record, std::string* body) {
  const size_t at = record.rfind(kCrcMember);
  // ...,"crc":"xxxxxxxx"}
  if (at == std::string_view::npos ||
      record.size() != at + kCrcMember.size() + 10 ||
      record.back() != '}' || record[record.size() - 2] != '"') {
    return false;
  }
  const std::string_view hex = record.substr(at + kCrcMember.size(), 8);
  uint32_t stored = 0;
  for (const char c : hex) {
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    stored = stored << 4 | digit;
  }
  body->assign(record.substr(0, at));
  body->push_back('}');
  return Crc32(*body) == stored;
}

Result<LedgerJournal> LedgerJournal::Create(const std::string& path,
                                            double budget) {
  if (!(budget > 0) || !std::isfinite(budget)) {
    return Status::InvalidArgument(
        "journal budget must be positive finite");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return ErrnoError("creating journal", path);
  }
  LedgerJournal journal(path, fd, 1);
  IREDUCT_RETURN_NOT_OK(
      journal.AppendDurable(SealJsonRecord(OpenRecordBody(budget))));
  return journal;
}

Result<LedgerJournal> LedgerJournal::OpenForAppend(const std::string& path) {
  IREDUCT_ASSIGN_OR_RETURN(const Recovered recovered, Recover(path));
  if (recovered.torn_tail) {
    return Status::IoError(
        "journal '" + path +
        "' ends in a torn record; rewrite it (RewriteCompacted) before "
        "appending");
  }
  return OpenRecovered(path, recovered);
}

Result<LedgerJournal> LedgerJournal::OpenRecovered(const std::string& path,
                                                   const Recovered& recovered) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return ErrnoError("opening journal", path);
  }
  return LedgerJournal(path, fd,
                       static_cast<uint64_t>(recovered.charges.size()) + 1);
}

LedgerJournal::~LedgerJournal() {
  if (fd_ >= 0) ::close(fd_);
}

LedgerJournal::LedgerJournal(LedgerJournal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      next_seq_(other.next_seq_),
      poisoned_(other.poisoned_) {
  other.fd_ = -1;
}

LedgerJournal& LedgerJournal::operator=(LedgerJournal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    next_seq_ = other.next_seq_;
    poisoned_ = other.poisoned_;
    other.fd_ = -1;
  }
  return *this;
}

Status LedgerJournal::AppendDurable(const std::string& record) {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "journal '" + path_ +
        "' had a failed append and may hold a torn record; recover and "
        "compact it (Recover + RewriteCompacted) before appending again");
  }
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal '" + path_ + "' is closed");
  }
  // Any failure poisons the journal: the file may now end in a torn
  // prefix, and a later append would glue its record onto that prefix —
  // one line that recovery would mis-read as a single torn record,
  // silently dropping the later grant's ε.
  auto poison = [this](Status status) {
    poisoned_ = true;
    ::close(fd_);
    fd_ = -1;
    return status;
  };
  std::string line = record;
  line.push_back('\n');
  const FaultDecision fault = FaultInjector::Global().Hit("journal.append");
  if (fault.action == FaultAction::kFail) {
    return poison(Status::IoError("injected fault: journal append failed"));
  }
  if (fault.action == FaultAction::kTruncate) {
    // A crash mid-write: some prefix of the record reaches the disk, the
    // rest never does. Persist the prefix so recovery sees the torn state,
    // then report the failure the process would never have observed.
    const size_t keep =
        std::min<size_t>(fault.truncate_bytes, line.size());
    if (Status s = WriteAll(fd_, line.substr(0, keep), path_); !s.ok()) {
      return poison(std::move(s));
    }
    ::fsync(fd_);
    return poison(Status::IoError("injected fault: journal append torn after " +
                                  std::to_string(keep) + " bytes"));
  }
  const auto write_start = std::chrono::steady_clock::now();
  if (Status s = WriteAll(fd_, line, path_); !s.ok()) {
    return poison(std::move(s));
  }
  const auto fsync_start = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) {
    return poison(ErrnoError("fsyncing journal", path_));
  }
  const auto done = std::chrono::steady_clock::now();
  IREDUCT_METRIC_COUNT("journal.appends", 1);
  IREDUCT_METRIC_OBSERVE(
      "journal.append_seconds",
      std::chrono::duration<double>(done - write_start).count());
  IREDUCT_METRIC_OBSERVE(
      "journal.fsync_seconds",
      std::chrono::duration<double>(done - fsync_start).count());
  IREDUCT_METRIC_OBSERVE_BUCKETS("journal.append_bytes",
                                 static_cast<double>(line.size()),
                                 obs::ByteBucketBounds());
  return Status::OK();
}

Status LedgerJournal::AppendGrant(std::string_view label, double epsilon) {
  if (!(epsilon > 0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "journal grant epsilon must be positive finite");
  }
  IREDUCT_RETURN_NOT_OK(
      AppendDurable(SealJsonRecord(GrantRecordBody(next_seq_, epsilon, label))));
  if (obs::EventLog* events = obs::EventLog::Get()) {
    events->Emit("journal.append", {{"grant_seq", next_seq_},
                                    {"label", label},
                                    {"epsilon", epsilon}});
  }
  ++next_seq_;
  return Status::OK();
}

Result<LedgerJournal::Recovered> LedgerJournal::Recover(
    const std::string& path) {
  IREDUCT_ASSIGN_OR_RETURN(const std::string contents, ReadFile(path));
  if (contents.empty()) {
    return Status::IoError("journal '" + path + "' is empty");
  }

  // Split into lines; an unterminated final segment is a torn candidate.
  std::vector<std::string_view> lines;
  std::string_view tail;
  {
    std::string_view rest = contents;
    while (!rest.empty()) {
      const size_t nl = rest.find('\n');
      if (nl == std::string_view::npos) {
        tail = rest;
        break;
      }
      lines.push_back(rest.substr(0, nl));
      rest = rest.substr(nl + 1);
    }
  }

  Recovered recovered;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string body;
    if (!UnsealJsonRecord(lines[i], &body)) {
      // A bad record with data after it is corruption, not a crash
      // artifact: refuse. A bad *final* line is handled as a torn tail
      // below (a crash can tear a record that happens to contain a
      // newline-looking byte only before the CRC seal completes).
      if (i + 1 != lines.size() || !tail.empty()) {
        return Status::IoError("journal '" + path + "' record " +
                               std::to_string(i) +
                               " fails its CRC with records after it; "
                               "refusing corrupt journal");
      }
      tail = lines[i];
      lines.pop_back();  // the bad final line is the torn tail
      break;
    }
    if (Status read = ReadRecord(body, i, &recovered); !read.ok()) {
      return Status::IoError("journal '" + path + "' record " +
                             std::to_string(i) + ": " + read.message());
    }
  }

  if (!tail.empty()) {
    if (lines.empty()) {
      return Status::IoError("journal '" + path +
                             "' has a torn open record; no budget is "
                             "recoverable");
    }
    // Crash mid-append. Conservative: the grant may or may not have
    // reached the accountant before the crash, so count it as spent —
    // but only if its ε provably survived the tear in full.
    double epsilon = 0;
    if (!SalvageTornEpsilon(tail, &epsilon)) {
      return Status::IoError(
          "journal '" + path +
          "' ends in a torn record whose epsilon cannot be confirmed; "
          "refusing to resume with an unknown liability");
    }
    recovered.torn_tail = true;
    recovered.torn_epsilon = epsilon;
    recovered.charges.push_back(
        PrivacyCharge{std::string(kTornLabel), epsilon});
    IREDUCT_LOG(kWarn) << "journal '" << path
                       << "' recovered with a torn tail; counting epsilon "
                       << epsilon << " as spent";
  }
  IREDUCT_METRIC_COUNT("journal.recoveries", 1);
  return recovered;
}

Result<PrivacyAccountant> LedgerJournal::Replay(const Recovered& recovered) {
  return PrivacyAccountant::Restore(recovered.budget, recovered.charges);
}

Result<LedgerJournal> LedgerJournal::RewriteCompacted(
    const std::string& path, const Recovered& recovered) {
  const std::string tmp = path + ".tmp";
  Status written = Status::OK();
  {
    auto journal = Create(tmp, recovered.budget);
    if (!journal.ok()) {
      written = journal.status();
    } else {
      for (const PrivacyCharge& charge : recovered.charges) {
        written = journal->AppendGrant(charge.label, charge.epsilon);
        if (!written.ok()) break;
      }
    }
  }
  if (!written.ok()) {
    ::unlink(tmp.c_str());  // don't leak a half-written rewrite
    return written;
  }
  // Durable rename: a crash must not resurrect the pre-compaction torn
  // journal after the caller was told its liability is sealed.
  IREDUCT_RETURN_NOT_OK(RenameDurably(tmp, path));
  // The rewrite holds `recovered` with its torn tail sealed as a complete
  // grant, so its next sequence number is the same.
  return OpenRecovered(path, recovered);
}

Result<JournaledAccountant> CreateJournaledAccountant(const std::string& path,
                                                      double budget) {
  if (struct stat st; ::stat(path.c_str(), &st) == 0) {
    return Status::FailedPrecondition(
        "journal '" + path +
        "' already exists; resume it to continue that ledger, or delete "
        "the file to explicitly discard it");
  }
  IREDUCT_RETURN_NOT_OK(MakeParentDirs(path));
  IREDUCT_ASSIGN_OR_RETURN(PrivacyAccountant accountant,
                           PrivacyAccountant::Create(budget));
  IREDUCT_ASSIGN_OR_RETURN(LedgerJournal journal,
                           LedgerJournal::Create(path, budget));
  return Attach(std::move(journal), std::move(accountant), 0);
}

Result<JournaledAccountant> ResumeJournaledAccountant(const std::string& path) {
  IREDUCT_ASSIGN_OR_RETURN(const LedgerJournal::Recovered recovered,
                           LedgerJournal::Recover(path));
  IREDUCT_ASSIGN_OR_RETURN(PrivacyAccountant accountant,
                           LedgerJournal::Replay(recovered));
  // Nothing may be appended after a torn tail; compaction rewrites the
  // recovered state, torn liability included, as a CRC-valid journal.
  IREDUCT_ASSIGN_OR_RETURN(
      LedgerJournal journal,
      recovered.torn_tail
          ? LedgerJournal::RewriteCompacted(path, recovered)
          : LedgerJournal::OpenRecovered(path, recovered));
  return Attach(std::move(journal), std::move(accountant),
                recovered.charges.size());
}

}  // namespace ireduct

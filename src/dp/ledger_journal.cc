#include "dp/ledger_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/hash.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

constexpr std::string_view kCrcMember = ",\"crc\":\"";
constexpr std::string_view kTornLabel = "torn grant (unconfirmed)";

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

std::string OpenRecordBody(double budget) {
  std::string body;
  obs::JsonWriter json(&body);
  json.BeginObject();
  json.KV("type", "open");
  json.KV("version", uint64_t{1});
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

Result<double> ParseDoubleField(const obs::JsonValue& doc,
                                std::string_view key) {
  const obs::JsonValue* field = doc.Find(key);
  if (field == nullptr || !field->is(obs::JsonValue::Kind::kNumber)) {
    return Status::IoError("journal record is missing numeric '" +
                           std::string(key) + "'");
  }
  // Parse the raw token so the writer's shortest-round-trip rendering
  // restores the exact double.
  char* end = nullptr;
  const double value = std::strtod(field->text.c_str(), &end);
  if (end != field->text.c_str() + field->text.size()) {
    return Status::IoError("journal record has malformed '" +
                           std::string(key) + "'");
  }
  return value;
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

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("writing journal", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("opening directory", dir));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError(ErrnoMessage("fsyncing directory", dir));
  }
  return Status::OK();
}

std::string SealJsonRecord(const std::string& body) {
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
    return Status::IoError(ErrnoMessage("creating journal", path));
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
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("opening journal", path));
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
    return poison(Status::IoError(ErrnoMessage("fsyncing journal", path_)));
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
  std::string contents;
  {
    FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Status::IoError(ErrnoMessage("reading journal", path));
    }
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
      contents.append(buf, n);
    }
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error) {
      return Status::IoError(ErrnoMessage("reading journal", path));
    }
  }
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
  uint64_t expected_seq = 1;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string body;
    const bool valid = UnsealJsonRecord(lines[i], &body);
    obs::JsonValue doc;
    if (valid) {
      auto parsed = obs::JsonParse(body);
      if (!parsed.ok()) {
        return Status::IoError("journal '" + path + "' record " +
                               std::to_string(i) + " is unparseable: " +
                               parsed.status().message());
      }
      doc = std::move(*parsed);
    }
    if (!valid) {
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
      break;
    }
    const obs::JsonValue* type = doc.Find("type");
    if (type == nullptr || !type->is(obs::JsonValue::Kind::kString)) {
      return Status::IoError("journal '" + path + "' record " +
                             std::to_string(i) + " has no type");
    }
    if (i == 0) {
      if (type->text != "open") {
        return Status::IoError("journal '" + path +
                               "' does not start with an open record");
      }
      IREDUCT_ASSIGN_OR_RETURN(recovered.budget,
                               ParseDoubleField(doc, "budget"));
      if (!(recovered.budget > 0) || !std::isfinite(recovered.budget)) {
        return Status::IoError("journal '" + path +
                               "' open record has an invalid budget");
      }
      continue;
    }
    if (type->text != "grant") {
      return Status::IoError("journal '" + path + "' record " +
                             std::to_string(i) + " has unknown type '" +
                             type->text + "'");
    }
    IREDUCT_ASSIGN_OR_RETURN(const double seq, ParseDoubleField(doc, "seq"));
    if (seq != static_cast<double>(expected_seq)) {
      return Status::IoError("journal '" + path + "' record " +
                             std::to_string(i) +
                             " is out of sequence; refusing corrupt journal");
    }
    ++expected_seq;
    IREDUCT_ASSIGN_OR_RETURN(const double epsilon,
                             ParseDoubleField(doc, "epsilon"));
    if (!(epsilon > 0) || !std::isfinite(epsilon)) {
      return Status::IoError("journal '" + path + "' record " +
                             std::to_string(i) + " has an invalid epsilon");
    }
    const obs::JsonValue* label = doc.Find("label");
    if (label == nullptr || !label->is(obs::JsonValue::Kind::kString)) {
      return Status::IoError("journal '" + path + "' record " +
                             std::to_string(i) + " has no label");
    }
    recovered.charges.push_back(PrivacyCharge{label->text, epsilon});
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
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status renamed = Status::IoError(ErrnoMessage("renaming journal", path));
    ::unlink(tmp.c_str());
    return renamed;
  }
  // Make the rename itself durable: without the directory fsync a crash
  // here could resurrect the pre-compaction torn journal after the caller
  // was told its liability is sealed.
  IREDUCT_RETURN_NOT_OK(SyncParentDir(path));
  return OpenForAppend(path);
}

}  // namespace ireduct

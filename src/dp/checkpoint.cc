#include "dp/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/hash.h"
#include "common/numeric.h"
#include "dp/ledger_journal.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

// Every integer in a checkpoint: the raw token must be plain decimal
// digits for a value in [0, max]. A sign, fraction or exponent is refused,
// never wrapped, rounded or clamped.
Result<uint64_t> TokenToU64(const obs::JsonValue& field, std::string_view key,
                            uint64_t max = UINT64_MAX) {
  uint64_t value = 0;
  if (!field.is(obs::JsonValue::Kind::kNumber) ||
      !ParseExact(field.text, &value) || value > max) {
    return Status::IoError("checkpoint has malformed integer in '" +
                           std::string(key) + "'");
  }
  return value;
}

Result<uint64_t> ParseU64Field(const obs::JsonValue& doc,
                               std::string_view key) {
  const obs::JsonValue* field = doc.Find(key);
  if (field == nullptr) {
    return Status::IoError("checkpoint is missing '" + std::string(key) +
                           "'");
  }
  return TokenToU64(*field, key);
}

// Exact double recovery: the writer renders shortest round-trip, so
// strtod on the raw token restores the bit pattern.
Result<double> TokenToDouble(const obs::JsonValue& field,
                             std::string_view key) {
  if (!field.is(obs::JsonValue::Kind::kNumber)) {
    return Status::IoError("checkpoint field '" + std::string(key) +
                           "' is not a number");
  }
  char* end = nullptr;
  const double value = std::strtod(field.text.c_str(), &end);
  if (end != field.text.c_str() + field.text.size()) {
    return Status::IoError("checkpoint has malformed number in '" +
                           std::string(key) + "'");
  }
  return value;
}

Result<double> ParseDoubleField(const obs::JsonValue& doc,
                                std::string_view key) {
  const obs::JsonValue* field = doc.Find(key);
  if (field == nullptr) {
    return Status::IoError("checkpoint is missing '" + std::string(key) +
                           "'");
  }
  return TokenToDouble(*field, key);
}

Result<std::vector<double>> ParseDoubleArray(const obs::JsonValue& doc,
                                             std::string_view key) {
  const obs::JsonValue* field = doc.Find(key);
  if (field == nullptr || !field->is(obs::JsonValue::Kind::kArray)) {
    return Status::IoError("checkpoint is missing array '" +
                           std::string(key) + "'");
  }
  std::vector<double> out;
  out.reserve(field->array.size());
  for (const obs::JsonValue& element : field->array) {
    IREDUCT_ASSIGN_OR_RETURN(const double value,
                             TokenToDouble(element, key));
    out.push_back(value);
  }
  return out;
}

void WriteDoubleArray(obs::JsonWriter* json, std::string_view key,
                      const std::vector<double>& values) {
  json->Key(key);
  json->BeginArray();
  for (const double v : values) json->Double(v);
  json->EndArray();
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("writing checkpoint", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

uint64_t FingerprintWorkload(const Workload& workload) {
  uint64_t h = kFnv1a64Basis;
  h = Fnv1a64Int(h, workload.num_queries());
  h = Fnv1a64Int(h, workload.num_groups());
  h = Fnv1a64Int(h, workload.has_custom_sensitivity() ? 1 : 0);
  for (const QueryGroup& group : workload.groups()) {
    h = Fnv1a64Int(h, group.begin);
    h = Fnv1a64Int(h, group.end);
    h = Fnv1a64Int(h, std::bit_cast<uint64_t>(group.sensitivity_coeff));
    h = Fnv1a64Int(h, group.name.size());
    h = Fnv1a64(h, group.name.data(), group.name.size());
  }
  return h;
}

Status ValidateResume(const RunCheckpoint& checkpoint,
                      std::string_view algorithm,
                      const Workload& workload) {
  if (checkpoint.algorithm != algorithm) {
    return Status::InvalidArgument(
        "checkpoint was written by '" + checkpoint.algorithm +
        "', cannot resume '" + std::string(algorithm) + "'");
  }
  if (checkpoint.workload_fingerprint != FingerprintWorkload(workload)) {
    return Status::InvalidArgument(
        "checkpoint workload fingerprint does not match this workload; "
        "resuming against different data or structure is refused");
  }
  if (checkpoint.answers.size() != workload.num_queries() ||
      checkpoint.group_scales.size() != workload.num_groups() ||
      checkpoint.active.size() != workload.num_groups()) {
    return Status::InvalidArgument(
        "checkpoint state vectors do not match the workload's dimensions");
  }
  if (algorithm == "iresamp" &&
      (checkpoint.nominal_scales.size() != workload.num_groups() ||
       checkpoint.weighted_sum.size() != workload.num_queries() ||
       checkpoint.weight.size() != workload.num_queries())) {
    return Status::InvalidArgument(
        "checkpoint lacks complete iresamp accumulator state");
  }
  return Status::OK();
}

std::string SerializeCheckpoint(const RunCheckpoint& checkpoint) {
  std::string body;
  obs::JsonWriter json(&body);
  json.BeginObject();
  json.KV("type", "checkpoint");
  json.KV("version", RunCheckpoint::kVersion);
  json.KV("algorithm", checkpoint.algorithm);
  json.KV("workload", checkpoint.workload_fingerprint);
  json.KV("round", checkpoint.round);
  json.KV("iterations", checkpoint.iterations);
  json.KV("resample_calls", checkpoint.resample_calls);
  json.KV("epsilon_spent", checkpoint.epsilon_spent);
  json.Key("rng");
  json.BeginArray();
  for (const uint64_t word : checkpoint.rng_state) json.UInt(word);
  json.EndArray();
  json.Key("gs");
  json.BeginObject();
  json.KV("value", checkpoint.gs.value);
  json.KV("compensation", checkpoint.gs.compensation);
  json.KV("commits_since_resync", checkpoint.gs.commits_since_resync);
  json.EndObject();
  WriteDoubleArray(&json, "answers", checkpoint.answers);
  WriteDoubleArray(&json, "group_scales", checkpoint.group_scales);
  json.Key("active");
  json.BeginArray();
  for (const uint8_t a : checkpoint.active) json.UInt(a != 0 ? 1 : 0);
  json.EndArray();
  WriteDoubleArray(&json, "nominal_scales", checkpoint.nominal_scales);
  WriteDoubleArray(&json, "weighted_sum", checkpoint.weighted_sum);
  WriteDoubleArray(&json, "weight", checkpoint.weight);
  json.EndObject();
  return SealJsonRecord(body);
}

Result<RunCheckpoint> ParseCheckpoint(std::string_view text) {
  std::string body;
  if (!UnsealJsonRecord(text, &body)) {
    return Status::IoError(
        "checkpoint record failed its CRC check (truncated or corrupt)");
  }
  IREDUCT_ASSIGN_OR_RETURN(const obs::JsonValue doc, obs::JsonParse(body));
  const obs::JsonValue* type = doc.Find("type");
  if (type == nullptr || !type->is(obs::JsonValue::Kind::kString) ||
      type->text != "checkpoint") {
    return Status::IoError("record is not a checkpoint");
  }
  IREDUCT_ASSIGN_OR_RETURN(const uint64_t version,
                           ParseU64Field(doc, "version"));
  if (version != RunCheckpoint::kVersion) {
    return Status::IoError("unsupported checkpoint version " +
                           std::to_string(version));
  }

  RunCheckpoint out;
  const obs::JsonValue* algorithm = doc.Find("algorithm");
  if (algorithm == nullptr ||
      !algorithm->is(obs::JsonValue::Kind::kString)) {
    return Status::IoError("checkpoint is missing 'algorithm'");
  }
  out.algorithm = algorithm->text;
  IREDUCT_ASSIGN_OR_RETURN(out.workload_fingerprint,
                           ParseU64Field(doc, "workload"));
  IREDUCT_ASSIGN_OR_RETURN(out.round, ParseU64Field(doc, "round"));
  IREDUCT_ASSIGN_OR_RETURN(out.iterations,
                           ParseU64Field(doc, "iterations"));
  IREDUCT_ASSIGN_OR_RETURN(out.resample_calls,
                           ParseU64Field(doc, "resample_calls"));
  IREDUCT_ASSIGN_OR_RETURN(out.epsilon_spent,
                           ParseDoubleField(doc, "epsilon_spent"));

  const obs::JsonValue* rng = doc.Find("rng");
  if (rng == nullptr || !rng->is(obs::JsonValue::Kind::kArray) ||
      rng->array.size() != out.rng_state.size()) {
    return Status::IoError("checkpoint 'rng' must be a 4-word array");
  }
  for (size_t i = 0; i < out.rng_state.size(); ++i) {
    IREDUCT_ASSIGN_OR_RETURN(out.rng_state[i],
                             TokenToU64(rng->array[i], "rng"));
  }

  const obs::JsonValue* gs = doc.Find("gs");
  if (gs == nullptr || !gs->is(obs::JsonValue::Kind::kObject)) {
    return Status::IoError("checkpoint is missing 'gs'");
  }
  IREDUCT_ASSIGN_OR_RETURN(out.gs.value, ParseDoubleField(*gs, "value"));
  IREDUCT_ASSIGN_OR_RETURN(out.gs.compensation,
                           ParseDoubleField(*gs, "compensation"));
  IREDUCT_ASSIGN_OR_RETURN(out.gs.commits_since_resync,
                           ParseU64Field(*gs, "commits_since_resync"));

  IREDUCT_ASSIGN_OR_RETURN(out.answers, ParseDoubleArray(doc, "answers"));
  IREDUCT_ASSIGN_OR_RETURN(out.group_scales,
                           ParseDoubleArray(doc, "group_scales"));
  const obs::JsonValue* active = doc.Find("active");
  if (active == nullptr || !active->is(obs::JsonValue::Kind::kArray)) {
    return Status::IoError("checkpoint is missing array 'active'");
  }
  out.active.reserve(active->array.size());
  for (const obs::JsonValue& flag : active->array) {
    IREDUCT_ASSIGN_OR_RETURN(const uint64_t bit,
                             TokenToU64(flag, "active", 1));
    out.active.push_back(static_cast<uint8_t>(bit));
  }
  IREDUCT_ASSIGN_OR_RETURN(out.nominal_scales,
                           ParseDoubleArray(doc, "nominal_scales"));
  IREDUCT_ASSIGN_OR_RETURN(out.weighted_sum,
                           ParseDoubleArray(doc, "weighted_sum"));
  IREDUCT_ASSIGN_OR_RETURN(out.weight, ParseDoubleArray(doc, "weight"));

  if (out.group_scales.size() != out.active.size()) {
    return Status::IoError(
        "checkpoint 'group_scales' and 'active' sizes disagree");
  }
  return out;
}

Status FileCheckpointSink::Write(const RunCheckpoint& checkpoint) {
  const auto serialize_start = std::chrono::steady_clock::now();
  std::string record = SerializeCheckpoint(checkpoint);
  record.push_back('\n');
  const auto write_start = std::chrono::steady_clock::now();
  IREDUCT_METRIC_OBSERVE(
      "checkpoint.serialize_seconds",
      std::chrono::duration<double>(write_start - serialize_start).count());
  IREDUCT_METRIC_OBSERVE_BUCKETS("checkpoint.bytes",
                                 static_cast<double>(record.size()),
                                 obs::ByteBucketBounds());

  const FaultDecision fault =
      FaultInjector::Global().Hit("checkpoint.write");
  if (fault.action == FaultAction::kFail) {
    return Status::IoError("injected fault: checkpoint write failed");
  }
  if (fault.action == FaultAction::kTruncate) {
    // Simulate a corrupt checkpoint reaching the final path: a truncated
    // record is renamed into place and the write reports failure.
    record.resize(std::min<size_t>(fault.truncate_bytes, record.size()));
  }

  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("creating checkpoint", tmp));
  }
  Status write_status = WriteAll(fd, record, tmp);
  if (write_status.ok() && ::fsync(fd) != 0) {
    write_status = Status::IoError(ErrnoMessage("fsyncing checkpoint", tmp));
  }
  ::close(fd);
  IREDUCT_RETURN_NOT_OK(write_status);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("renaming checkpoint into", path_));
  }
  IREDUCT_RETURN_NOT_OK(SyncParentDir(path_));
  if (fault.action == FaultAction::kTruncate) {
    return Status::IoError("injected fault: checkpoint write truncated");
  }
  IREDUCT_METRIC_COUNT("checkpoint.writes", 1);
  IREDUCT_METRIC_GAUGE_SET("checkpoint.last_round",
                           static_cast<double>(checkpoint.round));
  IREDUCT_METRIC_OBSERVE(
      "checkpoint.write_seconds",
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    write_start)
          .count());
  if (obs::EventLog* events = obs::EventLog::Get()) {
    events->Emit("checkpoint.write",
                 {{"round", checkpoint.round},
                  {"bytes", static_cast<uint64_t>(record.size())}});
  }
  return Status::OK();
}

Result<RunCheckpoint> FileCheckpointSink::Load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("opening checkpoint", path));
  }
  std::string contents;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::IoError(ErrnoMessage("reading checkpoint", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    contents.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  while (!contents.empty() &&
         (contents.back() == '\n' || contents.back() == '\r')) {
    contents.pop_back();
  }
  Result<RunCheckpoint> parsed = ParseCheckpoint(contents);
  if (!parsed.ok()) {
    return Status::IoError("checkpoint '" + path +
                           "' is unusable: " + parsed.status().message());
  }
  return parsed;
}

Status JournalingCheckpointSink::Write(const RunCheckpoint& checkpoint) {
  // Ledger before checkpoint: the growth since the last durable boundary
  // is journaled first. Re-executed boundaries after a resume compute a
  // delta ≤ 0 (the recovered spend already covers them) and charge nothing,
  // so interrupted-and-resumed runs end with the same ledger total as
  // uninterrupted ones.
  const double delta = checkpoint.epsilon_spent - accountant_->spent();
  if (delta > 0) {
    IREDUCT_RETURN_NOT_OK(accountant_->Charge(
        checkpoint.algorithm + " checkpoint round " +
            std::to_string(checkpoint.round),
        delta));
  }
  return inner_->Write(checkpoint);
}

}  // namespace ireduct

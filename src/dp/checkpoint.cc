#include "dp/checkpoint.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <utility>

#include "common/fault.h"
#include "common/file.h"
#include "common/hash.h"
#include "dp/ledger_journal.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

void WriteDoubleArray(obs::JsonWriter* json, std::string_view key,
                      const std::vector<double>& values) {
  json->Key(key);
  json->BeginArray();
  for (const double v : values) json->Double(v);
  json->EndArray();
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

namespace {

// The checkpoint in an unsealed record body. Every integer is read
// exactly or refused; every double is restored bit for bit.
Result<RunCheckpoint> ReadCheckpoint(std::string_view body) {
  IREDUCT_ASSIGN_OR_RETURN(const obs::JsonValue doc, obs::JsonParse(body));
  IREDUCT_ASSIGN_OR_RETURN(const std::string type, doc.GetString("type"));
  if (type != "checkpoint") {
    return Status::InvalidArgument("record is not a checkpoint");
  }
  IREDUCT_ASSIGN_OR_RETURN(const uint64_t version, doc.GetUnsigned("version"));
  if (version != RunCheckpoint::kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }

  RunCheckpoint out;
  IREDUCT_ASSIGN_OR_RETURN(out.algorithm, doc.GetString("algorithm"));
  IREDUCT_ASSIGN_OR_RETURN(out.workload_fingerprint,
                           doc.GetUnsigned("workload"));
  IREDUCT_ASSIGN_OR_RETURN(out.round, doc.GetUnsigned("round"));
  IREDUCT_ASSIGN_OR_RETURN(out.iterations, doc.GetUnsigned("iterations"));
  IREDUCT_ASSIGN_OR_RETURN(out.resample_calls,
                           doc.GetUnsigned("resample_calls"));
  IREDUCT_ASSIGN_OR_RETURN(out.epsilon_spent, doc.GetDouble("epsilon_spent"));

  IREDUCT_ASSIGN_OR_RETURN(const std::vector<uint64_t> rng,
                           doc.GetUnsigneds("rng"));
  if (rng.size() != out.rng_state.size()) {
    return Status::InvalidArgument("checkpoint 'rng' must be a 4-word array");
  }
  std::copy(rng.begin(), rng.end(), out.rng_state.begin());

  IREDUCT_ASSIGN_OR_RETURN(const obs::JsonValue* gs,
                           doc.Get("gs", obs::JsonValue::Kind::kObject));
  IREDUCT_ASSIGN_OR_RETURN(out.gs.value, gs->GetDouble("value"));
  IREDUCT_ASSIGN_OR_RETURN(out.gs.compensation, gs->GetDouble("compensation"));
  IREDUCT_ASSIGN_OR_RETURN(out.gs.commits_since_resync,
                           gs->GetUnsigned("commits_since_resync"));

  IREDUCT_ASSIGN_OR_RETURN(out.answers, doc.GetDoubles("answers"));
  IREDUCT_ASSIGN_OR_RETURN(out.group_scales, doc.GetDoubles("group_scales"));
  IREDUCT_ASSIGN_OR_RETURN(const std::vector<uint64_t> active,
                           doc.GetUnsigneds("active", 1));
  out.active.assign(active.begin(), active.end());
  IREDUCT_ASSIGN_OR_RETURN(out.nominal_scales,
                           doc.GetDoubles("nominal_scales"));
  IREDUCT_ASSIGN_OR_RETURN(out.weighted_sum, doc.GetDoubles("weighted_sum"));
  IREDUCT_ASSIGN_OR_RETURN(out.weight, doc.GetDoubles("weight"));

  if (out.group_scales.size() != out.active.size()) {
    return Status::InvalidArgument(
        "checkpoint 'group_scales' and 'active' sizes disagree");
  }
  return out;
}

}  // namespace

Result<RunCheckpoint> ParseCheckpoint(std::string_view text) {
  std::string body;
  if (!UnsealJsonRecord(text, &body)) {
    return Status::IoError(
        "checkpoint record failed its CRC check (truncated or corrupt)");
  }
  Result<RunCheckpoint> out = ReadCheckpoint(body);
  if (!out.ok()) {
    return Status::IoError("malformed checkpoint: " + out.status().message());
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

  IREDUCT_RETURN_NOT_OK(WriteFileDurably(path_, record));
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
  IREDUCT_ASSIGN_OR_RETURN(std::string contents, ReadFile(path));
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

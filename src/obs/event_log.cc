#include "obs/event_log.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/fault.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace ireduct {
namespace obs {

namespace {
// The calling thread's active capture (EventCapture::Scope), if any.
thread_local EventCapture* active_capture = nullptr;
}  // namespace

EventField::EventField(std::string_view k, uint64_t v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, int64_t v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, int v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, double v)
    : key(k), json(JsonToken(v)) {}
EventField::EventField(std::string_view k, std::string_view v)
    : key(k), json('"' + EscapeJson(v) + '"') {}

EventCapture::Scope::Scope(EventCapture* capture)
    : previous_(active_capture) {
  active_capture = capture;
}

EventCapture::Scope::~Scope() { active_capture = previous_; }

std::atomic<EventLog*> EventLog::installed_{nullptr};

EventLog::EventLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      origin_(std::chrono::steady_clock::now()) {}

EventLog* EventLog::Get() {
  return installed_.load(std::memory_order_acquire);
}

void EventLog::Install(EventLog* log) {
  installed_.store(log, std::memory_order_release);
}

uint64_t EventLog::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void EventLog::Emit(std::string_view type,
                    std::initializer_list<EventField> fields,
                    std::optional<uint64_t> start_us) {
  Record(type, std::span(fields.begin(), fields.size()), start_us);
}

void EventLog::Record(std::string_view type,
                      std::span<const EventField> fields,
                      std::optional<uint64_t> start_us) {
  const uint64_t now_us = NowMicros();
  const uint64_t start = start_us.value_or(now_us);
  const std::optional<uint64_t> dur =
      start_us.has_value() ? std::optional<uint64_t>(now_us - *start_us)
                           : std::nullopt;
  if (EventCapture* const capture = active_capture) {
    capture->events_.push_back(EventCapture::Held{
        std::string(type), {fields.begin(), fields.end()}, start, dur});
    return;
  }
  bool dropped;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    dropped = AppendLocked(type, fields, start, dur);
  }
  IREDUCT_METRIC_COUNT("events.emitted", 1);
  if (dropped) IREDUCT_METRIC_COUNT("events.dropped", 1);
}

void EventLog::Commit(EventCapture* capture) {
  if (capture->events_.empty()) return;
  uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const EventCapture::Held& event : capture->events_) {
      dropped += AppendLocked(event.type, event.fields, event.start_us,
                              event.dur_us);
    }
  }
  IREDUCT_METRIC_COUNT("events.emitted", capture->events_.size());
  if (dropped > 0) IREDUCT_METRIC_COUNT("events.dropped", dropped);
  capture->events_.clear();
}

bool EventLog::AppendLocked(std::string_view type,
                            std::span<const EventField> fields,
                            uint64_t start_us,
                            std::optional<uint64_t> dur_us) {
  std::string line;
  JsonWriter json(&line);
  json.BeginObject();
  json.KV("seq", next_seq_);
  json.KV("type", type);
  for (const EventField& field : fields) {
    json.Key(field.key);
    json.RawValue(field.json);
  }
  json.EndObject();
  ++next_seq_;
  auto by_type = by_type_.find(type);
  if (by_type == by_type_.end()) {
    by_type = by_type_.emplace(std::string(type), 0).first;
  }
  ++by_type->second;
  bool dropped = false;
  if (events_.size() == capacity_) {
    events_.pop_front();
    ++dropped_;
    dropped = true;
  }
  events_.push_back(Event{std::move(line), &by_type->first, start_us, dur_us});
  return dropped;
}

size_t EventLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t EventLog::total_emitted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t EventLog::total_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t EventLog::CountType(std::string_view type) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_type_.find(type);
  return it == by_type_.end() ? 0 : it->second;
}

std::vector<std::string> EventLog::SnapshotLines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> lines;
  lines.reserve(events_.size());
  for (const Event& event : events_) lines.push_back(event.line);
  return lines;
}

std::string EventLog::SnapshotJsonl() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Event& event : events_) {
    if (!out.empty()) out.push_back('\n');
    out += event.line;
  }
  return out;
}

std::string EventLog::SummaryJson() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return SummaryJsonLocked();
}

std::string EventLog::SummaryJsonLocked() const {
  std::string out;
  JsonWriter json(&out);
  json.BeginObject();
  json.KV("emitted", next_seq_);
  json.KV("dropped", dropped_);
  json.KV("buffered", static_cast<uint64_t>(events_.size()));
  json.Key("by_type");
  json.BeginObject();
  for (const auto& [type, count] : by_type_) json.KV(type, count);
  json.EndObject();
  json.EndObject();
  return out;
}

std::string EventLog::ChromeTraceJson(
    std::span<const std::pair<std::string, std::string>> other_data) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (const Event& event : events_) {
    json.BeginObject();
    json.KV("name", *event.type);
    json.KV("ph", event.dur_us.has_value() ? "X" : "i");
    // Single-process, single-track model: everything the library records
    // belongs to one timeline.
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.Int(1);
    json.KV("ts", event.start_us);
    if (event.dur_us.has_value()) {
      json.KV("dur", *event.dur_us);
    } else {
      json.KV("s", "t");  // instant scope: thread
    }
    json.Key("args");
    json.RawValue(event.line);
    json.EndObject();
  }
  json.EndArray();
  json.KV("displayTimeUnit", "ms");
  json.Key("otherData");
  json.BeginObject();
  json.Key("events");
  json.RawValue(SummaryJsonLocked());
  for (const auto& [key, value] : other_data) {
    json.Key(key);
    json.RawValue(value);
  }
  json.EndObject();
  json.EndObject();
  return out;
}

void EventLog::Drain(std::string* out) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Event& event : events_) {
    out->append(event.line);
    out->push_back('\n');
  }
  events_.clear();
}

Status EventLog::WriteFile(const std::string& path) {
  // Serialize outside any write so a failure leaves the buffer intact:
  // drained-on-success only.
  std::string payload;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Event& event : events_) {
      payload += event.line;
      payload.push_back('\n');
    }
  }
  const FaultDecision fault = FaultInjector::Global().Hit("event_log.write");
  if (fault.action == FaultAction::kFail) {
    return Status::IoError("injected fault: event log write failed");
  }
  if (fault.action == FaultAction::kTruncate) {
    // A crash mid-drain: a prefix of the stream reaches the disk. The
    // buffer is NOT cleared — nothing was acknowledged — so the next
    // drain (or the run report's own snapshot) still sees every event.
    const size_t keep =
        std::min<size_t>(fault.truncate_bytes, payload.size());
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file.write(payload.data(), static_cast<std::streamsize>(keep));
    file.flush();
    return Status::IoError("injected fault: event log write torn after " +
                           std::to_string(keep) + " bytes");
  }
  std::ofstream file(path, std::ios::binary | std::ios::app);
  if (!file) {
    return Status::IoError("opening event log '" + path + "' for append");
  }
  file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!file.flush()) {
    return Status::IoError("writing event log '" + path + "'");
  }
  Clear();
  return Status::OK();
}

void EventLog::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

}  // namespace obs
}  // namespace ireduct

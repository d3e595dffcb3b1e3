// Structured JSONL event stream: a bounded in-memory ring of serialized
// events, drained explicitly by the edge that wants them (the CLI behind
// --events-out, a bench, a test). It is the library's only event sink:
// --trace-out's Chrome trace is another view of the same buffer
// (ChromeTraceJson).
//
// An EventLog is installed process-wide (EventLog::Install); while none is
// installed, the EventLog::Get() check at each call site is a single atomic
// load and nothing is recorded.
//
// Each event is one JSON object on one line:
//   {"seq":12,"type":"ireduct.round","round":3,...}
// Sequence numbers are monotonic across the whole run — they keep counting
// through ring-buffer drops and drains, so a gap in `seq` is a drop, never
// a serialization bug. Content is deterministic for a fixed workload and
// seed: events are only emitted from sequential (post-parallel) code, field
// order is fixed at the call site, and doubles render shortest-round-trip.
// Times never enter a line: each buffered event keeps its steady-clock
// start (and a span its duration) beside the line, for the trace view only.
#ifndef IREDUCT_OBS_EVENT_LOG_H_
#define IREDUCT_OBS_EVENT_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ireduct {
namespace obs {

/// One "key": value field on an event. Numeric and string values only —
/// everything the instrumented call sites need. Integer call sites should
/// pass uint64_t/int64_t explicitly; exact integers survive JSON
/// round-trips where doubles above 2^53 would not.
struct EventField {
  EventField(std::string_view k, uint64_t v);
  EventField(std::string_view k, int64_t v);
  EventField(std::string_view k, int v);
  EventField(std::string_view k, double v);
  EventField(std::string_view k, std::string_view v);

  std::string key;
  /// The field's value, already serialized as a JSON token.
  std::string json;
};

/// Bounded event collector; thread-safe. Install one globally to turn
/// event emission on.
class EventLog {
 public:
  /// `capacity` bounds the buffered (undrained) events; beyond it the
  /// oldest line is dropped and total_dropped() grows.
  explicit EventLog(size_t capacity = kDefaultCapacity);

  /// The installed log, or nullptr when event emission is off.
  static EventLog* Get();
  /// Installs `log` (borrowed; caller keeps ownership and must uninstall
  /// with nullptr before destroying it).
  static void Install(EventLog* log);
  static bool active() { return Get() != nullptr; }

  /// Steady-clock microseconds since this log was created: the clock of
  /// span starts.
  uint64_t NowMicros() const;

  /// Records one event. `type` is a lowercase dotted identifier
  /// ("ireduct.round"); fields serialize in the given order. With a
  /// `start_us` (from NowMicros) the event is a span that ends now.
  void Emit(std::string_view type, std::initializer_list<EventField> fields,
            std::optional<uint64_t> start_us = std::nullopt);

  /// Currently buffered (emitted, not yet drained or dropped) events.
  size_t size() const;
  /// All-time counts; unaffected by drains.
  uint64_t total_emitted() const;
  uint64_t total_dropped() const;
  /// All-time count of events with the given type.
  uint64_t CountType(std::string_view type) const;

  /// Copies the buffered lines without draining them (oldest first).
  std::vector<std::string> SnapshotLines() const;
  /// SnapshotLines() joined with '\n' (no trailing newline; empty string
  /// when nothing is buffered).
  std::string SnapshotJsonl() const;
  /// Deterministic summary object:
  /// {"emitted":N,"dropped":N,"buffered":N,"by_type":{...}} with type
  /// names sorted.
  std::string SummaryJson() const;

  /// Renders the buffered events as a Chrome trace_event object (load it
  /// in chrome://tracing or ui.perfetto.dev) without draining them:
  ///   {"traceEvents":[{"name":TYPE,"ph":"X"|"i",...,"args":LINE},...],
  ///    "displayTimeUnit":"ms","otherData":{"events":SummaryJson(),...}}
  /// Spans get "ph":"X" with their duration, other events "ph":"i"; `args`
  /// is the event's own line. Each `other_data` pair (key, pre-serialized
  /// JSON value) is appended under otherData.
  std::string ChromeTraceJson(
      std::span<const std::pair<std::string, std::string>> other_data =
          {}) const;

  /// Moves every buffered line (each newline-terminated) onto the end of
  /// `*out` and empties the buffer. Counters and sequence numbers keep
  /// running.
  void Drain(std::string* out);
  /// Appends all buffered lines to `path`, then empties the buffer — only
  /// on success, so a failed write never loses events. Honors the
  /// "event_log.write" fault point (fail/truncate/crash).
  Status WriteFile(const std::string& path);

  /// Drops buffered lines without writing them (counters keep running).
  void Clear();

  static constexpr size_t kDefaultCapacity = 65536;

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

 private:
  friend class EventSpan;

  struct Event {
    std::string line;
    const std::string* type;  // key in by_type_, which never shrinks
    uint64_t start_us;
    std::optional<uint64_t> dur_us;  // spans only
  };

  void Record(std::string_view type, std::span<const EventField> fields,
              std::optional<uint64_t> start_us);
  std::string SummaryJsonLocked() const;  // requires mu_

  static std::atomic<EventLog*> installed_;

  const size_t capacity_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::deque<Event> events_;
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
  std::map<std::string, uint64_t, std::less<>> by_type_;
};

/// RAII span: emits `type` with the fields added so far when it goes out
/// of scope, timed from construction, on the log installed at construction
/// (if any). `type` must outlive the span (pass a literal).
class EventSpan {
 public:
  explicit EventSpan(std::string_view type)
      : log_(EventLog::Get()),
        type_(type),
        start_us_(log_ != nullptr ? log_->NowMicros() : 0) {}
  ~EventSpan() {
    if (log_ != nullptr) log_->Record(type_, fields_, start_us_);
  }

  /// Appends a field; a no-op when nothing is recording.
  template <typename T>
  void Field(std::string_view key, const T& value) {
    if (log_ != nullptr) fields_.emplace_back(key, value);
  }

  EventSpan(const EventSpan&) = delete;
  EventSpan& operator=(const EventSpan&) = delete;

 private:
  EventLog* const log_;
  const std::string_view type_;
  const uint64_t start_us_;
  std::vector<EventField> fields_;
};

}  // namespace obs
}  // namespace ireduct

#endif  // IREDUCT_OBS_EVENT_LOG_H_

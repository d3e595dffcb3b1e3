// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark records spans from its own code only — around the calls it
// makes into each layer, one client span per request, and one span per
// phase — and writes them as Chrome trace JSON when the run ends. It never
// installs the library's TraceRecorder or EventLog, so a traced run
// exercises exactly the code an untraced run does.
#ifndef IREDUCT_PERFBENCH_SPANS_H_
#define IREDUCT_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ireduct {
namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Records a finished span. `parent` is the index Begin/Add returned for
  /// the enclosing span, or -1; `request` ties a span to one request id
  /// (0: none). Returns the span's index.
  int Add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, uint64_t request = 0, int lane = 0);

  /// Opens a span ended later with End(); for nesting phases.
  int Begin(std::string name, int parent = -1);
  void End(int span);

  size_t size() const;

  /// Wall time spent inside Add/Begin/End so far: the cost tracing adds to
  /// the threads that record.
  double overhead_seconds() const;

  /// Writes {"traceEvents":[...],"otherData":<other_json>} to `path`.
  /// `lane` becomes the Chrome tid so concurrent requests stack visibly.
  Status WriteChromeTrace(const std::string& path,
                          const std::string& other_json) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double dur_us = 0;
    int parent = -1;
    uint64_t request = 0;
    int lane = 0;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  // The correctness replay records from several threads.
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  double overhead_seconds_ = 0;
};

/// Times a scope into `recorder` when it is non-null; free otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int parent = -1,
             uint64_t request = 0)
      : recorder_(recorder),
        name_(name),
        parent_(parent),
        request_(request),
        start_(recorder != nullptr ? SpanRecorder::Clock::now()
                                   : SpanRecorder::Clock::time_point{}) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->Add(name_, start_, SpanRecorder::Clock::now(), parent_,
                     request_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  const char* name_;
  int parent_;
  uint64_t request_;
  SpanRecorder::Clock::time_point start_;
};

}  // namespace perfbench
}  // namespace ireduct

#endif  // IREDUCT_PERFBENCH_SPANS_H_

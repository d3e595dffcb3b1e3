#include "spans.h"

#include <fstream>

#include "obs/json.h"

namespace ireduct {
namespace perfbench {

int SpanRecorder::Add(std::string name, Clock::time_point start,
                      Clock::time_point end, int parent, uint64_t request,
                      int lane) {
  const Clock::time_point entered = Clock::now();
  Span span;
  span.name = std::move(name);
  span.start_us = Micros(start);
  span.dur_us = Micros(end) - span.start_us;
  span.parent = parent;
  span.request = request;
  span.lane = lane;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  overhead_seconds_ +=
      std::chrono::duration<double>(Clock::now() - entered).count();
  return static_cast<int>(spans_.size() - 1);
}

int SpanRecorder::Begin(std::string name, int parent) {
  const Clock::time_point now = Clock::now();
  return Add(std::move(name), now, now, parent);
}

void SpanRecorder::End(int span) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(span)];
  s.dur_us = Micros(now) - s.start_us;
  overhead_seconds_ += std::chrono::duration<double>(Clock::now() - now).count();
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double SpanRecorder::overhead_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overhead_seconds_;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path,
                                      const std::string& other_json) const {
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject();
      w.KV("name", s.name);
      w.KV("ph", "X");
      w.KV("ts", s.start_us);
      w.KV("dur", s.dur_us);
      w.KV("pid", uint64_t{1});
      w.KV("tid", static_cast<uint64_t>(s.lane));
      w.Key("args");
      w.BeginObject();
      w.KV("span", static_cast<uint64_t>(i));
      w.Key("parent");
      w.Int(s.parent);
      if (s.request != 0) w.KV("request", s.request);
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("otherData");
  w.RawValue(other_json);
  w.EndObject();
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out << '\n';
  if (!file) return Status::IoError("cannot write trace '" + path + "'");
  return Status::OK();
}

}  // namespace perfbench
}  // namespace ireduct

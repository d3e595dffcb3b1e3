#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <string_view>

#include "harness.h"

namespace ireduct {
namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Ids above this are the generator's own stats polls, never workload
// requests.
constexpr uint64_t kStatsIdBase = uint64_t{1} << 40;
constexpr size_t kReadChunk = 1 << 18;
// A closed-loop phase that has not sent its quota after this many times
// its nominal length stops anyway (a much slower server still finishes).
constexpr double kClosedPhaseCap = 3;
// How long to wait for stragglers after the last phase stops sending.
constexpr double kDrainSeconds = 30;

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t scan_from = 0;
};

Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(std::string("socket: ") + strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return Status::IoError("connect '" + path + "': " + err);
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Writes as much of the pending output as the socket takes.
Status Flush(Connection& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + strerror(errno));
    }
    c.out_off += static_cast<size_t>(n);
  }
  c.out.clear();
  c.out_off = 0;
  return Status::OK();
}

// Reads `"key":<number>` in `line`; false if absent.
bool NumberAfter(std::string_view line, std::string_view key, double* out) {
  const size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* begin = line.data() + at + key.size();
  const auto [ptr, ec] = std::from_chars(begin, line.data() + line.size(), *out);
  return ec == std::errc() && ptr != begin;
}

}  // namespace

std::vector<ScheduledArrival> BuildSchedule(const std::vector<LoadPhase>& phases,
                                            int tenants, uint64_t seed) {
  std::vector<ScheduledArrival> out;
  double start = 0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const LoadPhase& phase = phases[p];
    if (phase.rate > 0) {
      StratifiedStream gaps(StreamFor(seed, 100 + p));
      BitGen who = StreamFor(seed, 200 + p);
      for (const double t : PoissonArrivals(gaps, phase.rate, start,
                                            phase.seconds)) {
        out.push_back({t, static_cast<int>(who.UniformInt(
                              static_cast<uint64_t>(tenants))),
                       static_cast<int>(p)});
      }
    }
    start += phase.seconds;
  }
  return out;
}

LoadResult RunLoad(const LoadConfig& config) {
  LoadResult result;
  const int num_tenants = static_cast<int>(config.tenants.size());
  const int num_conns = std::max(1, config.connections);
  const int num_phases = static_cast<int>(config.phases.size());
  auto phase_at = [&](int p) -> const LoadPhase& {
    return config.phases[static_cast<size_t>(p)];
  };

  // Open-loop requests are built (and encoded) before the clock starts;
  // their content comes from one stream in schedule order, closed-loop
  // content from one stream per tenant.
  std::vector<std::string> lines;
  double encode_seconds = 0;
  auto add_request = [&](WireRequest request, int tenant, int phase,
                         double scheduled_s) -> size_t {
    SentRequest sent;
    request.id = result.requests.size() + 1;
    request.tenant = config.tenants[static_cast<size_t>(tenant)];
    const Clock::time_point t0 = Clock::now();
    std::string line = request.ToJson();
    encode_seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    line.push_back('\n');
    sent.request = std::move(request);
    sent.tenant = tenant;
    sent.phase = phase;
    sent.scheduled_s = scheduled_s;
    result.requests.push_back(std::move(sent));
    lines.push_back(std::move(line));
    return result.requests.size() - 1;
  };
  {
    StratifiedStream content(StreamFor(config.seed, 7001));
    for (const ScheduledArrival& a :
         BuildSchedule(config.phases, num_tenants, config.seed)) {
      add_request(MakeRequest(config.make_request, content, a.tenant),
                  a.tenant, a.phase, a.t);
    }
  }
  const size_t num_open = result.requests.size();
  std::vector<StratifiedStream> tenant_content;
  for (int t = 0; t < num_tenants; ++t) {
    tenant_content.emplace_back(StreamFor(config.seed, 9001 + t));
  }

  std::vector<Connection> conns(static_cast<size_t>(num_conns));
  for (Connection& c : conns) {
    Result<int> fd = ConnectUnix(config.socket_path);
    if (!fd.ok()) {
      result.status = fd.status();
      for (Connection& open : conns) {
        if (open.fd >= 0) ::close(open.fd);
      }
      return result;
    }
    c.fd = *fd;
  }

  // Open phases start on the clock; a closed phase ends once its quota is
  // sent, and the phase after it starts right then.
  std::vector<double> nominal_start;
  double t_nominal = 0;
  for (const LoadPhase& phase : config.phases) {
    nominal_start.push_back(t_nominal);
    t_nominal += phase.seconds;
  }
  result.phase_start_s.assign(config.phases.size(), 0);
  result.phase_end_s.assign(config.phases.size(), 0);
  std::vector<uint64_t> phase_sent(config.phases.size(), 0);

  std::vector<int> inflight(static_cast<size_t>(num_tenants), 0);
  size_t outstanding = 0;
  size_t next_open = 0;
  int current = -1;
  double sending_done_at = -1;  // when the last phase stopped sending
  bool measure_started = false;
  std::vector<double> lags_ms;
  lags_ms.reserve(num_open);
  std::vector<int> phase_spans(config.phases.size(), -1);
  uint64_t next_stats_id = kStatsIdBase;
  double next_stats_s = 0;
  uint64_t send_seq = 0;
  const Clock::time_point origin = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - origin).count();
  };
  auto at = [&](double s) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
  };
  auto closed = [&](int p) { return phase_at(p).rate <= 0; };
  // Whether phase p (the current one) has finished sending.
  auto phase_done = [&](int p, double now) {
    const LoadPhase& phase = phase_at(p);
    if (!closed(p)) return now >= nominal_start[static_cast<size_t>(p)] +
                                      phase.seconds;
    const bool quota_sent =
        phase.requests > 0 && phase_sent[static_cast<size_t>(p)] >= phase.requests;
    const double cap = phase.requests > 0 ? kClosedPhaseCap : 1;
    return quota_sent ||
           now >= result.phase_start_s[static_cast<size_t>(p)] +
                      cap * phase.seconds;
  };

  auto send = [&](size_t index, double now) -> Status {
    SentRequest& r = result.requests[index];
    r.sent_s = now;
    r.send_seq = ++send_seq;
    ++phase_sent[static_cast<size_t>(r.phase)];
    ++inflight[static_cast<size_t>(r.tenant)];
    ++outstanding;
    Connection& c = conns[static_cast<size_t>(r.tenant % num_conns)];
    c.out += lines[index];
    std::string().swap(lines[index]);
    return Flush(c);
  };
  // Open-loop sends that are due by `now`.
  auto send_due = [&](double now) -> Status {
    while (next_open < num_open &&
           result.requests[next_open].scheduled_s <= now) {
      lags_ms.push_back((now - result.requests[next_open].scheduled_s) * 1e3);
      IREDUCT_RETURN_NOT_OK(send(next_open, now));
      ++next_open;
    }
    return Status::OK();
  };
  // Closed loop: top tenant t up to the current phase's target.
  auto top_up = [&](int t, double now) -> Status {
    if (current < 0 || sending_done_at >= 0 || !closed(current)) {
      return Status::OK();
    }
    const LoadPhase& phase = phase_at(current);
    while (inflight[static_cast<size_t>(t)] < phase.outstanding_per_tenant &&
           !phase_done(current, now)) {
      const size_t index = add_request(
          MakeRequest(config.make_request,
                      tenant_content[static_cast<size_t>(t)], t),
          t, current, now);
      IREDUCT_RETURN_NOT_OK(send(index, now));
    }
    return Status::OK();
  };
  auto top_up_all = [&](double now) -> Status {
    for (int t = 0; t < num_tenants; ++t) IREDUCT_RETURN_NOT_OK(top_up(t, now));
    return Status::OK();
  };
  // Moves to the next phase(s) whose time has come.
  auto advance = [&](double now) -> Status {
    while (sending_done_at < 0) {
      const bool can_leave = current < 0 || phase_done(current, now);
      if (!can_leave) break;
      if (current >= 0 && config.spans != nullptr) {
        config.spans->End(phase_spans[static_cast<size_t>(current)]);
      }
      if (current >= 0 && !closed(current)) {
        result.phase_end_s[static_cast<size_t>(current)] =
            nominal_start[static_cast<size_t>(current)] + phase_at(current).seconds;
      }
      if (current + 1 >= num_phases) {
        sending_done_at = now;
        break;
      }
      // An open phase begins at its nominal time; a phase after a closed
      // one begins as soon as that one is done.
      const int next = current + 1;
      if (!closed(next) && now < nominal_start[static_cast<size_t>(next)]) {
        break;
      }
      current = next;
      result.phase_start_s[static_cast<size_t>(current)] =
          closed(current) ? now : nominal_start[static_cast<size_t>(current)];
      if (config.spans != nullptr) {
        phase_spans[static_cast<size_t>(current)] =
            config.spans->Begin("phase." + phase_at(current).name);
      }
      if (!measure_started && current >= config.first_measured) {
        measure_started = true;
        if (config.on_measure_start) config.on_measure_start();
      }
      IREDUCT_RETURN_NOT_OK(top_up_all(now));
    }
    return Status::OK();
  };

  auto handle_line = [&](std::string_view line, double now) {
    uint64_t id = 0;
    constexpr std::string_view kIdPrefix = "{\"id\":";
    if (line.substr(0, kIdPrefix.size()) != kIdPrefix) return;
    const char* id_begin = line.data() + kIdPrefix.size();
    const auto [id_end, ec] =
        std::from_chars(id_begin, line.data() + line.size(), id);
    if (ec != std::errc()) return;
    if (id >= kStatsIdBase) {
      double depth = 0;
      if (NumberAfter(line, "\"queue_depth\":", &depth)) {
        result.queue_depth_max =
            std::max(result.queue_depth_max, static_cast<uint64_t>(depth));
      }
      return;
    }
    if (id == 0 || id > result.requests.size()) return;
    SentRequest& r = result.requests[id - 1];
    if (r.answered() || r.send_seq == 0) return;
    r.received_s = now;
    const std::string_view rest(id_end, line.data() + line.size() - id_end);
    r.ok = rest.substr(0, 10) == ",\"ok\":true";
    if (r.ok) {
      if (!NumberAfter(rest.substr(0, 64), "\"epsilon_spent\":",
                       &r.epsilon_spent)) {
        r.epsilon_spent = r.request.epsilon;  // counts charge what they ask
      }
    } else {
      r.shed = rest.find("\"retry_after_ms\":") != std::string_view::npos;
    }
    r.digest = Digest64(line);
    r.response_bytes = line.size();
    --inflight[static_cast<size_t>(r.tenant)];
    --outstanding;
    if (closed(r.phase)) {
      double& end = result.phase_end_s[static_cast<size_t>(r.phase)];
      end = std::max(end, now);
    }
    if (config.spans != nullptr) {
      config.spans->Add("client.request", at(r.scheduled_s), at(now),
                        phase_spans[static_cast<size_t>(r.phase)], id,
                        r.tenant + 1);
    }
  };

  std::vector<pollfd> fds(conns.size());
  std::vector<char> chunk(kReadChunk);
  Status status;
  while (status.ok()) {
    const double now = now_s();
    // Requests due before a phase boundary go out before the next phase's
    // closed-loop requests.
    status = send_due(now);
    if (status.ok()) status = advance(now);
    const bool sending = sending_done_at < 0;
    if (status.ok() && config.spans != nullptr && sending && now >= next_stats_s) {
      next_stats_s = now + 0.1;
      conns[0].out += "{\"id\":" + std::to_string(next_stats_id++) +
                      ",\"op\":\"stats\"}\n";
      ++result.stats_polls;
      status = Flush(conns[0]);
    }
    if (!status.ok()) break;
    if (!sending && outstanding == 0) break;
    if (!sending && now > sending_done_at + kDrainSeconds) break;

    // Sleep until the next due send or phase start, a response, or
    // writability.
    double wake = now + 0.05;
    if (next_open < num_open) {
      wake = std::min(wake, result.requests[next_open].scheduled_s);
    }
    if (sending && current + 1 < num_phases) {
      wake = std::min(wake, nominal_start[static_cast<size_t>(current + 1)]);
    }
    if (config.spans != nullptr && sending) wake = std::min(wake, next_stats_s);
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i].out_off < conns[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const double wait = std::max(0.0, wake - now_s());
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      status = Status::IoError(std::string("ppoll: ") + strerror(errno));
      break;
    }
    if (ready <= 0) continue;
    for (size_t i = 0; i < conns.size() && status.ok(); ++i) {
      Connection& c = conns[i];
      if (fds[i].revents & POLLOUT) status = Flush(c);
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      while (status.ok()) {
        const ssize_t n = ::recv(c.fd, chunk.data(), chunk.size(), 0);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          status = Status::IoError("server closed a connection");
          break;
        }
        c.in.append(chunk.data(), static_cast<size_t>(n));
        const double recv_now = now_s();
        size_t line_start = 0;
        size_t newline;
        while ((newline = c.in.find('\n', c.scan_from)) != std::string::npos) {
          handle_line(std::string_view(c.in).substr(line_start,
                                                    newline - line_start),
                      recv_now);
          line_start = newline + 1;
          c.scan_from = line_start;
        }
        c.in.erase(0, line_start);
        c.scan_from = c.in.size();
        // Refill closed-loop slots that just freed up, and keep the open
        // schedule between the chunks of a multi-megabyte line.
        const double after = now_s();
        status = send_due(after);
        if (status.ok()) status = advance(after);
        if (status.ok()) status = top_up_all(after);
        if (static_cast<size_t>(n) < chunk.size()) break;
      }
    }
  }
  result.end_s = now_s();
  for (Connection& c : conns) ::close(c.fd);
  result.status = status;
  std::sort(lags_ms.begin(), lags_ms.end());
  result.gen_lag_p99_ms = NearestRank(lags_ms, 99);
  result.req_encode_us =
      result.requests.empty()
          ? 0
          : encode_seconds / static_cast<double>(result.requests.size()) * 1e6;
  return result;
}

}  // namespace perfbench
}  // namespace ireduct

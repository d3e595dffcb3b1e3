#include "service/wire.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "common/status.h"
#include "obs/json.h"

namespace ireduct {

namespace {

using obs::JsonValue;

constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();

Result<double> AsNumber(const JsonValue& v, const char* key) {
  if (!v.is(JsonValue::Kind::kNumber)) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be a number");
  }
  return v.number;
}

// An integer field, parsed exactly from the raw token: plain decimal digits
// only, at most `max`. Negative, fractional and exponent-form tokens are
// refused rather than rounded or cast.
Result<uint64_t> AsUnsigned(const JsonValue& v, const char* key,
                            uint64_t max) {
  if (!v.is(JsonValue::Kind::kNumber)) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be a number");
  }
  const char* const begin = v.text.data();
  const char* const end = begin + v.text.size();
  uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && ptr == end && out > max)) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' is out of range (max " +
                                   std::to_string(max) + ")");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be a non-negative integer");
  }
  return out;
}

Result<std::string> AsString(const JsonValue& v, const char* key) {
  if (!v.is(JsonValue::Kind::kString)) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be a string");
  }
  return v.text;
}

// Re-serializes a parsed JSON node byte-compatibly with JsonWriter (numbers
// keep their raw tokens), so result payloads survive a parse round trip.
void WriteValue(const JsonValue& v, obs::JsonWriter* w) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w->RawValue("null");
      break;
    case JsonValue::Kind::kBool:
      w->Bool(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      w->RawValue(v.text);
      break;
    case JsonValue::Kind::kString:
      w->String(v.text);
      break;
    case JsonValue::Kind::kArray:
      w->BeginArray();
      for (const JsonValue& element : v.array) WriteValue(element, w);
      w->EndArray();
      break;
    case JsonValue::Kind::kObject:
      w->BeginObject();
      for (const auto& [key, value] : v.object) {
        w->Key(key);
        WriteValue(value, w);
      }
      w->EndObject();
      break;
  }
}

// Parses [[a,b,...],...] of integers in [0, max] row by row via `emit`.
Status ParseNestedIntegerArray(
    const JsonValue& v, const char* key, size_t min_inner, size_t max_inner,
    uint64_t max,
    const std::function<Status(const std::vector<uint64_t>&)>& emit) {
  if (!v.is(JsonValue::Kind::kArray)) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be an array of arrays");
  }
  for (const JsonValue& inner : v.array) {
    if (!inner.is(JsonValue::Kind::kArray)) {
      return Status::InvalidArgument(std::string("field '") + key +
                                     "' must be an array of arrays");
    }
    if (inner.array.size() < min_inner || inner.array.size() > max_inner) {
      return Status::InvalidArgument(std::string("field '") + key +
                                     "' has an entry of invalid length");
    }
    std::vector<uint64_t> values;
    values.reserve(inner.array.size());
    for (const JsonValue& element : inner.array) {
      IREDUCT_ASSIGN_OR_RETURN(const uint64_t n,
                               AsUnsigned(element, key, max));
      values.push_back(n);
    }
    IREDUCT_RETURN_NOT_OK(emit(values));
  }
  return Status::OK();
}

bool KnownOp(std::string_view op) {
  return op == "open" || op == "resume" || op == "marginals" ||
         op == "count" || op == "budget" || op == "stats" || op == "ping";
}

// Blocking full-line write; serialized per connection by `mu`. A peer that
// vanished mid-write just drops the response (its reader is gone too).
void WriteLine(int fd, std::mutex* mu, std::string_view json) {
  std::string line(json);
  line += '\n';
  std::lock_guard<std::mutex> lock(*mu);
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

WireResponse ErrorResponse(uint64_t id, const Status& status,
                           int retry_after_ms) {
  WireResponse out;
  out.id = id;
  out.ok = false;
  out.code = std::string(StatusCodeToString(status.code()));
  out.message = std::string(status.message());
  out.retry_after_ms =
      status.code() == StatusCode::kResourceExhausted ? retry_after_ms : -1;
  return out;
}

WireResponse OkResponse(uint64_t id, std::string result_json) {
  WireResponse out;
  out.id = id;
  out.ok = true;
  out.result_json = std::move(result_json);
  return out;
}

}  // namespace

std::string WireRequest::ToJson() const {
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.KV("id", static_cast<uint64_t>(id));
  w.KV("op", op);
  if (op == "open" || op == "resume" || op == "marginals" || op == "count" ||
      op == "budget") {
    w.KV("tenant", tenant);
  }
  if (op == "open" || op == "resume") {
    w.KV("dataset", dataset);
    if (op == "open") w.KV("budget", budget);
    w.KV("seed", static_cast<uint64_t>(seed));
  }
  if (op == "marginals") {
    w.Key("specs");
    w.BeginArray();
    for (const MarginalSpec& spec : specs) {
      w.BeginArray();
      for (const uint32_t attr : spec.attributes) w.UInt(attr);
      w.EndArray();
    }
    w.EndArray();
    w.KV("mechanism", mechanism);
    w.KV("epsilon", epsilon);
    w.KV("delta", delta);
    w.Key("lambda_steps");
    w.Int(lambda_steps);
  }
  if (op == "count") {
    w.Key("predicates");
    w.BeginArray();
    for (const EqualityPredicate& p : query.predicates) {
      w.BeginArray();
      w.UInt(p.attribute);
      w.UInt(p.value);
      w.EndArray();
    }
    w.EndArray();
    w.KV("epsilon", epsilon);
  }
  w.EndObject();
  return out;
}

Result<WireRequest> WireRequest::Parse(std::string_view line) {
  IREDUCT_ASSIGN_OR_RETURN(const JsonValue doc, obs::JsonParse(line));
  if (!doc.is(JsonValue::Kind::kObject)) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  WireRequest out;
  bool saw_id = false, saw_op = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "id") {
      IREDUCT_ASSIGN_OR_RETURN(out.id, AsUnsigned(value, "id", kMaxU64));
      saw_id = true;
    } else if (key == "op") {
      IREDUCT_ASSIGN_OR_RETURN(out.op, AsString(value, "op"));
      saw_op = true;
    } else if (key == "tenant") {
      IREDUCT_ASSIGN_OR_RETURN(out.tenant, AsString(value, "tenant"));
    } else if (key == "dataset") {
      IREDUCT_ASSIGN_OR_RETURN(out.dataset, AsString(value, "dataset"));
    } else if (key == "mechanism") {
      IREDUCT_ASSIGN_OR_RETURN(out.mechanism, AsString(value, "mechanism"));
    } else if (key == "budget") {
      IREDUCT_ASSIGN_OR_RETURN(out.budget, AsNumber(value, "budget"));
    } else if (key == "epsilon") {
      IREDUCT_ASSIGN_OR_RETURN(out.epsilon, AsNumber(value, "epsilon"));
    } else if (key == "delta") {
      IREDUCT_ASSIGN_OR_RETURN(out.delta, AsNumber(value, "delta"));
    } else if (key == "seed") {
      IREDUCT_ASSIGN_OR_RETURN(out.seed, AsUnsigned(value, "seed", kMaxU64));
    } else if (key == "lambda_steps") {
      // Sessions take the step count as an int.
      IREDUCT_ASSIGN_OR_RETURN(
          const uint64_t steps,
          AsUnsigned(value, "lambda_steps", std::numeric_limits<int>::max()));
      out.lambda_steps = static_cast<int64_t>(steps);
    } else if (key == "specs") {
      out.specs.clear();
      IREDUCT_RETURN_NOT_OK(ParseNestedIntegerArray(
          value, "specs", 1, 64, std::numeric_limits<uint32_t>::max(),
          [&out](const std::vector<uint64_t>& values) {
            MarginalSpec spec;
            for (const uint64_t v : values) {
              spec.attributes.push_back(static_cast<uint32_t>(v));
            }
            out.specs.push_back(std::move(spec));
            return Status::OK();
          }));
    } else if (key == "predicates") {
      out.query.predicates.clear();
      IREDUCT_RETURN_NOT_OK(ParseNestedIntegerArray(
          value, "predicates", 2, 2, std::numeric_limits<uint32_t>::max(),
          [&out](const std::vector<uint64_t>& values) {
            if (values[1] > std::numeric_limits<uint16_t>::max()) {
              return Status::InvalidArgument(
                  "field 'predicates' value is out of range (max 65535)");
            }
            out.query.predicates.push_back(
                {static_cast<uint32_t>(values[0]),
                 static_cast<uint16_t>(values[1])});
            return Status::OK();
          }));
    } else {
      return Status::InvalidArgument("unknown request field '" + key + "'");
    }
  }
  if (!saw_id || !saw_op) {
    return Status::InvalidArgument("request needs 'id' and 'op'");
  }
  if (!KnownOp(out.op)) {
    return Status::InvalidArgument("unknown op '" + out.op + "'");
  }
  return out;
}

std::string WireResponse::ToJson() const {
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.KV("id", static_cast<uint64_t>(id));
  w.Key("ok");
  w.Bool(ok);
  if (ok) {
    w.Key("result");
    w.RawValue(result_json.empty() ? "null" : result_json);
  } else {
    w.KV("code", code);
    w.KV("message", message);
    if (retry_after_ms >= 0) {
      w.Key("retry_after_ms");
      w.Int(retry_after_ms);
    }
  }
  w.EndObject();
  return out;
}

Result<WireResponse> WireResponse::Parse(std::string_view line) {
  IREDUCT_ASSIGN_OR_RETURN(const JsonValue doc, obs::JsonParse(line));
  if (!doc.is(JsonValue::Kind::kObject)) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  WireResponse out;
  bool saw_id = false, saw_ok = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "id") {
      IREDUCT_ASSIGN_OR_RETURN(out.id, AsUnsigned(value, "id", kMaxU64));
      saw_id = true;
    } else if (key == "ok") {
      if (!value.is(JsonValue::Kind::kBool)) {
        return Status::InvalidArgument("field 'ok' must be a boolean");
      }
      out.ok = value.boolean;
      saw_ok = true;
    } else if (key == "result") {
      std::string raw;
      obs::JsonWriter w(&raw);
      WriteValue(value, &w);
      out.result_json = std::move(raw);
    } else if (key == "code") {
      IREDUCT_ASSIGN_OR_RETURN(out.code, AsString(value, "code"));
    } else if (key == "message") {
      IREDUCT_ASSIGN_OR_RETURN(out.message, AsString(value, "message"));
    } else if (key == "retry_after_ms") {
      IREDUCT_ASSIGN_OR_RETURN(
          const uint64_t ms,
          AsUnsigned(value, "retry_after_ms",
                     std::numeric_limits<int64_t>::max()));
      out.retry_after_ms = static_cast<int64_t>(ms);
    } else {
      return Status::InvalidArgument("unknown response field '" + key + "'");
    }
  }
  if (!saw_id || !saw_ok) {
    return Status::InvalidArgument("response needs 'id' and 'ok'");
  }
  return out;
}

std::string MarginalReleaseToJson(const MarginalRelease& release) {
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.KV("epsilon_spent", release.epsilon_spent);
  w.Key("marginals");
  w.BeginArray();
  for (const Marginal& m : release.marginals) {
    w.BeginObject();
    w.Key("attributes");
    w.BeginArray();
    for (const uint32_t attr : m.spec().attributes) w.UInt(attr);
    w.EndArray();
    w.Key("domain");
    w.BeginArray();
    for (const uint32_t size : m.domain_sizes()) w.UInt(size);
    w.EndArray();
    w.Key("counts");
    w.BeginArray();
    for (const double count : m.counts()) w.Double(count);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out;
}

std::string ServerStatsToJson(const QueryServerStats& stats) {
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.KV("admitted", stats.admitted);
  w.KV("shed_queue_full", stats.shed_queue_full);
  w.KV("shed_tenant_cap", stats.shed_tenant_cap);
  w.KV("completed", stats.completed);
  w.KV("batches", stats.batches);
  w.KV("fused_passes", stats.fused_passes);
  w.KV("max_batch_width", stats.max_batch_width);
  w.KV("queue_depth", static_cast<uint64_t>(stats.queue_depth));
  w.KV("tenants", static_cast<uint64_t>(stats.num_tenants));
  w.KV("datasets", static_cast<uint64_t>(stats.num_datasets));
  w.EndObject();
  return out;
}

Result<std::unique_ptr<WireServer>> WireServer::Start(
    QueryServer* server, std::string socket_path) {
  if (server == nullptr) {
    return Status::InvalidArgument("server must not be null");
  }
  sockaddr_un addr{};
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path must be 1.." +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " bytes");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind '" + socket_path + "': " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen '" + socket_path + "': " + err);
  }
  return std::unique_ptr<WireServer>(
      new WireServer(server, std::move(socket_path), fd));
}

WireServer::WireServer(QueryServer* server, std::string socket_path,
                       int listen_fd)
    : server_(server),
      socket_path_(std::move(socket_path)),
      listen_fd_(listen_fd) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

WireServer::~WireServer() { Stop(); }

uint64_t WireServer::connections_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_served_;
}

void WireServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Wakes the blocked accept (Linux: accept fails once the listening
  // socket is shut down).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // No new connections can appear now; wake every reader.
  std::vector<int> fds;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fds = connection_fds_;
    threads.swap(connection_threads_);
  }
  for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  for (const int fd : fds) ::close(fd);
  ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
}

void WireServer::AcceptLoop() {
  while (true) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      if (conn >= 0) ::close(conn);
      return;
    }
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket gone
    }
    connection_fds_.push_back(conn);
    ++connections_served_;
    connection_threads_.emplace_back(
        [this, conn] { ServeConnection(conn); });
  }
}

void WireServer::ServeConnection(int fd) {
  // Shared by the reader (this thread) and the per-request waiters so
  // response lines never interleave.
  std::mutex write_mu;
  std::vector<std::thread> waiters;
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // disconnect or Stop()'s shutdown
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty()) HandleLine(line, fd, &write_mu, &waiters);
    }
  }
  // Queued requests still resolve (the server answers every admitted
  // request); their writes hit a dead socket and are dropped.
  for (std::thread& t : waiters) t.join();
}

void WireServer::HandleLine(std::string_view line, int fd,
                            std::mutex* write_mu,
                            std::vector<std::thread>* waiters) {
  const int retry_ms = server_->config().retry_after_ms;
  Result<WireRequest> parsed = WireRequest::Parse(line);
  if (!parsed.ok()) {
    WriteLine(fd, write_mu, ErrorResponse(0, parsed.status(), -1).ToJson());
    return;
  }
  const WireRequest req = std::move(*parsed);
  if (req.op == "ping") {
    WriteLine(fd, write_mu, OkResponse(req.id, "{\"pong\":true}").ToJson());
    return;
  }
  if (req.op == "stats") {
    WriteLine(fd, write_mu,
              OkResponse(req.id, ServerStatsToJson(server_->Stats()))
                  .ToJson());
    return;
  }
  if (req.op == "open" || req.op == "resume") {
    const Status status =
        req.op == "open"
            ? server_->OpenTenant(req.tenant, req.dataset, req.budget,
                                  req.seed)
            : server_->ResumeTenant(req.tenant, req.dataset, req.seed);
    if (!status.ok()) {
      WriteLine(fd, write_mu, ErrorResponse(req.id, status, retry_ms).ToJson());
      return;
    }
    std::string result;
    obs::JsonWriter w(&result);
    w.BeginObject();
    w.KV("tenant", req.tenant);
    w.EndObject();
    WriteLine(fd, write_mu, OkResponse(req.id, std::move(result)).ToJson());
    return;
  }
  if (req.op == "budget") {
    Result<QueryServer::TenantBudget> budget = server_->GetBudget(req.tenant);
    if (!budget.ok()) {
      WriteLine(fd, write_mu,
                ErrorResponse(req.id, budget.status(), retry_ms).ToJson());
      return;
    }
    std::string result;
    obs::JsonWriter w(&result);
    w.BeginObject();
    w.KV("budget", budget->budget);
    w.KV("spent", budget->spent);
    w.KV("remaining", budget->remaining);
    w.EndObject();
    WriteLine(fd, write_mu, OkResponse(req.id, std::move(result)).ToJson());
    return;
  }
  if (req.op == "count") {
    std::future<Result<double>> future =
        server_->SubmitCount(req.tenant, req.query, req.epsilon);
    waiters->emplace_back([fd, write_mu, retry_ms, id = req.id,
                           future = std::move(future)]() mutable {
      Result<double> value = future.get();
      if (!value.ok()) {
        WriteLine(fd, write_mu,
                  ErrorResponse(id, value.status(), retry_ms).ToJson());
        return;
      }
      std::string result;
      obs::JsonWriter w(&result);
      w.BeginObject();
      w.KV("value", *value);
      w.EndObject();
      WriteLine(fd, write_mu, OkResponse(id, std::move(result)).ToJson());
    });
    return;
  }
  // req.op == "marginals"
  Result<MechanismSpec> mechanism = MechanismSpec::Parse(req.mechanism);
  if (!mechanism.ok()) {
    WriteLine(fd, write_mu,
              ErrorResponse(req.id, mechanism.status(), retry_ms).ToJson());
    return;
  }
  std::future<Result<MarginalRelease>> future = server_->SubmitMarginals(
      req.tenant, req.specs, std::move(*mechanism), req.epsilon, req.delta,
      static_cast<int>(req.lambda_steps));
  waiters->emplace_back([fd, write_mu, retry_ms, id = req.id,
                         future = std::move(future)]() mutable {
    Result<MarginalRelease> release = future.get();
    if (!release.ok()) {
      WriteLine(fd, write_mu,
                ErrorResponse(id, release.status(), retry_ms).ToJson());
      return;
    }
    WriteLine(fd, write_mu,
              OkResponse(id, MarginalReleaseToJson(*release)).ToJson());
  });
}

Result<WireClient> WireClient::Connect(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path must be 1.." +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " bytes");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect '" + socket_path + "': " + err);
  }
  return WireClient(fd);
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(other.fd_),
      read_buffer_(std::move(other.read_buffer_)),
      pending_(std::move(other.pending_)) {
  other.fd_ = -1;
}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    read_buffer_ = std::move(other.read_buffer_);
    pending_ = std::move(other.pending_);
    other.fd_ = -1;
  }
  return *this;
}

Status WireClient::Send(const WireRequest& request) {
  std::string line = request.ToJson();
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<WireResponse> WireClient::Receive(uint64_t id) {
  while (true) {
    const auto pending = pending_.find(id);
    if (pending != pending_.end()) {
      WireResponse out = std::move(pending->second);
      pending_.erase(pending);
      return out;
    }
    size_t newline;
    while ((newline = read_buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return Status::IoError("connection closed before response " +
                               std::to_string(id));
      }
      read_buffer_.append(chunk, static_cast<size_t>(n));
    }
    const std::string line = read_buffer_.substr(0, newline);
    read_buffer_.erase(0, newline + 1);
    IREDUCT_ASSIGN_OR_RETURN(WireResponse response, WireResponse::Parse(line));
    pending_.emplace(response.id, std::move(response));
  }
}

Result<WireResponse> WireClient::Call(const WireRequest& request) {
  IREDUCT_RETURN_NOT_OK(Send(request));
  return Receive(request.id);
}

}  // namespace ireduct

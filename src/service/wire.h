// NDJSON wire protocol for the query server, over a local Unix-domain
// stream socket (see docs/SERVICE.md for the full schema).
//
// Framing: one JSON object per '\n'-terminated line, both directions.
// Every request carries a caller-chosen `id`; the matching response echoes
// it. Responses may arrive out of order — queued work (count/marginals)
// resolves through the server's admission pipeline while synchronous ops
// (open/budget/stats/ping) answer immediately — so clients correlate by
// id, never by position.
//
// Requests (fields beyond id/op depend on the op):
//   {"id":1,"op":"open","tenant":"t1","dataset":"census","budget":1.0,
//    "seed":7}
//   {"id":2,"op":"marginals","tenant":"t1","specs":[[0,1],[2]],
//    "mechanism":"ireduct","epsilon":0.5,"delta":0.05,"lambda_steps":200}
//   {"id":3,"op":"count","tenant":"t1","predicates":[[0,3],[1,1]],
//    "epsilon":0.1}
//   {"id":4,"op":"budget","tenant":"t1"}    {"id":5,"op":"stats"}
//   {"id":6,"op":"ping"}                    {"id":7,"op":"resume",...}
//
// Responses:
//   {"id":2,"ok":true,"result":{...}}
//   {"id":2,"ok":false,"code":"Resource exhausted","message":"...",
//    "retry_after_ms":50}
// `retry_after_ms` appears exactly on admission sheds; a client seeing it
// can resubmit the identical request after the hinted delay (sheds never
// charge ε). Unparseable request lines produce an id-0 error response; so
// does a line longer than kMaxWireLineBytes, which also ends the connection.
#ifndef IREDUCT_SERVICE_WIRE_H_
#define IREDUCT_SERVICE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "marginals/marginal.h"
#include "queries/predicate.h"
#include "service/private_session.h"
#include "service/query_server.h"

namespace ireduct {

/// Longest request line a WireServer reads, newline excluded. A longer line
/// gets an id-0 error response, and the server closes its connection.
inline constexpr size_t kMaxWireLineBytes = size_t{1} << 20;

/// One parsed request line. `op` selects which fields are meaningful.
struct WireRequest {
  uint64_t id = 0;
  std::string op;       // open|resume|marginals|count|budget|stats|ping
  std::string tenant;   // open/resume/marginals/count/budget
  std::string dataset;  // open/resume
  double budget = 0;    // open
  uint64_t seed = 0;    // open/resume
  double epsilon = 0;   // marginals/count
  double delta = 0;     // marginals
  int64_t lambda_steps = 200;          // marginals
  std::string mechanism = "ireduct";   // marginals (compact spec text)
  std::vector<MarginalSpec> specs;     // marginals
  ConjunctiveQuery query;              // count

  /// Serializes exactly the fields the op uses, keys in a fixed order.
  std::string ToJson() const;

  /// Strict inverse of ToJson: unknown ops, unknown keys, or wrong field
  /// types are kInvalidArgument.
  static Result<WireRequest> Parse(std::string_view line);
};

/// One response line.
struct WireResponse {
  uint64_t id = 0;
  bool ok = false;
  std::string result_json;   // serialized result object when ok
  std::string code;          // StatusCodeToString(...) when !ok
  std::string message;       // status message when !ok
  int64_t retry_after_ms = -1;  // >= 0 exactly on admission sheds

  std::string ToJson() const;
  static Result<WireResponse> Parse(std::string_view line);
};

/// Serialized result payloads (shared by the server and tests).
std::string MarginalReleaseToJson(const MarginalRelease& release);
std::string ServerStatsToJson(const QueryServerStats& stats);

/// Serves a QueryServer over a Unix-domain socket: accepts connections,
/// parses NDJSON request lines, dispatches onto the server's admission
/// pipeline and writes id-correlated responses. One reader thread per
/// connection plus one waiter per queued request; response writes are
/// serialized per connection. The reader joins finished waiters before it
/// spawns the next one, and every remaining one when the connection ends.
class WireServer {
 public:
  /// Binds `socket_path` (an existing socket file is replaced) and starts
  /// accepting. `server` is borrowed and must outlive the WireServer.
  static Result<std::unique_ptr<WireServer>> Start(QueryServer* server,
                                                   std::string socket_path);

  /// Stops accepting, shuts every connection down and joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();
  ~WireServer();

  const std::string& socket_path() const { return socket_path_; }
  uint64_t connections_served() const;

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

 private:
  WireServer(QueryServer* server, std::string socket_path, int listen_fd);

  /// A thread that writes one queued request's response line (wire.cc).
  struct Waiter;

  /// One accepted connection and its reader thread (wire.cc).
  struct Connection;

  void AcceptLoop();
  /// Joins finished readers and closes their fds. Caller holds mu_.
  void ReapConnectionsLocked();
  void ServeConnection(Connection* conn);
  /// Handles one request line, writing any synchronous response and
  /// spawning waiters for queued ops. `write_mu`/`fd` describe the
  /// connection; waiters are collected into `waiters`.
  void HandleLine(std::string_view line, int fd, std::mutex* write_mu,
                  std::list<Waiter>* waiters);

  QueryServer* const server_;
  const std::string socket_path_;
  int listen_fd_ = -1;

  mutable std::mutex mu_;
  bool stopping_ = false;
  std::list<Connection> connections_;  // stable addresses for readers
  uint64_t connections_served_ = 0;

  std::thread accept_thread_;
};

/// Minimal blocking client for the wire protocol: one connection, request/
/// response correlation by id (out-of-order responses are buffered).
class WireClient {
 public:
  static Result<WireClient> Connect(const std::string& socket_path);
  ~WireClient();

  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&& other) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Writes one request line. Ids must be unique per connection.
  Status Send(const WireRequest& request);
  /// Reads lines until the response with `id` arrives (other ids are
  /// buffered for their own Receive calls).
  Result<WireResponse> Receive(uint64_t id);
  /// Send + Receive in one call.
  Result<WireResponse> Call(const WireRequest& request);

 private:
  explicit WireClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string read_buffer_;
  std::map<uint64_t, WireResponse> pending_;
};

}  // namespace ireduct

#endif  // IREDUCT_SERVICE_WIRE_H_

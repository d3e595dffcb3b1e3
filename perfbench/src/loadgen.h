// Single-threaded load generator for the NDJSON wire protocol.
//
// One thread drives every connection with ppoll(): open-loop phases send
// each request at its Poisson-scheduled time whatever the server is doing,
// closed-loop phases keep a fixed number of requests in flight per tenant.
// Tenant t always uses connection t % connections, so each tenant's
// admission order equals its send order — the order the correctness replay
// reproduces.
//
// Responses are not parsed: the generator reads each raw line, takes the
// id (the first member WireResponse::ToJson writes), the ok flag, a shed
// marker and — for marginal releases — the leading epsilon_spent, and keeps
// a 64-bit digest of the whole line. Latency runs from each request's
// scheduled send time to the arrival of its full response line.
#ifndef IREDUCT_PERFBENCH_LOADGEN_H_
#define IREDUCT_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "harness.h"
#include "service/wire.h"
#include "spans.h"

namespace ireduct {
namespace perfbench {

/// One load phase. Open loop when `rate` > 0: requests per second across
/// all tenants, tenants drawn uniformly, for `seconds`. Otherwise closed
/// loop with `outstanding_per_tenant` requests in flight per tenant until
/// `requests` have been sent — a fixed amount of work, so a faster server
/// finishes sooner — or, with no quota, for `seconds`.
struct LoadPhase {
  std::string name;
  double seconds = 0;
  double rate = 0;
  int outstanding_per_tenant = 0;
  uint64_t requests = 0;
};

/// Everything known about one sent request.
struct SentRequest {
  WireRequest request;
  int tenant = 0;
  int phase = 0;
  double scheduled_s = 0;  // relative to the load start
  double sent_s = -1;
  /// Position in the generator's send sequence (1-based; 0: never sent).
  /// Per tenant this is the server's admission order.
  uint64_t send_seq = 0;
  double received_s = -1;  // -1: no response (timeout)
  bool ok = false;
  bool shed = false;  // admission shed (retry_after_ms present)
  uint64_t digest = 0;
  size_t response_bytes = 0;
  double epsilon_spent = 0;  // ε the ok response reports charging

  bool answered() const { return received_s >= 0; }
  double latency_ms() const { return (received_s - scheduled_s) * 1e3; }
};

/// Builds tenant `tenant`'s next request (no id). `u` is a stratified
/// uniform for the request's top-level choice (see StratifiedStream); any
/// further randomness comes from `gen`.
using RequestMaker =
    std::function<WireRequest(int tenant, double u, BitGen& gen)>;

/// Tenant `tenant`'s next request from `draws`: the request type comes from
/// the stratified uniform, so every block of 30 requests carries the
/// workload's mix exactly; the rest comes from the stream's generator.
inline WireRequest MakeRequest(const RequestMaker& maker,
                               StratifiedStream& draws, int tenant) {
  const double u = draws.Next();
  return maker(tenant, u, draws.gen());
}

struct LoadConfig {
  std::string socket_path;
  int connections = 1;
  std::vector<std::string> tenants;
  std::vector<LoadPhase> phases;
  uint64_t seed = 0;
  RequestMaker make_request;
  /// Traced runs only: records spans, and sends a stats op every 100 ms to
  /// track the queue depth.
  SpanRecorder* spans = nullptr;
  /// Called once, on the generator thread, when phase `first_measured`
  /// begins (registry snapshots bracket the measured window).
  int first_measured = 0;
  std::function<void()> on_measure_start;
};

struct LoadResult {
  Status status;
  std::vector<SentRequest> requests;  // by id − 1, i.e. creation order
  /// When each phase began and ended: an open phase spans its nominal
  /// window, a closed one runs from its first send to its last response.
  std::vector<double> phase_start_s;
  std::vector<double> phase_end_s;
  double end_s = 0;  // when the last response arrived (or the drain ended)
  double gen_lag_p99_ms = 0;
  double req_encode_us = 0;  // mean WireRequest::ToJson cost
  uint64_t queue_depth_max = 0;
  uint64_t stats_polls = 0;
};

/// The arrival schedule of the open-loop phases: (time, tenant) pairs in
/// time order, drawn from `seed` alone. Exposed for the self-test.
struct ScheduledArrival {
  double t = 0;
  int tenant = 0;
  int phase = 0;
};
std::vector<ScheduledArrival> BuildSchedule(const std::vector<LoadPhase>& phases,
                                            int tenants, uint64_t seed);

/// Runs every phase against the server at config.socket_path.
LoadResult RunLoad(const LoadConfig& config);

}  // namespace perfbench
}  // namespace ireduct

#endif  // IREDUCT_PERFBENCH_LOADGEN_H_

// QueryServer: a long-running multi-tenant front end over the session
// layer — many PrivateQuerySessions (one per tenant, each with its own ε
// budget and optional crash-safe journal) sharing immutable datasets.
//
// Requests flow through an asynchronous admission pipeline:
//
//   Submit*() ──admission──▶ bounded FIFO queue ──▶ dispatcher thread
//                 │                                      │
//                 │ shed: queue full or tenant           │ coalesce up to
//                 │ in-flight cap → kResourceExhausted   │ max_batch requests
//                 ▼ (with a retry-after hint), BEFORE    ▼
//              caller                      Phase A: one fused true-table
//                                          pass per dataset fingerprint
//                                          (MarginalCache::Global + pool)
//                                          Phase B: one chain per tenant,
//                                          its requests in admission order;
//                                          two or more chains run at once
//                                          on the pool, a lone chain on the
//                                          dispatcher thread
//
// Determinism contract: responses, journals and the event stream are
// bit-identical to running each tenant's requests serially against its own
// PrivateQuerySession, at any worker count and any batch width. Phase A
// computes only *true* count tables, which the fused evaluator and the
// marginal cache guarantee bit-identical to Marginal::Compute; Phase B
// consumes each session's RNG, accountant and journal strictly in that
// tenant's admission order, and tenants share no mutable state. Each
// request's events are captured while its chain runs and committed in
// admission order once the chains join. Batching therefore changes
// wall-clock only, never bytes — tests/service/query_server_test.cc locks
// this with golden comparisons across {1,2,8} workers × batched/unbatched.
//
// Shedding never charges ε: admission rejects happen before the request
// touches a session, so a kResourceExhausted caller can simply retry.
#ifndef IREDUCT_SERVICE_QUERY_SERVER_H_
#define IREDUCT_SERVICE_QUERY_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "marginals/marginal.h"
#include "queries/predicate.h"
#include "service/private_session.h"

namespace ireduct {

/// Tuning for one QueryServer instance.
struct QueryServerConfig {
  /// Workers for the fused true-table passes (Phase A sharding). They also
  /// bound how many tenants' Phase B chains run at once.
  int workers = 1;
  /// Bounded admission queue; a submit beyond this is shed with
  /// kResourceExhausted. Must be >= 1.
  size_t max_queue = 256;
  /// Per-tenant in-flight cap (queued + executing); a tenant beyond it is
  /// shed even when the queue has room, so one chatty tenant cannot starve
  /// the rest. Must be >= 1.
  int max_inflight_per_tenant = 8;
  /// Dispatcher coalescing window: up to this many queued requests are
  /// drained into one batch (>= 1). Only meaningful with batching on.
  size_t max_batch = 16;
  /// Coalesce concurrent marginal requests against the same dataset
  /// fingerprint into one fused evaluator pass sharing the process-wide
  /// MarginalCache. Off: every request runs the classic per-spec scan
  /// path (the architectural baseline bench/service_throughput compares
  /// against). Identical bytes either way.
  bool batching = true;
  /// When non-empty, every tenant gets a crash-safe write-ahead journal at
  /// <journal_dir>/<tenant>.journal (missing directories are created).
  /// Empty: plain in-memory sessions.
  std::string journal_dir;
  /// Retry hint attached to shed responses (and surfaced over the wire as
  /// retry_after_ms).
  int retry_after_ms = 50;
};

/// Point-in-time counters for monitoring and tests. All-time totals except
/// queue_depth (current).
struct QueryServerStats {
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_tenant_cap = 0;
  uint64_t completed = 0;
  uint64_t batches = 0;          // dispatcher drains (incl. width-1)
  uint64_t fused_passes = 0;     // Phase A groups the cache served, with
                                 // or without a scan
  uint64_t max_batch_width = 0;  // widest drain observed
  size_t queue_depth = 0;
  size_t num_tenants = 0;
  size_t num_datasets = 0;
};

/// A multi-tenant private query service. Thread-safe: Submit*/Stats/
/// OpenTenant may race freely; AddDataset* must complete before tenants
/// are opened on that dataset.
class QueryServer {
 public:
  /// Validates `config` and starts the dispatcher.
  static Result<std::unique_ptr<QueryServer>> Create(QueryServerConfig config);

  /// Stops the dispatcher; queued requests fail with kFailedPrecondition.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Registers an in-memory dataset under `name`. Fingerprints it once so
  /// the admission pipeline never rescans.
  Status AddDataset(const std::string& name, Dataset dataset);

  /// Opens a columnar file (data/columnar.h) and registers it: zero-copy
  /// layouts become mmap-backed datasets shared by every tenant.
  Status AddDatasetFile(const std::string& name, const std::string& path);

  /// The registered dataset, or nullptr. Stable for the server's lifetime.
  const Dataset* dataset(const std::string& name) const;

  /// Creates tenant `tenant` over dataset `dataset_name` with its own ε
  /// budget and RNG seed (journaled when config.journal_dir is set).
  /// Duplicate tenants are refused with kFailedPrecondition.
  Status OpenTenant(const std::string& tenant, const std::string& dataset_name,
                    double epsilon_budget, uint64_t seed);

  /// Like OpenTenant, but resumes from the tenant's existing journal after
  /// a crash (requires config.journal_dir).
  Status ResumeTenant(const std::string& tenant,
                      const std::string& dataset_name, uint64_t seed);

  /// Budget view of one tenant: {budget, spent, remaining}.
  struct TenantBudget {
    double budget = 0;
    double spent = 0;
    double remaining = 0;
  };
  Result<TenantBudget> GetBudget(const std::string& tenant) const;

  /// Queues a marginal publication for `tenant`. The future resolves with
  /// the release, the mechanism's error, or the admission shed
  /// (kResourceExhausted, never after an ε charge).
  std::future<Result<MarginalRelease>> SubmitMarginals(
      const std::string& tenant, std::vector<MarginalSpec> specs,
      MechanismSpec mechanism, double epsilon, double delta,
      int lambda_steps = 200);

  /// Queues one noisy predicate count for `tenant`.
  std::future<Result<double>> SubmitCount(const std::string& tenant,
                                          ConjunctiveQuery query,
                                          double epsilon);

  /// Synchronous conveniences: Submit + wait.
  Result<MarginalRelease> PublishMarginals(const std::string& tenant,
                                           std::vector<MarginalSpec> specs,
                                           MechanismSpec mechanism,
                                           double epsilon, double delta,
                                           int lambda_steps = 200);
  Result<double> CountQuery(const std::string& tenant, ConjunctiveQuery query,
                            double epsilon);

  /// Test hook: Pause() parks the dispatcher so submissions accumulate in
  /// the queue (deterministic queue-full behavior); Resume() drains.
  void Pause();
  void Resume();

  /// Blocks until the queue is empty and no request is executing.
  void Drain();

  QueryServerStats Stats() const;

  const QueryServerConfig& config() const { return config_; }

 private:
  struct TenantState {
    std::string name;
    std::string dataset_name;
    uint64_t fingerprint = 0;
    const Dataset* dataset = nullptr;  // points into datasets_
    std::unique_ptr<PrivateQuerySession> session;
    int inflight = 0;
  };

  struct DatasetState {
    Dataset dataset;
    uint64_t fingerprint = 0;
  };

  enum class RequestKind { kMarginals, kCount };

  struct Request {
    RequestKind kind = RequestKind::kMarginals;
    TenantState* tenant = nullptr;
    // kMarginals
    std::vector<MarginalSpec> specs;
    MechanismSpec mechanism;
    double epsilon = 0;
    double delta = 0;
    int lambda_steps = 0;
    std::promise<Result<MarginalRelease>> marginals_promise;
    // kCount
    ConjunctiveQuery query;
    std::promise<Result<double>> count_promise;
  };

  explicit QueryServer(QueryServerConfig config);

  // Admission: validates the tenant and capacity under mu_, then enqueues
  // or resolves the request's promise with a shed/lookup error.
  void Admit(const std::string& tenant_name, Request request);
  // Resolves a request's promise with `status` (whichever kind it is).
  static void Reject(Request& request, Status status);

  void DispatcherLoop();
  void ExecuteBatch(std::vector<Request> batch);
  // Resolves one request against its tenant's session. `precomputed` is
  // the request's true tables from Phase A, or nullptr to use the classic
  // self-computing path.
  void ExecuteOne(Request& request, std::vector<Marginal>* precomputed);
  // Per-request bookkeeping once its response is set: the tenant's
  // in-flight slot and the completed count. Runs on the chain's thread;
  // ExecuteBatch settles `executing_` after the batch's events are
  // committed.
  void FinishRequest(TenantState* tenant);

  const QueryServerConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_ready_;   // dispatcher wakeup
  std::condition_variable queue_drained_;  // Drain()/ExecuteBatch handshake
  std::deque<Request> queue_;
  size_t executing_ = 0;  // requests drained from queue_, batch not finished
  bool paused_ = false;
  bool stopping_ = false;

  std::map<std::string, DatasetState> datasets_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;

  // Written only under mu_ (admission, the dispatcher, FinishRequest on a
  // chain's thread); Stats() reads it under mu_.
  QueryServerStats stats_;

  ThreadPool pool_;  // Phase A sharding and Phase B chains
  std::thread dispatcher_;
};

}  // namespace ireduct

#endif  // IREDUCT_SERVICE_QUERY_SERVER_H_

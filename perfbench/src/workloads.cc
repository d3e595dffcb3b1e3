#include "workloads.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "algorithms/mechanism_registry.h"
#include "data/census_generator.h"
#include "data/columnar.h"
#include "dp/ledger_journal.h"
#include "eval/metrics.h"
#include "layers.h"
#include "marginals/marginal_cache.h"
#include "marginals/marginal_set.h"
#include "marginals/marginal_workload.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "queries/predicate.h"
#include "service/private_session.h"
#include "service/query_server.h"
#include "service/wire.h"

namespace ireduct {
namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Median(std::vector<double> values) {
  return QuartilesOf(std::move(values)).median;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------- constants

// Frozen open-loop rates (requests/s across all tenants), from the
// closed-loop saturation rate measured on the reference host: lo ≈ 0.3×
// of it, mid ≈ 0.6×. Their latencies are reported, not gated: queueing
// amplifies the host's run-to-run speed changes, which a closed loop does
// not (see README.md, "Why these statistics and workloads").
constexpr double kCountsLoRate = 120;
constexpr double kCountsMidRate = 240;
// Closed-loop throughput on the reference host; it sizes each closed
// phase's request quota so the phase lasts about its nominal length there.
constexpr double kCountsSatRate = 420;
constexpr double kScanSatRate = 100;

constexpr uint64_t kCensusSeed = 2011;
constexpr double kTenantBudget = 1e6;
// Set-ups per run; the median is setup_s. A 400k-row set-up takes a few
// milliseconds, a 10M-row one a quarter of a second. paper_release spreads
// its set-ups over the run, a batch before each release.
constexpr int kSetups = 25;
constexpr int kScanSetups = 5;
constexpr int kSetupsPerRelease = 5;
constexpr int kMinReleases = 3;
// Wall-clock cap on the correctness replay; tenants past it are verified
// up to a prefix. A full replay takes a few seconds on the reference host.
constexpr double kReplayBudgetSeconds = 10;
// Replay threads: one core stays free for the rest of the machine.
constexpr int kReplayThreads = 3;

struct InputSpec {
  const char* file;
  uint64_t rows;
  bool zero_copy;
};

InputSpec InputOf(std::string_view workload) {
  if (workload == "paper_release") {
    return {"census_400k_packed.col", 400'000, false};
  }
  if (workload == "scan_10m") {
    return {"census_10m_packed.col", 10'000'000, false};
  }
  return {"census_400k_zero_copy.col", 400'000, true};
}

uint64_t TenantSeed(uint64_t seed, int tenant) {
  return seed * 1009 + static_cast<uint64_t>(tenant) + 1;
}

std::string TenantName(int tenant) {
  return (tenant < 10 ? "t0" : "t") + std::to_string(tenant);
}

uint64_t Cells(const Schema& schema, const MarginalSpec& spec) {
  uint64_t cells = 1;
  for (const uint32_t a : spec.attributes) {
    cells *= schema.attribute(a).domain_size;
  }
  return cells;
}

std::vector<MarginalSpec> SpecsUpTo(const Schema& schema, int k,
                                    uint64_t max_cells) {
  std::vector<MarginalSpec> out;
  Result<std::vector<MarginalSpec>> all = AllKWaySpecs(schema, k);
  if (!all.ok()) return out;
  for (MarginalSpec& spec : *all) {
    if (Cells(schema, spec) <= max_cells) out.push_back(std::move(spec));
  }
  return out;
}

// Draws `count` distinct indices from [0, n) via `draw`.
template <typename Draw>
std::vector<uint32_t> DistinctDraws(size_t count, Draw draw) {
  std::vector<uint32_t> out;
  while (out.size() < count) {
    const uint32_t i = draw();
    if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
  }
  return out;
}

// ---------------------------------------------------------- service shape

struct ServiceShape {
  int tenants = 16;
  bool journaled = true;
  int connections = 4;
  int outstanding = 2;  // closed-loop requests in flight per tenant
  double lo_rate = 0;   // 0: closed loop throughout (scan_10m)
  double mid_rate = 0;
  double sat_rate = 0;
};

ServiceShape ShapeOf(std::string_view workload) {
  ServiceShape shape;
  if (workload == "service_counts") {
    shape.lo_rate = kCountsLoRate;
    shape.mid_rate = kCountsMidRate;
    shape.sat_rate = kCountsSatRate;
  } else {  // scan_10m
    shape.sat_rate = kScanSatRate;
    shape.tenants = 4;
    shape.journaled = false;
    shape.connections = 1;
    shape.outstanding = 1;
  }
  return shape;
}

// Phase 0 of a wire workload is always the unmeasured warm-up; its last
// phase is the closed loop whose latencies and throughput are gated.
constexpr int kFirstMeasuredPhase = 1;

// ------------------------------------------------------------ set-up

struct ServerStack {
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<WireServer> wire;  // borrows `server`; released first
  std::string journal_dir;
};

void TearDown(ServerStack& stack) {
  stack.wire.reset();
  stack.server.reset();
}

// Empties `dir` but keeps it: the process works inside it (socket paths
// are relative to it, which keeps them under the sun_path limit).
void ClearDirectory(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    fs::remove_all(entry.path(), ec);
  }
}

struct SetupTiming {
  double total_s = 0;
  double open_ms = 0;
  double decode_ms = 0;
};

// Times ColumnarFile::Open and ToDataset on `path` (the data layer's two
// load steps), recording spans under `parent`.
Result<Dataset> TimedLoad(const std::string& path, SetupTiming* timing,
                          SpanRecorder* spans, int parent) {
  const Clock::time_point t0 = Clock::now();
  IREDUCT_ASSIGN_OR_RETURN(ColumnarFile file, ColumnarFile::Open(path));
  const Clock::time_point t1 = Clock::now();
  IREDUCT_ASSIGN_OR_RETURN(Dataset dataset, file.ToDataset());
  const Clock::time_point t2 = Clock::now();
  timing->open_ms = Millis(t0, t1);
  timing->decode_ms = Millis(t1, t2);
  if (spans != nullptr) {
    spans->Add("data.open", t0, t1, parent);
    spans->Add("data.decode", t1, t2, parent);
  }
  return dataset;
}

// One full server set-up: the data layer's load steps are timed on their
// own first (outside the set-up clock); the set-up itself is what a
// deployment pays — AddDatasetFile, tenant opens (journal creation) and
// the socket listen.
Result<ServerStack> SetUpServer(const std::string& input,
                                const ServiceShape& shape,
                                const std::string& dir, const std::string& sock,
                                SetupTiming* timing, SpanRecorder* spans,
                                uint64_t seed) {
  const int setup_span = spans != nullptr ? spans->Begin("setup") : -1;
  {
    IREDUCT_ASSIGN_OR_RETURN(Dataset probe,
                             TimedLoad(input, timing, spans, setup_span));
  }
  const Clock::time_point start = Clock::now();
  ServerStack stack;
  QueryServerConfig config;
  config.workers = 2;
  config.max_queue = 256;
  config.max_inflight_per_tenant = 8;
  config.max_batch = 16;
  config.batching = true;
  if (shape.journaled) {
    stack.journal_dir = dir + "/journals";
    config.journal_dir = stack.journal_dir;
  }
  IREDUCT_ASSIGN_OR_RETURN(stack.server, QueryServer::Create(config));
  {
    ScopedSpan span(spans, "server.add_dataset_file", setup_span);
    IREDUCT_RETURN_NOT_OK(stack.server->AddDatasetFile("census", input));
  }
  {
    ScopedSpan span(spans, "server.open_tenants", setup_span);
    for (int t = 0; t < shape.tenants; ++t) {
      IREDUCT_RETURN_NOT_OK(stack.server->OpenTenant(
          TenantName(t), "census", kTenantBudget, TenantSeed(seed, t)));
    }
  }
  {
    ScopedSpan span(spans, "wire.listen", setup_span);
    IREDUCT_ASSIGN_OR_RETURN(stack.wire,
                             WireServer::Start(stack.server.get(), sock));
  }
  timing->total_s = Since(start);
  if (spans != nullptr) spans->End(setup_span);
  return stack;
}

// --------------------------------------------------------- request makers

Result<RequestMaker> CountsMaker(const Schema& schema) {
  auto zipf = std::make_shared<std::vector<ZipfSampler>>();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    zipf->emplace_back(schema.attribute(a).domain_size, 1.0);
  }
  const uint64_t attrs = schema.num_attributes();
  return RequestMaker([zipf, attrs](int, double u, BitGen& gen) {
    WireRequest r;
    r.op = "count";
    r.epsilon = 0.1;
    const size_t k = 1 + static_cast<size_t>(u * 3);
    for (const uint32_t a : DistinctDraws(k, [&] {
           return static_cast<uint32_t>(gen.UniformInt(attrs));
         })) {
      r.query.predicates.push_back(
          {a, static_cast<uint16_t>((*zipf)[a].Sample(gen))});
    }
    return r;
  });
}

// The scan pool: every 2- and 3-way spec of at most 1024 cells, in
// lexicographic order; requests draw 4 distinct specs Zipf(1.0) by rank.
std::vector<MarginalSpec> ScanPool(const Schema& schema) {
  std::vector<MarginalSpec> pool = SpecsUpTo(schema, 2, 1024);
  for (MarginalSpec& s : SpecsUpTo(schema, 3, 1024)) pool.push_back(s);
  return pool;
}

Result<RequestMaker> ScanMaker(const Schema& schema, double delta) {
  auto pool = std::make_shared<std::vector<MarginalSpec>>(ScanPool(schema));
  auto zipf = std::make_shared<ZipfSampler>(
      static_cast<uint32_t>(pool->size()), 1.0);
  return RequestMaker([pool, zipf, delta](int, double, BitGen& gen) {
    WireRequest r;
    r.op = "marginals";
    for (const uint32_t s : DistinctDraws(4, [&] { return zipf->Sample(gen); })) {
      r.specs.push_back((*pool)[s]);
    }
    r.mechanism = "dwork";
    r.epsilon = 1.0;
    r.delta = delta;
    r.lambda_steps = 200;
    return r;
  });
}

double SanityDelta(uint64_t rows) { return 1e-4 * static_cast<double>(rows); }

// ------------------------------------------------------------- replay

// True answers from the classic single-marginal scan (Marginal::Compute),
// independent of the fused evaluator and the MarginalCache the server
// uses. A conjunctive count is one cell of the marginal over its
// attributes, so counts come from the same tables. Shared by the replay
// threads: a table is computed outside the lock, so threads that need
// different tables scan concurrently (two threads racing for one table
// both compute it and the first insert wins; the copies are identical).
class Truth {
 public:
  explicit Truth(const Dataset& dataset) : dataset_(dataset) {}

  Result<const Marginal*> Table(const MarginalSpec& spec) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = tables_.find(spec.attributes);
      if (it != tables_.end()) return &it->second;
    }
    IREDUCT_ASSIGN_OR_RETURN(Marginal m, Marginal::Compute(dataset_, spec));
    std::lock_guard<std::mutex> lock(mu_);
    return &tables_.emplace(spec.attributes, std::move(m)).first->second;
  }

  Result<std::vector<Marginal>> Tables(const std::vector<MarginalSpec>& specs) {
    std::vector<Marginal> out;
    out.reserve(specs.size());
    for (const MarginalSpec& spec : specs) {
      IREDUCT_ASSIGN_OR_RETURN(const Marginal* table, Table(spec));
      out.push_back(*table);
    }
    return out;
  }

  // The true answers of a whole spec set in workload form, kept per set
  // (the wire workloads repeat a few sets many times).
  Result<const Workload*> Answers(const std::vector<MarginalSpec>& specs) {
    std::vector<std::vector<uint32_t>> key;
    for (const MarginalSpec& spec : specs) key.push_back(spec.attributes);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = workloads_.find(key);
      if (it != workloads_.end()) return &it->second.workload();
    }
    IREDUCT_ASSIGN_OR_RETURN(std::vector<Marginal> tables, Tables(specs));
    IREDUCT_ASSIGN_OR_RETURN(MarginalWorkload w,
                             MarginalWorkload::Create(std::move(tables)));
    std::lock_guard<std::mutex> lock(mu_);
    return &workloads_.emplace(std::move(key), std::move(w))
                .first->second.workload();
  }

  Result<double> Count(const ConjunctiveQuery& query) {
    std::vector<std::pair<uint32_t, uint16_t>> sorted;
    for (const EqualityPredicate& p : query.predicates) {
      sorted.push_back({p.attribute, p.value});
    }
    std::sort(sorted.begin(), sorted.end());
    MarginalSpec spec;
    std::vector<uint16_t> values;
    for (const auto& [attribute, value] : sorted) {
      spec.attributes.push_back(attribute);
      values.push_back(value);
    }
    IREDUCT_ASSIGN_OR_RETURN(const Marginal* table, Table(spec));
    return table->count(table->CellIndex(values));
  }

 private:
  const Dataset& dataset_;
  std::mutex mu_;  // guards both maps; their nodes never move
  std::map<std::vector<uint32_t>, Marginal> tables_;
  std::map<std::vector<std::vector<uint32_t>>, MarginalWorkload> workloads_;
};

std::vector<double> Flatten(const std::vector<Marginal>& marginals) {
  std::vector<double> out;
  for (const Marginal& m : marginals) {
    out.insert(out.end(), m.counts().begin(), m.counts().end());
  }
  return out;
}

struct ReplayStats {
  size_t verified = 0;
  size_t unverified = 0;
  size_t mismatches = 0;
  std::vector<double> rel_errors;  // one per verified ok response
  std::vector<double> req_parse_us;
  std::vector<double> resp_encode_ms;
  std::vector<double> resp_parse_ms;
  std::vector<double> dwork_ms;
  std::vector<double> ireduct_ms;
  std::vector<double> evaluate_ms;
  std::vector<std::string> problems;
  double seconds = 0;
  uint64_t digest = 0;

  void Merge(const ReplayStats& other) {
    verified += other.verified;
    mismatches += other.mismatches;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(rel_errors, other.rel_errors);
    append(req_parse_us, other.req_parse_us);
    append(resp_encode_ms, other.resp_encode_ms);
    append(resp_parse_ms, other.resp_parse_ms);
    append(dwork_ms, other.dwork_ms);
    append(ireduct_ms, other.ireduct_ms);
    append(evaluate_ms, other.evaluate_ms);
    problems.insert(problems.end(), other.problems.begin(),
                    other.problems.end());
  }
};

// Serializes a session result exactly as the wire server would answer.
std::string ResponseLine(uint64_t id, const Status& status,
                         std::string result_json, int retry_after_ms) {
  WireResponse response;
  response.id = id;
  response.ok = status.ok();
  if (status.ok()) {
    response.result_json = std::move(result_json);
  } else {
    response.code = std::string(StatusCodeToString(status.code()));
    response.message = status.message();
    response.retry_after_ms =
        status.code() == StatusCode::kResourceExhausted ? retry_after_ms : -1;
  }
  return response.ToJson();
}

// What one replay thread shares with the others.
struct ReplayContext {
  const Dataset* dataset = nullptr;
  Truth* truth = nullptr;
  double delta = 0;
  int retry_after_ms = 0;
  SpanRecorder* spans = nullptr;
};

// Replays one admitted request on its tenant's session and compares the
// response line it yields with the served one by digest. `ordinal` counts
// this thread's replayed requests; the costlier layer timings are taken on
// a fixed subset of them.
void ReplayRequest(const ReplayContext& ctx, PrivateQuerySession& session,
                   const SentRequest& sent, size_t ordinal, int lane,
                   uint64_t* tenant_digest, ReplayStats* stats) {
  const uint64_t id = sent.request.id;
  // The server parsed exactly these bytes.
  const std::string wire_line = sent.request.ToJson();
  const Clock::time_point p0 = Clock::now();
  Result<WireRequest> parsed = WireRequest::Parse(wire_line);
  stats->req_parse_us.push_back(Millis(p0, Clock::now()) * 1e3);
  if (!parsed.ok()) {
    stats->problems.push_back("request " + std::to_string(id) +
                              " does not parse: " + parsed.status().message());
    return;
  }
  Status status;
  std::string result_json;
  double rel_error = -1;
  Clock::time_point e0;
  if (parsed->op == "count") {
    const Clock::time_point c0 = Clock::now();
    Result<double> value = session.CountQuery(parsed->query, parsed->epsilon);
    if (ctx.spans != nullptr) {
      ctx.spans->Add("session.count_query", c0, Clock::now(), -1, id, lane);
    }
    status = value.status();
    if (value.ok()) {
      Result<double> exact = ctx.truth->Count(parsed->query);
      if (exact.ok()) rel_error = RelativeError(*value, *exact, ctx.delta);
      // The query layer's own scan, timed on every eighth count and
      // cross-checked against the marginal cell.
      if (ordinal % 8 == 0) {
        const Clock::time_point q0 = Clock::now();
        Result<double> scanned = EvaluateQuery(*ctx.dataset, parsed->query);
        const Clock::time_point q1 = Clock::now();
        stats->evaluate_ms.push_back(Millis(q0, q1));
        if (ctx.spans != nullptr) {
          ctx.spans->Add("queries.evaluate", q0, q1, -1, id, lane);
        }
        if (!scanned.ok() || !exact.ok() || *scanned != *exact) {
          stats->problems.push_back(
              "EvaluateQuery disagrees with the marginal cell for request " +
              std::to_string(id));
        }
      }
    }
    e0 = Clock::now();
    if (value.ok()) {
      obs::JsonWriter w(&result_json);
      w.BeginObject();
      w.KV("value", *value);
      w.EndObject();
    }
  } else {
    Result<std::vector<Marginal>> tables = ctx.truth->Tables(parsed->specs);
    Result<MechanismSpec> mechanism = MechanismSpec::Parse(parsed->mechanism);
    Result<MarginalRelease> release = Status::Internal("not run");
    if (!tables.ok()) {
      release = tables.status();
    } else if (!mechanism.ok()) {
      release = mechanism.status();
    } else {
      const Clock::time_point m0 = Clock::now();
      release = session.PublishMarginalsPrecomputed(
          *tables, *mechanism, parsed->epsilon, parsed->delta,
          static_cast<int>(parsed->lambda_steps));
      const Clock::time_point m1 = Clock::now();
      (mechanism->name() == "ireduct" ? stats->ireduct_ms : stats->dwork_ms)
          .push_back(Millis(m0, m1));
      if (ctx.spans != nullptr) {
        ctx.spans->Add("algorithms.mechanism." + mechanism->name(), m0, m1, -1,
                       id, lane);
      }
    }
    status = release.status();
    if (release.ok()) {
      Result<const Workload*> answers = ctx.truth->Answers(parsed->specs);
      if (answers.ok()) {
        rel_error = OverallError(**answers, Flatten(release->marginals),
                                 ctx.delta);
      }
    }
    e0 = Clock::now();
    if (release.ok()) result_json = MarginalReleaseToJson(*release);
  }
  const std::string line =
      ResponseLine(id, status, std::move(result_json), ctx.retry_after_ms);
  const Clock::time_point e1 = Clock::now();
  stats->resp_encode_ms.push_back(Millis(e0, e1));
  if (ctx.spans != nullptr) {
    ctx.spans->Add("wire.resp_encode", e0, e1, -1, id, lane);
  }
  // Parse cost, measured on every sixteenth response to bound the replay.
  if (ordinal % 16 == 0) {
    const Clock::time_point q0 = Clock::now();
    Result<WireResponse> back = WireResponse::Parse(line);
    const Clock::time_point q1 = Clock::now();
    stats->resp_parse_ms.push_back(Millis(q0, q1));
    if (ctx.spans != nullptr) {
      ctx.spans->Add("wire.resp_parse", q0, q1, -1, id, lane);
    }
    if (!back.ok()) stats->problems.push_back("response does not round-trip");
  }
  if (!sent.answered()) return;  // timed out: nothing to compare
  ++stats->verified;
  const uint64_t digest = Digest64(line);
  *tenant_digest = CombineDigest(*tenant_digest, digest);
  if (digest != sent.digest) {
    if (++stats->mismatches <= 3) {
      stats->problems.push_back("parity mismatch: tenant " + sent.request.tenant +
                                " request " + std::to_string(id));
    }
  } else if (sent.ok && rel_error >= 0) {
    stats->rel_errors.push_back(rel_error);
  }
}

// Replays each tenant's admitted requests, in its send order, against a
// fresh PrivateQuerySession with the same seed, and compares every answered
// response by digest — the determinism contract of query_server.h.
// Tenants are independent, so kReplayThreads threads share them (tenant t
// goes to thread t mod threads); each thread advances its tenants
// round-robin, so a replay cut short by the budget still verifies a prefix
// of every tenant.
void Replay(const Dataset& dataset, const std::vector<SentRequest>& requests,
            int tenants, uint64_t seed, int retry_after_ms,
            SpanRecorder* spans, ReplayStats* stats, WorkloadResult* result) {
  Truth truth(dataset);
  const ReplayContext ctx{&dataset, &truth, SanityDelta(dataset.num_rows()),
                          retry_after_ms, spans};
  const size_t n = static_cast<size_t>(tenants);
  std::vector<std::vector<size_t>> order(n);
  for (size_t i = 0; i < requests.size(); ++i) {
    const SentRequest& r = requests[i];
    if (r.send_seq == 0 || r.shed) continue;  // sheds never touch a session
    order[static_cast<size_t>(r.tenant)].push_back(i);
  }
  for (auto& indices : order) {
    std::sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
      return requests[a].send_seq < requests[b].send_seq;
    });
  }
  std::vector<PrivateQuerySession> sessions;
  for (int t = 0; t < tenants; ++t) {
    Result<PrivateQuerySession> session = PrivateQuerySession::Create(
        &dataset, kTenantBudget, TenantSeed(seed, t));
    if (!session.ok()) {
      result->Fail("replay session: " + session.status().message());
      return;
    }
    sessions.push_back(std::move(*session));
  }
  const int threads = std::min(tenants, kReplayThreads);
  std::vector<ReplayStats> parts(static_cast<size_t>(threads));
  std::vector<uint64_t> digests(n, 0);
  std::vector<size_t> cursor(n, 0);
  const Clock::time_point start = Clock::now();
  // Each thread touches only its own tenants' sessions, cursors, digests
  // and stats.
  auto work = [&](int k) {
    ReplayStats& mine = parts[static_cast<size_t>(k)];
    try {
      size_t ordinal = 0;
      bool progressed = true;
      while (progressed && Since(start) < kReplayBudgetSeconds) {
        progressed = false;
        for (size_t t = static_cast<size_t>(k); t < n;
             t += static_cast<size_t>(threads)) {
          if (cursor[t] >= order[t].size()) continue;
          progressed = true;
          ReplayRequest(ctx, sessions[t], requests[order[t][cursor[t]++]],
                        ordinal++, 1000 + k, &digests[t], &mine);
        }
      }
    } catch (const std::exception& e) {
      mine.problems.push_back(std::string("replay thread: ") + e.what());
    }
  };
  {
    std::vector<std::thread> pool;
    try {
      for (int k = 1; k < threads; ++k) pool.emplace_back(work, k);
    } catch (const std::system_error& e) {
      // The tenants of a thread that never started stay unverified.
      result->Fail(std::string("replay thread: ") + e.what());
    }
    work(0);
    for (std::thread& t : pool) t.join();
  }
  stats->seconds = Since(start);
  for (const ReplayStats& part : parts) stats->Merge(part);
  for (const std::string& p : stats->problems) result->Fail(p);
  for (size_t t = 0; t < n; ++t) {
    stats->digest = CombineDigest(stats->digest, digests[t]);
    for (size_t c = cursor[t]; c < order[t].size(); ++c) {
      if (requests[order[t][c]].answered()) ++stats->unverified;
    }
  }
}

// ------------------------------------------------------ result helpers

void WritePhases(obs::JsonWriter& w, const std::vector<LoadPhase>& phases,
                 const LoadResult& load) {
  w.Key("phases");
  w.BeginArray();
  for (size_t p = 0; p < phases.size(); ++p) {
    uint64_t sent = 0, ok = 0;
    std::vector<double> latencies;
    for (const SentRequest& r : load.requests) {
      if (r.phase != static_cast<int>(p) || r.sent_s < 0) continue;
      ++sent;
      if (r.answered() && r.ok) {
        ++ok;
        latencies.push_back(r.latency_ms());
      }
    }
    const LatencySummary s = SummarizeLatencies(latencies);
    w.BeginObject();
    w.KV("name", phases[p].name);
    w.KV("seconds", phases[p].seconds);
    w.KV("rate", phases[p].rate);
    w.KV("outstanding_per_tenant",
         static_cast<uint64_t>(phases[p].outstanding_per_tenant));
    w.KV("sent", sent);
    w.KV("ok", ok);
    w.KV("samples", static_cast<uint64_t>(s.samples));
    w.KV("p50_ms", s.p50_ms);
    w.KV("p90_ms", s.p90_ms);
    w.KV("p99_ms", s.p99_ms);
    w.Key("p99_supported");
    w.Bool(SamplesBeyond(s.samples, 99) >= 10);
    w.KV("tail_pct", s.tail_pct);
    w.KV("tail_ms", s.tail_ms);
    w.EndObject();
  }
  w.EndArray();
}

void WriteQuartiles(obs::JsonWriter& w, std::string_view key,
                    const std::vector<double>& values) {
  const Quartiles q = QuartilesOf(values);
  w.Key(key);
  w.BeginObject();
  w.KV("q1", q.q1);
  w.KV("median", q.median);
  w.KV("q3", q.q3);
  w.KV("n", static_cast<uint64_t>(values.size()));
  w.EndObject();
}

// ------------------------------------------------------ paper_release

WorkloadResult RunPaperRelease(const WorkloadOptions& o,
                               const std::string& input) {
  WorkloadResult result;
  result.workload = o.name;
  std::vector<double> setup_s, open_ms, decode_ms;
  Result<Dataset> dataset = Status::Internal("no set-up ran");
  std::vector<MarginalSpec> specs;
  // One set-up: load the file and list the specs. The first one's dataset
  // serves every release. A load takes a few milliseconds and its speed
  // drifts with the host from second to second, so the set-ups are spread
  // over the run, a few before each release, and their median samples the
  // host at several moments rather than at one.
  auto set_up = [&]() -> Status {
    const int parent = o.spans != nullptr ? o.spans->Begin("setup") : -1;
    const Clock::time_point start = Clock::now();
    SetupTiming timing;
    IREDUCT_ASSIGN_OR_RETURN(Dataset loaded,
                             TimedLoad(input, &timing, o.spans, parent));
    IREDUCT_ASSIGN_OR_RETURN(std::vector<MarginalSpec> all,
                             AllKWaySpecs(loaded.schema(), 2));
    setup_s.push_back(Since(start));
    open_ms.push_back(timing.open_ms);
    decode_ms.push_back(timing.decode_ms);
    if (o.spans != nullptr) o.spans->End(parent);
    if (!dataset.ok()) {
      dataset = std::move(loaded);
      specs = std::move(all);
    }
    return Status::OK();
  };
  auto set_up_batch = [&]() {
    for (int k = 0; k < kSetupsPerRelease; ++k) {
      if (Status s = set_up(); !s.ok()) {
        result.Fail("set-up: " + s.message());
        return false;
      }
    }
    return true;
  };
  if (!set_up_batch()) return result;
  const double n = static_cast<double>(dataset->num_rows());
  const double epsilon = 0.01;
  const double delta = SanityDelta(dataset->num_rows());

  std::vector<double> release_ms;
  std::vector<MarginalRelease> outputs;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::MetricsSnapshot before = registry.Snapshot();
  const Clock::time_point releases_start = Clock::now();
  const int phase = o.spans != nullptr ? o.spans->Begin("phase.releases") : -1;
  // A release takes 4–7 s on the reference host. Releases run back to back
  // until the next one would end past the run length, at least three.
  double last_release_s = 0;
  for (int i = 0; i < kMinReleases ||
                  Since(releases_start) + last_release_s <= o.seconds;
       ++i) {
    if (i > 0 && !set_up_batch()) break;
    ++result.attempted;
    Result<PrivateQuerySession> session = PrivateQuerySession::Create(
        &*dataset, 1.0, o.seed + static_cast<uint64_t>(i));
    if (!session.ok()) {
      ++result.failed;
      result.Fail("session: " + session.status().message());
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    Result<MarginalRelease> release = session->PublishMarginals(
        specs, MechanismSpec("ireduct"), epsilon, delta, /*lambda_steps=*/150);
    const Clock::time_point t1 = Clock::now();
    last_release_s = Millis(t0, t1) / 1e3;
    if (o.spans != nullptr) {
      o.spans->Add("session.publish_marginals", t0, t1, phase,
                   static_cast<uint64_t>(i + 1));
    }
    if (!release.ok()) {
      ++result.failed;
      result.Fail("release: " + release.status().message());
      continue;
    }
    release_ms.push_back(Millis(t0, t1));
    // ε charged must equal what the mechanism reports spending, and stay
    // within the requested ε up to the accountant's 1e-9 guard band.
    if (std::fabs(session->spent() - release->epsilon_spent) > 1e-15 ||
        !(release->epsilon_spent > 0) ||
        release->epsilon_spent > epsilon * (1 + 1e-9)) {
      ++result.failed;
      result.Fail("ledger: charged " + obs::FormatDouble(session->spent()) +
                  " for a release reporting " +
                  obs::FormatDouble(release->epsilon_spent));
    }
    outputs.push_back(std::move(*release));
  }
  if (o.spans != nullptr) o.spans->End(phase);
  const double releases_seconds = Since(releases_start);
  const obs::MetricsSnapshot after = registry.Snapshot();
  const double rss_mb = PeakRssMb();

  // Quality: Definition 6 against the classic per-marginal scan.
  std::vector<double> rel_errors;
  uint64_t digest = 0;
  {
    Truth truth(*dataset);
    Result<const Workload*> workload = truth.Answers(specs);
    if (!workload.ok()) {
      result.Fail("truth: " + workload.status().message());
      return result;
    }
    for (const MarginalRelease& r : outputs) {
      const std::vector<double> answers = Flatten(r.marginals);
      for (const double a : answers) {
        if (!std::isfinite(a)) {
          result.Fail("non-finite answer");
          break;
        }
      }
      digest = CombineDigest(
          digest, Digest64(std::string_view(
                      reinterpret_cast<const char*>(answers.data()),
                      answers.size() * sizeof(double))));
      rel_errors.push_back(OverallError(**workload, answers, delta));
    }
  }
  if (release_ms.empty()) {
    result.Fail("no release completed");
    return result;
  }

  const LatencySummary releases_ms = SummarizeLatencies(release_ms);
  const double total_ms =
      std::accumulate(release_ms.begin(), release_ms.end(), 0.0);
  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"p50_ms", releases_ms.p50_ms, "ms"},
      {"p90_ms", releases_ms.p90_ms, "ms"},
      {"peak_rps", static_cast<double>(release_ms.size()) / (total_ms / 1e3),
       "1/s"},
      {"rss_mb", rss_mb, "MB"},
      {"rel_error", Mean(rel_errors), "1"},
  };

  BenchTimings bench;
  bench.data_open_ms = Median(open_ms);
  bench.data_decode_ms = Median(decode_ms);
  bench.data_bytes_per_row =
      static_cast<double>(fs::file_size(input)) / n;
  bench.mechanism_ms_ireduct = Mean(release_ms);
  bench.requests = static_cast<double>(release_ms.size());
  bench.mean_latency_ms = Mean(release_ms);
  if (o.spans != nullptr) {
    bench.trace_overhead = 1 + o.spans->overhead_seconds() / releases_seconds;
  }
  result.per_layer =
      PerLayerMetrics(RegistryDelta(before, after), bench);

  result.detail_json.clear();
  obs::JsonWriter w(&result.detail_json);
  w.BeginObject();
  w.KV("rows", static_cast<uint64_t>(dataset->num_rows()));
  w.KV("releases", result.attempted);
  w.KV("samples", static_cast<uint64_t>(releases_ms.samples));
  w.KV("p99_ms", releases_ms.p99_ms);
  WriteQuartiles(w, "release_s", [&] {
    std::vector<double> s;
    for (const double ms : release_ms) s.push_back(ms / 1e3);
    return s;
  }());
  WriteQuartiles(w, "setup_s", setup_s);
  w.Key("rel_error_per_release");
  w.BeginArray();
  for (const double e : rel_errors) w.Double(e);
  w.EndArray();
  w.KV("answers_digest", HexDigest(digest));
  w.EndObject();
  std::printf("paper_release: answers digest %s over %zu releases\n",
              HexDigest(digest).c_str(), outputs.size());
  return result;
}

// ------------------------------------------------------ wire workloads

WorkloadResult RunWire(const WorkloadOptions& o, const std::string& input) {
  WorkloadResult result;
  result.workload = o.name;
  const ServiceShape shape = ShapeOf(o.name);
  ClearDirectory(o.work_dir);

  // Set-ups: every one builds the whole server stack; all but the last are
  // torn down again so only one dataset copy is ever resident.
  const int setups = o.name == "scan_10m" ? kScanSetups : kSetups;
  std::vector<double> setup_s, open_ms, decode_ms;
  ServerStack stack;
  std::string sock;
  for (int k = 0; k < setups; ++k) {
    TearDown(stack);
    const std::string dir = o.work_dir + "/setup" + std::to_string(k);
    sock = "s" + std::to_string(k) + ".sock";  // relative: cwd is work_dir
    SetupTiming timing;
    Result<ServerStack> built =
        SetUpServer(input, shape, dir, sock, &timing, o.spans, o.seed);
    if (!built.ok()) {
      result.Fail("set-up: " + built.status().message());
      return result;
    }
    stack = std::move(*built);
    setup_s.push_back(timing.total_s);
    open_ms.push_back(timing.open_ms);
    decode_ms.push_back(timing.decode_ms);
  }
  const Dataset* dataset = stack.server->dataset("census");
  const uint64_t rows = dataset->num_rows();

  MarginalCache& cache = MarginalCache::Global();
  cache.Clear();
  Result<RequestMaker> maker = MakeRequestMaker(o.name, dataset->schema());
  if (o.name == "scan_10m") {
    // A quarter of the pool's table footprint: the working set cannot fit.
    size_t footprint = 0;
    for (const MarginalSpec& spec : ScanPool(dataset->schema())) {
      std::vector<uint32_t> domain;
      for (const uint32_t a : spec.attributes) {
        domain.push_back(dataset->schema().attribute(a).domain_size);
      }
      Result<Marginal> empty = Marginal::FromCounts(
          spec, domain, std::vector<double>(Cells(dataset->schema(), spec)));
      if (empty.ok()) footprint += EstimateMarginalBytes(*empty);
    }
    cache.set_byte_budget(footprint / 4);
  }
  if (!maker.ok()) {
    result.Fail("requests: " + maker.status().message());
    return result;
  }

  LoadConfig config;
  config.socket_path = sock;
  config.connections = shape.connections;
  for (int t = 0; t < shape.tenants; ++t) config.tenants.push_back(TenantName(t));
  config.phases = LoadPhasesOf(o.name, o.seconds);
  config.seed = o.seed;
  config.make_request = *maker;
  config.spans = o.spans;
  config.first_measured = kFirstMeasuredPhase;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::MetricsSnapshot before;
  config.on_measure_start = [&] { before = registry.Snapshot(); };
  const double trace_before = o.spans != nullptr ? o.spans->overhead_seconds() : 0;
  LoadResult load = RunLoad(config);
  const double trace_seconds =
      o.spans != nullptr ? o.spans->overhead_seconds() - trace_before : 0;
  stack.server->Drain();
  const obs::MetricsSnapshot after = registry.Snapshot();
  const double rss_mb = PeakRssMb();
  if (!load.status.ok()) result.Fail("load: " + load.status.message());

  // Ledger: every tenant's spend equals the ε its ok responses report.
  std::vector<double> expected(static_cast<size_t>(shape.tenants), 0.0);
  for (const SentRequest& r : load.requests) {
    if (r.answered() && r.ok) {
      expected[static_cast<size_t>(r.tenant)] += r.epsilon_spent;
    }
  }
  stack.wire->Stop();
  double worst_ledger_gap = 0;
  for (int t = 0; t < shape.tenants; ++t) {
    double spent = 0;
    if (shape.journaled) {
      Result<LedgerJournal::Recovered> recovered = LedgerJournal::Recover(
          stack.journal_dir + "/" + TenantName(t) + ".journal");
      if (!recovered.ok()) {
        result.Fail("journal: " + recovered.status().message());
        continue;
      }
      for (const PrivacyCharge& c : recovered->charges) spent += c.epsilon;
    } else {
      Result<QueryServer::TenantBudget> budget =
          stack.server->GetBudget(TenantName(t));
      if (!budget.ok()) {
        result.Fail("budget: " + budget.status().message());
        continue;
      }
      spent = budget->spent;
    }
    const double want = expected[static_cast<size_t>(t)];
    const double gap = std::fabs(spent - want);
    worst_ledger_gap = std::max(worst_ledger_gap, gap);
    if (gap > 1e-9 * std::max(1.0, want)) {
      result.Fail("ledger: tenant " + TenantName(t) + " spent " +
                  obs::FormatDouble(spent) + " but its ok responses report " +
                  obs::FormatDouble(want));
    }
  }

  ReplayStats replay;
  {
    const int span = o.spans != nullptr ? o.spans->Begin("replay") : -1;
    Replay(*dataset, load.requests, shape.tenants, o.seed,
           stack.server->config().retry_after_ms, o.spans, &replay, &result);
    if (o.spans != nullptr) o.spans->End(span);
  }
  cache.set_byte_budget(0);
  cache.Clear();

  // Outcome accounting.
  uint64_t failed_requests = 0;
  for (const SentRequest& r : load.requests) {
    if (r.sent_s < 0) continue;
    ++result.attempted;
    if (!r.answered() || !r.ok) ++failed_requests;
  }
  result.failed = failed_requests + replay.mismatches;
  if (failed_requests > 0) {
    result.problems.push_back(std::to_string(failed_requests) +
                              " requests failed, shed or timed out");
  }
  result.valid = load.gen_lag_p99_ms <= 2.0;

  // The gated closed phase: its latencies, and its fixed quota over the
  // time it took (first send to last response).
  const int gated = static_cast<int>(config.phases.size()) - 1;
  std::vector<double> gated_latencies;
  for (const SentRequest& r : load.requests) {
    if (r.phase == gated && r.answered() && r.ok) {
      gated_latencies.push_back(r.latency_ms());
    }
  }
  const double gated_seconds = load.phase_end_s[static_cast<size_t>(gated)] -
                               load.phase_start_s[static_cast<size_t>(gated)];
  const double completed = static_cast<double>(gated_latencies.size());
  const LatencySummary main = SummarizeLatencies(std::move(gated_latencies));
  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"p50_ms", main.p50_ms, "ms"},
      {"p90_ms", main.p90_ms, "ms"},
      {"peak_rps", completed / gated_seconds, "1/s"},
      {"rss_mb", rss_mb, "MB"},
      {"rel_error", Mean(replay.rel_errors), "1"},
  };

  BenchTimings bench;
  bench.data_open_ms = Median(open_ms);
  bench.data_decode_ms = Median(decode_ms);
  bench.data_bytes_per_row =
      static_cast<double>(fs::file_size(input)) / static_cast<double>(rows);
  bench.queries_evaluate_ms = Mean(replay.evaluate_ms);
  bench.mechanism_ms_dwork = Mean(replay.dwork_ms);
  bench.mechanism_ms_ireduct = Mean(replay.ireduct_ms);
  bench.wire_req_encode_us = load.req_encode_us;
  bench.wire_req_parse_us = Mean(replay.req_parse_us);
  bench.wire_resp_encode_ms = Mean(replay.resp_encode_ms);
  bench.wire_resp_parse_ms = Mean(replay.resp_parse_ms);
  bench.queue_depth_max = static_cast<double>(load.queue_depth_max);
  bench.gen_lag_p99_ms = load.gen_lag_p99_ms;
  bench.trace_overhead = load.end_s > 0 ? 1 + trace_seconds / load.end_s : 1;
  std::vector<double> window_latencies;
  double bytes = 0;
  for (const SentRequest& r : load.requests) {
    if (r.phase >= kFirstMeasuredPhase && r.answered() && r.ok) {
      window_latencies.push_back(r.latency_ms());
      bytes += static_cast<double>(r.response_bytes);
    }
  }
  bench.requests = static_cast<double>(window_latencies.size());
  bench.mean_latency_ms = Mean(window_latencies);
  bench.wire_resp_bytes =
      window_latencies.empty() ? 0 : bytes / bench.requests;
  result.per_layer = PerLayerMetrics(RegistryDelta(before, after), bench);

  result.detail_json.clear();
  obs::JsonWriter w(&result.detail_json);
  w.BeginObject();
  w.KV("rows", rows);
  w.KV("tenants", static_cast<uint64_t>(shape.tenants));
  w.KV("connections", static_cast<uint64_t>(shape.connections));
  WritePhases(w, config.phases, load);
  WriteQuartiles(w, "setup_s", setup_s);
  // The gated phase's p99 and sample count (every phase's are in "phases").
  w.KV("samples", static_cast<uint64_t>(main.samples));
  w.KV("p99_ms", main.p99_ms);
  w.KV("gen_lag_p99_ms", load.gen_lag_p99_ms);
  w.Key("valid");
  w.Bool(result.valid);
  w.KV("replay_s", replay.seconds);
  w.KV("verified", static_cast<uint64_t>(replay.verified));
  w.KV("unverified", static_cast<uint64_t>(replay.unverified));
  w.KV("parity_mismatches", static_cast<uint64_t>(replay.mismatches));
  w.KV("ledger_max_gap", worst_ledger_gap);
  w.KV("responses_digest", HexDigest(replay.digest));
  w.KV("journal_fs", FilesystemType(o.work_dir));
  w.EndObject();

  TearDown(stack);
  ClearDirectory(o.work_dir);
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_release", "service_counts", "scan_10m"};
  return names;
}

bool IsWorkload(std::string_view name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

double DefaultSeconds() { return 28; }

std::vector<LoadPhase> LoadPhasesOf(std::string_view workload,
                                    double seconds) {
  const ServiceShape shape = ShapeOf(workload);
  auto closed = [&](const char* name, double phase_seconds) {
    return LoadPhase{name, phase_seconds, 0, shape.outstanding,
                     static_cast<uint64_t>(
                         std::llround(phase_seconds * shape.sat_rate))};
  };
  if (shape.lo_rate <= 0) {
    return {closed("warm", 0.1 * seconds), closed("closed", 0.9 * seconds)};
  }
  // 1 : 5 : 4 : 10 — warm-up, lo, mid, saturation — scaled to the run;
  // saturation, whose latencies and throughput are gated, gets the most.
  return {{"warm", seconds * 1 / 20, shape.lo_rate},
          {"lo", seconds * 5 / 20, shape.lo_rate},
          {"mid", seconds * 4 / 20, shape.mid_rate},
          closed("saturation", seconds * 10 / 20)};
}

Result<RequestMaker> MakeRequestMaker(std::string_view workload,
                                      const Schema& schema) {
  const double delta = SanityDelta(InputOf(workload).rows);
  if (workload == "service_counts") return CountsMaker(schema);
  if (workload == "scan_10m") return ScanMaker(schema, delta);
  return Status::InvalidArgument("not a wire workload: " +
                                 std::string(workload));
}

Status EnsureInput(const std::string& workload, const std::string& data_dir) {
  const InputSpec spec = InputOf(workload);
  const std::string path = data_dir + "/" + spec.file;
  if (fs::exists(path)) return Status::OK();
  std::error_code ec;
  fs::create_directories(data_dir, ec);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    Result<Dataset> dataset =
        GenerateCensus({CensusKind::kBrazil, spec.rows, kCensusSeed});
    ColumnarWriteOptions options;
    options.zero_copy_layout = spec.zero_copy;
    const std::string tmp = path + ".tmp";
    const bool ok = dataset.ok() && WriteColumnar(*dataset, tmp, options).ok() &&
                    std::rename(tmp.c_str(), path.c_str()) == 0;
    ::_exit(ok ? 0 : 1);
  }
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::IoError("generating " + path + " failed");
  }
  return Status::OK();
}

WorkloadResult RunWorkload(const WorkloadOptions& options) {
  WorkloadOptions o = options;
  if (!(o.seconds > 0)) o.seconds = DefaultSeconds();
  const std::string input = o.data_dir + "/" + InputOf(o.name).file;
  if (o.name == "paper_release") return RunPaperRelease(o, input);
  return RunWire(o, input);
}

}  // namespace perfbench
}  // namespace ireduct

#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/env.h"
#include "eval/metrics.h"
#include "eval/run_report.h"
#include "obs/event_log.h"
#include "marginals/marginal_cache.h"
#include "marginals/marginal_evaluator.h"
#include "marginals/marginal_set.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ireduct {
namespace bench {

int Trials() { return static_cast<int>(EnvInt64("TRIALS", 3)); }

int IReductSteps() {
  return static_cast<int>(EnvInt64("IREDUCT_STEPS", 150));
}

uint64_t RowsFor(CensusKind kind) {
  const uint64_t brazil = EnvInt64("CENSUS_ROWS", 400'000);
  // The paper's datasets hold ~10M (Brazil) and ~14M (US) records.
  return kind == CensusKind::kBrazil ? brazil : brazil * 14 / 10;
}

std::string KindName(CensusKind kind) {
  return kind == CensusKind::kBrazil ? "Brazil" : "USA";
}

const Dataset& GetCensus(CensusKind kind) {
  static std::map<CensusKind, Dataset>* cache =
      new std::map<CensusKind, Dataset>();
  auto it = cache->find(kind);
  if (it != cache->end()) return it->second;
  CensusConfig config;
  config.kind = kind;
  config.rows = RowsFor(kind);
  config.seed = 2011 + static_cast<uint64_t>(kind);
  std::fprintf(stderr, "[bench] generating %llu %s-like census rows...\n",
               static_cast<unsigned long long>(config.rows),
               KindName(kind).c_str());
  auto dataset = GenerateCensus(config);
  if (!dataset.ok()) {
    IREDUCT_LOG(kError) << "census generation failed: "
                        << dataset.status().ToString();
    std::abort();
  }
  return cache->emplace(kind, std::move(*dataset)).first->second;
}

uint64_t GetCensusFingerprint(CensusKind kind) {
  static std::map<CensusKind, uint64_t>* cache =
      new std::map<CensusKind, uint64_t>();
  auto it = cache->find(kind);
  if (it != cache->end()) return it->second;
  const uint64_t fp = GetCensus(kind).Fingerprint();
  return cache->emplace(kind, fp).first->second;
}

ThreadPool* EvalPool() {
  const int threads = EnvThreads();
  if (threads <= 1) return nullptr;
  static ThreadPool* pool = new ThreadPool(threads);
  return pool;
}

MarginalWorkload BuildKWayWorkload(CensusKind kind, int k) {
  const Dataset& dataset = GetCensus(kind);
  auto specs = AllKWaySpecs(dataset.schema(), k);
  if (!specs.ok()) std::abort();
  // True tables come from the process-wide cache: one fused pass per
  // (dataset, spec set) per process, shared by every figure bench and
  // sweep point.
  auto marginals = MarginalCache::Global().GetOrCompute(
      GetCensusFingerprint(kind), dataset, *specs, EvalPool());
  if (!marginals.ok()) std::abort();
  auto mw = MarginalWorkload::Create(std::move(*marginals));
  if (!mw.ok()) std::abort();
  return std::move(mw).value();
}

CensusSetup BuildCensusSetup(CensusKind kind, int k) {
  const double n = static_cast<double>(GetCensus(kind).num_rows());
  return CensusSetup{kind, BuildKWayWorkload(kind, k), n, 1e-4 * n, n / 10,
                     (n / 10) / IReductSteps()};
}

CensusSetup BuildCensusSetupForRows(CensusKind kind, uint64_t rows, int k) {
  CensusConfig config;
  config.kind = kind;
  config.rows = rows;
  config.seed = 2011;
  auto dataset = GenerateCensus(config);
  if (!dataset.ok()) std::abort();
  auto specs = AllKWaySpecs(dataset->schema(), k);
  if (!specs.ok()) std::abort();
  // Fresh uncached dataset: fused pass (sharded on the eval pool), but no
  // cache entry — cardinality sweeps never revisit a row count.
  auto evaluator = MarginalSetEvaluator::Create(dataset->schema(), *specs);
  if (!evaluator.ok()) std::abort();
  auto marginals = evaluator->Compute(*dataset, {}, EvalPool());
  if (!marginals.ok()) std::abort();
  auto mw = MarginalWorkload::Create(std::move(*marginals));
  if (!mw.ok()) std::abort();
  const double n = static_cast<double>(rows);
  return CensusSetup{kind, std::move(mw).value(), n, 1e-4 * n, n / 10,
                     (n / 10) / IReductSteps()};
}

MechanismFn SpecMechanism(const MechanismSpec& spec) {
  // Resolve eagerly so a typo aborts at suite construction, not mid-sweep.
  auto mechanism = MechanismRegistry::Global().Get(spec.name());
  if (!mechanism.ok()) {
    IREDUCT_LOG(kError) << mechanism.status().ToString();
    std::abort();
  }
  if (Status s = (*mechanism)->ValidateSpec(spec); !s.ok()) {
    IREDUCT_LOG(kError) << s.ToString();
    std::abort();
  }
  return [spec](const Workload& w, BitGen& gen)
             -> Result<std::vector<double>> {
    IREDUCT_ASSIGN_OR_RETURN(MechanismOutput out,
                             MechanismRegistry::Global().Run(w, spec, gen));
    return std::move(out.answers);
  };
}

std::vector<std::pair<std::string, MechanismFn>> PaperMechanisms(
    double epsilon, double delta, double lambda_max, double lambda_delta,
    double epsilon1_fraction) {
  // (user spec text, label override) pairs; "" means use the display name.
  std::vector<MechanismSpec> specs;
  const char* env = std::getenv("BENCH_MECHANISMS");
  if (env != nullptr && *env != '\0') {
    std::string list(env);
    size_t start = 0;
    while (start <= list.size()) {
      const size_t semi = list.find(';', start);
      const std::string item = list.substr(
          start,
          semi == std::string::npos ? std::string::npos : semi - start);
      if (!item.empty()) {
        auto spec = MechanismSpec::Parse(item);
        if (!spec.ok()) {
          IREDUCT_LOG(kError) << "BENCH_MECHANISMS: "
                              << spec.status().ToString();
          std::abort();
        }
        specs.push_back(std::move(*spec));
      }
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  } else {
    for (const char* name :
         {"oracle", "ireduct", "two_phase", "iresamp", "dwork"}) {
      specs.emplace_back(std::string(name));
    }
  }

  std::vector<std::pair<std::string, MechanismFn>> mechanisms;
  for (MechanismSpec& spec : specs) {
    auto mechanism = MechanismRegistry::Global().Get(spec.name());
    if (!mechanism.ok()) {
      IREDUCT_LOG(kError) << mechanism.status().ToString();
      std::abort();
    }
    // Custom params label the row with the full spec so two variants of
    // one mechanism stay distinguishable in the tables.
    const std::string label = spec.params().empty()
                                  ? (*mechanism)->Describe().display_name
                                  : spec.ToString();
    (*mechanism)->SetSpecDefault(&spec, "epsilon", epsilon);
    (*mechanism)->SetSpecDefault(&spec, "delta", delta);
    (*mechanism)->SetSpecDefault(&spec, "lambda_max", lambda_max);
    // iReduct resolves lambda_delta in preference to lambda_steps, so a
    // default lambda_delta would shadow a spec-pinned lambda_steps.
    if (!spec.Has("lambda_steps")) {
      (*mechanism)->SetSpecDefault(&spec, "lambda_delta", lambda_delta);
    }
    (*mechanism)->SetSpecDefault(&spec, "epsilon1_fraction",
                                 epsilon1_fraction);
    mechanisms.emplace_back(label, SpecMechanism(spec));
  }
  return mechanisms;
}

TrialAggregate MeasureOverallError(const Workload& workload,
                                   const MechanismFn& mechanism, double delta,
                                   uint64_t base_seed) {
  return RunTrials(Trials(), base_seed, [&](uint64_t seed) {
    BitGen gen(seed);
    IREDUCT_METRIC_COUNT("bench.mechanism_runs", 1);
    auto answers = mechanism(workload, gen);
    if (!answers.ok()) {
      IREDUCT_LOG(kError) << "mechanism failed: "
                          << answers.status().ToString();
      std::abort();
    }
    return OverallError(workload, *answers, delta);
  });
}

namespace {

// First "model name" line of /proc/cpuinfo, or "unknown" off-Linux.
std::string CpuModelName() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
  return "unknown";
}

}  // namespace

void WriteHostInfo(obs::JsonWriter& writer) {
  writer.Key("host");
  writer.BeginObject();
  writer.KV("cpu_model", CpuModelName());
  writer.KV("hardware_concurrency",
            static_cast<uint64_t>(std::thread::hardware_concurrency()));
  writer.EndObject();
}

void RegisterStandardMetrics() {
  // The library owns the canonical schema; benches just make sure it is
  // registered before snapshotting so untouched metrics still show up.
  obs::RegisterStandardMetrics();
}

void EmitMetricsSnapshot(const std::string& bench_name) {
  RegisterStandardMetrics();
  // Every bench funnels through here, so BENCH_REPORT_OUT works for all of
  // them without per-bench wiring.
  EmitRunReport(bench_name);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const char* out_path = std::getenv("BENCH_METRICS_OUT");
  if (out_path == nullptr || out_path[0] == '\0') {
    std::fprintf(
        stderr,
        "[bench] %s mechanism work: %llu runs, %llu iReduct iterations, "
        "%llu resample draws (set BENCH_METRICS_OUT=FILE for the full "
        "snapshot)\n",
        bench_name.c_str(),
        static_cast<unsigned long long>(
            registry.counter("bench.mechanism_runs").value()),
        static_cast<unsigned long long>(
            registry.counter("ireduct.iterations").value()),
        static_cast<unsigned long long>(
            registry.counter("ireduct.resample_draws").value()));
    return;
  }
  std::string blob;
  obs::JsonWriter json(&blob);
  json.BeginObject();
  json.KV("bench", bench_name);
  WriteHostInfo(json);
  json.Key("metrics");
  json.RawValue(registry.SnapshotJson());
  json.EndObject();
  std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
  file << blob << '\n';
  if (!file.flush()) {
    IREDUCT_LOG(kError) << "failed writing metrics snapshot to " << out_path;
    return;
  }
  std::fprintf(stderr, "[bench] wrote metrics snapshot to %s\n", out_path);
}

void EmitRunReport(const std::string& bench_name) {
  const char* out_path = std::getenv("BENCH_REPORT_OUT");
  if (out_path == nullptr || out_path[0] == '\0') return;
  RegisterStandardMetrics();
  RunReport report(bench_name);
  report.AttachMetrics();
  if (obs::EventLog* events = obs::EventLog::Get()) {
    report.AttachEvents(*events);
  }
  if (Status s = report.WriteFile(out_path); !s.ok()) {
    IREDUCT_LOG(kError) << "failed writing run report: " << s.ToString();
    return;
  }
  std::fprintf(stderr, "[bench] wrote run report to %s\n", out_path);
}

}  // namespace bench
}  // namespace ireduct

// Shared support for the figure-reproduction benchmark harnesses: cached
// synthetic census datasets, marginal workload builders, and a runner that
// sweeps every mechanism of Section 6 with the paper's parameters.
//
// Environment knobs (all optional):
//   CENSUS_ROWS    Brazil-like row count (US-like is scaled 1.4x to match
//                  the paper's 10M/14M ratio). Default 400000 — 4% of the
//                  paper's scale; the curve *shapes* are scale-invariant
//                  because δ, λmax and λΔ are defined relative to |T|.
//   TRIALS         runs averaged per point (paper: 10). Default 3.
//   IREDUCT_STEPS  λmax/λΔ — iReduct's reduction resolution per group.
//                  The paper uses 10^5; default 150 (the ablation bench
//                  shows the error curve is flat in this knob well below
//                  the default).
//   BENCH_MECHANISMS  semicolon-separated mechanism specs (see
//                  algorithms/mechanism_registry.h) replacing the default
//                  Section 6 suite in PaperMechanisms, e.g.
//                  "ireduct;ireduct:reducer=exact_coupling;dwork".
//   IREDUCT_THREADS  worker threads for the evaluation layer: fused
//                  marginal computation shards its dataset pass and
//                  MeasureOverallError runs its trials concurrently.
//                  Default 1. Every parallel path is bit-identical to the
//                  sequential one (see docs/PERFORMANCE.md), so the knob
//                  only changes wall-clock, never results.
#ifndef IREDUCT_BENCH_BENCH_UTIL_H_
#define IREDUCT_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "algorithms/mechanism_registry.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "eval/experiment.h"
#include "marginals/marginal_workload.h"
#include "obs/json.h"

namespace ireduct {
namespace bench {

/// Census rows for the given population, honoring CENSUS_ROWS.
uint64_t RowsFor(CensusKind kind);

/// Returns (and caches across calls within the process) the synthetic
/// census dataset for `kind`. Aborts on generation failure.
const Dataset& GetCensus(CensusKind kind);

/// Content fingerprint of GetCensus(kind), computed once per process —
/// the MarginalCache key for the shared datasets.
uint64_t GetCensusFingerprint(CensusKind kind);

/// Shared worker pool sized by IREDUCT_THREADS, or nullptr when the knob
/// is 1/unset. Passed to the fused marginal evaluator by the setup
/// builders; usable by any bench needing evaluation-layer parallelism.
ThreadPool* EvalPool();

/// Builds the all-k-way marginal workload over the cached dataset.
MarginalWorkload BuildKWayWorkload(CensusKind kind, int k);

/// Human name of the population ("Brazil" / "USA").
std::string KindName(CensusKind kind);

/// Everything the figure benches derive from one census task: the all-
/// k-way marginal workload plus the paper's standard parameters for it
/// (δ = 1e-4·|T|, λmax = |T|/10, λΔ = λmax/IREDUCT_STEPS). Replaces the
/// per-bench copies of this boilerplate.
struct CensusSetup {
  CensusKind kind;
  MarginalWorkload workload;
  double n;
  double delta;
  double lambda_max;
  double lambda_delta;
};

/// Builds the setup over the cached census (GetCensus).
CensusSetup BuildCensusSetup(CensusKind kind, int k);

/// Builds the setup over a freshly generated census of exactly `rows`
/// rows (seed 2011, uncached) — for cardinality sweeps.
CensusSetup BuildCensusSetupForRows(CensusKind kind, uint64_t rows, int k);

/// One mechanism run on a workload: returns the published answers.
using MechanismFn = std::function<Result<std::vector<double>>(
    const Workload&, BitGen&)>;

/// MechanismFn dispatching `spec` through the global MechanismRegistry
/// verbatim (no default filling). Aborts on an unknown mechanism or an
/// invalid spec so bench call sites stay assert-free.
MechanismFn SpecMechanism(const MechanismSpec& spec);

/// The Section 6 competitor set, in the paper's reporting order:
/// Oracle, iReduct, TwoPhase, iResamp, Dwork — each dispatched through
/// the global MechanismRegistry. `epsilon1_fraction` is TwoPhase's ε1/ε
/// split (the paper tunes it per task; see Figure 5). The BENCH_MECHANISMS
/// environment knob replaces the suite with arbitrary specs; the given
/// epsilon/delta/λ parameters fill any declared parameter a spec leaves
/// unset, so "ireduct:reducer=exact_coupling" inherits the sweep's ε.
std::vector<std::pair<std::string, MechanismFn>> PaperMechanisms(
    double epsilon, double delta, double lambda_max, double lambda_delta,
    double epsilon1_fraction);

/// Mean ± stddev of the overall error (Definition 6) of `mechanism` on
/// `workload` over TRIALS seeded runs.
TrialAggregate MeasureOverallError(const Workload& workload,
                                   const MechanismFn& mechanism, double delta,
                                   uint64_t base_seed);

/// TRIALS environment knob.
int Trials();

/// IREDUCT_STEPS environment knob.
int IReductSteps();

/// Writes a "host" object into an open JSON object: CPU model (from
/// /proc/cpuinfo) and hardware concurrency. Every BENCH_*.json carries it
/// so perf trajectories are comparable across machines.
void WriteHostInfo(obs::JsonWriter& writer);

/// Pre-registers the standard mechanism-work metrics (iReduct iterations,
/// NoiseDown resample draws, privacy budget spent, bench runs) so every
/// snapshot carries them even when a bench exercised none — a BENCH_*.json
/// consumer can rely on the keys existing.
void RegisterStandardMetrics();

/// Emits the process metrics snapshot for `bench_name`: written as a JSON
/// blob {"bench":...,"metrics":{...}} to the path in the BENCH_METRICS_OUT
/// environment variable, or summarized to stderr when the knob is unset.
/// Also honors BENCH_REPORT_OUT (see EmitRunReport). Call once at the end
/// of a bench main so the recorded counters cover the whole run.
void EmitMetricsSnapshot(const std::string& bench_name);

/// Writes the unified run report (eval/run_report) for `bench_name` to the
/// path in the BENCH_REPORT_OUT environment variable: the full metrics
/// snapshot plus the event stream when an EventLog is installed. No-op
/// when the knob is unset.
void EmitRunReport(const std::string& bench_name);

}  // namespace bench
}  // namespace ireduct

#endif  // IREDUCT_BENCH_BENCH_UTIL_H_

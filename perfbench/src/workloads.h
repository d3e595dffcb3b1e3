// The three end-to-end workloads. Each one stresses a different layer of
// the library (see perfbench/README.md for the rationale and the metric
// tables):
//
//   paper_release   the paper's Figure 8 task through the library:
//                   iReduct over all 36 2-way marginals, ε = 0.01;
//   service_counts  conjunctive counts over the wire to 16 journaled
//                   tenants, open loop then closed: scans + fsyncs on the
//                   dispatcher;
//   scan_10m        closed-loop marginal requests over a 10M-row table
//                   whose working set exceeds the MarginalCache budget.
#ifndef IREDUCT_PERFBENCH_WORKLOADS_H_
#define IREDUCT_PERFBENCH_WORKLOADS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/schema.h"
#include "harness.h"
#include "loadgen.h"
#include "spans.h"

namespace ireduct {
namespace perfbench {

/// Workload names, in the order a full invocation runs them.
const std::vector<std::string>& WorkloadNames();
bool IsWorkload(std::string_view name);

/// Measurement length used when --seconds is not given (the run length
/// BENCHMARK.json fixes).
double DefaultSeconds();

/// Writes the workload's columnar input under `data_dir` unless a previous
/// run left it there. Generation runs in a forked child so the measuring
/// process's peak RSS never includes the generator; call it before the
/// process starts any thread.
Status EnsureInput(const std::string& workload, const std::string& data_dir);

struct WorkloadOptions {
  std::string name;
  uint64_t seed = 11;
  double seconds = 0;
  std::string data_dir;  // absolute; holds the inputs
  std::string work_dir;  // absolute; journals and sockets, cleaned per run
  SpanRecorder* spans = nullptr;  // traced pass when non-null
};

/// Runs one workload: set-up (median of several), the measured phases,
/// then the correctness checks (replay parity, ledger, release checks).
WorkloadResult RunWorkload(const WorkloadOptions& options);

/// The request generator of a wire workload over `schema` (exposed so the
/// self-test can pin the seeded request mix).
Result<RequestMaker> MakeRequestMaker(std::string_view workload,
                                      const Schema& schema);

/// The load phases of a wire workload for a run of `seconds`.
std::vector<LoadPhase> LoadPhasesOf(std::string_view workload, double seconds);

}  // namespace perfbench
}  // namespace ireduct

#endif  // IREDUCT_PERFBENCH_WORKLOADS_H_

// Measurement primitives shared by the end-to-end benchmark and its
// self-test: nearest-rank percentiles, the quartiles the acceptance rule
// uses, a response digest, the seeded arrival schedule, the result record
// and the --compare verdict.
//
// Nothing here touches the library's serving path; these are the
// benchmark's own rulers, kept in one place so the self-test pins them.
#ifndef IREDUCT_PERFBENCH_HARNESS_H_
#define IREDUCT_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "obs/json.h"

namespace ireduct {
namespace perfbench {

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile of `sorted` (ascending): the sample at 1-based
/// rank ceil(p/100 · n). `p` in (0, 100]. Returns 0 for an empty input.
double NearestRank(std::span<const double> sorted, double p);

/// Samples strictly above the nearest-rank p-th percentile: n − rank.
size_t SamplesBeyond(size_t n, double p);

/// The highest of {99.9, 99, 95, 90, 75, 50} that leaves at least ten
/// samples beyond it, or 0 when even the median does not (n < 20).
double HighestSupportedPercentile(size_t n);

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method), which is what the acceptance rule
/// uses. A single value yields {v, v, v}; an empty input all zeros.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  /// (q3 − q1) / median, or 0 when the median is 0.
  double RelativeSpread() const;
};
Quartiles QuartilesOf(std::vector<double> values);

/// Latency summary of one phase: sample count, median, p90, p99, and the
/// highest percentile the sample supports (see HighestSupportedPercentile).
struct LatencySummary {
  size_t samples = 0;
  double p50_ms = 0;
  /// The 90th percentile when at least ten samples lie beyond it (n ≥ 100);
  /// below that a p90 is not supported and this is the median.
  double p90_ms = 0;
  double p99_ms = 0;
  double tail_pct = 0;
  double tail_ms = 0;
};
LatencySummary SummarizeLatencies(std::vector<double> latencies_ms);

// --------------------------------------------------------------- digest

/// 64-bit digest of a response line. Each 8-byte word passes through an
/// invertible mix, so any change confined to one word — in particular any
/// one-byte flip — always changes the digest.
uint64_t Digest64(std::string_view bytes);

/// Order-sensitive combination of digests (for "digest of all answers").
uint64_t CombineDigest(uint64_t acc, uint64_t next);

/// Fixed-width lowercase hex rendering.
std::string HexDigest(uint64_t digest);

// ------------------------------------------------------------- schedule

/// Independent stream for (seed, salt): the bench derives every random
/// choice — arrivals, request mix, session seeds — from --seed this way,
/// so the program under test receives only the generated requests.
BitGen StreamFor(uint64_t seed, uint64_t salt);

/// Zipf(s) over ranks 0..n-1 (rank 0 most likely).
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double exponent);
  uint32_t Sample(BitGen& gen) const;
  uint32_t size() const { return static_cast<uint32_t>(cumulative_.size()); }

 private:
  std::vector<double> cumulative_;
};

/// Uniforms stratified in blocks of 30: each block hits every thirtieth of
/// [0, 1) exactly once, in seeded order. Every draw is uniform, but a block
/// carries the whole distribution, so quantities drawn from the stream —
/// a request mix, the gaps between arrivals — vary little from seed to
/// seed.
class StratifiedStream {
 public:
  explicit StratifiedStream(BitGen gen) : gen_(gen) {}
  double Next();
  /// The underlying generator, for draws that need no stratification.
  BitGen& gen() { return gen_; }

 private:
  BitGen gen_;
  std::vector<int> perm_;
  int pos_ = 0;
};

/// Arrival times at `rate` per second in [start, start + seconds): a
/// Poisson process whose exponential gaps are drawn from `gaps`, so the
/// number of arrivals in a phase barely depends on the seed.
std::vector<double> PoissonArrivals(StratifiedStream& gaps, double rate,
                                    double start, double seconds);

// --------------------------------------------------------------- result

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `detail_json` is a pre-serialized JSON
/// object with phase-level numbers that are informative but not gated.
struct WorkloadResult {
  std::string workload;
  bool correct = true;
  /// False when the load generator itself ran late (see loadgen.h); the
  /// numbers are then not evidence about the program.
  bool valid = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string detail_json = "{}";

  void Fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

/// Host and validity stamp written into every result file: the library's
/// host info (CPU, SIMD tiers, -march flags) plus git sha, build type,
/// nproc, 1-minute load average and the journal directory's filesystem.
struct HostStamp {
  std::string git_sha;
  std::string build_type;
  unsigned nproc = 0;
  double loadavg_1m = 0;
  std::string journal_fs;
};
HostStamp CollectHostStamp(const std::string& journal_dir);

/// Filesystem type name of `path` ("ext4", "tmpfs", ...; "0x…" if unknown).
std::string FilesystemType(const std::string& path);

/// The build type this binary was compiled with.
std::string BuildType();

/// Writes {"<name>":{"value":v,"unit":"u"},...} as the next JSON value.
void WriteMetrics(obs::JsonWriter& writer, std::span<const Metric> metrics);

/// Serializes one invocation's result: host stamp, seed, run length and
/// one entry per workload. One JSON object, no trailing newline.
std::string ResultToJson(const HostStamp& host, uint64_t seed, double seconds,
                         bool traced, std::span<const WorkloadResult> results);

/// The line that ends standard output: {"correct","attempted","failed",
/// "metrics"} with the end-to-end metrics, or the per-layer metrics when
/// `per_layer` is set.
std::string ContractLine(const WorkloadResult& result, bool per_layer);

// -------------------------------------------------------------- compare

/// A metric's declared direction and regression bound (from
/// BENCHMARK.json's end_to_end list).
struct MetricBound {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0;
};

/// Reads the end_to_end list of a BENCHMARK.json document.
Result<std::vector<MetricBound>> ParseBounds(std::string_view benchmark_json);

enum class Verdict { kBetter, kSame, kWorse, kUnresolved };
const char* VerdictName(Verdict verdict);

struct Comparison {
  Quartiles base;
  Quartiles candidate;
  /// (candidate − base) / base median, signed so that > 0 is worse.
  double change = 0;
  /// The wider of the two sides' relative interquartile spreads.
  double spread = 0;
  Verdict verdict = Verdict::kSame;
};

/// The verdict rule for one (metric, workload) pair:
///  * unresolved — the spread exceeds the bound, unless every candidate
///    run reads better than every base run;
///  * worse — the candidate median is worse by more than the bound;
///  * better — the median moved the right way by more than the base's
///    interquartile distance and the candidate wins at least nine tenths
///    of all (base, candidate) pairs;
///  * same — otherwise.
Comparison CompareRuns(std::span<const double> base,
                       std::span<const double> candidate,
                       bool lower_is_better, double bound);

/// Per-(workload, metric) end-to-end values gathered from result files.
struct RunSet {
  // workload → metric → values, one per run.
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string,
                                              std::vector<double>>>>>
      workloads;
  /// Untraced result lines read (one per workload run).
  size_t runs = 0;
  void Add(const std::string& workload, const std::string& metric,
           double value);
  const std::vector<double>* Find(const std::string& workload,
                                  const std::string& metric) const;
};

/// Loads result files (one JSON object per line, as --out appends them),
/// skipping traced runs, runs that failed their correctness checks and
/// runs marked invalid.
Result<RunSet> LoadRunSet(const std::string& path);

}  // namespace perfbench
}  // namespace ireduct

#endif  // IREDUCT_PERFBENCH_HARNESS_H_

#include "harness.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "bench_util.h"
#include "obs/json.h"

#ifndef PERFBENCH_GIT_SHA
#define PERFBENCH_GIT_SHA "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace ireduct {
namespace perfbench {

// ---------------------------------------------------------------- stats

namespace {
// 0-based index of the nearest-rank p-th percentile of n > 0 samples.
size_t NearestRankIndex(size_t n, double p) {
  // The slack keeps decimal percentiles such as 99.9 from rounding the
  // rank up past an exact integer.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}
}  // namespace

double NearestRank(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[NearestRankIndex(sorted.size(), p)];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - NearestRankIndex(n, p);
}

double HighestSupportedPercentile(size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

double Quartiles::RelativeSpread() const {
  return median == 0 ? 0 : (q3 - q1) / std::fabs(median);
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i sits
  // at position i·m/4 (1-based), linearly interpolated.
  auto cut = [&](int64_t i) {
    const int64_t m = static_cast<int64_t>(n) + 1;
    const int64_t j =
        std::clamp<int64_t>(i * m / 4, 1, static_cast<int64_t>(n) - 1);
    const int64_t delta = i * m - j * 4;  // may leave [0, 4]: extrapolates
    return (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = cut(1);
  out.median = cut(2);
  out.q3 = cut(3);
  return out;
}

LatencySummary SummarizeLatencies(std::vector<double> latencies_ms) {
  LatencySummary out;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  out.samples = latencies_ms.size();
  out.p50_ms = NearestRank(latencies_ms, 50);
  out.p90_ms = NearestRank(
      latencies_ms, SamplesBeyond(out.samples, 90) >= 10 ? 90 : 50);
  out.p99_ms = NearestRank(latencies_ms, 99);
  out.tail_pct = HighestSupportedPercentile(out.samples);
  out.tail_ms = out.tail_pct > 0 ? NearestRank(latencies_ms, out.tail_pct) : 0;
  return out;
}

// --------------------------------------------------------------- digest

namespace {
constexpr uint64_t kMulA = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kMulB = 0xc2b2ae3d27d4eb4fULL;
}  // namespace

uint64_t Digest64(std::string_view bytes) {
  // Per word: xor in, multiply by an odd constant, rotate — each step is
  // a bijection of the state, so two inputs differing in one word can
  // never collide.
  uint64_t h = 0x6a09e667f3bcc908ULL ^ (bytes.size() * kMulB);
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = std::rotl((h ^ w) * kMulA, 29);
  }
  uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h = std::rotl((h ^ tail) * kMulA, 29);
  h ^= h >> 32;
  h *= kMulB;
  h ^= h >> 29;
  return h;
}

uint64_t CombineDigest(uint64_t acc, uint64_t next) {
  return std::rotl((acc ^ next) * kMulA, 31) + kMulB;
}

std::string HexDigest(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

// ------------------------------------------------------------- schedule

BitGen StreamFor(uint64_t seed, uint64_t salt) {
  return BitGen(seed * 0x100000001b3ULL ^ (salt + 0x51ed2701u) * kMulA);
}

ZipfSampler::ZipfSampler(uint32_t n, double exponent) : cumulative_(n) {
  double total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(i + 1.0, exponent);
    cumulative_[i] = total;
  }
  for (double& c : cumulative_) c /= total;
  if (n > 0) cumulative_.back() = 1.0;
}

uint32_t ZipfSampler::Sample(BitGen& gen) const {
  const double u = gen.Uniform();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  const size_t idx = static_cast<size_t>(it - cumulative_.begin());
  return static_cast<uint32_t>(std::min(idx, cumulative_.size() - 1));
}

double StratifiedStream::Next() {
  constexpr int kStrata = 30;
  if (pos_ == 0) {
    perm_.resize(kStrata);
    std::iota(perm_.begin(), perm_.end(), 0);
    for (size_t i = perm_.size() - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[gen_.UniformInt(i + 1)]);
    }
  }
  const double u = (perm_[pos_] + gen_.Uniform()) / kStrata;
  pos_ = (pos_ + 1) % kStrata;
  return u;
}

std::vector<double> PoissonArrivals(StratifiedStream& gaps, double rate,
                                    double start, double seconds) {
  std::vector<double> out;
  if (!(rate > 0) || !(seconds > 0)) return out;
  // Inverse CDF of the exponential; u < 1, so the log is finite.
  auto gap = [&] { return -std::log1p(-gaps.Next()) / rate; };
  double t = start + gap();
  while (t < start + seconds) {
    out.push_back(t);
    t += gap();
  }
  return out;
}

// --------------------------------------------------------------- result

std::string BuildType() { return PERFBENCH_BUILD_TYPE; }

std::string FilesystemType(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0x65735546: return "fuse";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(st.f_type));
  return buf;
}

HostStamp CollectHostStamp(const std::string& journal_dir) {
  HostStamp out;
  out.git_sha = PERFBENCH_GIT_SHA;
  out.build_type = BuildType();
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  out.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 0;
  double load[1] = {0};
  if (::getloadavg(load, 1) == 1) out.loadavg_1m = load[0];
  out.journal_fs = FilesystemType(journal_dir);
  return out;
}

void WriteMetrics(obs::JsonWriter& w, std::span<const Metric> metrics) {
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.KV("value", m.value);
    w.KV("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
}

std::string ResultToJson(const HostStamp& host, uint64_t seed, double seconds,
                         bool traced, std::span<const WorkloadResult> results) {
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.KV("bench", "ireduct_bench");
  bench::WriteHostInfo(w);
  w.Key("stamp");
  w.BeginObject();
  w.KV("git_sha", host.git_sha);
  w.KV("build_type", host.build_type);
  w.KV("nproc", static_cast<uint64_t>(host.nproc));
  w.KV("loadavg_1m", host.loadavg_1m);
  w.KV("journal_fs", host.journal_fs);
  w.EndObject();
  w.KV("seed", seed);
  w.KV("seconds", seconds);
  w.Key("traced");
  w.Bool(traced);
  w.Key("workloads");
  w.BeginArray();
  for (const WorkloadResult& r : results) {
    w.BeginObject();
    w.KV("workload", r.workload);
    w.Key("correct");
    w.Bool(r.correct);
    w.Key("valid");
    w.Bool(r.valid);
    w.KV("attempted", r.attempted);
    w.KV("failed", r.failed);
    w.Key("problems");
    w.BeginArray();
    for (const std::string& p : r.problems) w.String(p);
    w.EndArray();
    w.Key("metrics");
    WriteMetrics(w, r.end_to_end);
    w.Key("layers");
    WriteMetrics(w, r.per_layer);
    w.Key("detail");
    w.RawValue(r.detail_json);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out;
}

std::string ContractLine(const WorkloadResult& result, bool per_layer) {
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.Key("correct");
  w.Bool(result.correct);
  w.KV("attempted", result.attempted);
  w.KV("failed", result.failed);
  w.Key("metrics");
  WriteMetrics(w, per_layer ? result.per_layer : result.end_to_end);
  w.EndObject();
  return out;
}

// -------------------------------------------------------------- compare

Result<std::vector<MetricBound>> ParseBounds(std::string_view benchmark_json) {
  IREDUCT_ASSIGN_OR_RETURN(const obs::JsonValue doc,
                           obs::JsonParse(benchmark_json));
  const obs::JsonValue* list = doc.Find("end_to_end");
  if (list == nullptr || !list->is(obs::JsonValue::Kind::kArray)) {
    return Status::InvalidArgument("BENCHMARK.json has no end_to_end list");
  }
  std::vector<MetricBound> out;
  for (const obs::JsonValue& entry : list->array) {
    const obs::JsonValue* name = entry.Find("name");
    const obs::JsonValue* unit = entry.Find("unit");
    const obs::JsonValue* better = entry.Find("better");
    const obs::JsonValue* bound = entry.Find("bound");
    if (name == nullptr || unit == nullptr || better == nullptr ||
        bound == nullptr || !bound->is(obs::JsonValue::Kind::kNumber)) {
      return Status::InvalidArgument("malformed end_to_end entry");
    }
    out.push_back({name->text, unit->text, better->text == "lower",
                   bound->number});
  }
  return out;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kBetter: return "better";
    case Verdict::kSame: return "same";
    case Verdict::kWorse: return "worse";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

Comparison CompareRuns(std::span<const double> base,
                       std::span<const double> candidate,
                       bool lower_is_better, double bound) {
  Comparison out;
  out.base = QuartilesOf({base.begin(), base.end()});
  out.candidate = QuartilesOf({candidate.begin(), candidate.end()});
  const double sign = lower_is_better ? 1.0 : -1.0;
  const double base_median = out.base.median;
  out.change = base_median == 0
                   ? 0
                   : sign * (out.candidate.median - base_median) /
                         std::fabs(base_median);
  out.spread = std::max(out.base.RelativeSpread(),
                        out.candidate.RelativeSpread());
  // "better" as a reading per run: lower when lower is better.
  auto reads_better = [&](double c, double b) { return sign * (c - b) < 0; };
  size_t wins = 0, pairs = 0;
  bool all_better = !base.empty() && !candidate.empty();
  for (const double c : candidate) {
    for (const double b : base) {
      ++pairs;
      if (reads_better(c, b)) {
        ++wins;
      } else {
        all_better = false;
      }
    }
  }
  if (out.spread > bound && !all_better) {
    out.verdict = Verdict::kUnresolved;
  } else if (out.change > bound) {
    out.verdict = Verdict::kWorse;
  } else if (-out.change * std::fabs(base_median) >
                 (out.base.q3 - out.base.q1) &&
             pairs > 0 && wins * 10 >= pairs * 9) {
    out.verdict = Verdict::kBetter;
  } else {
    out.verdict = Verdict::kSame;
  }
  return out;
}

void RunSet::Add(const std::string& workload, const std::string& metric,
                 double value) {
  auto w = std::find_if(workloads.begin(), workloads.end(),
                        [&](const auto& e) { return e.first == workload; });
  if (w == workloads.end()) {
    workloads.push_back({workload, {}});
    w = workloads.end() - 1;
  }
  auto m = std::find_if(w->second.begin(), w->second.end(),
                        [&](const auto& e) { return e.first == metric; });
  if (m == w->second.end()) {
    w->second.push_back({metric, {}});
    m = w->second.end() - 1;
  }
  m->second.push_back(value);
}

const std::vector<double>* RunSet::Find(const std::string& workload,
                                        const std::string& metric) const {
  for (const auto& [name, metrics] : workloads) {
    if (name != workload) continue;
    for (const auto& [metric_name, values] : metrics) {
      if (metric_name == metric) return &values;
    }
  }
  return nullptr;
}

Result<RunSet> LoadRunSet(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read '" + path + "'");
  RunSet out;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<obs::JsonValue> doc = obs::JsonParse(line);
    if (!doc.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + doc.status().message());
    }
    const obs::JsonValue* workloads = doc->Find("workloads");
    if (workloads == nullptr || !workloads->is(obs::JsonValue::Kind::kArray)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": no workloads array");
    }
    // Traced runs carry the per-layer numbers; end-to-end comparisons use
    // untraced runs only.
    const obs::JsonValue* traced = doc->Find("traced");
    if (traced != nullptr && traced->boolean) continue;
    ++out.runs;
    for (const obs::JsonValue& entry : workloads->array) {
      const obs::JsonValue* name = entry.Find("workload");
      const obs::JsonValue* correct = entry.Find("correct");
      const obs::JsonValue* metrics = entry.Find("metrics");
      if (name == nullptr || correct == nullptr || metrics == nullptr ||
          !metrics->is(obs::JsonValue::Kind::kObject)) {
        return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                       ": malformed workload entry");
      }
      // A run that failed its correctness checks, or whose load generator
      // ran late, is not evidence.
      const obs::JsonValue* valid = entry.Find("valid");
      if (!correct->boolean || (valid != nullptr && !valid->boolean)) continue;
      for (const auto& [metric, body] : metrics->object) {
        const obs::JsonValue* value = body.Find("value");
        if (value != nullptr && value->is(obs::JsonValue::Kind::kNumber)) {
          out.Add(name->text, metric, value->number);
        }
      }
    }
  }
  return out;
}

}  // namespace perfbench
}  // namespace ireduct

// bench_e2e_selftest: pins the benchmark's own rulers — percentile and
// quartile arithmetic, the seeded schedule, the digest parity check, the
// result JSON, and the --compare verdict — so a change to them shows up as
// a failing test rather than as a silently different number. Runs in well
// under a second; exits non-zero on the first failed group.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/census_generator.h"
#include "harness.h"
#include "loadgen.h"
#include "marginals/marginal.h"
#include "obs/json.h"
#include "service/private_session.h"
#include "service/wire.h"
#include "workloads.h"

namespace {

using namespace ireduct;
using namespace ireduct::perfbench;

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__,  \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (false)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(NearestRank(v, 50) == 50);
  EXPECT(NearestRank(v, 99) == 99);
  EXPECT(NearestRank(v, 100) == 100);
  EXPECT(NearestRank(v, 0.5) == 1);
  // 32 samples: the 99th percentile's rank is 32, i.e. the maximum, with
  // nothing beyond it — which is why a tail needs ten samples beyond.
  std::vector<double> small(v.begin(), v.begin() + 32);
  EXPECT(NearestRank(small, 99) == 32);
  EXPECT(SamplesBeyond(32, 99) == 0);
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(HighestSupportedPercentile(1000) == 99);
  EXPECT(HighestSupportedPercentile(999) == 95);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  EXPECT(HighestSupportedPercentile(20) == 50);
  EXPECT(HighestSupportedPercentile(19) == 0);
  const LatencySummary s = SummarizeLatencies(v);
  EXPECT(s.samples == 100 && s.p50_ms == 50 && s.p90_ms == 90 &&
         s.p99_ms == 99);
  EXPECT(s.tail_pct == 90 && s.tail_ms == 90);
  // 99 samples leave nine beyond the 90th percentile: it falls back to the
  // median.
  const LatencySummary short_run =
      SummarizeLatencies(std::vector<double>(v.begin(), v.begin() + 99));
  EXPECT(short_run.p90_ms == 50 && short_run.p99_ms == 99);

  // Reference values from Python's statistics.quantiles(data, n=4).
  auto q = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25));
  q = QuartilesOf({5, 1});
  EXPECT(Near(q.q1, 0) && Near(q.median, 3) && Near(q.q3, 6));
  q = QuartilesOf({3, 1, 2});
  EXPECT(Near(q.q1, 1) && Near(q.median, 2) && Near(q.q3, 3));
  q = QuartilesOf({1, 2, 4, 8, 16});
  EXPECT(Near(q.q1, 1.5) && Near(q.median, 4) && Near(q.q3, 12));
  EXPECT(Near(q.RelativeSpread(), 10.5 / 4));
}

void TestSchedule() {
  const std::vector<LoadPhase> phases = LoadPhasesOf("service_counts", 22);
  const auto a = BuildSchedule(phases, 16, 11);
  const auto b = BuildSchedule(phases, 16, 11);
  const auto c = BuildSchedule(phases, 16, 12);
  EXPECT(!a.empty());
  EXPECT(a.size() == b.size());
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].t == b[i].t && a[i].tenant == b[i].tenant &&
           a[i].phase == b[i].phase;
  }
  EXPECT(same);
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].t != c[i].t || a[i].tenant != c[i].tenant;
  }
  EXPECT(differs);
  // Arrivals stay inside their phases and in time order.
  for (size_t i = 1; i < a.size(); ++i) EXPECT(a[i - 1].t <= a[i].t);
  // Stratified gaps: a phase's arrival count stays within a few percent of
  // rate × length for every seed.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    StratifiedStream gaps(StreamFor(seed, 5));
    const size_t n = PoissonArrivals(gaps, 200, 0, 10).size();
    EXPECT(n > 1940 && n < 2060);
  }

  Result<Schema> schema = CensusSchema(CensusKind::kBrazil);
  EXPECT(schema.ok());
  for (const char* workload : {"service_counts", "scan_10m"}) {
    Result<RequestMaker> maker = MakeRequestMaker(workload, *schema);
    EXPECT(maker.ok());
    if (!maker.ok()) continue;
    auto mix = [&](uint64_t seed) {
      StratifiedStream stream(StreamFor(seed, 7001));
      std::string out;
      for (int i = 0; i < 200; ++i) {
        out += MakeRequest(*maker, stream, i % 16).ToJson();
      }
      return out;
    };
    EXPECT(mix(11) == mix(11));
    EXPECT(mix(11) != mix(12));
  }
}

void TestStratified() {
  StratifiedStream stream(StreamFor(11, 1));
  for (int block = 0; block < 3; ++block) {
    std::vector<int> hits(30, 0);
    for (int i = 0; i < 30; ++i) {
      const double u = stream.Next();
      EXPECT(u >= 0 && u < 1);
      ++hits[static_cast<size_t>(u * 30)];
    }
    EXPECT(std::count(hits.begin(), hits.end(), 1) == 30);
  }
}

void TestDigest() {
  Result<Marginal> m = Marginal::FromCounts(MarginalSpec{{0, 1}}, {3, 4},
                                            {1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                             11, 12.5});
  EXPECT(m.ok());
  MarginalRelease release;
  release.marginals.push_back(*m);
  release.epsilon_spent = 0.25;
  WireResponse response;
  response.id = 42;
  response.ok = true;
  response.result_json = MarginalReleaseToJson(release);
  const std::string line = response.ToJson();
  const uint64_t digest = Digest64(line);
  EXPECT(Digest64(line) == digest);
  int caught = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    for (const unsigned char bit : {0x01, 0x20, 0x80}) {
      std::string flipped = line;
      flipped[i] = static_cast<char>(flipped[i] ^ bit);
      caught += Digest64(flipped) != digest;
    }
  }
  EXPECT(caught == static_cast<int>(line.size() * 3));
  EXPECT(Digest64(line + " ") != digest);
  EXPECT(Digest64(line.substr(0, line.size() - 1)) != digest);
  EXPECT(CombineDigest(CombineDigest(0, 1), 2) !=
         CombineDigest(CombineDigest(0, 2), 1));
}

void TestResultJson() {
  WorkloadResult r;
  r.workload = "service_counts";
  r.attempted = 1234;
  r.failed = 0;
  r.end_to_end = {{"setup_s", 0.0123456789, "s"}, {"p50_ms", 1.5, "ms"}};
  r.per_layer = {{"dp.fsync_ms", 0.61, "ms"}};
  r.detail_json = "{\"phases\":[{\"name\":\"mid\",\"p99_ms\":3.25}]}";
  HostStamp host;
  host.git_sha = "abc";
  host.build_type = "Release";
  host.nproc = 4;
  host.loadavg_1m = 0.5;
  host.journal_fs = "ext4";
  const std::string json = ResultToJson(host, 11, 12, false, {&r, 1});
  Result<obs::JsonValue> doc = obs::JsonParse(json);
  EXPECT(doc.ok());
  if (doc.ok()) {
    const obs::JsonValue* workloads = doc->Find("workloads");
    EXPECT(workloads != nullptr && workloads->array.size() == 1);
    const obs::JsonValue& w = workloads->array[0];
    const obs::JsonValue* setup = w.Find("metrics")->Find("setup_s");
    EXPECT(setup != nullptr && setup->Find("value")->number == 0.0123456789);
    EXPECT(setup->Find("unit")->text == "s");
    EXPECT(w.Find("detail")->Find("phases")->array[0].Find("p99_ms")->number ==
           3.25);
    EXPECT(doc->Find("stamp")->Find("journal_fs")->text == "ext4");
    EXPECT(doc->Find("host") != nullptr);
  }
  for (const bool per_layer : {false, true}) {
    Result<obs::JsonValue> line = obs::JsonParse(ContractLine(r, per_layer));
    EXPECT(line.ok());
    if (!line.ok()) continue;
    EXPECT(line->object.size() == 4);
    EXPECT(line->object[0].first == "correct" &&
           line->object[1].first == "attempted" &&
           line->object[2].first == "failed" &&
           line->object[3].first == "metrics");
    EXPECT(line->Find("attempted")->number == 1234);
    EXPECT(line->Find("metrics")->object.size() == (per_layer ? 1u : 2u));
  }
  // --out appends one line per run; LoadRunSet reads them back and skips
  // traced runs and runs marked invalid.
  WorkloadResult late = r;
  late.valid = false;
  const std::string path = "bench_e2e_selftest_runs.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << json << '\n'
        << ResultToJson(host, 11, 12, true, {&r, 1}) << '\n'
        << ResultToJson(host, 11, 12, false, {&late, 1}) << '\n'
        << json << '\n';
  }
  Result<RunSet> runs = LoadRunSet(path);
  std::remove(path.c_str());
  EXPECT(runs.ok());
  if (runs.ok()) {
    const std::vector<double>* p50 = runs->Find("service_counts", "p50_ms");
    EXPECT(p50 != nullptr && p50->size() == 2 && (*p50)[1] == 1.5);
  }
}

void TestCompare() {
  const std::vector<double> base = {100, 101, 99, 100, 102, 98, 100, 101};
  auto shifted = [&](double factor) {
    std::vector<double> out;
    for (const double v : base) out.push_back(v * factor);
    return out;
  };
  EXPECT(CompareRuns(base, base, true, 0.05).verdict == Verdict::kSame);
  EXPECT(CompareRuns(base, shifted(1.02), true, 0.05).verdict ==
         Verdict::kSame);
  EXPECT(CompareRuns(base, shifted(1.2), true, 0.05).verdict ==
         Verdict::kWorse);
  EXPECT(CompareRuns(base, shifted(0.8), true, 0.05).verdict ==
         Verdict::kBetter);
  // Higher-is-better flips the direction.
  EXPECT(CompareRuns(base, shifted(1.2), false, 0.05).verdict ==
         Verdict::kBetter);
  EXPECT(CompareRuns(base, shifted(0.8), false, 0.05).verdict ==
         Verdict::kWorse);
  // A spread wider than the bound is unresolved ...
  const std::vector<double> noisy = {60, 140, 80, 120, 100, 70, 130, 100};
  EXPECT(CompareRuns(noisy, noisy, true, 0.05).verdict ==
         Verdict::kUnresolved);
  // ... unless every candidate run reads better than every base run.
  const std::vector<double> far_better = {10, 20, 12, 18};
  EXPECT(CompareRuns(noisy, far_better, true, 0.05).verdict ==
         Verdict::kBetter);
  const Comparison c = CompareRuns(base, shifted(1.1), true, 0.25);
  EXPECT(Near(c.change, 0.1) && c.verdict == Verdict::kSame);

  Result<std::vector<MetricBound>> bounds = ParseBounds(
      R"({"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower",)"
      R"("bound":0.05},{"name":"peak_rps","unit":"1/s","better":"higher",)"
      R"("bound":0.1}]})");
  EXPECT(bounds.ok() && bounds->size() == 2);
  if (bounds.ok() && bounds->size() == 2) {
    EXPECT((*bounds)[0].lower_is_better && (*bounds)[0].bound == 0.05);
    EXPECT(!(*bounds)[1].lower_is_better && (*bounds)[1].unit == "1/s");
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestSchedule();
  TestStratified();
  TestDigest();
  TestResultJson();
  TestCompare();
  if (failures > 0) {
    std::fprintf(stderr, "bench_e2e_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_e2e_selftest: all checks passed\n");
  return 0;
}

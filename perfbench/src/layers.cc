#include "layers.h"

#include <algorithm>
#include <cmath>

namespace ireduct {
namespace perfbench {

uint64_t RegistryDelta::Counter(std::string_view name) const {
  auto value = [&](const obs::MetricsSnapshot& snap) -> uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  const uint64_t before = value(before_);
  const uint64_t after = value(after_);
  return after >= before ? after - before : 0;
}

double RegistryDelta::Gauge(std::string_view name) const {
  for (const auto& [n, v] : after_.gauges) {
    if (n == name) return v;
  }
  return 0;
}

const obs::HistogramSnapshot* RegistryDelta::Find(
    const obs::MetricsSnapshot& snap, std::string_view name) const {
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

uint64_t RegistryDelta::Count(std::string_view histogram) const {
  const obs::HistogramSnapshot* a = Find(after_, histogram);
  const obs::HistogramSnapshot* b = Find(before_, histogram);
  if (a == nullptr) return 0;
  const uint64_t before = b == nullptr ? 0 : b->count;
  return a->count >= before ? a->count - before : 0;
}

double RegistryDelta::Sum(std::string_view histogram) const {
  const obs::HistogramSnapshot* a = Find(after_, histogram);
  const obs::HistogramSnapshot* b = Find(before_, histogram);
  if (a == nullptr) return 0;
  return a->sum - (b == nullptr ? 0 : b->sum);
}

double RegistryDelta::Mean(std::string_view histogram) const {
  const uint64_t n = Count(histogram);
  return n == 0 ? 0 : Sum(histogram) / static_cast<double>(n);
}

double RegistryDelta::Quantile(std::string_view histogram, double q) const {
  const obs::HistogramSnapshot* a = Find(after_, histogram);
  const obs::HistogramSnapshot* b = Find(before_, histogram);
  if (a == nullptr) return 0;
  std::vector<uint64_t> buckets = a->bucket_counts;
  if (b != nullptr && b->bucket_counts.size() == buckets.size()) {
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] -= std::min(buckets[i], b->bucket_counts[i]);
    }
  }
  uint64_t total = 0;
  for (const uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + static_cast<double>(buckets[i]) >= target) {
      // The overflow bucket has no upper bound; report its lower edge.
      if (i >= a->bounds.size()) return a->bounds.back();
      const double hi = a->bounds[i];
      const double lo = i == 0 ? hi / 10 : a->bounds[i - 1];
      const double frac = (target - seen) / static_cast<double>(buckets[i]);
      return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
    }
    seen += static_cast<double>(buckets[i]);
  }
  return a->bounds.back();
}

std::vector<Metric> PerLayerMetrics(const RegistryDelta& d,
                                    const BenchTimings& b) {
  const double reqs = b.requests > 0 ? b.requests : 1;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double cache_lookups = static_cast<double>(
      d.Counter("marginals.cache_hits") + d.Counter("marginals.cache_misses"));
  const double gs_lookups =
      static_cast<double>(d.Counter("ireduct.gs_incremental_hits") +
                          d.Counter("ireduct.gs_full_recomputes"));
  const double samples = static_cast<double>(d.Counter("noise_down.samples"));

  // Attribution: per request, the server's Phase B time (or the session's
  // time when no server is involved), the Phase A fused pass, and the
  // wire encode/parse costs the replay measured on the same bytes.
  const double phase_b_ms = d.Sum("server.request_seconds") * 1e3 / reqs;
  const double session_ms = d.Sum("session.request_seconds") * 1e3 / reqs;
  const double fused_ms = d.Sum("marginals.fused_seconds") * 1e3 / reqs;
  const double wire_ms =
      (b.wire_req_encode_us + b.wire_req_parse_us) / 1e3 +
      b.wire_resp_encode_ms + b.wire_resp_parse_ms;
  const double attributed_ms =
      (phase_b_ms > 0 ? phase_b_ms : session_ms) + fused_ms + wire_ms;

  return {
      {"data.open_ms", b.data_open_ms, "ms"},
      {"data.decode_ms", b.data_decode_ms, "ms"},
      {"data.bytes_per_row", b.data_bytes_per_row, "B"},
      {"marginals.fused_ms", d.Mean("marginals.fused_seconds") * 1e3, "ms"},
      {"marginals.fused_passes_per_req",
       static_cast<double>(d.Counter("marginals.fused_passes")) / reqs,
       "count"},
      {"marginals.rows_per_s",
       ratio(static_cast<double>(d.Counter("marginals.fused_rows")),
             d.Sum("marginals.fused_seconds")),
       "1/s"},
      {"marginals.cache_hit_ratio",
       ratio(static_cast<double>(d.Counter("marginals.cache_hits")),
             cache_lookups),
       "1"},
      {"marginals.cache_evictions",
       static_cast<double>(d.Counter("marginals.cache_evictions")), "count"},
      {"marginals.shard_imbalance", d.Gauge("marginals.shard_imbalance"), "1"},
      {"queries.evaluate_ms", b.queries_evaluate_ms, "ms"},
      {"algorithms.ireduct_run_ms", d.Mean("ireduct.run_seconds") * 1e3, "ms"},
      {"algorithms.ireduct_iterations",
       static_cast<double>(d.Counter("ireduct.iterations")) / reqs, "count"},
      {"algorithms.pick_ms", d.Sum("ireduct.pick_seconds") * 1e3 / reqs, "ms"},
      {"algorithms.gs_incremental_ratio",
       ratio(static_cast<double>(d.Counter("ireduct.gs_incremental_hits")),
             gs_lookups),
       "1"},
      {"algorithms.mechanism_ms.dwork", b.mechanism_ms_dwork, "ms"},
      {"algorithms.mechanism_ms.ireduct", b.mechanism_ms_ireduct, "ms"},
      {"dp.noise_down_samples", samples / reqs, "count"},
      {"dp.noise_down_accept_ratio",
       ratio(samples,
             static_cast<double>(d.Counter("noise_down.rejection_rounds"))),
       "1"},
      {"dp.noise_down_ns_per_sample",
       ratio((d.Sum("ireduct.run_seconds") - d.Sum("ireduct.pick_seconds")) *
                 1e9,
             samples),
       "ns"},
      {"dp.fsync_ms", d.Mean("journal.fsync_seconds") * 1e3, "ms"},
      {"dp.fsync_p99_ms", d.Quantile("journal.fsync_seconds", 0.99) * 1e3,
       "ms"},
      {"dp.journal_appends_per_req",
       static_cast<double>(d.Counter("journal.appends")) / reqs, "count"},
      {"dp.journal_bytes_per_req", d.Sum("journal.append_bytes") / reqs, "B"},
      {"service.phase_b_ms", d.Mean("server.request_seconds") * 1e3, "ms"},
      {"service.session_ms", d.Mean("session.request_seconds") * 1e3, "ms"},
      {"service.batch_width", d.Mean("server.batch_width"), "count"},
      {"service.sheds",
       static_cast<double>(d.Counter("server.shed_queue_full") +
                           d.Counter("server.shed_tenant_cap")),
       "count"},
      {"service.queue_depth_max", b.queue_depth_max, "count"},
      {"service.attributed_frac", ratio(attributed_ms, b.mean_latency_ms),
       "1"},
      {"service.unattributed_ms", b.mean_latency_ms - attributed_ms, "ms"},
      {"wire.req_encode_us", b.wire_req_encode_us, "us"},
      {"wire.req_parse_us", b.wire_req_parse_us, "us"},
      {"wire.resp_encode_ms", b.wire_resp_encode_ms, "ms"},
      {"wire.resp_parse_ms", b.wire_resp_parse_ms, "ms"},
      {"wire.resp_bytes", b.wire_resp_bytes, "B"},
      {"common.pool_wait_ms", d.Mean("thread_pool.task_wait_seconds") * 1e3,
       "ms"},
      {"common.pool_run_ms", d.Mean("thread_pool.task_run_seconds") * 1e3,
       "ms"},
      {"harness.gen_lag_p99_ms", b.gen_lag_p99_ms, "ms"},
      {"harness.trace_overhead", b.trace_overhead, "1"},
  };
}

}  // namespace perfbench
}  // namespace ireduct

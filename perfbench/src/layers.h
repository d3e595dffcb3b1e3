// Per-layer attribution from outside the program.
//
// Two sources, both outside src/:
//  (R) deltas of the metrics the library already records in
//      obs::MetricsRegistry, snapshotted before and after the measured
//      window;
//  (B) the benchmark's own timing of calls into a layer's public
//      functions during set-up or during the correctness replay.
// PerLayerMetrics turns both into the fixed per-layer metric list every
// workload reports (a layer a workload does not exercise reads 0).
#ifndef IREDUCT_PERFBENCH_LAYERS_H_
#define IREDUCT_PERFBENCH_LAYERS_H_

#include <string_view>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"

namespace ireduct {
namespace perfbench {

/// after − before for counters and histograms; `after` for gauges.
class RegistryDelta {
 public:
  RegistryDelta(obs::MetricsSnapshot before, obs::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  uint64_t Counter(std::string_view name) const;
  double Gauge(std::string_view name) const;
  uint64_t Count(std::string_view histogram) const;
  double Sum(std::string_view histogram) const;
  /// Sum / Count, or 0 without observations.
  double Mean(std::string_view histogram) const;
  /// Quantile `q` (0..1) of the observations made in the window, read off
  /// the histogram's buckets with log-linear interpolation inside the
  /// bucket that holds it — an estimate only as fine as the buckets.
  double Quantile(std::string_view histogram, double q) const;

 private:
  const obs::HistogramSnapshot* Find(const obs::MetricsSnapshot& snap,
                                     std::string_view name) const;

  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

/// What the benchmark timed itself (B) plus the normalizers.
struct BenchTimings {
  double data_open_ms = 0;
  double data_decode_ms = 0;
  double data_bytes_per_row = 0;
  double queries_evaluate_ms = 0;
  double mechanism_ms_dwork = 0;
  double mechanism_ms_ireduct = 0;
  double wire_req_encode_us = 0;
  double wire_req_parse_us = 0;
  double wire_resp_encode_ms = 0;
  double wire_resp_parse_ms = 0;
  double wire_resp_bytes = 0;
  double queue_depth_max = 0;
  double gen_lag_p99_ms = 0;
  double trace_overhead = 1;
  /// Requests completed inside the registry window.
  double requests = 0;
  /// Mean end-to-end latency of those requests.
  double mean_latency_ms = 0;
};

/// The per-layer metric list, in a fixed order.
std::vector<Metric> PerLayerMetrics(const RegistryDelta& delta,
                                    const BenchTimings& bench);

}  // namespace perfbench
}  // namespace ireduct

#endif  // IREDUCT_PERFBENCH_LAYERS_H_

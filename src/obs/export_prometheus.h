// Prometheus / OpenMetrics text exposition of the metrics registry.
//
// ExportPrometheus renders a MetricsSnapshot in the text format every
// Prometheus-compatible scraper ingests: one `# HELP` / `# TYPE` (and,
// where the name carries a unit suffix, `# UNIT`) comment block per metric
// family, followed by its samples. Dotted registry names map to the
// Prometheus grammar by replacing '.' with '_' (`ireduct.run_seconds` →
// `ireduct_run_seconds`); counter samples take the conventional `_total`
// suffix; histograms render cumulative `_bucket{le="..."}` series plus
// `_sum` and `_count`, ending with the mandatory `le="+Inf"` bucket.
//
// Output is deterministic: kinds in the fixed order counters/gauges/
// histograms and names sorted within each kind — exactly the snapshot
// order — so the format is golden-testable byte for byte.
#ifndef IREDUCT_OBS_EXPORT_PROMETHEUS_H_
#define IREDUCT_OBS_EXPORT_PROMETHEUS_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/metrics.h"

namespace ireduct {
namespace obs {

/// Prometheus metric name for a dotted registry name (dots and any other
/// non-[a-zA-Z0-9_:] bytes become '_'; a leading digit gains a '_' prefix).
std::string PrometheusName(std::string_view name);

/// Renders `snapshot` in the Prometheus text exposition format.
std::string ExportPrometheus(const MetricsSnapshot& snapshot);

/// ExportPrometheus(MetricsRegistry::Global().Snapshot()).
std::string ExportPrometheusGlobal();

/// Replaces `path` with ExportPrometheusGlobal() (WriteFileDurably), so a
/// scraper that reads the file mid-write sees the old or the new text.
Status WritePrometheusFile(const std::string& path);

}  // namespace obs
}  // namespace ireduct

#endif  // IREDUCT_OBS_EXPORT_PROMETHEUS_H_

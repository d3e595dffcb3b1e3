#include "obs/export_prometheus.h"

#include <cctype>
#include <map>
#include <string_view>

#include "common/file.h"
#include "obs/json.h"

namespace ireduct {
namespace obs {

namespace {

// Help strings for the standard metric set (see RegisterStandardMetrics).
// Metrics outside the table fall back to a generated line so exposition is
// never missing mandatory metadata.
std::string_view MetricHelp(std::string_view name) {
  static const std::map<std::string_view, std::string_view>* help =
      new std::map<std::string_view, std::string_view>{
          {"arena.chunk_allocs", "Scratch-arena chunks allocated"},
          {"arena.reserved_bytes", "Bytes reserved by scratch-arena chunks"},
          {"bench.mechanism_runs", "Mechanism invocations by the bench harness"},
          {"checkpoint.bytes", "Serialized checkpoint payload size"},
          {"checkpoint.last_round", "Round index of the last checkpoint written"},
          {"checkpoint.serialize_seconds", "Checkpoint serialization latency"},
          {"checkpoint.write_seconds", "Durable checkpoint write latency (tmp+fsync+rename)"},
          {"checkpoint.writes", "Durable checkpoints written"},
          {"eval.parallel_trial_batches", "Trial batches dispatched to the eval pool"},
          {"eval.trials_run", "Mechanism trials executed"},
          {"events.dropped", "Structured events dropped by the ring buffer"},
          {"events.emitted", "Structured events emitted"},
          {"ireduct.batch_rounds", "Batched NoiseDown rounds (batch_size > 1)"},
          {"ireduct.group_retirements", "Query groups retired at their error target"},
          {"ireduct.gs_full_recomputes", "Generalized-sensitivity full recomputations"},
          {"ireduct.gs_incremental_hits", "Generalized-sensitivity incremental updates"},
          {"ireduct.heap_repushes", "Selection-heap re-pushes after stale pops"},
          {"ireduct.heap_stale_pops", "Selection-heap pops discarded as stale"},
          {"ireduct.iterations", "iReduct/iResamp refinement iterations"},
          {"ireduct.pick_seconds", "Next-group selection latency"},
          {"ireduct.resample_draws", "Per-query refinements (group size-weighted)"},
          {"ireduct.run_seconds", "End-to-end mechanism run latency"},
          {"journal.append_bytes", "Ledger journal record size"},
          {"journal.append_seconds", "Ledger journal append latency (write+fsync)"},
          {"journal.appends", "Durable ledger journal appends"},
          {"journal.fsync_seconds", "Ledger journal fsync latency"},
          {"journal.recoveries", "Ledger journal recovery scans"},
          {"marginals.cache_evictions", "Marginal cache entries evicted"},
          {"marginals.cache_hits", "Marginal cache specs answered without a pass"},
          {"marginals.cache_misses", "Marginal cache specs answered from a fused pass"},
          {"marginals.cache_resident_bytes", "Marginal cache resident payload bytes"},
          {"marginals.fused_passes", "Fused marginal evaluation passes"},
          {"marginals.fused_plans", "Tables counted by fused marginal passes (a joint table counts once)"},
          {"marginals.fused_rows", "Rows scanned by fused marginal passes"},
          {"marginals.fused_seconds", "Fused marginal pass latency"},
          {"marginals.projected", "Specs answered by projecting a larger table, cached or counted by the pass"},
          {"marginals.rows_per_second", "Rows/s of the last fused marginal pass"},
          {"marginals.shard_imbalance", "Max/mean shard time ratio of the last fused pass"},
          {"marginals.shard_seconds", "Per-shard fused marginal pass latency"},
          {"marginals.streaming_passes", "Out-of-core marginal passes over columnar files"},
          {"marginals.streaming_rows", "Rows scanned by out-of-core marginal passes"},
          {"marginals.streaming_rows_per_second", "Rows/s of the last out-of-core marginal pass"},
          {"marginals.streaming_seconds", "Out-of-core marginal pass latency"},
          {"noise_down.envelope_draws", "NoiseDown rejection-sampler envelope draws"},
          {"noise_down.rejection_rounds", "NoiseDown rejection-sampler rounds"},
          {"noise_down.samples", "NoiseDown correlated re-samples"},
          {"noise_down_chain.reductions", "NoiseDown chain scale reductions"},
          {"noise_down_chain.starts", "NoiseDown chains started"},
          {"privacy.charges", "Privacy-accountant charges recorded"},
          {"privacy.epsilon_spent", "Cumulative epsilon spent by the accountant"},
          {"server.admitted", "Query-server requests admitted to the queue"},
          {"server.batch_width", "Requests per query-server dispatcher batch"},
          {"server.batches", "Query-server dispatcher batches run"},
          {"server.queue_depth", "Query-server requests queued and not yet dispatched"},
          {"server.request_seconds", "Query-server Phase B time per request (no queue wait)"},
          {"server.shed_queue_full", "Query-server requests shed because the queue was full"},
          {"server.shed_tenant_cap", "Query-server requests shed at the per-tenant in-flight cap"},
          {"server.tenants", "Tenants open on the query server"},
          {"session.count_queries", "Private-session count queries served"},
          {"session.epsilon_remaining", "Epsilon remaining in the session budget"},
          {"session.marginal_releases", "Private-session marginal releases served"},
          {"session.refinable_counts", "Private-session refinable counts started"},
          {"session.request_seconds", "Private-session request latency"},
          {"thread_pool.queue_depth", "Tasks queued and not yet started"},
          {"thread_pool.task_run_seconds", "Task execution time on a worker"},
          {"thread_pool.task_wait_seconds", "Task queue-wait time before a worker picks it up"},
          {"thread_pool.tasks", "Tasks submitted to the shared pool"},
      };
  const auto it = help->find(name);
  return it == help->end() ? std::string_view() : it->second;
}

// The unit a name's suffix declares, or empty.
std::string_view MetricUnit(std::string_view prom_name) {
  if (prom_name.ends_with("_seconds")) return "seconds";
  if (prom_name.ends_with("_bytes")) return "bytes";
  return {};
}

void AppendMeta(std::string* out, const std::string& prom_name,
                std::string_view dotted_name, std::string_view type) {
  out->append("# HELP ").append(prom_name).push_back(' ');
  const std::string_view help = MetricHelp(dotted_name);
  if (help.empty()) {
    out->append("ireduct metric ");
    out->append(dotted_name);
  } else {
    out->append(help);
  }
  out->push_back('\n');
  out->append("# TYPE ").append(prom_name).push_back(' ');
  out->append(type);
  out->push_back('\n');
  const std::string_view unit = MetricUnit(prom_name);
  if (!unit.empty()) {
    out->append("# UNIT ").append(prom_name).push_back(' ');
    out->append(unit);
    out->push_back('\n');
  }
}

}  // namespace

std::string PrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string ExportPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name);
    AppendMeta(&out, prom, name, "counter");
    out.append(prom).append("_total ");
    out.append(std::to_string(value));
    out.push_back('\n');
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    AppendMeta(&out, prom, name, "gauge");
    out.append(prom).push_back(' ');
    out.append(FormatDouble(value));
    out.push_back('\n');
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    const std::string prom = PrometheusName(histogram.name);
    AppendMeta(&out, prom, histogram.name, "histogram");
    // Prometheus buckets are cumulative; the registry's are per-bucket.
    // The exposition format requires _count == the +Inf bucket, and the
    // registry's relaxed bucket counters may transiently disagree with the
    // coherent count by an in-flight observation — pin both to the larger.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
      cumulative += histogram.bucket_counts[i];
      const bool last = i + 1 == histogram.bucket_counts.size();
      if (last && histogram.count > cumulative) cumulative = histogram.count;
      out.append(prom).append("_bucket{le=\"");
      out.append(i < histogram.bounds.size()
                     ? FormatDouble(histogram.bounds[i])
                     : std::string("+Inf"));
      out.append("\"} ");
      out.append(std::to_string(cumulative));
      out.push_back('\n');
    }
    out.append(prom).append("_sum ");
    out.append(FormatDouble(histogram.sum));
    out.push_back('\n');
    out.append(prom).append("_count ");
    out.append(std::to_string(cumulative));
    out.push_back('\n');
  }
  return out;
}

std::string ExportPrometheusGlobal() {
  return ExportPrometheus(MetricsRegistry::Global().Snapshot());
}

Status WritePrometheusFile(const std::string& path) {
  return WriteFileDurably(path, ExportPrometheusGlobal());
}

}  // namespace obs
}  // namespace ireduct

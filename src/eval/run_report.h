// Unified run-report artifact: one JSON document (plus a human-readable
// table) merging everything a finished run knows about itself — identifying
// run fields, per-query relative-error statistics (eval/metrics), the
// privacy accountant's ε ledger, the full metrics snapshot, and the
// structured event stream with its summary.
//
// The report is assembled by the edge that owns the run (ireduct_tool,
// bench harnesses): sections are attached independently and only attached
// sections are serialized, so a bench without a workload release still
// emits a valid report. Attaching the event stream *copies* the buffered
// lines — it never drains the log — so a later (possibly failing) drain to
// --events-out cannot corrupt a report snapshot taken before it.
//
// Serialization is deterministic for a fixed run: field order is fixed,
// doubles render shortest round-trip, and no wall-clock time enters it
// (event lines carry none).
#ifndef IREDUCT_EVAL_RUN_REPORT_H_
#define IREDUCT_EVAL_RUN_REPORT_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dp/privacy_accountant.h"
#include "dp/workload.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace ireduct {

/// Deterministic per-query accuracy statistics for a release. Percentiles
/// are nearest-rank over the sorted per-query relative errors, so equal
/// inputs give bit-equal outputs.
struct QueryErrorStats {
  uint64_t queries = 0;
  double overall_error = 0;  // Definition 6 (mean of per-group means)
  double mean_relative_error = 0;
  double max_relative_error = 0;
  double p50_relative_error = 0;
  double p90_relative_error = 0;
  double p99_relative_error = 0;
  double mean_absolute_error = 0;
};

QueryErrorStats ComputeQueryErrorStats(const Workload& workload,
                                       std::span<const double> published,
                                       double delta);

/// Collects a run's telemetry sections and serializes them as one report.
class RunReport {
 public:
  explicit RunReport(std::string run_name) : run_name_(std::move(run_name)) {}

  /// Adds an identifying field to the "run" section (mechanism, rows,
  /// seed, ...). Fields serialize in insertion order after "name".
  void SetRunField(std::string_view key, std::string_view value);
  void SetRunField(std::string_view key, double value);
  void SetRunField(std::string_view key, uint64_t value);

  /// Computes and attaches per-query and per-group relative-error stats
  /// for a released answer vector.
  void SetErrors(const Workload& workload, std::span<const double> published,
                 double delta);

  /// Attaches the accountant's ε ledger (budget, spent, every charge).
  void AttachLedger(const PrivacyAccountant& accountant);
  /// The attached ledger's JSON (PrivacyAccountant::ExportLedgerJson), if
  /// any.
  const std::optional<std::string>& ledger_json() const {
    return ledger_json_;
  }

  /// Attaches a snapshot of `registry` (defaults to the global one).
  void AttachMetrics(
      const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global());

  /// Attaches the event stream: summary plus a copy of the buffered lines.
  /// Never drains `events`.
  void AttachEvents(const obs::EventLog& events);

  /// The full report document: {"report_version":1,"run":{...},...}.
  std::string ToJson() const;

  /// Human-readable section/field/value table via eval/table_printer.
  void PrintTable(std::ostream& os) const;

  /// Replaces `path` with ToJson() and a newline (WriteFileDurably).
  Status WriteFile(const std::string& path) const;

 private:
  struct GroupErrorStats {
    std::string name;
    uint64_t queries = 0;
    double mean_relative_error = 0;
    double max_relative_error = 0;
  };

  std::string run_name_;
  // Values are pre-serialized JSON tokens, EventField-style.
  std::vector<std::pair<std::string, std::string>> run_fields_;
  std::optional<QueryErrorStats> errors_;
  std::vector<GroupErrorStats> group_errors_;
  std::optional<std::string> ledger_json_;
  double ledger_budget_ = 0;
  double ledger_spent_ = 0;
  uint64_t ledger_charges_ = 0;
  std::optional<std::string> metrics_json_;
  uint64_t metrics_count_ = 0;
  std::optional<std::string> events_summary_json_;
  std::vector<std::string> event_lines_;
  uint64_t events_emitted_ = 0;
  uint64_t events_dropped_ = 0;
};

}  // namespace ireduct

#endif  // IREDUCT_EVAL_RUN_REPORT_H_

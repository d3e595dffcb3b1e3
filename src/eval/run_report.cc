#include "eval/run_report.h"

#include <algorithm>
#include <cmath>

#include "common/file.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "obs/json.h"

namespace ireduct {

namespace {

// Nearest-rank percentile over already-sorted values; deterministic for
// equal inputs (no interpolation).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

QueryErrorStats ComputeQueryErrorStats(const Workload& workload,
                                       std::span<const double> published,
                                       double delta) {
  QueryErrorStats stats;
  stats.queries = workload.num_queries();
  stats.overall_error = OverallError(workload, published, delta);
  stats.max_relative_error = MaxRelativeError(workload, published, delta);
  stats.mean_absolute_error = MeanAbsoluteError(workload, published);
  std::vector<double> rel;
  rel.reserve(workload.num_queries());
  double total = 0;
  for (uint32_t i = 0; i < workload.num_queries(); ++i) {
    const double e =
        RelativeError(published[i], workload.true_answer(i), delta);
    rel.push_back(e);
    total += e;
  }
  if (!rel.empty()) {
    stats.mean_relative_error = total / static_cast<double>(rel.size());
    std::sort(rel.begin(), rel.end());
    stats.p50_relative_error = Percentile(rel, 50);
    stats.p90_relative_error = Percentile(rel, 90);
    stats.p99_relative_error = Percentile(rel, 99);
  }
  return stats;
}

void RunReport::SetRunField(std::string_view key, std::string_view value) {
  run_fields_.emplace_back(std::string(key),
                           '"' + obs::EscapeJson(value) + '"');
}

void RunReport::SetRunField(std::string_view key, double value) {
  run_fields_.emplace_back(std::string(key), obs::JsonToken(value));
}

void RunReport::SetRunField(std::string_view key, uint64_t value) {
  run_fields_.emplace_back(std::string(key), std::to_string(value));
}

void RunReport::SetErrors(const Workload& workload,
                          std::span<const double> published, double delta) {
  errors_ = ComputeQueryErrorStats(workload, published, delta);
  group_errors_.clear();
  group_errors_.reserve(workload.num_groups());
  for (size_t g = 0; g < workload.num_groups(); ++g) {
    const QueryGroup& group = workload.group(g);
    GroupErrorStats gs;
    gs.name = group.name;
    gs.queries = group.end - group.begin;
    double total = 0;
    for (uint32_t i = group.begin; i < group.end; ++i) {
      const double e =
          RelativeError(published[i], workload.true_answer(i), delta);
      total += e;
      gs.max_relative_error = std::max(gs.max_relative_error, e);
    }
    if (gs.queries > 0) {
      gs.mean_relative_error = total / static_cast<double>(gs.queries);
    }
    group_errors_.push_back(std::move(gs));
  }
}

void RunReport::AttachLedger(const PrivacyAccountant& accountant) {
  ledger_json_ = accountant.ExportLedgerJson();
  ledger_budget_ = accountant.budget();
  ledger_spent_ = accountant.spent();
  ledger_charges_ = accountant.ledger().size();
}

void RunReport::AttachMetrics(const obs::MetricsRegistry& registry) {
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  metrics_count_ = snapshot.counters.size() + snapshot.gauges.size() +
                   snapshot.histograms.size();
  metrics_json_ = registry.SnapshotJson();
}

void RunReport::AttachEvents(const obs::EventLog& events) {
  events_summary_json_ = events.SummaryJson();
  event_lines_ = events.SnapshotLines();
  events_emitted_ = events.total_emitted();
  events_dropped_ = events.total_dropped();
}

std::string RunReport::ToJson() const {
  std::string out;
  obs::JsonWriter json(&out);
  json.BeginObject();
  json.KV("report_version", uint64_t{1});

  json.Key("run");
  json.BeginObject();
  json.KV("name", run_name_);
  for (const auto& [key, token] : run_fields_) {
    json.Key(key);
    json.RawValue(token);
  }
  json.EndObject();

  if (errors_.has_value()) {
    json.Key("errors");
    json.BeginObject();
    json.KV("queries", errors_->queries);
    json.KV("overall_error", errors_->overall_error);
    json.KV("mean_relative_error", errors_->mean_relative_error);
    json.KV("max_relative_error", errors_->max_relative_error);
    json.KV("p50_relative_error", errors_->p50_relative_error);
    json.KV("p90_relative_error", errors_->p90_relative_error);
    json.KV("p99_relative_error", errors_->p99_relative_error);
    json.KV("mean_absolute_error", errors_->mean_absolute_error);
    json.Key("per_group");
    json.BeginArray();
    for (const GroupErrorStats& group : group_errors_) {
      json.BeginObject();
      json.KV("group", group.name);
      json.KV("queries", group.queries);
      json.KV("mean_relative_error", group.mean_relative_error);
      json.KV("max_relative_error", group.max_relative_error);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }

  if (ledger_json_.has_value()) {
    json.Key("ledger");
    json.RawValue(*ledger_json_);
  }

  if (metrics_json_.has_value()) {
    json.Key("metrics");
    json.RawValue(*metrics_json_);
  }

  if (events_summary_json_.has_value()) {
    json.Key("events");
    json.BeginObject();
    json.Key("summary");
    json.RawValue(*events_summary_json_);
    json.Key("stream");
    json.BeginArray();
    for (const std::string& line : event_lines_) {
      json.RawValue(line);
    }
    json.EndArray();
    json.EndObject();
  }

  json.EndObject();
  return out;
}

void RunReport::PrintTable(std::ostream& os) const {
  TablePrinter table({"section", "field", "value"});
  table.AddRow({"run", "name", run_name_});
  for (const auto& [key, token] : run_fields_) {
    // Tokens are JSON; strings carry quotes — strip them for the table.
    std::string value = token;
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    table.AddRow({"run", key, value});
  }
  if (errors_.has_value()) {
    table.AddRow({"errors", "queries", std::to_string(errors_->queries)});
    table.AddRow(
        {"errors", "overall", TablePrinter::Cell(errors_->overall_error)});
    table.AddRow({"errors", "mean_rel",
                  TablePrinter::Cell(errors_->mean_relative_error)});
    table.AddRow({"errors", "max_rel",
                  TablePrinter::Cell(errors_->max_relative_error)});
    table.AddRow({"errors", "p50_rel",
                  TablePrinter::Cell(errors_->p50_relative_error)});
    table.AddRow({"errors", "p90_rel",
                  TablePrinter::Cell(errors_->p90_relative_error)});
    table.AddRow({"errors", "p99_rel",
                  TablePrinter::Cell(errors_->p99_relative_error)});
    table.AddRow({"errors", "mean_abs",
                  TablePrinter::Cell(errors_->mean_absolute_error)});
  }
  if (ledger_json_.has_value()) {
    table.AddRow({"ledger", "budget", TablePrinter::Cell(ledger_budget_)});
    table.AddRow({"ledger", "spent", TablePrinter::Cell(ledger_spent_)});
    table.AddRow(
        {"ledger", "remaining",
         TablePrinter::Cell(ledger_budget_ - ledger_spent_)});
    table.AddRow({"ledger", "charges", std::to_string(ledger_charges_)});
  }
  if (metrics_json_.has_value()) {
    table.AddRow({"metrics", "registered", std::to_string(metrics_count_)});
  }
  if (events_summary_json_.has_value()) {
    table.AddRow({"events", "emitted", std::to_string(events_emitted_)});
    table.AddRow({"events", "dropped", std::to_string(events_dropped_)});
    table.AddRow(
        {"events", "buffered", std::to_string(event_lines_.size())});
  }
  table.Print(os);
}

Status RunReport::WriteFile(const std::string& path) const {
  return WriteFileDurably(path, ToJson() + '\n');
}

}  // namespace ireduct

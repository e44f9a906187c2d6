#include "spec.h"

namespace pdmbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"recursive-session",
                                                  "navigational-expand"};
  return kNames;
}

const std::vector<std::string>& ManualWorkloadNames() {
  static const std::vector<std::string> kNames = {"multiclient-checkout"};
  return kNames;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"actions_per_s", "1/s", "higher"},
      {"mle_p50_ms", "ms", "lower"},
      {"mle_p90_ms", "ms", "lower"},
      {"expand_p50_ms", "ms", "lower"},
      {"query_p50_ms", "ms", "lower"},
      {"checkout_p50_ms", "ms", "lower"},
      {"checkout_p90_ms", "ms", "lower"},
      {"sim_response_s", "s", "lower"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"client.self_ms_per_action", "ms", "lower"},
      {"client.kept_row_share", "ratio", "higher"},
      {"rules.rewrite_us_per_stmt", "us", "lower"},
      {"rules.sql_bytes_per_stmt", "B", "lower"},
      {"pdm.assemble_us_per_node", "us", "lower"},
      {"net.round_trips_per_action", "count", "lower"},
      {"net.bytes_per_action", "B", "lower"},
      {"net.hidden_s_per_action", "s", "higher"},
      {"server.self_us_per_stmt", "us", "lower"},
      {"server.batch_self_us_per_stmt", "us", "lower"},
      {"server.queue_wait_p50_ms", "ms", "lower"},
      {"server.queue_wait_p90_ms", "ms", "lower"},
      {"server.waves_per_s", "1/s", "higher"},
      {"server.statements_per_wave", "count", "higher"},
      {"server.dedup_factor", "ratio", "higher"},
      {"server.pool_items_per_s", "1/s", "higher"},
      {"server.pool_busy_us_per_item", "us", "lower"},
      {"engine.execute_us_per_stmt", "us", "lower"},
      {"engine.stmts_per_action", "count", "lower"},
      {"engine.plan_cache_hit_ratio", "ratio", "higher"},
      {"engine.update_us_per_row", "us", "lower"},
      {"engine.versions_per_live_row", "ratio", "lower"},
      {"sql.lex_us_per_stmt", "us", "lower"},
      {"sql.fingerprint_us_per_stmt", "us", "lower"},
      {"sql.parse_us_per_stmt", "us", "lower"},
      {"plan.bind_us_per_stmt", "us", "lower"},
      {"exec.self_us_per_stmt", "us", "lower"},
      {"exec.rows_scanned_per_action", "count", "lower"},
      {"exec.cte_rows_per_action", "count", "lower"},
      {"exec.vec_scan_share", "ratio", "higher"},
      {"exec.vec_join_share", "ratio", "higher"},
      {"exec.index_scans_per_stmt", "ratio", "higher"},
      {"obs.trace_overhead_share", "ratio", "lower"},
  };
  return kMetrics;
}

namespace {

std::string MetricsJson(const std::vector<MetricSpec>& metrics) {
  std::string out = "[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::string("{\"name\": \"") + metrics[i].name +
           "\", \"unit\": \"" + metrics[i].unit + "\", \"better\": \"" +
           metrics[i].better + "\"}";
  }
  return out + "]";
}

std::string NamesJson(const std::vector<std::string>& names) {
  std::string out = "[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\"";
  }
  return out + "]";
}

}  // namespace

std::string SpecJson() {
  std::string out = "{\"workloads\": " + NamesJson(WorkloadNames());
  out += ", \"manual_workloads\": " + NamesJson(ManualWorkloadNames());
  out += ", \"end_to_end\": " + MetricsJson(EndToEndMetrics());
  out += ", \"per_layer\": " + MetricsJson(PerLayerMetrics()) + "}";
  return out;
}

}  // namespace pdmbench

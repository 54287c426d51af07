// Exporters: metrics as JSONL and Prometheus text, traces as Chrome
// chrome://tracing JSON.
//
// JSONL — one JSON object per line per metric, easy to grep/jq and to diff
// in CI.  Chrome JSON — the Trace Event Format's "X"/"i" phases, loadable
// in chrome://tracing or https://ui.perfetto.dev to inspect a solver epoch
// visually (ts/dur are microseconds of *simulated* time).
#pragma once

#include <string>

#include "telemetry/telemetry.hpp"

namespace edr::telemetry {

/// One line per metric: {"metric":...,"type":"counter","value":N}.
[[nodiscard]] std::string metrics_to_jsonl(const MetricsRegistry& registry);

/// Prometheus text exposition (0.0.4): sanitized names, counters with a
/// `_total` suffix, histograms as cumulative `_bucket{le=}` + `_sum` +
/// `_count` series.  Suitable for the node-exporter textfile collector.
[[nodiscard]] std::string metrics_to_prometheus(
    const MetricsRegistry& registry);

/// Flight-recorder dump as JSONL: one {"sample":...} line per retained
/// RoundSample (oldest first) followed by one {"epoch":...} line per
/// EpochSummary.
[[nodiscard]] std::string flight_to_jsonl(const FlightRecorder& recorder);

/// Chrome Trace Event Format JSON ({"traceEvents":[...]}), events sorted by
/// sim-time ts.  `process_name` labels the single emitted pid.
[[nodiscard]] std::string trace_to_chrome_json(
    const EventTracer& tracer, const std::string& process_name = "edr");

/// Write `path` with the Chrome trace, `path` + ".metrics.jsonl" with the
/// metrics dump, `path` + ".prom" with the Prometheus exposition, and —
/// when a flight recorder is attached — `path` + ".flight.jsonl" with the
/// sample stream.  Returns false (and reports via errno-style stderr) if
/// any file cannot be written.
bool export_telemetry(const Telemetry& telemetry, const std::string& path);

}  // namespace edr::telemetry

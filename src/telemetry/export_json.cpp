#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.hpp"
#include "telemetry/export.hpp"

namespace edr::telemetry {

std::string metrics_to_jsonl(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& view : registry.counters()) {
    JsonWriter json;
    json.begin_object()
        .field("metric", view.name)
        .field("type", "counter")
        .field("value", view.value)
        .end_object();
    out += json.str();
    out += '\n';
  }
  for (const auto& view : registry.gauges()) {
    JsonWriter json;
    json.begin_object()
        .field("metric", view.name)
        .field("type", "gauge")
        .field("value", view.value)
        .end_object();
    out += json.str();
    out += '\n';
  }
  for (const auto& view : registry.histograms()) {
    JsonWriter json;
    json.begin_object()
        .field("metric", view.name)
        .field("type", "histogram")
        .field("count", view.slot->count)
        .field("sum", view.slot->sum)
        .key("buckets")
        .begin_array();
    for (std::size_t i = 0; i < view.slot->counts.size(); ++i) {
      json.begin_object();
      if (i < view.slot->bounds.size())
        json.field("le", view.slot->bounds[i]);
      else
        json.field("le", "+inf");
      json.field("count", view.slot->counts[i]).end_object();
    }
    json.end_array().end_object();
    out += json.str();
    out += '\n';
  }
  return out;
}

std::string flight_to_jsonl(const FlightRecorder& recorder) {
  std::string out;
  for (const auto& sample : recorder.samples()) {
    JsonWriter json;
    json.begin_object()
        .key("sample")
        .begin_object()
        .field("epoch", sample.epoch)
        .field("round", sample.round)
        .field("replica", sample.replica)
        .field("time", sample.time)
        .field("objective", sample.objective)
        .field("round_objective", sample.round_objective)
        .field("gradient_norm", sample.gradient_norm)
        .field("disagreement", sample.disagreement)
        .field("projection_correction", sample.projection_correction)
        .field("capacity_slack", sample.capacity_slack)
        .field("load", sample.load)
        .field("load_delta", sample.load_delta)
        .field("messages_sent", sample.messages_sent)
        .field("bytes_sent", sample.bytes_sent)
        .end_object()
        .end_object();
    out += json.str();
    out += '\n';
  }
  for (const auto& epoch : recorder.epochs()) {
    JsonWriter json;
    json.begin_object()
        .key("epoch")
        .begin_object()
        .field("epoch", epoch.epoch)
        .field("rounds", epoch.rounds)
        .field("replicas", epoch.replicas)
        .field("samples", epoch.samples)
        .field("start_time", epoch.start_time)
        .field("end_time", epoch.end_time)
        .field("first_objective", epoch.first_objective)
        .field("final_objective", epoch.final_objective)
        .field("final_disagreement", epoch.final_disagreement)
        .field("max_gradient_norm", epoch.max_gradient_norm)
        .field("min_capacity_slack", epoch.min_capacity_slack)
        .field("messages", epoch.messages)
        .field("bytes", epoch.bytes)
        .field("alerts", epoch.alerts)
        .end_object()
        .end_object();
    out += json.str();
    out += '\n';
  }
  return out;
}

bool export_telemetry(const Telemetry& telemetry, const std::string& path) {
  const auto write = [](const std::string& file, const std::string& content) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "telemetry: cannot write %s\n", file.c_str());
      return false;
    }
    out << content;
    return static_cast<bool>(out);
  };
  bool ok = write(path, trace_to_chrome_json(telemetry.tracer()));
  ok = write(path + ".metrics.jsonl", metrics_to_jsonl(telemetry.metrics())) &&
       ok;
  ok = write(path + ".prom", metrics_to_prometheus(telemetry.metrics())) && ok;
  if (const auto* recorder = telemetry.flight_recorder())
    ok = write(path + ".flight.jsonl", flight_to_jsonl(*recorder)) && ok;
  return ok;
}

}  // namespace edr::telemetry

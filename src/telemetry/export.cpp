#include "src/telemetry/export.hpp"

#include <cstdio>
#include <string>

#include "src/json/json.hpp"

namespace harp::telemetry {

namespace {

json::Value event_to_json(const TraceEvent& event) {
  json::Object object;
  object["seq"] = json::Value(static_cast<double>(event.seq));
  object["t"] = json::Value(event.t);
  object["type"] = json::Value(to_string(event.type));
  object["ph"] = json::Value(to_string(event.phase));
  if (!event.scope.empty()) object["scope"] = json::Value(event.scope);
  if (!event.num.empty()) {
    json::Object num;
    for (const auto& [key, value] : event.num) num[key] = json::Value(value);
    object["num"] = json::Value(std::move(num));
  }
  if (!event.str.empty()) {
    json::Object str;
    for (const auto& [key, value] : event.str) str[key] = json::Value(value);
    object["str"] = json::Value(std::move(str));
  }
  return json::Value(std::move(object));
}

Result<TraceEvent> event_from_json(const json::Value& value) {
  if (!value.is_object()) return Result<TraceEvent>(make_error("parse: event is not an object"));
  for (const char* key : {"seq", "t", "type", "ph"})
    if (!value.contains(key))
      return Result<TraceEvent>(make_error("parse: event missing '" + std::string(key) + "'"));
  if (!value.at("seq").is_number() || !value.at("t").is_number())
    return Result<TraceEvent>(make_error("parse: 'seq'/'t' must be numbers"));
  if (!value.at("type").is_string() || !value.at("ph").is_string())
    return Result<TraceEvent>(make_error("parse: 'type'/'ph' must be strings"));

  TraceEvent event;
  event.seq = static_cast<std::uint64_t>(value.at("seq").as_int());
  event.t = value.at("t").as_number();
  if (!event_type_from_string(value.at("type").as_string(), &event.type))
    return Result<TraceEvent>(
        make_error("parse: unknown event type '" + value.at("type").as_string() + "'"));
  if (!phase_from_string(value.at("ph").as_string(), &event.phase))
    return Result<TraceEvent>(
        make_error("parse: unknown phase '" + value.at("ph").as_string() + "'"));
  if (value.contains("scope")) {
    if (!value.at("scope").is_string())
      return Result<TraceEvent>(make_error("parse: 'scope' must be a string"));
    event.scope = value.at("scope").as_string();
  }
  if (value.contains("num")) {
    if (!value.at("num").is_object())
      return Result<TraceEvent>(make_error("parse: 'num' must be an object"));
    for (const auto& [key, entry] : value.at("num").as_object()) {
      if (!entry.is_number())
        return Result<TraceEvent>(make_error("parse: num arg '" + key + "' is not a number"));
      event.num.emplace_back(key, entry.as_number());
    }
  }
  if (value.contains("str")) {
    if (!value.at("str").is_object())
      return Result<TraceEvent>(make_error("parse: 'str' must be an object"));
    for (const auto& [key, entry] : value.at("str").as_object()) {
      if (!entry.is_string())
        return Result<TraceEvent>(make_error("parse: str arg '" + key + "' is not a string"));
      event.str.emplace_back(key, entry.as_string());
    }
  }
  return event;
}

/// Chrome trace viewer category per event type (one lane of colour per
/// subsystem).
const char* category(EventType type) {
  switch (type) {
    case EventType::kAllocCycle:
    case EventType::kMmkpSolve:
    case EventType::kGrant: return "rm";
    case EventType::kStageTransition:
    case EventType::kExplorationSelect:
    case EventType::kMeasurement:
    case EventType::kDseSweep: return "exploration";
    case EventType::kIpcSend:
    case EventType::kIpcRecv:
    case EventType::kFaultInjected: return "ipc";
    case EventType::kReconnect:
    case EventType::kLinkDown:
    case EventType::kLease:
    case EventType::kRegistration: return "client";
    case EventType::kQosRequest: return "qos";
  }
  return "?";
}

}  // namespace

std::string to_jsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& event : events) {
    out += json::dump(event_to_json(event), 0);
    out += '\n';
  }
  return out;
}

Result<std::vector<TraceEvent>> from_jsonl(std::string_view text) {
  std::vector<TraceEvent> events;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_number;
    if (line.empty()) continue;
    Result<json::Value> value = json::parse(line);
    if (!value.ok())
      return Result<std::vector<TraceEvent>>(make_error(
          "parse: line " + std::to_string(line_number) + ": " + value.error().message));
    Result<TraceEvent> event = event_from_json(value.value());
    if (!event.ok())
      return Result<std::vector<TraceEvent>>(make_error(
          "parse: line " + std::to_string(line_number) + ": " + event.error().message));
    events.push_back(std::move(event).take());
  }
  return events;
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events) {
  json::Array trace_events;
  trace_events.reserve(events.size());
  for (const TraceEvent& event : events) {
    json::Object entry;
    entry["name"] = json::Value(to_string(event.type));
    entry["cat"] = json::Value(category(event.type));
    entry["ph"] = json::Value(to_string(event.phase));
    entry["ts"] = json::Value(event.t * 1e6);  // trace_event wants microseconds
    entry["pid"] = json::Value(0);
    entry["tid"] = json::Value(0);
    if (event.phase == Phase::kInstant) entry["s"] = json::Value("t");
    json::Object args;
    if (!event.scope.empty()) args["scope"] = json::Value(event.scope);
    args["seq"] = json::Value(static_cast<double>(event.seq));
    for (const auto& [key, value] : event.num) args[key] = json::Value(value);
    for (const auto& [key, value] : event.str) args[key] = json::Value(value);
    entry["args"] = json::Value(std::move(args));
    trace_events.push_back(json::Value(std::move(entry)));
  }
  json::Object document;
  document["displayTimeUnit"] = json::Value("ms");
  document["traceEvents"] = json::Value(std::move(trace_events));
  return json::dump(json::Value(std::move(document)), 2);
}

Status write_trace_file(const std::string& path, const std::vector<TraceEvent>& events) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status(make_error("io: cannot open '" + path + "' for writing"));
  std::string text = to_jsonl(events);
  std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  int closed = std::fclose(file);
  if (written != text.size() || closed != 0)
    return Status(make_error("io: short write to '" + path + "'"));
  return Status{};
}

Result<std::vector<TraceEvent>> load_trace_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    return Result<std::vector<TraceEvent>>(make_error("io: cannot open '" + path + "'"));
  std::string text;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) text.append(chunk, n);
  std::fclose(file);
  return from_jsonl(text);
}

}  // namespace harp::telemetry

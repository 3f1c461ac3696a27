#include "src/obs/flight_recorder.h"

#include "src/support/json.h"
#include "src/support/str.h"

namespace gist {

TraceArgs::value_type NumArg(std::string_view key, uint64_t value) {
  return {std::string(key), StrFormat("%llu", static_cast<unsigned long long>(value))};
}

TraceArgs::value_type NumArg(std::string_view key, int64_t value) {
  return {std::string(key), StrFormat("%lld", static_cast<long long>(value))};
}

TraceArgs::value_type StrArg(std::string_view key, std::string_view value) {
  return {std::string(key), "\"" + JsonEscape(value) + "\""};
}

void FlightRecorder::AddSpan(std::string name, std::string category, uint64_t begin,
                             uint64_t end, uint32_t track, TraceArgs args) {
  TraceSpan span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.begin = begin;
  span.duration = end >= begin ? end - begin : 0;
  span.track = track;
  span.args = std::move(args);
  spans_.push_back(std::move(span));
}

void FlightRecorder::AddInstant(std::string name, std::string category, uint32_t track,
                                TraceArgs args) {
  TraceSpan span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.begin = clock_;
  span.track = track;
  span.instant = true;
  span.args = std::move(args);
  spans_.push_back(std::move(span));
}

void FlightRecorder::Annotate(std::string_view name, double value) {
  auto it = annotations_.find(name);
  if (it == annotations_.end()) {
    annotations_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

double FlightRecorder::annotation(std::string_view name, double missing) const {
  auto it = annotations_.find(name);
  return it == annotations_.end() ? missing : it->second;
}

std::string FlightRecorder::TraceJson() const {
  // Chrome trace-event "JSON object format". ts/dur nominally count
  // microseconds; here they count retired instructions — the virtual axis.
  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    out += StrFormat("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": %llu",
                     JsonEscape(span.name).c_str(), JsonEscape(span.category).c_str(),
                     span.instant ? "i" : "X", static_cast<unsigned long long>(span.begin));
    if (span.instant) {
      out += ", \"s\": \"t\"";
    } else {
      out += StrFormat(", \"dur\": %llu", static_cast<unsigned long long>(span.duration));
    }
    out += StrFormat(", \"pid\": 0, \"tid\": %u", span.track);
    if (!span.args.empty()) {
      out += ", \"args\": {";
      for (size_t a = 0; a < span.args.size(); ++a) {
        out += StrFormat("%s\"%s\": %s", a == 0 ? "" : ", ",
                         JsonEscape(span.args[a].first).c_str(), span.args[a].second.c_str());
      }
      out += "}";
    }
    out += i + 1 < spans_.size() ? "},\n" : "}\n";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace gist

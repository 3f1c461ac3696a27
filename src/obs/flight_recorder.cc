#include "src/obs/flight_recorder.h"

#include "src/core/gist.h"
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

RunMetricsPublisher::RunMetricsPublisher(MetricsRegistry* metrics)
    : vm_retired_(metrics->CounterSlot("vm.instructions_retired")),
      vm_mem_accesses_(metrics->CounterSlot("vm.mem_accesses")),
      vm_branches_(metrics->CounterSlot("vm.branches")),
      vm_context_switches_(metrics->CounterSlot("vm.context_switches")),
      vm_threads_created_(metrics->CounterSlot("vm.threads_created")),
      vm_block_enters_(metrics->CounterSlot("vm.block_enters")),
      vm_returns_(metrics->CounterSlot("vm.returns")),
      vm_thread_events_(metrics->CounterSlot("vm.thread_events")),
      vm_run_steps_(metrics->HistogramSlot("vm.run_steps")),
      monitored_runs_(metrics->CounterSlot("vm.monitored_runs")),
      pt_bytes_(metrics->CounterSlot("pt.encode.bytes")),
      pt_toggles_(metrics->CounterSlot("pt.encode.toggles")),
      pt_traced_branches_(metrics->CounterSlot("pt.encode.traced_branches")),
      watch_traps_(metrics->CounterSlot("hw.watch.traps")),
      watch_arms_(metrics->CounterSlot("hw.watch.arms")),
      watch_denied_arms_(metrics->CounterSlot("hw.watch.denied_arms")),
      watch_unarmed_accesses_(metrics->CounterSlot("hw.watch.unarmed_accesses")),
      watch_peak_active_(metrics->GaugeSlot("hw.watch.peak_active")) {}

void RunMetricsPublisher::PublishVm(const RunStats& stats) {
  *vm_retired_ += stats.steps;
  *vm_mem_accesses_ += stats.mem_accesses;
  *vm_branches_ += stats.branches;
  *vm_context_switches_ += stats.context_switches;
  *vm_threads_created_ += stats.threads_created;
  *vm_block_enters_ += stats.block_enters;
  *vm_returns_ += stats.returns;
  *vm_thread_events_ += stats.thread_events;
  vm_run_steps_->Observe(stats.steps);
}

void RunMetricsPublisher::Publish(const MonitoredRun& run) {
  PublishVm(run.result.stats);
  ++*monitored_runs_;
  *pt_bytes_ += run.trace.activity.pt_bytes;
  *pt_toggles_ += run.trace.activity.pt_toggles;
  *pt_traced_branches_ += run.obs.traced_branches;
  *watch_traps_ += run.trace.activity.watch_traps;
  *watch_arms_ += run.trace.activity.watch_arms;
  *watch_denied_arms_ += run.obs.watch_denied_arms;
  *watch_unarmed_accesses_ += run.obs.unarmed_accesses;
  // SetMax semantics: the gauge only moves up.
  if (static_cast<int64_t>(run.obs.watch_peak_active) > *watch_peak_active_) {
    *watch_peak_active_ = static_cast<int64_t>(run.obs.watch_peak_active);
  }
}

}  // namespace gist

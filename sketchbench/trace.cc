#include "sketchbench/trace.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace gist::bench {
namespace {

// Innermost open span on this thread.
thread_local uint64_t current_span = kNoSpan;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  record_.id = tracer_->next_id_.fetch_add(1);
  record_.parent = current_span;
  record_.diagnosis = tracer_->diagnosis_.load();
  record_.name = name;
  current_span = record_.id;
  record_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  record_.end_ns = NowNs();
  current_span = record_.parent;
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(record_);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SpanTotals> SelfTimes(const std::vector<SpanRecord>& spans) {
  // Child intervals per parent, clipped to the parent's interval; their
  // union is what the parent does not own.
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) {
    by_id[span.id] = &span;
  }
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& span : spans) {
    const auto parent = by_id.find(span.parent);
    if (span.parent == kNoSpan || parent == by_id.end()) {
      continue;
    }
    const int64_t begin = std::max(span.start_ns, parent->second->start_ns);
    const int64_t end = std::min(span.end_ns, parent->second->end_ns);
    if (begin < end) {
      children[span.parent].emplace_back(begin, end);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t run_begin = intervals.front().first;
      int64_t run_end = intervals.front().second;
      for (const auto& [begin, end] : intervals) {
        if (begin > run_end) {
          covered += run_end - run_begin;
          run_begin = begin;
        }
        run_end = std::max(run_end, end);
      }
      covered += run_end - run_begin;
    }
    SpanTotals& total = totals[span.name];
    ++total.calls;
    total.self_s += static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return totals;
}

}  // namespace gist::bench

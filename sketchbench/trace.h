// In-memory wall-clock span tracer for the benchmark's traced run.
//
// The benchmark wraps one span around each call it makes into a layer's
// public functions (see mirror.cc). Spans live in memory until the run ends;
// SelfTimes() then charges every span its duration minus the part of it that
// child spans opened on the same thread cover, so nested layers are never
// counted twice. A span opened on a pool worker has no same-thread parent:
// its time is busy time of that worker, and the coordinator's blocked time
// stays with the span it waits in (coop.fanout_wait).

#ifndef GIST_SKETCHBENCH_TRACE_H_
#define GIST_SKETCHBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gist::bench {

inline constexpr uint64_t kNoSpan = 0;

struct SpanRecord {
  uint64_t id = kNoSpan;
  uint64_t parent = kNoSpan;     // innermost open span on the same thread
  uint64_t diagnosis = 0;        // shared by every span of one diagnosis
  const char* name = "";         // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanTotals {
  uint64_t calls = 0;
  double self_s = 0.0;
};

// Per-name call counts and self seconds.
std::map<std::string, SpanTotals> SelfTimes(const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span. A null tracer records nothing, so call sites need no branch.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    SpanRecord record_;
  };

  // Tags the spans that follow with a diagnosis id (coordinator thread,
  // between diagnoses).
  void BeginDiagnosis(uint64_t diagnosis) { diagnosis_.store(diagnosis); }

  // Coordinator-thread counters.
  void Count(const std::string& name, double delta) { counts_[name] += delta; }

  std::vector<SpanRecord> spans() const;
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> diagnosis_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::map<std::string, double> counts_;
};

}  // namespace gist::bench

#endif  // GIST_SKETCHBENCH_TRACE_H_

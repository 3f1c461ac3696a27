#include "src/core/sketch.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/pt/decoder.h"
#include "src/support/check.h"

namespace gist {

bool FailureSketch::Contains(InstrId id) const {
  for (const SketchStatement& statement : statements) {
    if (statement.instr == id) {
      return true;
    }
  }
  return false;
}

bool FailureSketch::ContainsAll(const std::vector<InstrId>& ids) const {
  return std::all_of(ids.begin(), ids.end(), [this](InstrId id) { return Contains(id); });
}

std::vector<InstrId> FailureSketch::InstrSet() const {
  std::set<InstrId> unique;
  for (const SketchStatement& statement : statements) {
    unique.insert(statement.instr);
  }
  return std::vector<InstrId>(unique.begin(), unique.end());
}

std::vector<InstrId> FailureSketch::SharedAccessOrder(const Module& module) const {
  std::vector<InstrId> order;
  for (const SketchStatement& statement : statements) {  // already step-ordered
    if (module.instr(statement.instr).IsSharedAccess() && statement.value.has_value()) {
      order.push_back(statement.instr);
    }
  }
  return order;
}

namespace {

struct LayoutEntry {
  InstrId instr = kNoInstr;
  ThreadId tid = kNoThread;
  int64_t pos = -1;          // per-thread program-order position (-1: unknown)
  double anchor = 0.0;       // global sort key
  bool watched = false;
  std::optional<Word> value;
  bool discovered = false;
};

}  // namespace

TraceSummary SummarizeTrace(const Module& module, const std::vector<DecodedCoreTrace>& decoded) {
  // Dense per-thread tables indexed by InstrId: next position, and the last
  // position each statement ran at (-1: never).
  struct ThreadState {
    int64_t next = 0;
    std::vector<int64_t> last;
  };
  std::map<ThreadId, ThreadState> threads;
  for (const DecodedCoreTrace& core_trace : decoded) {
    for (const PtVisit& visit : core_trace.visits) {
      if (visit.first_index > visit.last_index) {
        continue;  // truncated-away visit
      }
      ThreadState& thread = threads[visit.tid];
      if (thread.last.empty()) {
        thread.last.assign(module.num_instructions(), -1);
      }
      const auto& instrs = module.function(visit.function).block(visit.block).instructions();
      for (uint32_t i = visit.first_index; i <= visit.last_index && i < instrs.size(); ++i) {
        thread.last[instrs[i].id] = thread.next++;  // last occurrence wins
      }
    }
  }
  TraceSummary summary;
  std::vector<bool> executed(module.num_instructions(), false);
  for (const auto& [tid, thread] : threads) {
    for (InstrId id = 0; id < thread.last.size(); ++id) {
      if (thread.last[id] >= 0) {
        summary.positions.push_back({tid, id, thread.last[id]});
        executed[id] = true;
      }
    }
  }
  for (InstrId id = 0; id < executed.size(); ++id) {
    if (executed[id]) {
      summary.executed.push_back(id);
    }
  }
  return summary;
}

namespace {

// The reference failing run used for layout: the one whose PT trace covers
// the most of the *current* window. Traces accumulate across AsT iterations,
// and early-iteration runs executed under narrower plans — judging them by
// raw watch-event counts alone would let a stale σ=2 trace outrank every
// wider-σ recurrence forever, hiding statements the grown window now
// tracks. Coverage ties break toward the most captured data flow, then
// toward the most recent run. Returns an index into `failing`, or
// failing.size() when it is empty.
size_t ChooseReference(const std::vector<InstrId>& window,
                       const std::vector<const RunTrace*>& failing,
                       const std::vector<TraceSummary>& summaries) {
  size_t reference = failing.size();
  size_t reference_coverage = 0;
  for (size_t i = 0; i < failing.size(); ++i) {
    size_t coverage = 0;
    for (InstrId id : window) {
      coverage += summaries[i].Executed(id) ? 1 : 0;
    }
    bool better = reference == failing.size();
    if (!better && coverage != reference_coverage) {
      better = coverage > reference_coverage;
    } else if (!better) {
      better = failing[i]->watch_events.size() >= failing[reference]->watch_events.size();
    }
    if (better) {
      reference = i;
      reference_coverage = coverage;
    }
  }
  return reference;
}

}  // namespace

BatchSummary SummarizeAll(const Module& module, const std::vector<RunTrace>& traces, double beta) {
  BatchSummary batch(beta);
  for (const RunTrace& trace : traces) {
    std::vector<DecodedCoreTrace> decoded;
    bool decodable = true;
    for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
      PtDecodeResult one = DecodePt(module, static_cast<CoreId>(core), trace.pt_buffers[core]);
      if (!one.ok()) {
        decodable = false;  // quarantine it rather than abandon the sketch (DESIGN.md §8)
        break;
      }
      decoded.push_back(std::move(one.trace));
    }
    if (!decodable) {
      ++batch.undecodable;
      continue;
    }
    batch.behavior.RecordRun(trace.run_id, ExtractPredictors(decoded, trace.watch_events),
                             trace.failed);
    if (trace.failed) {
      batch.failing.push_back(trace);
      batch.summaries.push_back(SummarizeTrace(module, decoded));
    }
  }
  return batch;
}

Result<FailureSketch> BuildFailureSketch(const std::vector<InstrId>& window,
                                         const std::vector<RunTrace>& traces,
                                         const BehaviorStats& behavior,
                                         const std::vector<TraceSummary>& summaries,
                                         const SketchOptions& options) {
  std::vector<const RunTrace*> failing;
  for (const RunTrace& trace : traces) {
    if (trace.failed) {
      failing.push_back(&trace);
    }
  }
  GIST_CHECK_EQ(failing.size(), summaries.size()) << "one TraceSummary per failing trace";
  const size_t chosen = ChooseReference(window, failing, summaries);
  if (chosen == failing.size()) {
    return Error("no failing run collected yet");
  }
  const RunTrace* reference = failing[chosen];
  const TraceSummary& reference_summary = summaries[chosen];
  const PredictorStats& stats = behavior.stats();

  // --- Refinement -----------------------------------------------------------
  // (a) control flow: window statements that actually executed in the
  //     reference failing run;
  // (b) data flow: statements the watchpoints caught that static slicing
  //     missed (no alias analysis), added to the sketch.
  std::set<InstrId> members;
  for (InstrId id : window) {
    if (reference_summary.Executed(id) || id == reference->failure.failing_instr) {
      members.insert(id);
    }
  }
  std::set<InstrId> discovered;
  if (options.discovered != nullptr) {
    discovered.insert(options.discovered->begin(), options.discovered->end());
  }
  for (const WatchEvent& event : reference->watch_events) {
    if (members.insert(event.instr).second) {
      discovered.insert(event.instr);
    }
  }
  members.insert(reference->failure.failing_instr);

  // --- Layout ---------------------------------------------------------------
  // Per-(thread, statement) entries with per-thread order positions from the
  // reference summary and global anchors from the watchpoint total order.
  std::map<std::pair<ThreadId, InstrId>, LayoutEntry> entries;
  for (const TraceSummary::Position& position : reference_summary.positions) {
    if (members.count(position.instr) == 0) {
      continue;
    }
    LayoutEntry& entry = entries[{position.tid, position.instr}];
    entry.instr = position.instr;
    entry.tid = position.tid;
    entry.pos = position.pos;
  }
  for (const WatchEvent& event : reference->watch_events) {
    LayoutEntry& entry = entries[{event.tid, event.instr}];
    entry.instr = event.instr;
    entry.tid = event.tid;
    entry.watched = true;
    entry.anchor = static_cast<double>(event.seq);  // last occurrence wins
    entry.value = event.value;
    entry.discovered = discovered.count(event.instr) != 0;
  }

  // The failure point always appears, attributed to the failing thread.
  {
    LayoutEntry& entry =
        entries[{reference->failure.failing_thread, reference->failure.failing_instr}];
    entry.instr = reference->failure.failing_instr;
    entry.tid = reference->failure.failing_thread;
  }

  // Interpolate anchors for unwatched entries: per thread, walk entries in
  // program order and place them just after the previous watched anchor.
  std::map<ThreadId, std::vector<LayoutEntry*>> by_thread;
  for (auto& [key, entry] : entries) {
    by_thread[key.first].push_back(&entry);
  }
  for (auto& [tid, list] : by_thread) {
    (void)tid;
    std::sort(list.begin(), list.end(), [](const LayoutEntry* a, const LayoutEntry* b) {
      if (a->pos != b->pos) {
        return a->pos < b->pos;
      }
      return a->instr < b->instr;
    });
    double current = 0.0;
    int sub = 0;
    for (LayoutEntry* entry : list) {
      if (entry->watched) {
        current = entry->anchor;
        sub = 0;
      } else {
        entry->anchor = current + 0.001 * (++sub);
      }
    }
  }

  // Global order: anchors first, thread id and program position as
  // deterministic tie-breaks; the failure point is forced last.
  std::vector<LayoutEntry*> ordered;
  LayoutEntry* failure_entry =
      &entries[{reference->failure.failing_thread, reference->failure.failing_instr}];
  for (auto& [key, entry] : entries) {
    (void)key;
    if (&entry != failure_entry) {
      ordered.push_back(&entry);
    }
  }
  std::sort(ordered.begin(), ordered.end(), [](const LayoutEntry* a, const LayoutEntry* b) {
    if (a->anchor != b->anchor) {
      return a->anchor < b->anchor;
    }
    if (a->tid != b->tid) {
      return a->tid < b->tid;
    }
    return a->pos < b->pos;
  });
  ordered.push_back(failure_entry);

  // --- Assemble ---------------------------------------------------------------
  FailureSketch sketch;
  sketch.title = options.title;
  sketch.failure_type = reference->failure.type;
  sketch.failing_instr = reference->failure.failing_instr;
  sketch.best_branch = stats.BestBranch();
  sketch.best_value = stats.BestValue();
  sketch.best_value_range = stats.BestValueRange();
  sketch.best_concurrency = stats.BestConcurrency();
  sketch.best_atomicity = stats.BestAtomicity();
  sketch.success_order = stats.BestSuccessOrderPair();
  sketch.failing_runs_used = stats.failing_runs();
  sketch.successful_runs_used = stats.successful_runs();
  sketch.quarantined_traces = options.quarantined;
  sketch.predictors_evaluated = static_cast<uint32_t>(stats.predictor_count());

  std::set<InstrId> highlighted;
  auto mark = [&](const std::optional<ScoredPredictor>& scored) {
    if (!scored.has_value()) {
      return;
    }
    for (InstrId id : {scored->predictor.a, scored->predictor.b, scored->predictor.c}) {
      if (id != kNoInstr) {
        highlighted.insert(id);
      }
    }
  };
  mark(sketch.best_branch);
  mark(sketch.best_value);
  mark(sketch.best_value_range);
  mark(sketch.best_concurrency);

  std::set<ThreadId> tids;
  uint32_t step = 0;
  for (const LayoutEntry* entry : ordered) {
    SketchStatement statement;
    statement.instr = entry->instr;
    statement.tid = entry->tid;
    statement.step = ++step;
    statement.value = entry->value;
    statement.is_failure_point = (entry == failure_entry);
    statement.highlighted = highlighted.count(entry->instr) != 0;
    statement.discovered_at_runtime = entry->discovered;
    sketch.statements.push_back(statement);
    tids.insert(entry->tid);
  }
  sketch.threads.assign(tids.begin(), tids.end());
  return sketch;
}

}  // namespace gist

// Failure sketch data model and construction (paper §3.2–§3.3, Figs. 1/7/8).
//
// A failure sketch is a compact, time-ordered view of the statements leading
// to a failure, annotated with the thread that executed each statement in the
// failing run, the data values hardware watchpoints observed, and the
// highest-ranked failure predictors (the differences between failing and
// successful runs).
//
// Construction = slice refinement + predictor statistics:
//   1. read each failing run's TraceSummary (built once from its decoded PT
//      buffers at ingest) → which window statements actually executed
//      (removes never-executed slice statements);
//   2. add watchpoint-discovered statements that the alias-analysis-free
//      static slice missed (§3.2.3);
//   3. order statements by the watchpoint total order, interpolating
//      unwatched statements by per-thread program order between anchors
//      (cross-core order beyond that is unavailable — a PT limitation the
//      paper accepts);
//   4. attach per-statement values and the top branch / value / concurrency
//      predictors from the statistics over all monitored runs.

#ifndef GIST_SRC_CORE_SKETCH_H_
#define GIST_SRC_CORE_SKETCH_H_

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/core/run_trace.h"
#include "src/core/statistics.h"
#include "src/ir/module.h"
#include "src/pt/decoder.h"
#include "src/support/result.h"

namespace gist {

struct SketchStatement {
  InstrId instr = kNoInstr;
  ThreadId tid = kNoThread;      // thread that executed it in the failing run
  uint32_t step = 0;             // row in the sketch's time axis (1-based)
  std::optional<Word> value;     // last observed value (watched accesses)
  bool is_failure_point = false;
  bool highlighted = false;      // involved in a top failure predictor
  bool discovered_at_runtime = false;  // added by data-flow refinement

  bool operator==(const SketchStatement&) const = default;
};

struct FailureSketch {
  std::string title;
  FailureType failure_type = FailureType::kNone;
  InstrId failing_instr = kNoInstr;
  std::vector<SketchStatement> statements;  // ordered by step
  std::vector<ThreadId> threads;            // distinct tids, column order

  // Best predictor per family over all monitored runs (absent if none seen).
  std::optional<ScoredPredictor> best_branch;
  std::optional<ScoredPredictor> best_value;
  std::optional<ScoredPredictor> best_value_range;
  std::optional<ScoredPredictor> best_concurrency;
  // Best Fig. 5 atomicity pattern (may differ from best_concurrency when a
  // pair pattern outranks the triples); input to fix synthesis.
  std::optional<ScoredPredictor> best_atomicity;
  // Pair pattern most correlated with SUCCESS: the order a fix for an order
  // violation must enforce (input to order-fix synthesis).
  std::optional<ScoredPredictor> success_order;

  uint32_t failing_runs_used = 0;
  uint32_t successful_runs_used = 0;
  // Distinct predictors scored while ranking (flight-recorder input,
  // DESIGN.md §9).
  uint32_t predictors_evaluated = 0;
  // Traces excluded from this sketch because their PT streams would not
  // decode (server-side quarantine plus any trace SummarizeAll skipped).
  // Purely informational: the sketch is built over the surviving runs
  // (DESIGN.md §8).
  uint64_t quarantined_traces = 0;

  bool Contains(InstrId id) const;
  // True when every statement of `ids` is in the sketch — the developer's
  // "root cause visible" check.
  bool ContainsAll(const std::vector<InstrId>& ids) const;
  std::vector<InstrId> InstrSet() const;
  // Statements in step order restricted to shared-memory accesses — the
  // sequence the ordering-accuracy metric compares (§5.2).
  std::vector<InstrId> SharedAccessOrder(const Module& module) const;

  bool operator==(const FailureSketch&) const = default;
};

// What one failing run executed, as reference selection, control-flow
// refinement and layout read it (DESIGN.md §14): the executed-instruction set
// and, per executed (thread, statement) pair, its last per-thread
// program-order position. Per-thread positions count every instruction the
// PT visits cover, continuing across cores in core order. The server builds
// one per accepted failing trace at ingest, from the decodes validation
// already holds, so sketch rebuilds decode no PT.
struct TraceSummary {
  struct Position {
    ThreadId tid = kNoThread;
    InstrId instr = kNoInstr;
    int64_t pos = 0;

    bool operator==(const Position&) const = default;
  };
  std::vector<InstrId> executed;    // sorted, distinct
  std::vector<Position> positions;  // sorted by (tid, instr), one per pair

  bool Executed(InstrId id) const {
    return std::binary_search(executed.begin(), executed.end(), id);
  }
  bool operator==(const TraceSummary&) const = default;
};

// Summarises one trace's decoded PT streams, given in core order.
TraceSummary SummarizeTrace(const Module& module, const std::vector<DecodedCoreTrace>& decoded);

struct SketchOptions {
  std::string title;
  // Statements known to have been added to the slice by data-flow refinement
  // (GistServer::discovered_instrs); the sketch marks them '+' even after
  // they entered the tracked window.
  const std::vector<InstrId>* discovered = nullptr;
  // Uploads already excluded as undecodable (server-side quarantine, or
  // BatchSummary::undecodable); carried into FailureSketch::
  // quarantined_traces so the sketch reports the full count.
  uint64_t quarantined = 0;
};

// Builds a sketch from the monitored runs. `window` is the slice portion AsT
// currently tracks; `traces` are the collected run traces, every one of which
// decoded. `behavior` is the predictor aggregation over them, which the sketch
// ranks from, and `summaries` holds one TraceSummary per failing trace of
// `traces`, in order, from which it picks the reference run and lays out the
// sketch. The build decodes no PT. GistServer maintains all three at ingest;
// SummarizeAll recomputes them from raw traces. Returns an error only when
// `traces` holds no failing run.
Result<FailureSketch> BuildFailureSketch(const std::vector<InstrId>& window,
                                         const std::vector<RunTrace>& traces,
                                         const BehaviorStats& behavior,
                                         const std::vector<TraceSummary>& summaries,
                                         const SketchOptions& options = {});

// BuildFailureSketch's inputs recomputed from raw traces (DESIGN.md §14): the
// batch form of what GistServer::AddTrace maintains one upload at a time.
struct BatchSummary {
  explicit BatchSummary(double beta) : behavior(beta) {}

  BehaviorStats behavior;               // over every trace that decodes
  std::vector<RunTrace> failing;        // the failing traces that decode, in order
  std::vector<TraceSummary> summaries;  // one per `failing` trace
  // Traces skipped because a PT stream would not decode; callers add this
  // to SketchOptions::quarantined. One corrupt trace never blocks diagnosis.
  uint64_t undecodable = 0;
};

// Decodes every trace's PT streams, feeds the statistics and summarises the
// failing runs.
BatchSummary SummarizeAll(const Module& module, const std::vector<RunTrace>& traces, double beta);

}  // namespace gist

#endif  // GIST_SRC_CORE_SKETCH_H_

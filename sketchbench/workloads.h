// The benchmark's diagnosis workloads: input generation from a seed,
// one diagnosis through the public entry point (or the traced mirror), and
// grading against ground truth.

#ifndef GIST_SKETCHBENCH_WORKLOADS_H_
#define GIST_SKETCHBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "sketchbench/trace.h"
#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"
#include "src/corpus/score.h"

namespace gist::bench {

enum class WorkloadKind { kTable1, kCorpusChaos };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
};

// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

// One diagnosis of the workload: a program, its production workload, the
// fleet configuration its public entry point uses, and ground truth.
struct DiagnosisInput {
  std::string name;
  const Module* module = nullptr;
  WorkloadGenerator generator;
  FleetOptions fleet;
  std::vector<InstrId> root_cause;
  const IdealSketch* ideal = nullptr;
  const GeneratedProgram* program = nullptr;  // corpus workloads only
};

// Everything a workload's set-up builds: the apps or the generated corpus
// (which own the modules) and the diagnoses over them, in run order.
struct WorkloadInputs {
  std::vector<std::unique_ptr<BugApp>> apps;
  std::vector<GeneratedProgram> programs;
  std::vector<DiagnosisInput> diagnoses;
  CorpusScoreOptions score_options;  // corpus workloads: the ScoreCorpus call (--jobs 1)
};

// The end-to-end run's inputs, or with `traced` their first third: the
// traced run diagnoses each input three times (untraced, traced, traced at
// --jobs 4) within the same time limit. Both are the same mix: Table 1 bugs
// in turn, corpus families round-robin.
WorkloadInputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, bool traced = false);

// One graded diagnosis.
struct Outcome {
  FleetResult fleet;
  ProgramScore score;  // graded like ScoreProgram grades a corpus program
  bool ok = false;     // manifested, failure matched, root cause in the sketch
};

// Runs one diagnosis: Fleet::Run when `tracer` is null, the traced mirror
// otherwise. Both fan out on `pool`, whose size plays the role of --jobs.
Outcome Diagnose(const DiagnosisInput& input, ThreadPool* pool, Tracer* tracer);

// The facts a traced diagnosis must share with the untraced one: root cause,
// recurrences, sketch statement ids, simulated time and client overhead.
bool SameDiagnosis(const FleetResult& a, const FleetResult& b);
bool SameScore(const ProgramScore& a, const ProgramScore& b);

// The corpus report ScoreCorpus would produce from these program scores.
CorpusScore AssembleCorpusScore(std::vector<ProgramScore> programs);

}  // namespace gist::bench

#endif  // GIST_SKETCHBENCH_WORKLOADS_H_

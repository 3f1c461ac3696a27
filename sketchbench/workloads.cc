#include "sketchbench/workloads.h"

#include <algorithm>

#include "sketchbench/mirror.h"
#include "src/support/check.h"

namespace gist::bench {
namespace {

// Table 1 bugs, in the paper's order.
const char* const kTable1Apps[] = {"apache-1",   "apache-2",     "apache-3", "apache-4",
                                   "cppcheck-1", "cppcheck-2",   "curl",     "transmission",
                                   "sqlite",     "memcached",    "pbzip2"};

// Distinct diagnoses per pass: enough that a pass's aggregate cost and its
// tail barely depend on the seed (apache-3 alone takes 40% of a Table 1 pass
// and makes most of its tail, and its cost varies fourfold across fleet
// seeds; a double-free program costs up to 50 times the median program). The
// counts also fix the tail percentile (TailPercentile): p99 for both.
constexpr uint64_t kTable1FleetSeeds = 720;  // x 11 bugs
constexpr uint32_t kChaosPrograms = 2700;    // 450 per family
constexpr uint32_t kTracedShare = 3;         // the traced run takes 1/3

// The families corpus-chaos draws from: all but deadlock. A deadlock
// diagnosis costs 70 ms to 1.3 s depending on its seed (sketch builds are
// quadratic in its 20-90 recurrences), so the few a run can afford swing a
// run's totals by more than any bound worth gating on.
const std::vector<BugFamily> kChaosFamilies = {
    BugFamily::kDataRace,     BugFamily::kAtomicityViolation, BugFamily::kOrderViolation,
    BugFamily::kUseAfterFree, BugFamily::kDoubleFree,         BugFamily::kNullDeref,
};

const WorkloadSpec kWorkloads[] = {
    {WorkloadKind::kTable1, "table1"},
    {WorkloadKind::kCorpusChaos, "corpus-chaos"},
};

// Fraction of the manifest's (before, after) pairs the sketch's shared-access
// order honors — the corpus scorer's edge recall (src/corpus/score.cc).
double EdgeRecall(const Module& module, const FailureSketch& sketch,
                  const CorpusManifest& manifest) {
  if (manifest.sketch_edges.empty()) {
    return 1.0;
  }
  const std::vector<InstrId> order = sketch.SharedAccessOrder(module);
  auto position = [&](InstrId id) {
    const auto it = std::find(order.begin(), order.end(), id);
    return it == order.end() ? -1 : static_cast<int>(it - order.begin());
  };
  uint32_t honored = 0;
  for (const auto& [before, after] : manifest.sketch_edges) {
    const int before_pos = position(before);
    const int after_pos = position(after);
    if (before_pos >= 0 && after_pos >= 0 && before_pos < after_pos) {
      ++honored;
    }
  }
  return static_cast<double>(honored) / static_cast<double>(manifest.sketch_edges.size());
}

std::vector<InstrId> StatementIds(const FailureSketch& sketch) {
  std::vector<InstrId> ids;
  for (const SketchStatement& statement : sketch.statements) {
    ids.push_back(statement.instr);
  }
  return ids;
}

void AddCorpusDiagnoses(WorkloadInputs* inputs) {
  const CorpusScoreOptions& score = inputs->score_options;
  for (const GeneratedProgram& program : inputs->programs) {
    const CorpusManifest& manifest = program.manifest;
    DiagnosisInput input;
    input.name = manifest.name;
    input.module = program.module.get();
    input.generator = [&manifest](uint64_t run_index, Rng& rng) {
      return CorpusWorkload(manifest, run_index, rng);
    };
    // The fleet ScoreProgram (src/corpus/score.cc) configures.
    input.fleet.gist.tier = score.tier;
    input.fleet.gist.title = manifest.name;
    input.fleet.runs_per_iteration = score.runs_per_iteration;
    input.fleet.max_iterations = score.max_iterations;
    input.fleet.fleet_seed = DeriveSeed(score.fleet_seed, program.index);
    input.fleet.faults = score.faults;
    input.root_cause = manifest.root_cause;
    input.ideal = &manifest.ideal;
    input.program = &program;
    inputs->diagnoses.push_back(std::move(input));
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

WorkloadInputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  const uint32_t share = traced ? kTracedShare : 1;
  WorkloadInputs inputs;
  if (spec.kind == WorkloadKind::kTable1) {
    for (const char* name : kTable1Apps) {
      inputs.apps.push_back(MakeAppByName(name));
      GIST_CHECK(inputs.apps.back() != nullptr) << "unknown app " << name;
    }
    for (uint64_t k = 0; k < kTable1FleetSeeds / share; ++k) {
      for (const std::unique_ptr<BugApp>& app : inputs.apps) {
        const BugApp* bug = app.get();
        DiagnosisInput input;
        input.name = bug->info().name;
        input.module = &bug->module();
        input.generator = [bug](uint64_t run_index, Rng& rng) {
          return bug->MakeWorkload(run_index, rng);
        };
        // The bench fleet of bench/table1_sketches, under this pass's seed.
        input.fleet.runs_per_iteration = 400;
        input.fleet.max_iterations = 8;
        input.fleet.fleet_seed = DeriveSeed(seed, k);
        input.fleet.gist.title = bug->info().name;
        input.root_cause = bug->root_cause_instrs();
        input.ideal = &bug->ideal_sketch();
        inputs.diagnoses.push_back(std::move(input));
      }
    }
    return inputs;
  }

  CorpusOptions corpus;
  corpus.seed = seed;
  corpus.count = kChaosPrograms / share;
  corpus.families = kChaosFamilies;
  CorpusScoreOptions& score = inputs.score_options;
  score.fleet_seed = seed;
  score.faults = CorpusChaosFaults();
  inputs.programs = GenerateCorpus(corpus);
  AddCorpusDiagnoses(&inputs);
  return inputs;
}

Outcome Diagnose(const DiagnosisInput& input, ThreadPool* pool, Tracer* tracer) {
  FleetOptions options = input.fleet;
  options.shared_pool = pool;
  const std::vector<InstrId>& root_cause = input.root_cause;
  const RootCauseCheck check = [&root_cause](const FailureSketch& sketch) {
    return std::all_of(root_cause.begin(), root_cause.end(),
                       [&sketch](InstrId id) { return sketch.Contains(id); });
  };

  Outcome outcome;
  if (tracer == nullptr) {
    Fleet fleet(*input.module, input.generator, options);
    outcome.fleet = fleet.Run(check);
  } else {
    outcome.fleet = MirrorFleetRun(*input.module, input.generator, options, check, tracer);
  }

  const FleetResult& result = outcome.fleet;
  ProgramScore& score = outcome.score;
  score.name = input.name;
  score.manifested = result.first_failure_found;
  if (input.program != nullptr) {
    const CorpusManifest& manifest = input.program->manifest;
    score.family = manifest.family;
    score.failure_match = result.first_failure_found &&
                          result.first_failure.type == manifest.failure_type &&
                          result.first_failure.failing_instr == manifest.failing_instr;
  } else {
    // An app has no manifest: the sketch must explain the failure that was
    // reported.
    score.failure_match = result.first_failure_found &&
                          result.sketch.failure_type == result.first_failure.type &&
                          result.sketch.failing_instr == result.first_failure.failing_instr;
  }
  score.root_cause_found = result.root_cause_found;
  score.recurrences = result.failure_recurrences;
  score.sim_seconds = result.sim_seconds;
  if (result.first_failure_found) {
    Tracer::Scope span(tracer, "corpus.grade");
    score.accuracy = MeasureAccuracy(*input.module, result.sketch, *input.ideal);
    score.edge_recall = input.program != nullptr
                            ? EdgeRecall(*input.module, result.sketch, input.program->manifest)
                            : 1.0;
  }
  score.sketch = result.sketch;
  // root_cause_found: the final sketch passed the ground-truth check above.
  outcome.ok = score.manifested && score.failure_match && score.root_cause_found;
  return outcome;
}

bool SameDiagnosis(const FleetResult& a, const FleetResult& b) {
  return a.first_failure_found == b.first_failure_found &&
         a.first_failure.type == b.first_failure.type &&
         a.first_failure.failing_instr == b.first_failure.failing_instr &&
         a.root_cause_found == b.root_cause_found &&
         a.failure_recurrences == b.failure_recurrences &&
         StatementIds(a.sketch) == StatementIds(b.sketch) && a.sim_seconds == b.sim_seconds &&
         a.avg_overhead_percent == b.avg_overhead_percent && a.lost_runs == b.lost_runs &&
         a.quarantined_runs == b.quarantined_runs && a.retries == b.retries;
}

bool SameScore(const ProgramScore& a, const ProgramScore& b) {
  return a.name == b.name && a.family == b.family && a.manifested == b.manifested &&
         a.failure_match == b.failure_match && a.root_cause_found == b.root_cause_found &&
         a.accuracy.overall == b.accuracy.overall && a.edge_recall == b.edge_recall &&
         a.recurrences == b.recurrences && a.sim_seconds == b.sim_seconds &&
         StatementIds(a.sketch) == StatementIds(b.sketch);
}

CorpusScore AssembleCorpusScore(std::vector<ProgramScore> programs) {
  // The bucket tally of ScoreCorpus (src/corpus/score.cc).
  CorpusScore score;
  score.programs = std::move(programs);
  for (const ProgramScore& p : score.programs) {
    if (p.accuracy.overall >= 90.0) {
      ++score.bucket_a90;
    } else if (p.accuracy.overall >= 75.0) {
      ++score.bucket_a75;
    } else if (p.accuracy.overall >= 50.0) {
      ++score.bucket_a50;
    } else {
      ++score.bucket_low;
    }
  }
  return score;
}

}  // namespace gist::bench

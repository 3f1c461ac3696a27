// Corpus-scale accuracy sweep (DESIGN.md §13): generate a seeded failure
// corpus, run every program through the full diagnosis pipeline, and print
// the Fig. 9-style bucket distribution plus per-family root-cause rates.
// This is the scaled-up companion of the CI corpus gate: same scorer, same
// metrics, tunable size.
//
//   --count N       programs to generate (default 98, i.e. 14 per family)
//   --seed S        corpus seed (default 2015)
//   --jobs N        fleet worker threads (0 = hardware), default 1
//   --chaos         score under the fleet_chaos fault regime
//   --emit-json[=P] merge corpus_* metrics into BENCH_corpus.json
//   --metrics-json / --trace-json   the shared telemetry export surface
//                   (src/apps/app_util.h): one flight recorder rides every
//                   program's fleet, so the sweep exports like the CLI does

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/app_util.h"
#include "src/corpus/corpus.h"
#include "src/corpus/score.h"
#include "src/support/logging.h"

namespace gist {
namespace {

int Main(int argc, char** argv) {
  CorpusOptions gen;
  gen.seed = 2015;
  uint64_t count = 98;
  uint64_t jobs = 1;
  bool chaos = false;
  std::string emit;
  TelemetryExportOptions exports;
  ParseBenchFlags(argc, argv,
                  {{.name = "--count", .number = &count, .max = UINT32_MAX},
                   {.name = "--seed", .number = &gen.seed},
                   {.name = "--jobs", .number = &jobs, .max = UINT32_MAX},
                   {.name = "--chaos", .on = &chaos},
                   {.name = "--emit-json", .text = &emit, .bare = "BENCH_corpus.json"}},
                  &exports);
  gen.count = static_cast<uint32_t>(count);
  CorpusScoreOptions score_options;
  score_options.jobs = static_cast<uint32_t>(jobs);
  if (chaos) {
    score_options.faults = CorpusChaosFaults();
  }
  FlightRecorder recorder;
  if (exports.wants_recorder()) {
    score_options.recorder = &recorder;
  }

  std::printf("generating %u programs (seed %llu)...\n", gen.count,
              static_cast<unsigned long long>(gen.seed));
  const std::vector<GeneratedProgram> programs = GenerateCorpus(gen);
  const CorpusScore score = ScoreCorpus(programs, score_options);
  const std::map<std::string, double> metrics = score.BaselineMetrics();

  std::printf("\n-- corpus sweep: %u programs, seed %llu%s --\n", gen.count,
              static_cast<unsigned long long>(gen.seed), chaos ? ", chaos faults" : "");
  std::printf("%-28s %8s %10s\n", "metric", "value", "");
  for (const auto& [key, value] : metrics) {
    std::printf("%-42s %10.4f\n", key.c_str(), value);
  }
  std::printf("buckets: >=90: %u   75-90: %u   50-75: %u   <50: %u\n", score.bucket_a90,
              score.bucket_a75, score.bucket_a50, score.bucket_low);

  if (!emit.empty()) {
    GIST_CHECK(UpdateBenchJson(emit, metrics)) << "cannot write " << emit;
    std::printf("merged %zu metrics into %s\n", metrics.size(), emit.c_str());
  }
  if (!ExportTelemetry(exports, score_options.recorder, nullptr, nullptr)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gist

int main(int argc, char** argv) { return gist::Main(argc, argv); }

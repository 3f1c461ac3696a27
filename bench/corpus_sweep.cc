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
  gen.count = 98;
  CorpusScoreOptions score_options;
  score_options.jobs = ParseJobsFlag(argc, argv);
  TelemetryExportOptions exports;
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    switch (ParseTelemetryExportFlag(argc, argv, &i, &exports)) {
      case TelemetryFlagParse::kConsumed:
        continue;
      case TelemetryFlagParse::kMissingValue:
        std::fprintf(stderr, "error: %s needs a path\n", argv[i]);
        return 2;
      case TelemetryFlagParse::kNotTelemetry:
        break;
    }
    const std::string arg = argv[i];
    if (arg == "--count" && i + 1 < argc) {
      gen.count = static_cast<uint32_t>(ParseUintFlagOrExit("--count", argv[++i], UINT32_MAX));
    } else if (arg == "--seed" && i + 1 < argc) {
      gen.seed = ParseUintFlagOrExit("--seed", argv[++i], UINT64_MAX);
    } else if (arg == "--chaos") {
      chaos = true;
    }
  }
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

  const std::string emit = ParseEmitJsonFlag(argc, argv, "BENCH_corpus.json");
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

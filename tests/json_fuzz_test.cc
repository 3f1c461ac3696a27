// Hostile-input contract of every JSON loader (DESIGN.md §10, §13, §14):
//   1. every real export parses strictly and its own loader accepts it —
//      the metrics, trace, profile and campaign exports of
//      `gist diagnose-app sqlite --fleet-seed 3`, a corpus.json index and the
//      committed BENCH_corpus.json;
//   2. random bytes and byte-mutated copies of those exports never crash
//      ParseJson, DiffProfiles, ParseCampaignJournal, LoadCorpusIndex or
//      ReadFlatJson: each returns an error (an empty map for ReadFlatJson).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"
#include "src/obs/campaign.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"
#include "src/support/check.h"
#include "src/support/json.h"
#include "src/support/rng.h"

namespace gist {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::filesystem::path ScratchDir() {
  const std::filesystem::path dir = std::filesystem::path(testing::TempDir()) / "gist_json_fuzz";
  std::filesystem::create_directories(dir);
  return dir;
}

struct Export {
  std::string name;
  std::string bytes;
};

// The exports a user can hand back to Gist, produced the way the CLI does.
const std::vector<Export>& RealExports() {
  static const std::vector<Export> exports = [] {
    std::vector<Export> out;
    std::unique_ptr<BugApp> app = MakeAppByName("sqlite");
    FlightRecorder recorder;
    HotPathProfiler profiler;
    CampaignTracker campaign(app->info().name);
    FleetOptions options;
    options.fleet_seed = 3;
    options.gist.title = app->info().name;
    options.recorder = &recorder;
    options.profiler = &profiler;
    options.campaign = &campaign;
    Fleet fleet(
        app->module(),
        [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
        options);
    const std::vector<InstrId>& root_cause = app->root_cause_instrs();
    fleet.Run([&](const FailureSketch& sketch) { return sketch.ContainsAll(root_cause); });
    out.push_back({"metrics", recorder.MetricsJson()});
    out.push_back({"trace", recorder.TraceJson()});
    out.push_back({"profile", profiler.ProfileJson()});
    out.push_back({"campaign", campaign.JournalJson()});

    const std::filesystem::path dir = ScratchDir() / "corpus";
    std::filesystem::remove_all(dir);
    CorpusOptions corpus;
    corpus.seed = 2015;
    corpus.count = 3;
    std::string error;
    GIST_CHECK(WriteCorpusDir(dir.string(), GenerateCorpus(corpus), corpus, &error)) << error;
    out.push_back({"corpus_index", ReadFile(dir / "corpus.json")});
    std::filesystem::remove_all(dir);

    out.push_back({"bench_corpus", ReadFile(GIST_SOURCE_DIR "/BENCH_corpus.json")});
    return out;
  }();
  return exports;
}

const std::string& ProfileExport() { return RealExports()[2].bytes; }

// Hands `bytes` to the codec and to every format loader. Crashes and
// sanitizer reports are the failures; the verdicts are whatever they are.
void FeedEveryLoader(const std::string& bytes) {
  (void)ParseJson(bytes);
  (void)DiffProfiles(bytes, ProfileExport());
  (void)DiffProfiles(ProfileExport(), bytes);
  (void)ParseCampaignJournal(bytes);
  const std::filesystem::path dir = ScratchDir();
  WriteFile(dir / "corpus.json", bytes);
  CorpusOptions options;
  std::string error;
  if (!LoadCorpusIndex(dir.string(), &options, &error)) {
    EXPECT_FALSE(error.empty());
  }
  (void)ReadFlatJson((dir / "corpus.json").string());
}

TEST(JsonLoaderFuzzTest, RealExportsParseAndLoad) {
  const std::vector<Export>& exports = RealExports();
  ASSERT_EQ(exports.size(), 6u);
  for (const Export& e : exports) {
    ASSERT_FALSE(e.bytes.empty()) << e.name;
    const Result<JsonValue> doc = ParseJson(e.bytes);
    EXPECT_TRUE(doc.ok()) << e.name << ": " << doc.error().message();
  }
  EXPECT_TRUE(DiffProfiles(ProfileExport(), ProfileExport()).ok);
  const Result<JsonValue> journal = ParseCampaignJournal(exports[3].bytes);
  EXPECT_TRUE(journal.ok()) << journal.error().message();

  const std::filesystem::path dir = ScratchDir();
  WriteFile(dir / "corpus.json", exports[4].bytes);
  CorpusOptions options;
  std::string error;
  EXPECT_TRUE(LoadCorpusIndex(dir.string(), &options, &error)) << error;
  EXPECT_EQ(options.seed, 2015u);
  EXPECT_EQ(options.count, 3u);
  WriteFile(dir / "bench.json", exports[5].bytes);
  EXPECT_GT(ReadFlatJson((dir / "bench.json").string()).size(), 10u);
}

TEST(JsonLoaderFuzzTest, RandomBytesNeverCrash) {
  Rng rng(5151);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes;
    const size_t length = rng.NextBelow(300);
    for (size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    FeedEveryLoader(bytes);
  }
  SUCCEED();
}

TEST(JsonLoaderFuzzTest, MutatedRealExportsNeverCrash) {
  Rng rng(5252);
  for (const Export& e : RealExports()) {
    SCOPED_TRACE(e.name);
    for (int trial = 0; trial < 150; ++trial) {
      std::string mutated = e.bytes;
      const int edits = 1 + static_cast<int>(rng.NextBelow(4));
      for (int i = 0; i < edits; ++i) {
        const size_t at = rng.NextBelow(mutated.size());
        const char byte = static_cast<char>(rng.NextBelow(256));
        switch (rng.NextBelow(3)) {
          case 0:
            mutated[at] = byte;
            break;
          case 1:
            mutated.insert(mutated.begin() + static_cast<long>(at), byte);
            break;
          default:
            mutated.erase(at, 1);
        }
      }
      if (rng.NextBelow(4) == 0) {
        mutated.resize(rng.NextBelow(mutated.size() + 1));
      }
      FeedEveryLoader(mutated);
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace gist

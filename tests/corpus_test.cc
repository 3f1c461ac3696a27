// Unit contract of the failure-corpus generator (DESIGN.md §13):
//   1. generation is a pure function of (seed, index) — the same seed yields
//      byte-identical `.gir` text and manifest JSON, and any subset of a
//      corpus regenerates identically to the full sweep;
//   2. a default corpus covers every bug family, round-robin in enum order;
//   3. every generated manifest validates against its own module, and the
//      validator actually rejects broken manifests;
//   4. the on-disk layout round-trips: WriteCorpusDir then LoadCorpusIndex
//      reproduces the generation options, and the emitted `.gir` re-parses;
//   5. LoadCorpusIndex rejects a malformed index with a structured error
//      instead of guessing (no truncated counts, no skipped families).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/manifest.h"
#include "src/ir/parser.h"

namespace gist {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CorpusTest, SameSeedIsByteDeterministic) {
  CorpusOptions options;
  options.seed = 2015;
  options.count = 7;
  const std::vector<GeneratedProgram> a = GenerateCorpus(options);
  const std::vector<GeneratedProgram> b = GenerateCorpus(options);
  ASSERT_EQ(a.size(), 7u);
  ASSERT_EQ(b.size(), 7u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].module->ToString(), b[i].module->ToString()) << "program " << i;
    EXPECT_EQ(a[i].manifest.ToJson(), b[i].manifest.ToJson()) << "program " << i;
  }
}

TEST(CorpusTest, DifferentSeedsDiffer) {
  CorpusOptions options;
  options.count = 7;
  options.seed = 2015;
  const std::vector<GeneratedProgram> a = GenerateCorpus(options);
  options.seed = 2016;
  const std::vector<GeneratedProgram> b = GenerateCorpus(options);
  bool any_difference = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_difference |= a[i].module->ToString() != b[i].module->ToString();
  }
  EXPECT_TRUE(any_difference);
}

// Any subset of a corpus regenerates identically: program #i depends only on
// (seed, i), never on how many neighbors were generated around it.
TEST(CorpusTest, SubsetRegeneratesIdentically) {
  CorpusOptions small;
  small.seed = 99;
  small.count = 7;
  CorpusOptions large = small;
  large.count = 21;
  const std::vector<GeneratedProgram> a = GenerateCorpus(small);
  const std::vector<GeneratedProgram> b = GenerateCorpus(large);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].module->ToString(), b[i].module->ToString()) << "program " << i;
    EXPECT_EQ(a[i].manifest.ToJson(), b[i].manifest.ToJson()) << "program " << i;
  }
  // And a single standalone regeneration matches too (the scorer relies on
  // this to byte-verify on-disk corpora).
  const GeneratedProgram lone = GenerateProgram(
      a[3].manifest.family, CorpusProgramSeed(small.seed, 3), a[3].manifest.name, 3);
  EXPECT_EQ(lone.module->ToString(), a[3].module->ToString());
  EXPECT_EQ(lone.manifest.ToJson(), a[3].manifest.ToJson());
}

TEST(CorpusTest, DefaultCorpusCoversEveryFamilyInOrder) {
  CorpusOptions options;
  options.seed = 7;
  options.count = static_cast<uint32_t>(kNumBugFamilies);
  const std::vector<GeneratedProgram> programs = GenerateCorpus(options);
  ASSERT_EQ(programs.size(), kNumBugFamilies);
  for (size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ(programs[i].manifest.family, static_cast<BugFamily>(i));
    EXPECT_EQ(programs[i].manifest.name,
              CorpusProgramName(static_cast<uint32_t>(i), static_cast<BugFamily>(i)));
  }
}

TEST(CorpusTest, FamilyNamesRoundTrip) {
  for (size_t i = 0; i < kNumBugFamilies; ++i) {
    const BugFamily family = static_cast<BugFamily>(i);
    BugFamily parsed;
    ASSERT_TRUE(ParseBugFamily(BugFamilyName(family), &parsed)) << BugFamilyName(family);
    EXPECT_EQ(parsed, family);
  }
  BugFamily ignored;
  EXPECT_FALSE(ParseBugFamily("heisenbug", &ignored));
}

TEST(CorpusTest, GeneratedManifestsValidateAndBrokenOnesDoNot) {
  CorpusOptions options;
  options.seed = 31;
  options.count = 14;  // two of each family, varied params
  const std::vector<GeneratedProgram> programs = GenerateCorpus(options);
  for (const GeneratedProgram& program : programs) {
    EXPECT_EQ(ValidateManifest(program.manifest, *program.module), "")
        << program.manifest.name;
    EXPECT_NE(program.manifest.ToJson().find("gist.manifest.v1"), std::string::npos);
    // The planted failure's statements are part of the graded ground truth.
    EXPECT_FALSE(program.manifest.root_cause.empty());
    EXPECT_FALSE(program.manifest.ideal.instrs.empty());
  }
  // The validator is not a rubber stamp: an out-of-range failing PC fails.
  CorpusManifest broken = programs[0].manifest;
  broken.failing_instr = InstrId{1u << 20};
  EXPECT_NE(ValidateManifest(broken, *programs[0].module), "");
}

TEST(CorpusTest, EmittedGirReparses) {
  CorpusOptions options;
  options.seed = 2015;
  options.count = 7;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(options);
  for (const GeneratedProgram& program : programs) {
    const std::string text = program.module->ToString();
    auto parsed = ParseModule(text);
    ASSERT_TRUE(parsed.ok()) << program.manifest.name << ": " << parsed.error().message();
    EXPECT_EQ((*parsed)->ToString(), text) << program.manifest.name;
  }
}

TEST(CorpusTest, WriteAndLoadRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "gist_corpus_rt";
  std::filesystem::remove_all(dir);

  CorpusOptions options;
  options.seed = 4242;
  options.count = 7;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(options);
  std::string error;
  ASSERT_TRUE(WriteCorpusDir(dir.string(), programs, options, &error)) << error;

  CorpusOptions loaded;
  ASSERT_TRUE(LoadCorpusIndex(dir.string(), &loaded, &error)) << error;
  EXPECT_EQ(loaded.seed, options.seed);
  EXPECT_EQ(loaded.count, options.count);

  // On-disk artifacts are the canonical bytes, not approximations.
  for (const GeneratedProgram& program : programs) {
    EXPECT_EQ(ReadFile(dir / (program.manifest.name + ".gir")),
              program.module->ToString());
    EXPECT_EQ(ReadFile(dir / (program.manifest.name + ".manifest.json")),
              program.manifest.ToJson());
  }
  std::filesystem::remove_all(dir);
}

TEST(CorpusTest, LoadRejectsMalformedIndex) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "gist_corpus_bad_index";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto index = [](const std::string& seed, const std::string& count,
                  const std::string& families) {
    return "{\"schema\": \"gist.corpus.v1\", \"seed\": " + seed + ", \"count\": " + count +
           ", \"families\": " + families + ", \"programs\": []}";
  };
  auto load = [&](const std::string& text, CorpusOptions* options, std::string* error) {
    std::ofstream(dir / "corpus.json", std::ios::binary | std::ios::trunc) << text;
    return LoadCorpusIndex(dir.string(), options, error);
  };

  CorpusOptions options;
  std::string error;
  ASSERT_TRUE(load(index("7", "4294967295", "[\"deadlock\"]"), &options, &error)) << error;
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.count, UINT32_MAX);
  ASSERT_EQ(options.families.size(), 1u);
  EXPECT_EQ(options.families[0], BugFamily::kDeadlock);

  struct Case {
    std::string text;
    std::string error;  // a substring the error must carry
  };
  const Case cases[] = {
      {"{\"schema\": \"gist.corpus.v1\", \"count\": 3, \"families\": [\"deadlock\"]}",
       "missing seed/count"},
      {index("\"7\"", "3", "[\"deadlock\"]"), "missing seed/count"},
      {index("-7", "3", "[\"deadlock\"]"), "missing seed/count"},
      {index("7", "3.5", "[\"deadlock\"]"), "missing seed/count"},
      {index("7", "99999999999999999999", "[\"deadlock\"]"), "missing seed/count"},
      {index("7", "4294967296", "[\"deadlock\"]"), "count 4294967296 exceeds 4294967295"},
      {index("7", "3", "\"deadlock\""), "missing the families list"},
      {index("7", "3", "[\"deadlock\", 3]"), "not a string"},
      {index("7", "3", "[\"deadlock\", \"heisenbug\"]"), "unknown family \"heisenbug\""},
      {index("7", "3", "[]"), "lists no families"},
      {"{\"schema\": \"gist.manifest.v1\", \"seed\": 7}", "not a gist.corpus.v1 index"},
      {index("7", "3", "[\"deadlock\"]").substr(0, 40), "json:"},
  };
  for (const Case& c : cases) {
    CorpusOptions untouched;
    untouched.seed = 99;
    error.clear();
    EXPECT_FALSE(load(c.text, &untouched, &error)) << c.text;
    EXPECT_NE(error.find(c.error), std::string::npos) << c.text << " -> " << error;
    EXPECT_EQ(untouched.seed, 99u) << "a rejected index must not half-apply";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gist

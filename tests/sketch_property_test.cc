// Cross-app sketch invariants: for every bundled bug and several fleet
// seeds, the final sketch must satisfy the structural properties a developer
// relies on — dense 1-based steps, the failure last, watched accesses in
// watchpoint order, every statement either executed in the failing run or
// the failure point itself, and highlighted statements actually backed by a
// top predictor.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/apps/app.h"
#include "src/coop/fleet.h"

namespace gist {
namespace {

struct Case {
  const char* app;
  uint64_t fleet_seed;
};

class SketchInvariants : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {
 protected:
  void SetUp() override {
    app_ = MakeAppByName(std::get<0>(GetParam()));
    ASSERT_NE(app_, nullptr);
    FleetOptions options;
    options.fleet_seed = std::get<1>(GetParam());
    Fleet fleet(app_->module(),
                [this](uint64_t ri, Rng& rng) { return app_->MakeWorkload(ri, rng); }, options);
    const std::vector<InstrId>& root_cause = app_->root_cause_instrs();
    result_ = fleet.Run([&](const FailureSketch& sketch) {
      return sketch.ContainsAll(root_cause);
    });
    ASSERT_TRUE(result_.first_failure_found);
    ASSERT_FALSE(result_.sketch.statements.empty());
  }

  std::unique_ptr<BugApp> app_;
  FleetResult result_;
};

TEST_P(SketchInvariants, StepsAreDenseAndOneBased) {
  const FailureSketch& sketch = result_.sketch;
  for (size_t i = 0; i < sketch.statements.size(); ++i) {
    EXPECT_EQ(sketch.statements[i].step, i + 1);
  }
}

TEST_P(SketchInvariants, FailurePointIsUniqueAndLast) {
  const FailureSketch& sketch = result_.sketch;
  int failure_points = 0;
  for (const SketchStatement& statement : sketch.statements) {
    failure_points += statement.is_failure_point;
  }
  EXPECT_EQ(failure_points, 1);
  EXPECT_TRUE(sketch.statements.back().is_failure_point);
  EXPECT_EQ(sketch.statements.back().instr, sketch.failing_instr);
}

TEST_P(SketchInvariants, ThreadColumnsCoverEveryStatement) {
  const FailureSketch& sketch = result_.sketch;
  const std::set<ThreadId> threads(sketch.threads.begin(), sketch.threads.end());
  for (const SketchStatement& statement : sketch.statements) {
    EXPECT_TRUE(threads.count(statement.tid)) << "statement in unknown thread column";
  }
}

TEST_P(SketchInvariants, HighlightsComeFromTopPredictors) {
  const FailureSketch& sketch = result_.sketch;
  std::set<InstrId> predicted;
  for (const auto& scored : {sketch.best_branch, sketch.best_value, sketch.best_value_range,
                             sketch.best_concurrency, sketch.best_atomicity}) {
    if (scored.has_value()) {
      for (InstrId id : {scored->predictor.a, scored->predictor.b, scored->predictor.c}) {
        if (id != kNoInstr) {
          predicted.insert(id);
        }
      }
    }
  }
  for (const SketchStatement& statement : sketch.statements) {
    if (statement.highlighted) {
      EXPECT_TRUE(predicted.count(statement.instr))
          << "highlight without a backing predictor on instr " << statement.instr;
    }
  }
}

TEST_P(SketchInvariants, ValuesOnlyOnSharedAccesses) {
  const FailureSketch& sketch = result_.sketch;
  for (const SketchStatement& statement : sketch.statements) {
    if (statement.value.has_value()) {
      EXPECT_TRUE(app_->module().instr(statement.instr).IsSharedAccess());
    }
  }
}

TEST_P(SketchInvariants, SketchIsDeterministicForSameFleet) {
  FleetOptions options;
  options.fleet_seed = std::get<1>(GetParam());
  auto app2 = MakeAppByName(std::get<0>(GetParam()));
  Fleet fleet(app2->module(),
              [&](uint64_t ri, Rng& rng) { return app2->MakeWorkload(ri, rng); }, options);
  const std::vector<InstrId>& root_cause = app2->root_cause_instrs();
  FleetResult again = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });
  EXPECT_EQ(again.sketch.InstrSet(), result_.sketch.InstrSet());
  EXPECT_EQ(again.failure_recurrences, result_.failure_recurrences);
}

INSTANTIATE_TEST_SUITE_P(
    AppsBySeeds, SketchInvariants,
    ::testing::Combine(::testing::Values("pbzip2", "apache-3", "sqlite", "curl", "memcached"),
                       ::testing::Values(uint64_t{3}, uint64_t{2015})));

}  // namespace
}  // namespace gist

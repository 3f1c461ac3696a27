#include "src/obs/campaign.h"

#include <algorithm>
#include <span>

#include "src/support/json.h"
#include "src/support/str.h"

namespace gist {
namespace {

// Classic two-row Levenshtein over statement-id sequences. Sketches are tens
// of statements, so the quadratic cost is noise next to one monitored run.
uint32_t EditDistance(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  if (a.empty()) return static_cast<uint32_t>(b.size());
  if (b.empty()) return static_cast<uint32_t>(a.size());
  std::vector<uint32_t> previous(b.size() + 1);
  std::vector<uint32_t> current(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) {
    previous[j] = static_cast<uint32_t>(j);
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    current[0] = static_cast<uint32_t>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      const uint32_t substitute = previous[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      current[j] = std::min({previous[j] + 1, current[j - 1] + 1, substitute});
    }
    std::swap(previous, current);
  }
  return previous[b.size()];
}

// Positions in the top-K window whose predictor changed between iterations.
// A position one side lacks counts as changed.
uint32_t RankChurn(const std::vector<std::string>& before, const std::vector<std::string>& after,
                   size_t window) {
  uint32_t churn = 0;
  const size_t limit = std::min(window, std::max(before.size(), after.size()));
  for (size_t i = 0; i < limit; ++i) {
    if (i >= before.size() || i >= after.size() || before[i] != after[i]) {
      ++churn;
    }
  }
  return churn;
}

// The integer fields of one iteration row and of the status block, as
// JournalJson writes them.
constexpr const char* kIterationNumbers[] = {
    "iteration", "sigma", "virtual_end", "runs_consumed", "failing", "successful", "lost",
    "quarantined", "retries", "quorum_met", "root_cause", "recurrences", "rotations",
    "watch_instrs", "watch_slots", "watch_coverage_permille", "survivor_permille",
    "slice_statements", "window_statements", "sketch_statements", "sketch_edit_distance",
    "predictor_rank_churn"};
constexpr const char* kStatusNumbers[] = {
    "iterations", "sigma", "virtual_now", "runs_consumed", "recurrences", "root_cause_found",
    "slice_statements", "window_statements", "slice_exhausted"};

// The first key of `object` that is not a string (`strings`) or an unsigned
// integer (`numbers`); empty when all are.
std::string BadField(const JsonValue& object, std::initializer_list<const char*> strings,
                     std::span<const char* const> numbers) {
  for (const char* key : strings) {
    if (object[key].AsString() == nullptr) {
      return key;
    }
  }
  for (const char* key : numbers) {
    if (!object[key].AsU64()) {
      return key;
    }
  }
  return std::string();
}

}  // namespace

void CampaignTracker::RecordIteration(CampaignIterationSample sample) {
  Record record;
  const uint32_t survivors = sample.failing_runs + sample.successful_runs;
  record.runs_consumed = survivors + sample.lost_runs + sample.quarantined_runs;
  record.survivor_permille =
      record.runs_consumed == 0 ? 1000 : survivors * 1000u / record.runs_consumed;
  // Coverage of the tracked watch set by one client's debug registers; the
  // rotation makes the fleet cover the rest collectively (§3.2.3).
  record.watch_coverage_permille =
      sample.watch_instrs == 0
          ? 1000
          : std::min<uint32_t>(1000, sample.watchpoint_slots * 1000u / sample.watch_instrs);
  if (records_.empty()) {
    record.sketch_edit_distance = static_cast<uint32_t>(sample.sketch_statements.size());
    record.predictor_rank_churn = RankChurn({}, sample.top_predictors, kRankWindow);
  } else {
    const CampaignIterationSample& previous = records_.back().sample;
    record.sketch_edit_distance =
        EditDistance(previous.sketch_statements, sample.sketch_statements);
    record.predictor_rank_churn =
        RankChurn(previous.top_predictors, sample.top_predictors, kRankWindow);
  }
  record.sample = std::move(sample);
  records_.push_back(std::move(record));
}

std::string_view CampaignTracker::trend() const {
  if (records_.empty()) {
    return "monitoring";
  }
  const Record& last = records_.back();
  if (last.sample.root_cause_found) {
    return "converged";
  }
  if (records_.size() < 2) {
    return "monitoring";
  }
  if (last.sketch_edit_distance == 0 && last.predictor_rank_churn == 0) {
    // Nothing moved across a whole iteration: more runs at a larger σ are
    // not changing the story.
    return "stalled";
  }
  const Record& previous = records_[records_.size() - 2];
  if (last.sketch_edit_distance < previous.sketch_edit_distance) {
    return "closing";
  }
  return "monitoring";
}

std::string_view CampaignTracker::eta_bucket() const {
  const std::string_view current = trend();
  if (current == "converged") {
    return "done";
  }
  if (current == "closing") {
    return "1-2 iterations";
  }
  if (current == "monitoring" && !records_.empty()) {
    return "3+ iterations";
  }
  return "unknown";
}

std::string CampaignTracker::JournalJson() const {
  std::string json = "{\n  \"schema\": \"gist.campaign.v1\",\n  \"title\": \"";
  json += JsonEscape(title_);
  json += "\",\n  \"iterations\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    const CampaignIterationSample& s = record.sample;
    json += i == 0 ? "\n" : ",\n";
    json += StrFormat(
        "    {\"iteration\": %u, \"sigma\": %u, \"virtual_end\": %llu, "
        "\"runs_consumed\": %u, \"failing\": %u, \"successful\": %u, \"lost\": %u, "
        "\"quarantined\": %u, \"retries\": %u, \"quorum_met\": %u, \"root_cause\": %u, "
        "\"recurrences\": %u, \"rotations\": %u, \"watch_instrs\": %u, \"watch_slots\": %u, "
        "\"watch_coverage_permille\": %u, \"survivor_permille\": %u, "
        "\"slice_statements\": %u, \"window_statements\": %u, \"sketch_statements\": %zu, "
        "\"sketch_edit_distance\": %u, \"predictor_rank_churn\": %u, \"top_predictor\": \"%s\"}",
        s.iteration, s.sigma, static_cast<unsigned long long>(s.virtual_end),
        record.runs_consumed, s.failing_runs, s.successful_runs, s.lost_runs,
        s.quarantined_runs, s.retries, s.quorum_met ? 1u : 0u, s.root_cause_found ? 1u : 0u,
        s.recurrences, s.rotation_count, s.watch_instrs, s.watchpoint_slots,
        record.watch_coverage_permille, record.survivor_permille, s.slice_statements,
        s.window_statements, s.sketch_statements.size(), record.sketch_edit_distance,
        record.predictor_rank_churn,
        s.top_predictors.empty() ? "" : JsonEscape(s.top_predictors.front()).c_str());
  }
  json += records_.empty() ? "]" : "\n  ]";
  // The live status block the `gist status` subcommand renders.
  uint32_t runs_consumed = 0;
  for (const Record& record : records_) {
    runs_consumed += record.runs_consumed;
  }
  const CampaignIterationSample* last = records_.empty() ? nullptr : &records_.back().sample;
  json += StrFormat(
      ",\n  \"status\": {\"iterations\": %zu, \"sigma\": %u, \"virtual_now\": %llu, "
      "\"runs_consumed\": %u, \"recurrences\": %u, \"root_cause_found\": %u, "
      "\"slice_statements\": %u, \"window_statements\": %u, \"slice_exhausted\": %u, "
      "\"trend\": \"%.*s\", \"eta_bucket\": \"%.*s\"}\n}\n",
      records_.size(), last != nullptr ? last->sigma : 0u,
      static_cast<unsigned long long>(clock_), runs_consumed,
      last != nullptr ? last->recurrences : 0u,
      (last != nullptr && last->root_cause_found) ? 1u : 0u,
      last != nullptr ? last->slice_statements : 0u,
      last != nullptr ? last->window_statements : 0u,
      (last != nullptr && last->slice_exhausted) ? 1u : 0u,
      static_cast<int>(trend().size()), trend().data(),
      static_cast<int>(eta_bucket().size()), eta_bucket().data());
  return json;
}

Result<JsonValue> ParseCampaignJournal(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed;
  }
  const JsonValue& root = *parsed;
  const std::string* schema = root["schema"].AsString();
  if (schema == nullptr || *schema != "gist.campaign.v1") {
    return Error("not a gist.campaign.v1 journal");
  }
  const JsonValue& iterations = root["iterations"];
  const JsonValue& status = root["status"];
  if (iterations.kind != JsonValue::kArray || status.kind != JsonValue::kObject) {
    return Error("campaign journal needs an iterations array and a status block");
  }
  std::string bad = BadField(root, {"title"}, {});
  for (size_t i = 0; bad.empty() && i < iterations.items.size(); ++i) {
    bad = BadField(iterations.items[i], {"top_predictor"}, kIterationNumbers);
  }
  if (bad.empty()) {
    bad = BadField(status, {"trend", "eta_bucket"}, kStatusNumbers);
  }
  if (!bad.empty()) {
    return Error("campaign journal field \"" + bad + "\" is missing or malformed");
  }
  return parsed;
}

void CampaignTracker::Annotate(std::string_view name, double value) {
  annotations_[std::string(name)] = value;
}

double CampaignTracker::annotation(std::string_view name, double missing) const {
  const auto it = annotations_.find(name);
  return it == annotations_.end() ? missing : it->second;
}

}  // namespace gist

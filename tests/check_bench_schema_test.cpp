// Fixtures for tools/check_bench_schema: one real bench_table2_1 report
// (quick ladder, fault sweep and LTS sweep) must pass, and copies of it
// that each break one contract must fail with exit 1 and a diagnostic —
// never a crash, and never a pass.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "quake/obs/json.hpp"
#include "quake/util/io.hpp"

namespace {

using quake::obs::Json;
namespace fs = std::filesystem;

// Exit code of `command`, as the shell reports it (128 + signal for a
// child killed by a signal).
int run(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A copy of `j` with the value at `path` replaced by `value`, or removed
// when `value` is empty. Path steps are object keys, or decimal indices
// into arrays.
Json edited(const Json& j, std::span<const std::string> path,
            const std::optional<Json>& value) {
  // A member or item named `key`: kept, edited further down the path,
  // replaced, or dropped.
  const auto next = [&](const std::string& key,
                        const Json& v) -> std::optional<Json> {
    if (key != path[0]) return v;
    if (path.size() > 1) return edited(v, path.subspan(1), value);
    return value;
  };
  if (j.is_array()) {
    Json out = Json::array();
    for (std::size_t i = 0; i < j.items().size(); ++i) {
      if (auto v = next(std::to_string(i), j.items()[i])) {
        out.push_back(std::move(*v));
      }
    }
    return out;
  }
  Json out = Json::object();
  for (const auto& [k, v] : j.members()) {
    if (auto x = next(k, v)) out.set(k, std::move(*x));
  }
  return out;
}

// Index of the first row whose params satisfy `pred`, as a path step.
std::string row_where(const Json& report,
                      const std::function<bool(const Json&)>& pred) {
  const auto& rows = report.find("rows")->items();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (pred(*rows[i].find("params"))) return std::to_string(i);
  }
  ADD_FAILURE() << "no matching row";
  return "0";
}

std::string sweep_row(const Json& report, const std::string& mode) {
  return row_where(report, [&](const Json& p) {
    return p.find("mode") != nullptr && p.find("mode")->as_string() == mode;
  });
}

// The first plain global-dt ladder row (no sweep parameter).
std::string ladder_row(const Json& report) {
  return row_where(report, [](const Json& p) {
    return p.find("mode") == nullptr && p.find("drain_mode") == nullptr &&
           p.find("lts") == nullptr;
  });
}

TEST(CheckBenchSchema, SweepReportPassesAndEachBrokenContractFails) {
  const fs::path dir = fs::temp_directory_path() /
                       ("quake_check_bench_schema_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string checker = QUAKE_CHECK_BENCH_SCHEMA;
  const fs::path report_path = dir / "BENCH_table2_1.json";
  ASSERT_EQ(run(std::string(QUAKE_BENCH_TABLE2_1) +
                " --quick --fault-sweep --lts-sweep --json " +
                report_path.string() + " > " + (dir / "bench.log").string()),
            0);
  ASSERT_EQ(run(checker + " " + report_path.string()), 0);

  Json report;
  std::string err;
  ASSERT_TRUE(Json::parse(quake::util::read_text_file(report_path.string()),
                          &report, &err))
      << err;
  const std::string ladder = ladder_row(report);
  const Json& ladder_step =
      *report.find("rows")->items()[std::stoul(ladder)].find("ranks")->find(
          "scopes")->find("step")->find("seconds");

  // The checker's exit code and stderr on `j`.
  const auto check = [&](const Json& j) {
    const fs::path path = dir / "mutant.json";
    const fs::path log = dir / "mutant.log";
    quake::util::write_text_file(path.string(), j.dump());
    const int code = run(checker + " " + path.string() + " > /dev/null 2> " +
                         log.string());
    return std::make_pair(code, quake::util::read_text_file(log.string()));
  };
  // The parse/dump round trip alone changes no verdict.
  EXPECT_EQ(check(report).first, 0);

  struct Mutant {
    const char* name;
    std::vector<std::string> path;
    std::optional<Json> value;  // empty: remove the member
    const char* diagnostic;     // what the checker must report
  };
  const Mutant mutants[] = {
      {"donation_async row without recoveries",
       {"rows", sweep_row(report, "donation_async"), "metrics", "recoveries"},
       std::nullopt,
       "donation_async row needs numeric metrics.recoveries"},
      {"multi_victim row without ranks_revived",
       {"rows", sweep_row(report, "multi_victim"), "metrics", "ranks_revived"},
       std::nullopt,
       "multi_victim row needs numeric metrics.ranks_revived"},
      {"recovery row rolled back a step",
       {"rows", sweep_row(report, "recovery"), "metrics", "steps_rolled_back"},
       Json(1.0),
       "recovery (replay) row reports steps_rolled_back != 0"},
      {"ladder row saved updates",
       {"rows", ladder, "metrics", "updates_saved_ratio"},
       Json(2.0),
       "global-dt ladder row reports updates_saved_ratio != 1"},
      {"scope summary with min > mean",
       {"rows", ladder, "ranks", "scopes", "step", "seconds", "min"},
       Json(ladder_step.find("mean")->as_number() + 1.0),
       "summary violates min <= mean <= max"},
      {"exchange scope without its drain wait",
       {"rows", ladder, "ranks", "scopes", "step/exchange/drain/wait"},
       std::nullopt,
       "scopes has step/exchange but no \"step/exchange/drain/wait\""},
  };
  for (const Mutant& m : mutants) {
    SCOPED_TRACE(m.name);
    const auto [code, diag] = check(edited(report, m.path, m.value));
    EXPECT_EQ(code, 1) << diag;
    EXPECT_EQ(diag.rfind("check_bench_schema: ", 0), 0u) << diag;
    EXPECT_NE(diag.find(m.diagnostic), std::string::npos) << diag;
  }
  fs::remove_all(dir);
}

}  // namespace

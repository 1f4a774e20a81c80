#pragma once

// Per-rank metric reports and their across-rank summaries — the Table 2.1
// reduction: each rank's Registry becomes a RankReport once the solve's
// rank threads have joined, and merge_reports folds the set into
// min/mean/max-across-ranks summaries.

#include <span>

#include "quake/obs/obs.hpp"

namespace quake::obs {

struct RankReport {
  int rank = 0;
  Registry metrics;
};

// min/mean/max over ranks; `sum` across ranks. A rank that never touched a
// key contributes 0 (the MPI-reduce-over-all-ranks convention), so e.g. a
// rank with no ghost exchange pulls the min to zero.
struct Summary {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

struct ScopeSummary {
  std::uint64_t calls_total = 0;
  Summary seconds;
};

struct MergedReport {
  int n_ranks = 0;
  std::map<std::string, ScopeSummary> scopes;
  std::map<std::string, Summary> counters;
  std::map<std::string, Summary> gauges;
};

// Merges per-rank reports (series are rank-local diagnostics and are not
// summarized; read them from the individual RankReports).
MergedReport merge_reports(std::span<const RankReport> reports);

}  // namespace quake::obs

#pragma once

// MetricsSink — machine-readable bench reports. A sink collects one JSON
// row per experiment configuration and writes the whole set as a
// schema-versioned envelope ("quake.bench/1", documented in
// docs/OBSERVABILITY.md and validated by tools/check_bench_schema):
//
//   {
//     "schema": "quake.bench/1",
//     "bench":  "table2_1",
//     "rows": [
//       {
//         "params":  { ... experiment configuration (scalars) ... },
//         "metrics": { ... headline numbers (scalars)          ... },
//         "ranks":   { per-phase scope times and counters,
//                      min/mean/max across ranks               },   // optional
//         "series":  { name: [per-iteration values...] }            // optional
//       }, ...
//     ]
//   }
//
// Writers go through util::write_text_file, so disk-full and short writes
// surface as exceptions instead of truncated reports.

#include <string>
#include <vector>

#include "quake/obs/json.hpp"
#include "quake/obs/report.hpp"

namespace quake::obs {

// {"n_ranks", "scopes": {path: {"calls", "seconds": {min,mean,max,sum}}},
//  "counters": {name: {min,mean,max,sum}}, "gauges": {...}}
Json to_json(const MergedReport& m);

// {"scopes": {path: {"calls","seconds"}}, "counters": {...}, "gauges": {...},
//  "series": {name: [...]}} — one thread/rank, unmerged.
Json to_json(const Registry& r);

class MetricsSink {
 public:
  explicit MetricsSink(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  // Appends an empty row object; fill it via set("params", ...) etc.
  Json& new_row();

  // The full envelope (schema/bench/rows).
  [[nodiscard]] Json envelope() const;

  // Writes the envelope as JSON; throws std::runtime_error on I/O failure.
  void write_json(const std::string& path) const;

  // Flat CSV companion: one line per row, columns = the union of scalar
  // "params" and "metrics" keys (first-seen order), prefixed with
  // "params." / "metrics."; non-scalar members are skipped.
  void write_csv(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<Json> rows_;
};

}  // namespace quake::obs

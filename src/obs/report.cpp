#include "quake/obs/report.hpp"

#include <algorithm>
#include <limits>

namespace quake::obs {

MergedReport merge_reports(std::span<const RankReport> reports) {
  MergedReport out;
  out.n_ranks = static_cast<int>(reports.size());
  if (reports.empty()) return out;
  const double n = static_cast<double>(reports.size());

  // Union of keys first, then reduce treating missing entries as zero.
  for (const RankReport& r : reports) {
    for (const auto& [k, s] : r.metrics.scopes) out.scopes[k];
    for (const auto& [k, v] : r.metrics.counters) out.counters[k];
    for (const auto& [k, v] : r.metrics.gauges) out.gauges[k];
  }
  auto reduce = [&](auto& summary_map, auto value_of) {
    for (auto& [key, summary] : summary_map) {
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      double sum = 0.0;
      for (const RankReport& r : reports) {
        const double v = value_of(r, key);
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
      }
      summary.min = mn;
      summary.max = mx;
      summary.sum = sum;
      // The accumulation can round sum/n just outside [min, max] when every
      // rank reports the same value; the mean of samples lies inside.
      summary.mean = std::clamp(sum / n, mn, mx);
    }
  };
  for (auto& [key, sc] : out.scopes) {
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (const RankReport& r : reports) {
      const auto it = r.metrics.scopes.find(key);
      const double v = it != r.metrics.scopes.end() ? it->second.seconds : 0.0;
      if (it != r.metrics.scopes.end()) sc.calls_total += it->second.calls;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      sum += v;
    }
    sc.seconds = {mn, std::clamp(sum / n, mn, mx), mx, sum};
  }
  reduce(out.counters, [](const RankReport& r, const std::string& key) {
    const auto it = r.metrics.counters.find(key);
    return it != r.metrics.counters.end() ? static_cast<double>(it->second)
                                          : 0.0;
  });
  reduce(out.gauges, [](const RankReport& r, const std::string& key) {
    const auto it = r.metrics.gauges.find(key);
    return it != r.metrics.gauges.end() ? it->second : 0.0;
  });
  return out;
}

}  // namespace quake::obs

#include "quake/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace quake::obs {

std::vector<double> encode_report(const RankReport& report) {
  std::vector<double> out;
  const Registry& m = report.metrics;
  auto put_str = [&out](const std::string& s) {
    out.push_back(static_cast<double>(s.size()));
    for (char c : s) out.push_back(static_cast<double>(c));
  };
  out.push_back(static_cast<double>(report.rank));
  out.push_back(static_cast<double>(m.scopes.size()));
  for (const auto& [k, s] : m.scopes) {
    put_str(k);
    out.push_back(static_cast<double>(s.calls));
    out.push_back(s.seconds);
  }
  out.push_back(static_cast<double>(m.counters.size()));
  for (const auto& [k, v] : m.counters) {
    put_str(k);
    out.push_back(static_cast<double>(v));
  }
  out.push_back(static_cast<double>(m.gauges.size()));
  for (const auto& [k, v] : m.gauges) {
    put_str(k);
    out.push_back(v);
  }
  out.push_back(static_cast<double>(m.series.size()));
  for (const auto& [k, v] : m.series) {
    put_str(k);
    out.push_back(static_cast<double>(v.size()));
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

namespace {

// v as a T, after checking that it is an integer T holds: the conversion
// is undefined for NaN, +-Inf and values out of T's range. [-2^d, 2^d)
// (d = T's value bits) is T's range, and both ends are exact doubles.
template <class T>
T to_integer(double v) {
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lo = std::numeric_limits<T>::is_signed ? -hi : 0.0;
  if (!(v >= lo && v < hi) || v != std::trunc(v)) {
    throw std::runtime_error("decode_report: bad integer field");
  }
  return static_cast<T>(v);
}

}  // namespace

RankReport decode_report(std::span<const double> data) {
  std::size_t pos = 0;
  auto next = [&]() -> double {
    if (pos >= data.size()) {
      throw std::runtime_error("decode_report: truncated buffer");
    }
    return data[pos++];
  };
  // A count of items that each take at least one more double: checked
  // against the doubles left before anything is sized from it.
  auto next_count = [&]() -> std::size_t {
    const double v = next();
    if (!(v >= 0.0 && v <= static_cast<double>(data.size() - pos)) ||
        v != std::trunc(v)) {
      throw std::runtime_error("decode_report: bad count");
    }
    return static_cast<std::size_t>(v);
  };
  auto next_str = [&]() -> std::string {
    const std::size_t n = next_count();
    std::string s(n, '\0');
    for (std::size_t i = 0; i < n; ++i) s[i] = to_integer<char>(next());
    return s;
  };

  RankReport r;
  r.rank = to_integer<int>(next());
  const std::size_t n_scopes = next_count();
  for (std::size_t i = 0; i < n_scopes; ++i) {
    std::string k = next_str();
    ScopeStats s;
    s.calls = to_integer<std::uint64_t>(next());
    s.seconds = next();
    r.metrics.scopes.emplace(std::move(k), s);
  }
  const std::size_t n_counters = next_count();
  for (std::size_t i = 0; i < n_counters; ++i) {
    std::string k = next_str();
    r.metrics.counters.emplace(std::move(k),
                               to_integer<std::int64_t>(next()));
  }
  const std::size_t n_gauges = next_count();
  for (std::size_t i = 0; i < n_gauges; ++i) {
    std::string k = next_str();
    r.metrics.gauges.emplace(std::move(k), next());
  }
  const std::size_t n_series = next_count();
  for (std::size_t i = 0; i < n_series; ++i) {
    std::string k = next_str();
    const std::size_t n = next_count();
    std::vector<double> v(n);
    for (std::size_t j = 0; j < n; ++j) v[j] = next();
    r.metrics.series.emplace(std::move(k), std::move(v));
  }
  return r;
}

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

#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <tuple>

#include "quake/obs/json.hpp"
#include "quake/util/io.hpp"

namespace bench_e2e {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(steady_seconds()) {}

double Tracer::now() const { return steady_seconds() - epoch_; }

int Tracer::begin(const std::string& name, const std::string& layer,
                  int parent, int track, std::uint64_t request) {
  if (!enabled_) return -1;
  const double t = now();
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, layer, t, -1.0, parent, track, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  if (span < 0) return;
  const double t = now();
  const std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(span)].end = t;
}

int Tracer::record(const std::string& name, const std::string& layer,
                   int parent, double start, double end, int track,
                   std::uint64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, layer, start, end, parent, track, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

double Tracer::total_seconds(const std::string& name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= s.start) t += s.end - s.start;
  }
  return t;
}

Attribution Tracer::attribute() const {
  const std::vector<Span> s = spans();
  std::vector<int> depth(s.size(), 0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (int p = s[i].parent; p >= 0; p = s[static_cast<std::size_t>(p)].parent) {
      ++depth[i];
    }
  }
  // Sweep the open/close events in time order; each gap between events is
  // charged to the deepest open span.
  struct Event {
    double t;
    bool open;
    int idx;
  };
  std::vector<Event> ev;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].end < s[i].start) continue;  // never closed
    ev.push_back({s[i].start, true, static_cast<int>(i)});
    ev.push_back({s[i].end, false, static_cast<int>(i)});
  }
  std::sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
    return std::tie(a.t, a.open) < std::tie(b.t, b.open);
  });
  Attribution a;
  std::set<std::tuple<int, double, int>> open;  // (depth, start, idx)
  double prev = 0.0;
  for (const Event& e : ev) {
    if (!open.empty() && e.t > prev) {
      const double dt = e.t - prev;
      const auto& [d, start, idx] = *open.rbegin();
      a.root_seconds += dt;
      if (d == 0) {
        a.unattributed_seconds += dt;
      } else {
        a.self_seconds[s[static_cast<std::size_t>(idx)].layer] += dt;
      }
    }
    prev = e.t;
    const auto key = std::make_tuple(depth[static_cast<std::size_t>(e.idx)],
                                     s[static_cast<std::size_t>(e.idx)].start,
                                     e.idx);
    if (e.open) {
      open.insert(key);
    } else {
      open.erase(key);
    }
  }
  return a;
}

void Tracer::write_chrome(const std::string& path) const {
  using quake::obs::Json;
  const std::vector<Span> s = spans();
  Json events = Json::array();
  std::set<int> tracks;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].end < s[i].start) continue;
    tracks.insert(s[i].track);
    Json args = Json::object().set("span", static_cast<int>(i));
    if (s[i].parent >= 0) args.set("parent", s[i].parent);
    if (s[i].request != 0) args.set("request", s[i].request);
    events.push_back(Json::object()
                         .set("name", s[i].name)
                         .set("cat", s[i].layer)
                         .set("ph", "X")
                         .set("ts", s[i].start * 1e6)
                         .set("dur", (s[i].end - s[i].start) * 1e6)
                         .set("pid", 1)
                         .set("tid", s[i].track)
                         .set("args", std::move(args)));
  }
  for (const int t : tracks) {
    events.push_back(
        Json::object()
            .set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 1)
            .set("tid", t)
            .set("args", Json::object().set(
                             "name", t == 0 ? std::string("main")
                                            : "client " + std::to_string(t))));
  }
  Json doc = Json::object()
                 .set("traceEvents", std::move(events))
                 .set("displayTimeUnit", "ms");
  quake::util::write_text_file(path, doc.dump());
}

}  // namespace bench_e2e

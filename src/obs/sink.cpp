#include "quake/obs/sink.hpp"

#include <cstdio>

#include "quake/util/io.hpp"

namespace quake::obs {

namespace {

Json summary_json(const Summary& s) {
  Json j = Json::object();
  j.set("min", s.min).set("mean", s.mean).set("max", s.max).set("sum", s.sum);
  return j;
}

}  // namespace

Json to_json(const MergedReport& m) {
  Json j = Json::object();
  j.set("n_ranks", m.n_ranks);
  Json scopes = Json::object();
  for (const auto& [path, sc] : m.scopes) {
    Json s = Json::object();
    s.set("calls", sc.calls_total);
    s.set("seconds", summary_json(sc.seconds));
    scopes.set(path, std::move(s));
  }
  j.set("scopes", std::move(scopes));
  Json counters = Json::object();
  for (const auto& [name, s] : m.counters) counters.set(name, summary_json(s));
  j.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, s] : m.gauges) gauges.set(name, summary_json(s));
  j.set("gauges", std::move(gauges));
  return j;
}

Json& MetricsSink::new_row() {
  rows_.push_back(Json::object());
  return rows_.back();
}

Json MetricsSink::envelope() const {
  Json root = Json::object();
  root.set("schema", "quake.bench/1");
  root.set("bench", bench_);
  Json rows = Json::array();
  for (const Json& r : rows_) rows.push_back(r);
  root.set("rows", std::move(rows));
  return root;
}

void MetricsSink::write_json(const std::string& path) const {
  util::write_text_file(path, envelope().dump());
}

void MetricsSink::write_csv(const std::string& path) const {
  // Column discovery: scalar members of "params" and "metrics", in
  // first-seen order across rows.
  std::vector<std::string> columns;
  auto discover = [&](const Json& row) {
    for (const char* section : {"params", "metrics"}) {
      const Json* obj = row.find(section);
      if (obj == nullptr || !obj->is_object()) continue;
      for (const auto& [k, v] : obj->members()) {
        if (v.is_array() || v.is_object()) continue;
        std::string col = std::string(section) + "." + k;
        bool seen = false;
        for (const auto& c : columns) {
          if (c == col) {
            seen = true;
            break;
          }
        }
        if (!seen) columns.push_back(std::move(col));
      }
    }
  };
  for (const Json& r : rows_) discover(r);

  std::string out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    out += columns[i];
    out += i + 1 < columns.size() ? "," : "\n";
  }
  for (const Json& row : rows_) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const std::string& col = columns[i];
      const auto dot = col.find('.');
      const Json* section = row.find(col.substr(0, dot));
      const Json* v =
          section != nullptr ? section->find(col.substr(dot + 1)) : nullptr;
      if (v != nullptr) {
        switch (v->type()) {
          case Json::Type::kNumber: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.9g", v->as_number());
            out += buf;
            break;
          }
          case Json::Type::kString: out += v->as_string(); break;
          case Json::Type::kBool: out += v->as_bool() ? "true" : "false"; break;
          default: break;
        }
      }
      out += i + 1 < columns.size() ? "," : "\n";
    }
  }
  util::write_text_file(path, out);
}

}  // namespace quake::obs

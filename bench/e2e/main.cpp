// bench_e2e — the repository's end-to-end benchmark: five closed-loop
// workloads over the public API, each timed from outside, with per-layer
// attribution from a separate traced run. See README.md.
//
//   bench_e2e --workload <name|all> [--seed N] [--seconds S] [--trace]
//             [--trace-json PATH] [--json PATH] [--tmp DIR] [--smoke]
//
// Prints every metric as "<workload> <metric> <value> <unit>", runs the
// workload's correctness checks (untimed) and exits nonzero if one fails.
// Untraced runs report the end-to-end metrics; --trace runs report the
// per-layer block instead. --workload all runs each workload in its own
// process (so peak RSS is per workload) and merges their --json reports.

#include <spawn.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_e2e.hpp"
#include "quake/obs/json.hpp"
#include "quake/util/io.hpp"

extern char** environ;

namespace {

using namespace bench_e2e;
using quake::obs::Json;

const char* const kWorkloads[] = {"serve_short", "serve_batched",
                                  "serve_recover", "forward_lts", "invert_3d"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <serve_short|serve_batched|serve_recover|"
               "forward_lts|invert_3d|all> [--seed N] [--seconds S] [--trace] "
               "[--trace-json PATH] [--json PATH] [--tmp DIR] [--smoke]\n",
               argv0);
  return 2;
}

Json report_json(const Options& opt, const Report& rep) {
  Json checks = Json::object();
  for (const auto& [name, ok] : rep.checks) checks.set(name, ok);
  Json metrics = Json::object();
  for (const Metric& m : rep.metrics) {
    metrics.set(m.name, Json::object().set("value", m.value).set("unit", m.unit));
  }
  Json info = Json::object();
  for (const auto& [name, v] : rep.info) info.set(name, v);
  Json j = Json::object()
               .set("schema", "quake.bench_e2e/1")
               .set("workload", rep.workload)
               .set("seed", static_cast<double>(opt.seed))
               .set("seconds", opt.seconds)
               .set("traced", opt.traced)
               .set("smoke", opt.smoke)
               .set("correct", rep.correct())
               .set("attempted", rep.attempted)
               .set("failed", rep.failed)
               .set("checks", std::move(checks))
               .set("metrics", std::move(metrics))
               .set("info", std::move(info));
  if (opt.traced) {
    Json self = Json::object();
    for (const auto& [layer, s] : rep.attribution.self_seconds) self.set(layer, s);
    j.set("layer_self_seconds", std::move(self))
        .set("traced_root_seconds", rep.attribution.root_seconds)
        .set("unattributed_seconds", rep.attribution.unattributed_seconds);
  }
  return j;
}

// Re-executes this binary once per workload with the same flags.
int run_all(int argc, char** argv, const Options& opt) {
  int status_all = 0;
  Json runs = Json::array();
  for (const char* w : kWorkloads) {
    std::vector<std::string> args = {argv[0]};
    for (int a = 1; a < argc; ++a) {
      const std::string s = argv[a];
      if (s == "--workload" || s == "--json" || s == "--trace-json") {
        ++a;  // replaced per workload below
        continue;
      }
      args.push_back(s);
    }
    args.insert(args.end(), {"--workload", w});
    const std::string json = opt.json_path.empty() ? "" : opt.json_path + "." + w;
    if (!json.empty()) args.insert(args.end(), {"--json", json});
    if (!opt.trace_path.empty()) {
      args.insert(args.end(), {"--trace-json", opt.trace_path + "." + w + ".json"});
    }
    std::vector<char*> cargv;
    for (std::string& s : args) cargv.push_back(s.data());
    cargv.push_back(nullptr);
    std::fflush(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargv.data(),
                    environ) != 0) {
      std::perror("posix_spawn");
      return 1;
    }
    int st = 0;
    if (waitpid(pid, &st, 0) < 0 || !WIFEXITED(st) || WEXITSTATUS(st) != 0) {
      std::fprintf(stderr, "bench_e2e: workload %s failed\n", w);
      status_all = 1;
    }
    if (!json.empty() && std::filesystem::exists(json)) {
      Json r;
      std::string err;
      if (Json::parse(quake::util::read_text_file(json), &r, &err)) {
        runs.push_back(std::move(r));
      } else {
        std::fprintf(stderr, "bench_e2e: %s: %s\n", json.c_str(), err.c_str());
        status_all = 1;
      }
      std::filesystem::remove(json);
    }
  }
  if (!opt.json_path.empty()) {
    quake::util::write_text_file(
        opt.json_path, Json::object()
                           .set("schema", "quake.bench_e2e/1")
                           .set("runs", std::move(runs))
                           .dump());
  }
  return status_all;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.tmp_base = std::filesystem::temp_directory_path().string();
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string s = argv[a];
      const bool has_value = a + 1 < argc;
      if (s == "--workload" && has_value) {
        opt.workload = argv[++a];
      } else if (s == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++a]);
      } else if (s == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++a]);
      } else if (s == "--json" && has_value) {
        opt.json_path = argv[++a];
      } else if (s == "--trace-json" && has_value) {
        opt.trace_path = argv[++a];
      } else if (s == "--tmp" && has_value) {
        opt.tmp_base = argv[++a];
      } else if (s == "--trace") {
        opt.traced = true;
      } else if (s == "--smoke") {
        opt.smoke = true;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (opt.seconds <= 0.0) return usage(argv[0]);

  Report rep;
  rep.workload = opt.workload;
  try {
    const std::string& w = opt.workload;
    if (w == "all") return run_all(argc, argv, opt);
    if (w == "serve_short" || w == "serve_batched" || w == "serve_recover") {
      run_serve(opt, rep);
    } else if (w == "forward_lts") {
      run_forward_lts(opt, rep);
    } else if (w == "invert_3d") {
      run_invert_3d(opt, rep);
    } else {
      return usage(argv[0]);
    }
    const char* wl = w.c_str();
    for (const auto& [name, v] : rep.info) {
      std::printf("%s info %s %.10g\n", wl, name.c_str(), v);
    }
    for (const Metric& m : rep.metrics) {
      std::printf("%s %s %.10g %s\n", wl, m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const auto& [layer, sec] : rep.attribution.self_seconds) {
      std::printf("%s self %s %.6f s\n", wl, layer.c_str(), sec);
    }
    for (const auto& [name, ok] : rep.checks) {
      std::printf("%s check %s %s\n", wl, name.c_str(), ok ? "ok" : "FAILED");
    }
    std::printf("%s attempted %ld failed %ld\n", wl, rep.attempted, rep.failed);
    if (!opt.json_path.empty()) {
      quake::util::write_text_file(opt.json_path, report_json(opt, rep).dump());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  return rep.correct() ? 0 : 1;
}

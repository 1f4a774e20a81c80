// check_bench_schema — validates a "quake.bench/1" report produced by
// MetricsSink (see docs/OBSERVABILITY.md for the schema). Used by CI to
// catch silently malformed bench output:
//
//   check_bench_schema FILE [--require PATH]...
//
// Checks the envelope (schema tag, bench name, non-empty rows), the shape
// of every row (params/metrics objects; optional "ranks" merged-report with
// ordered min <= mean <= max summaries; optional "series" of numeric
// arrays), and that every --require dotted path (e.g. "ranks" or
// "series.gn/cg_iters" — metric names use '/', so '.' is a safe separator)
// is present in every row. Bench-specific contracts keyed on the bench
// name pin evidence obligations: "fig2_1" (per-phase store statistics with
// sane pool hit rates) and "table2_1" (fault-sweep rows carry all four
// recovery policies with the recover/agree|restore|replay|resume
// breakdown, a zero-rollback replay row, and a rolled-back rollback row;
// ladder rows carry the global-dt element-update accounting, and
// --lts-sweep rows carry the off/on LTS evidence — see
// check_table2_1_lts_contract). Exits 0 on success, 1 with a diagnostic on
// the first violation.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "quake/obs/json.hpp"
#include "quake/util/io.hpp"

namespace {

using quake::obs::Json;

std::string g_context;

bool fail(const std::string& what) {
  std::fprintf(stderr, "check_bench_schema: %s: %s\n", g_context.c_str(),
               what.c_str());
  return false;
}

bool is_number(const Json* j) {
  return j != nullptr && j->type() == Json::Type::kNumber;
}

bool check_summary(const Json& s, const std::string& name) {
  if (!s.is_object()) return fail(name + ": summary is not an object");
  const Json* mn = s.find("min");
  const Json* me = s.find("mean");
  const Json* mx = s.find("max");
  const Json* su = s.find("sum");
  if (!is_number(mn) || !is_number(me) || !is_number(mx) || !is_number(su)) {
    return fail(name + ": summary needs numeric min/mean/max/sum");
  }
  if (!(mn->as_number() <= me->as_number() &&
        me->as_number() <= mx->as_number())) {
    return fail(name + ": summary violates min <= mean <= max");
  }
  return true;
}

bool check_ranks(const Json& ranks) {
  if (!ranks.is_object()) return fail("\"ranks\" is not an object");
  if (!is_number(ranks.find("n_ranks"))) {
    return fail("\"ranks\" needs numeric n_ranks");
  }
  const Json* scopes = ranks.find("scopes");
  if (scopes == nullptr || !scopes->is_object()) {
    return fail("\"ranks\" needs a scopes object");
  }
  for (const auto& [path, sc] : scopes->members()) {
    if (!sc.is_object() || !is_number(sc.find("calls")) ||
        sc.find("seconds") == nullptr) {
      return fail("scope \"" + path + "\" needs calls and seconds");
    }
    if (!check_summary(*sc.find("seconds"), "scope \"" + path + "\"")) {
      return false;
    }
  }
  for (const char* section : {"counters", "gauges"}) {
    const Json* obj = ranks.find(section);
    if (obj == nullptr || !obj->is_object()) {
      return fail(std::string("\"ranks\" needs a ") + section + " object");
    }
    for (const auto& [name, s] : obj->members()) {
      if (!check_summary(s, std::string(section) + " \"" + name + "\"")) {
        return false;
      }
    }
  }
  // A report that times the ghost exchange must also carry the overlap
  // instrumentation: the post/drain sub-scopes (including the drain's wait
  // phase, which separates blocked-on-neighbors time from the rank-ordered
  // accumulation), the hidden-fraction gauge, and byte-level send
  // accounting. This pins the exchange telemetry contract so a refactor
  // cannot silently drop it.
  const Json* exchange = scopes->find("step/exchange");
  if (exchange != nullptr) {
    for (const char* sub : {"step/exchange/post", "step/exchange/drain",
                            "step/exchange/drain/wait"}) {
      if (scopes->find(sub) == nullptr) {
        return fail(std::string("scopes has step/exchange but no \"") + sub +
                    "\"");
      }
    }
    if (ranks.find("gauges")->find("par/overlap_fraction") == nullptr) {
      return fail(
          "scopes has step/exchange but gauges lack \"par/overlap_fraction\"");
    }
    if (ranks.find("counters")->find("comm/bytes_sent") == nullptr) {
      return fail(
          "scopes has step/exchange but counters lack \"comm/bytes_sent\"");
    }
  }
  return true;
}

// A row whose metrics report recoveries > 0 claims a fault was survived
// in place; such a row must carry the recovery telemetry that proves it —
// the recover scope tree (agreement, restore, resume), the recovery
// counters, and the epoch gauge. This pins the recovery-observability
// contract so a refactor cannot report recoveries without evidence.
bool check_recovery_contract(const Json& row) {
  const Json* metrics = row.find("metrics");
  const Json* recoveries =
      metrics == nullptr ? nullptr : metrics->find("recoveries");
  if (!is_number(recoveries) || recoveries->as_number() <= 0.0) return true;
  const Json* ranks = row.find("ranks");
  if (ranks == nullptr) {
    return fail("metrics.recoveries > 0 but row has no \"ranks\" report");
  }
  const Json* scopes = ranks->find("scopes");
  for (const char* sc :
       {"recover", "recover/agree", "recover/restore", "recover/resume"}) {
    if (scopes == nullptr || scopes->find(sc) == nullptr) {
      return fail(std::string("metrics.recoveries > 0 but scopes lack \"") +
                  sc + "\"");
    }
  }
  const Json* counters = ranks->find("counters");
  for (const char* c :
       {"par/recoveries", "par/ranks_revived", "par/steps_rolled_back"}) {
    if (counters == nullptr || counters->find(c) == nullptr) {
      return fail(std::string("metrics.recoveries > 0 but counters lack \"") +
                  c + "\"");
    }
  }
  const Json* gauges = ranks->find("gauges");
  if (gauges == nullptr || gauges->find("par/epoch") == nullptr) {
    return fail("metrics.recoveries > 0 but gauges lack \"par/epoch\"");
  }
  return true;
}

const Json* row_param(const Json& row, const char* key) {
  const Json* params = row.find("params");
  return params == nullptr ? nullptr : params->find(key);
}

bool param_is(const Json& row, const char* key, const char* want) {
  const Json* p = row_param(row, key);
  return p != nullptr && p->type() == Json::Type::kString &&
         p->as_string() == want;
}

// The table2_1 --fault-sweep rows claim a recovery-latency comparison
// across the three tiers (see DESIGN.md "Localized recovery"); when any
// row carries a params.mode, all six policies must be present and each
// must carry the wall-clock numbers, the recover/agree|restore|replay
// |resume latency breakdown, the donation-wait numbers, and the
// compressed log-ring accounting. The replay row must prove zero survivor
// rollback (steps_rolled_back == 0, steps_replayed > 0 with the
// recover/replay scope) and a live, compressing message log; the rollback
// row must prove it actually rolled back; the donation_async row is a
// fault-free control (no recoveries); the multi_victim row must prove
// both victims restored from donations in one concurrent tier-1 pass.
// Plain table rows (no params.mode) are exempt, so the contract is inert
// for runs without --fault-sweep.
bool check_table2_1_contract(const Json& rows) {
  constexpr int kModes = 6;
  const Json* sweep[kModes] = {};
  const char* names[kModes] = {"clean",          "recovery",
                               "rollback",       "full_restart",
                               "donation_async", "multi_victim"};
  bool any_mode = false;
  for (const Json& row : rows.items()) {
    if (row_param(row, "mode") == nullptr) continue;
    any_mode = true;
    for (int m = 0; m < kModes; ++m) {
      if (param_is(row, "mode", names[m])) sweep[m] = &row;
    }
  }
  if (!any_mode) return true;
  g_context += " (table2_1 fault-sweep contract)";
  for (int m = 0; m < kModes; ++m) {
    if (sweep[m] == nullptr) {
      return fail(std::string("no row with params.mode == \"") + names[m] +
                  "\"");
    }
    const Json* mm = sweep[m]->find("metrics");
    for (const char* key :
         {"wall_seconds_min", "wall_seconds_mean", "excess_over_clean_seconds",
          "recoveries", "ranks_revived", "steps_rolled_back",
          "steps_replayed", "recover_agree_seconds",
          "recover_restore_seconds", "recover_replay_seconds",
          "recover_resume_seconds", "donate_wait_mean_seconds",
          "donate_wait_max_seconds", "donation_restores", "donations_served",
          "multi_victim_replays", "log_bytes", "log_raw_bytes",
          "log_compression_ratio"}) {
      if (mm == nullptr || !is_number(mm->find(key))) {
        return fail(std::string(names[m]) + " row needs numeric metrics." +
                    key);
      }
    }
  }
  const Json* rm = sweep[1]->find("metrics");
  if (rm->find("steps_rolled_back")->as_number() != 0.0) {
    return fail("recovery (replay) row reports steps_rolled_back != 0");
  }
  if (rm->find("steps_replayed")->as_number() <= 0.0) {
    return fail("recovery (replay) row reports steps_replayed <= 0");
  }
  if (rm->find("log_bytes")->as_number() <= 0.0) {
    return fail("recovery (replay) row reports no message-log memory");
  }
  if (rm->find("log_compression_ratio")->as_number() < 1.0) {
    return fail("recovery (replay) row log_compression_ratio < 1");
  }
  const Json* rranks = sweep[1]->find("ranks");
  const Json* rscopes = rranks == nullptr ? nullptr : rranks->find("scopes");
  if (rscopes == nullptr || rscopes->find("recover/replay") == nullptr) {
    return fail("recovery (replay) row lacks the recover/replay scope");
  }
  const Json* bm = sweep[2]->find("metrics");
  if (bm->find("steps_rolled_back")->as_number() <= 0.0) {
    return fail("rollback row reports steps_rolled_back <= 0");
  }
  const Json* am = sweep[4]->find("metrics");
  if (am->find("recoveries")->as_number() != 0.0) {
    return fail("donation_async row must be fault-free (recoveries == 0)");
  }
  const Json* vm = sweep[5]->find("metrics");
  if (vm->find("steps_rolled_back")->as_number() != 0.0) {
    return fail("multi_victim row reports steps_rolled_back != 0");
  }
  if (vm->find("ranks_revived")->as_number() < 2.0) {
    return fail("multi_victim row revived fewer than 2 ranks");
  }
  if (vm->find("multi_victim_replays")->as_number() < 1.0) {
    return fail("multi_victim row reports no concurrent multi-victim replay");
  }
  if (vm->find("donation_restores")->as_number() < 2.0) {
    return fail("multi_victim row reports fewer than 2 donation restores");
  }
  return true;
}

// Table2_1 element-update accounting. The plain ladder rows (params.ranks
// with no mode/drain_mode/lts) run the global-dt solver, so they must
// report exactly one element-kernel application per element per step —
// metrics.updates_saved_ratio == 1 — with the par/element_updates counter
// present in the merged telemetry, the overlapped-exchange scope
// breakdown (post/drain/wait), the par/overlap_fraction gauge, and the
// comm/bytes_sent counter (these used to be CI-level --require paths, but
// the serial LTS rows legitimately carry no rank telemetry, so the pins
// live here keyed by row type). The --lts-sweep rows (params.lts =
// off|on, params.scheme = serial|par) pin the LTS evidence: each scheme
// carries an interleaved off/on pair; every off row reports ratio 1; the
// serial on row must come from a multi-level, multi-class mesh, actually
// save updates, and keep the Fig 2.2 closed-form error at the off row's
// level; the parallel on row must save updates while its final field and
// surface seismogram stay near the global-dt run's. Absent --lts-sweep the
// LTS half is inert, matching the other sweeps.

// True when row.ranks.<section>.<key> exists (section is "scopes",
// "counters", or "gauges" in the merged telemetry report).
bool row_ranks_has(const Json& row, const char* section, const char* key) {
  const Json* ranks = row.find("ranks");
  const Json* sec = ranks == nullptr ? nullptr : ranks->find(section);
  return sec != nullptr && sec->find(key) != nullptr;
}

// Every table2_1 row that runs the parallel solver must carry the
// overlapped-exchange breakdown in its merged telemetry.
bool pin_exchange_telemetry(const Json& row, const std::string& what) {
  for (const char* scope : {"step/exchange/post", "step/exchange/drain",
                            "step/exchange/drain/wait"}) {
    if (!row_ranks_has(row, "scopes", scope)) {
      return fail(what + " row telemetry lacks the " + scope + " scope");
    }
  }
  if (!row_ranks_has(row, "gauges", "par/overlap_fraction") ||
      !row_ranks_has(row, "counters", "comm/bytes_sent")) {
    return fail(what + " row telemetry lacks par/overlap_fraction or "
                "comm/bytes_sent");
  }
  return true;
}

bool check_table2_1_lts_contract(const Json& rows) {
  g_context += " (table2_1 element-updates contract)";
  const Json* pair[2][2] = {};  // [scheme: 0 serial, 1 par][lts: 0 off, 1 on]
  for (const Json& row : rows.items()) {
    if (row_param(row, "mode") != nullptr ||
        row_param(row, "drain_mode") != nullptr) {
      if (!pin_exchange_telemetry(row, "sweep")) return false;
      continue;
    }
    if (row_param(row, "lts") == nullptr) {
      // Ladder row: global-dt accounting must be present and trivial.
      const Json* m = row.find("metrics");
      const Json* ratio = m == nullptr ? nullptr : m->find("updates_saved_ratio");
      const Json* updates = m == nullptr ? nullptr : m->find("element_updates");
      if (!is_number(ratio) || !is_number(updates)) {
        return fail("ladder row needs numeric metrics.updates_saved_ratio "
                    "and metrics.element_updates");
      }
      if (ratio->as_number() != 1.0) {
        return fail("global-dt ladder row reports updates_saved_ratio != 1");
      }
      if (updates->as_number() <= 0.0) {
        return fail("ladder row reports element_updates <= 0");
      }
      const Json* ranks = row.find("ranks");
      const Json* counters = ranks == nullptr ? nullptr : ranks->find("counters");
      if (counters == nullptr ||
          counters->find("par/element_updates") == nullptr) {
        return fail("ladder row telemetry lacks the par/element_updates "
                    "counter");
      }
      if (!pin_exchange_telemetry(row, "ladder")) return false;
      if (!is_number(m->find("overlap_fraction"))) {
        return fail("ladder row needs numeric metrics.overlap_fraction");
      }
      continue;
    }
    const int s = param_is(row, "scheme", "serial") ? 0
                  : param_is(row, "scheme", "par")  ? 1
                                                    : -1;
    const int l = param_is(row, "lts", "off")  ? 0
                  : param_is(row, "lts", "on") ? 1
                                               : -1;
    if (s < 0 || l < 0) {
      return fail("lts row needs params.scheme in {serial, par} and "
                  "params.lts in {off, on}");
    }
    pair[s][l] = &row;
  }
  if (pair[0][0] == nullptr && pair[0][1] == nullptr &&
      pair[1][0] == nullptr && pair[1][1] == nullptr) {
    return true;  // no --lts-sweep in this report
  }
  const char* scheme_names[2] = {"serial", "par"};
  for (int s = 0; s < 2; ++s) {
    for (int l = 0; l < 2; ++l) {
      if (pair[s][l] == nullptr) {
        return fail(std::string("lts sweep lacks the ") + scheme_names[s] +
                    " lts=" + (l != 0 ? "on" : "off") + " row");
      }
      const Json* m = pair[s][l]->find("metrics");
      for (const char* key :
           {"updates_saved_ratio", "element_updates", "n_classes",
            "octree_levels", "n_steps"}) {
        if (m == nullptr || !is_number(m->find(key))) {
          return fail(std::string(scheme_names[s]) + " lts row needs numeric "
                      "metrics." + key);
        }
      }
      if (l == 0 && m->find("updates_saved_ratio")->as_number() != 1.0) {
        return fail(std::string(scheme_names[s]) +
                    " lts=off row reports updates_saved_ratio != 1");
      }
      if (l == 1) {
        if (m->find("updates_saved_ratio")->as_number() <= 1.0) {
          return fail(std::string(scheme_names[s]) +
                      " lts=on row saved no updates (ratio <= 1)");
        }
        if (m->find("n_classes")->as_number() < 2.0) {
          return fail(std::string(scheme_names[s]) +
                      " lts=on row clustered into < 2 rate classes");
        }
        if (m->find("octree_levels")->as_number() < 2.0) {
          return fail(std::string(scheme_names[s]) +
                      " lts=on mesh spans < 2 octree levels");
        }
      }
    }
  }
  // Serial pair: the closed-form verification error must not move.
  const Json* so = pair[0][0]->find("metrics");
  const Json* sn = pair[0][1]->find("metrics");
  if (!is_number(so->find("rel_l2_err")) || !is_number(sn->find("rel_l2_err"))) {
    return fail("serial lts rows need numeric metrics.rel_l2_err");
  }
  const double err_off = so->find("rel_l2_err")->as_number();
  const double err_on = sn->find("rel_l2_err")->as_number();
  if (!(err_off < 0.5)) {
    return fail("serial lts=off closed-form verification failed "
                "(rel_l2_err >= 0.5)");
  }
  if (!(err_on <= 1.25 * err_off)) {
    return fail("serial lts=on degrades the closed-form error by > 25% over "
                "the global-dt run");
  }
  // Parallel pair: bounded drift from the global-dt run, with the
  // element-update counter in both rows' telemetry.
  const Json* pn = pair[1][1]->find("metrics");
  const Json* ud = pn->find("u_final_rel_diff_vs_global");
  const Json* sd = pn->find("seis_rel_diff_vs_global");
  if (!is_number(ud) || !is_number(sd)) {
    return fail("par lts=on row needs numeric u_final/seis rel-diff metrics");
  }
  if (!(ud->as_number() < 0.15)) {
    return fail("par lts=on final field drifted >= 15% from global dt");
  }
  if (!(sd->as_number() < 0.3)) {
    return fail("par lts=on seismogram drifted >= 30% from global dt");
  }
  for (int l = 0; l < 2; ++l) {
    const Json& row = *pair[1][l];
    if (!row_ranks_has(row, "counters", "par/element_updates")) {
      return fail("par lts row telemetry lacks the par/element_updates "
                  "counter");
    }
    if (!pin_exchange_telemetry(row, "par lts")) return false;
  }
  return true;
}

// The fig2_1 bench surfaces per-phase etree buffer-pool statistics; every
// store-phase row must carry the page accounting and a sane hit rate, and
// checksum verification must have seen no failures.
bool check_fig2_1_contract(const Json& rows) {
  g_context += " (fig2_1 contract)";
  std::size_t store_rows = 0;
  for (const Json& row : rows.items()) {
    if (!param_is(row, "section", "store")) continue;
    ++store_rows;
    const Json* m = row.find("metrics");
    for (const char* key :
         {"page_reads", "page_writes", "cache_hits", "pool_hit_rate",
          "page_verify_failures"}) {
      if (m == nullptr || !is_number(m->find(key))) {
        return fail(std::string("store row needs numeric metrics.") + key);
      }
    }
    const double rate = m->find("pool_hit_rate")->as_number();
    if (rate < 0.0 || rate > 1.0) {
      return fail("store row pool_hit_rate outside [0, 1]");
    }
    if (m->find("page_verify_failures")->as_number() != 0.0) {
      return fail("store row reports page checksum failures");
    }
  }
  if (store_rows == 0) {
    return fail("no row with params.section == \"store\"");
  }
  return true;
}

bool check_series(const Json& series) {
  if (!series.is_object()) return fail("\"series\" is not an object");
  for (const auto& [name, arr] : series.members()) {
    if (!arr.is_array()) {
      return fail("series \"" + name + "\" is not an array");
    }
    for (const Json& v : arr.items()) {
      if (v.type() != Json::Type::kNumber) {
        return fail("series \"" + name + "\" has a non-numeric sample");
      }
    }
  }
  return true;
}

// Navigates a dotted path ("series.gn/cg_iters") through one row.
bool has_path(const Json& row, const std::string& path) {
  const Json* cur = &row;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string key = path.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    if (!cur->is_object()) return false;
    cur = cur->find(key);
    if (cur == nullptr) return false;
    if (dot == std::string::npos) return true;
    start = dot + 1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::vector<std::string> required;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--require") == 0 && a + 1 < argc) {
      required.emplace_back(argv[++a]);
    } else if (file.empty() && argv[a][0] != '-') {
      file = argv[a];
    } else {
      std::fprintf(stderr, "usage: %s FILE [--require PATH]...\n", argv[0]);
      return 2;
    }
  }
  if (file.empty()) {
    std::fprintf(stderr, "usage: %s FILE [--require PATH]...\n", argv[0]);
    return 2;
  }

  g_context = file;
  std::string text;
  try {
    text = quake::util::read_text_file(file);
  } catch (const std::exception& e) {
    fail(e.what());
    return 1;
  }

  Json root;
  std::string err;
  if (!Json::parse(text, &root, &err)) {
    fail("JSON parse error: " + err);
    return 1;
  }
  if (!root.is_object()) {
    fail("top level is not an object");
    return 1;
  }
  const Json* schema = root.find("schema");
  if (schema == nullptr || schema->type() != Json::Type::kString ||
      schema->as_string() != "quake.bench/1") {
    fail("missing or unknown schema tag (want \"quake.bench/1\")");
    return 1;
  }
  const Json* bench = root.find("bench");
  if (bench == nullptr || bench->type() != Json::Type::kString ||
      bench->as_string().empty()) {
    fail("missing bench name");
    return 1;
  }
  const Json* rows = root.find("rows");
  if (rows == nullptr || !rows->is_array() || rows->items().empty()) {
    fail("rows missing or empty");
    return 1;
  }

  std::size_t i = 0;
  for (const Json& row : rows->items()) {
    g_context = file + " row " + std::to_string(i++);
    if (!row.is_object()) {
      fail("row is not an object");
      return 1;
    }
    for (const char* section : {"params", "metrics"}) {
      const Json* obj = row.find(section);
      if (obj == nullptr || !obj->is_object()) {
        fail(std::string("missing ") + section + " object");
        return 1;
      }
    }
    const Json* ranks = row.find("ranks");
    if (ranks != nullptr && !check_ranks(*ranks)) return 1;
    const Json* series = row.find("series");
    if (series != nullptr && !check_series(*series)) return 1;
    if (!check_recovery_contract(row)) return 1;
    for (const std::string& path : required) {
      if (!has_path(row, path)) {
        fail("required path \"" + path + "\" missing");
        return 1;
      }
    }
  }

  g_context = file;
  if (bench->as_string() == "fig2_1" && !check_fig2_1_contract(*rows)) {
    return 1;
  }
  g_context = file;
  if (bench->as_string() == "table2_1" && !check_table2_1_contract(*rows)) {
    return 1;
  }
  g_context = file;
  if (bench->as_string() == "table2_1" &&
      !check_table2_1_lts_contract(*rows)) {
    return 1;
  }

  std::printf("%s: OK (%s, %zu rows)\n", file.c_str(),
              bench->as_string().c_str(), rows->items().size());
  return 0;
}

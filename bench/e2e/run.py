#!/usr/bin/env python3
"""Build and run bench_e2e; print one JSON result line (see README.md).

  run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds bench_e2e from this checkout (into .bench_build/e2e), runs one
      workload, and prints as its last stdout line
      {"correct", "attempted", "failed", "metrics"} with the end-to-end
      metrics of BENCHMARK.json (--trace 0) or its per-layer ones (--trace 1).
  run.py --record OUT [--seed N] [--seconds S]
      Runs all five workloads untraced and traced; writes one baseline file.
  run.py --compare A.json ... -- B.json ...
      A/B verdicts per workload and end-to-end metric (parent A, change B).
  run.py --smoke [--binary PATH]
      Toy-size run of every workload, both modes: every check passes and
      every metric BENCHMARK.json names is reported.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ["serve_short", "serve_batched", "serve_recover", "forward_lts",
             "invert_3d"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then incrementally builds bench_e2e; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: %s is not a quake checkout (no CMakeLists.txt/src)" % ROOT)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return BUILD / "bench_e2e"


def run_binary(binary, workload, seed, seconds, traced, out, smoke=False):
    """Runs bench_e2e once; returns its report (None if it wrote none)."""
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(out),
           "--tmp", str(out.parent / "tmp")]
    if traced:
        cmd += ["--trace", "--trace-json", str(out.with_suffix(".trace.json"))]
    if smoke:
        cmd.append("--smoke")
    # The metric lines go to stderr: stdout's last line is the result.
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if not out.exists():
        log("bench_e2e exited %d without a report" % proc.returncode)
        return None
    with open(out) as f:
        return json.load(f)


def runs_of(report):
    """The single-workload reports inside a report or a baseline file."""
    if "runs" in report:
        return report["runs"]
    if "untraced" in report:
        return report["untraced"] + report["traced"]
    return [report]


def run_one(args):
    spec = benchmark_spec()
    binary = build()
    traced = args.trace == 1
    out = BUILD / "runs" / ("%s-%d-%d-%d.json" % (args.workload, args.seed,
                                                  args.trace, os.getpid()))
    rep = run_binary(binary, args.workload, args.seed, args.seconds, traced, out)
    if rep is None:
        return 1
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    missing = [n for n in names if n not in rep["metrics"]]
    if missing:
        log("report lacks metrics: %s" % ", ".join(missing))
        return 1
    print(json.dumps({"correct": bool(rep["correct"]),
                      "attempted": int(rep["attempted"]),
                      "failed": int(rep["failed"]),
                      "metrics": {n: rep["metrics"][n] for n in names}}))
    return 0


def record(args):
    binary = build()
    runs = {"untraced": [], "traced": []}
    for traced in (False, True):
        for w in WORKLOADS:
            out = BUILD / "record" / ("%s-%d.json" % (w, int(traced)))
            rep = run_binary(binary, w, args.seed, args.seconds, traced, out)
            if rep is None or not rep["correct"]:
                log("record: %s (traced=%s) failed" % (w, traced))
                return 1
            runs["traced" if traced else "untraced"].append(rep)
    baseline = {"schema": "quake.bench_e2e.baseline/1", "seed": args.seed,
                "seconds": args.seconds,
                "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                         "cpu": cpu_model()},
                **runs}
    Path(args.record).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def smoke(args):
    spec = benchmark_spec()
    binary = Path(args.binary) if args.binary else build()
    ok = True
    for traced in (False, True):
        names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
        for w in WORKLOADS:
            out = binary.parent / "smoke" / ("%s-%d.json" % (w, int(traced)))
            rep = run_binary(binary, w, 1, 1, traced, out, smoke=True)
            if rep is None or not rep["correct"] or rep["attempted"] < 1:
                log("smoke: %s traced=%s: %s" % (
                    w, traced, "no report" if rep is None else rep["checks"]))
                ok = False
                continue
            missing = [n for n in names if n not in rep["metrics"]]
            if missing:
                log("smoke: %s traced=%s lacks %s" % (w, traced, missing))
                ok = False
    log("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def compare(a_files, b_files):
    """Per workload and end-to-end metric: medians, quartiles, pair wins and
    a verdict (choosing-metrics guide, section 8). Files pair up in order:
    A[i] with B[i]."""
    spec = benchmark_spec()

    def load(files):
        by_w = {}
        for path in files:
            with open(path) as f:
                for r in runs_of(json.load(f)):
                    if not r.get("traced"):
                        by_w.setdefault(r["workload"], []).append(r)
        return by_w

    a, b = load(a_files), load(b_files)
    print("%-14s %-15s %11s %11s %11s %11s %6s  %s" % (
        "workload", "metric", "A median", "A IQR", "B median", "B IQR",
        "B wins", "verdict"))
    for w in [w for w in WORKLOADS if w in a and w in b]:
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[w]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[w]]
            lower = m["better"] == "lower"
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            ma, mb = statistics.median(va), statistics.median(vb)
            qa, qb = quartiles(va), quartiles(vb)
            iqr_a, iqr_b = qa[2] - qa[0], qb[2] - qb[0]
            pairs = list(zip(va, vb))
            wins = sum(1 for x, y in pairs if better(y, x))
            worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
            all_better = all(better(y, x) for x in va for y in vb)
            if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and better(mb, ma) and abs(mb - ma) > iqr_a):
                verdict = "improved"
            elif max(iqr_a / ma, iqr_b / mb) > m["bound"] and not all_better:
                verdict = "unresolved (spread > bound)"
            elif worse_by > m["bound"]:
                verdict = "REGRESSED (> %.0f%%)" % (100 * m["bound"])
            else:
                verdict = "within bound"
            print("%-14s %-15s %11.5g %11.5g %11.5g %11.5g %3d/%-2d  %s" % (
                w, m["name"], ma, iqr_a, mb, iqr_b, wins, len(pairs), verdict))
    return 0


def quartiles(v):
    if len(v) < 2:
        return [v[0]] * 3
    return statistics.quantiles(v, n=4)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "--compare":
        if "--" not in argv:
            sys.exit("usage: run.py --compare A.json ... -- B.json ...")
        cut = argv.index("--")
        return compare(argv[1:cut], argv[cut + 1:])
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", metavar="OUT")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="prebuilt bench_e2e (smoke test)")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.record:
        return record(args)
    if not args.workload:
        p.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        sys.exit(1)

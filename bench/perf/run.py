#!/usr/bin/env python3
"""Runs the wall-clock benchmark: builds dfth_perf and runs its workloads.

Run from the root of a checkout:

  python3 bench/perf/run.py --workload fork-join --seed 3 --seconds 20 --trace 0
  python3 bench/perf/run.py --workload all --seed 1   # every workload, a table
  python3 bench/perf/run.py --smoke                   # tiny sizes, < 15 s

Each workload runs in its own process. run.py prints every metric with
its unit and, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. It exits
non-zero when an output of the measured program was wrong or a metric is
missing. Results go to <build>/results/ (<build> is $CARGO_TARGET_DIR, or
.bench_build), one JSON file per run, tagged with the git sha, build type,
compile definitions and the host's core count.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds dfth_perf in Release; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources next to bench/perf (src/ is missing)")
    bdir = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "dfth_perf"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "dfth_perf")


def git_sha():
    """HEAD of the checkout, "+dirty" when it has uncommitted changes;
    "unknown" when the checkout is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10).stdout.strip()
        return head.stdout.strip() + ("+dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_harness(binary, workload, seed, seconds, traced, smoke, out_dir):
    """Runs one workload in its own process; returns (exit code, result dict)."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out-dir", out_dir]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stdout)
    path = os.path.join(out_dir, workload + ".result.json")
    if not os.path.isfile(path):
        raise RuntimeError(f"{workload}: harness wrote no result (exit {proc.returncode})")
    with open(path) as f:
        result = json.load(f)
    result["git_sha"] = git_sha()
    tag = f"{workload}-seed{seed}-trace{int(traced)}{'-smoke' if smoke else ''}.json"
    with open(os.path.join(out_dir, tag), "w") as f:
        json.dump(result, f, indent=1)
    os.remove(path)
    return proc.returncode, result


def select(result, names, key):
    """The named metrics of a result; raises when one is missing or not finite."""
    out = {}
    for name in names:
        m = result[key].get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            raise RuntimeError(f"{result['workload']}: metric {name} missing or not finite")
        out[name] = {"value": m["value"], "unit": m["unit"]}
    return out


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload:10s} {name:34s} {m['value']:16.6g} {m['unit']}")


def one(args, binary, spec):
    traced = args.trace == 1
    code, result = run_harness(binary, args.workload, args.seed, args.seconds, traced,
                               False, args.out_dir)
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = select(result, [m["name"] for m in entries], "layers" if traced else "metrics")
    print_metrics(args.workload, metrics)
    for e in result["errors"]:
        print(f"ERROR: {e}")
    correct = code == 0 and result["correct"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def every(args, binary, spec):
    """All workloads, untraced (or traced with --trace 1), printed as a table."""
    traced = args.trace == 1
    status = 0
    for w in spec["workloads"]:
        code, result = run_harness(binary, w["name"], args.seed, args.seconds, traced,
                                   False, args.out_dir)
        print_metrics(w["name"], result["metrics"])
        print_metrics(w["name"], result["report"])
        if traced:
            print_metrics(w["name"], result["layers"])
        for e in result["errors"]:
            print(f"ERROR: {w['name']}: {e}")
        if code != 0 or not result["correct"]:
            status = 1
    return status


def smoke(args, binary, spec):
    """Every workload at tiny sizes, untraced and traced: exits 0 only when
    each run is correct, ran its checks and reports every BENCHMARK.json
    metric as a finite number."""
    for w in spec["workloads"]:
        for traced in (False, True):
            code, result = run_harness(binary, w["name"], args.seed, 1, traced, True,
                                       args.out_dir)
            entries = spec["per_layer"] if traced else spec["end_to_end"]
            select(result, [m["name"] for m in entries], "layers" if traced else "metrics")
            if code != 0 or not result["correct"] or result["checks"] == 0:
                raise RuntimeError(f"{w['name']}: smoke run failed: {result['errors']}")
            print(f"smoke {w['name']:10s} traced={int(traced)} ok "
                  f"({result['checks']} checks, {len(result['metrics'])} metrics)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="prebuilt dfth_perf (skips the build)")
    ap.add_argument("--out-dir", help="results directory")
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.out_dir is None:
            args.out_dir = os.path.join(build_dir(), "results")
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise RuntimeError(f"unknown workload {args.workload!r} (one of {names})")
        binary = args.bin or build()
        if args.smoke:
            return smoke(args, binary, spec)
        if args.workload == "all":
            return every(args, binary, spec)
        return one(args, binary, spec)
    except (OSError, RuntimeError, KeyError, ValueError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

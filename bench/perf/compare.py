#!/usr/bin/env python3
"""Compares two versions of the program on the wall-clock benchmark.

  # run >= 10 alternating pairs, parent and change checked out side by side
  python3 bench/perf/compare.py run --parent ../parent --change . --pairs 10

  # compare result sets already on disk (run.py writes one JSON per run)
  python3 bench/perf/compare.py results PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Pair i runs every workload of BENCHMARK.json with seed 1000 + i on both
sides, for the run_seconds it fixes; even pairs run the parent first, odd
pairs the change. For every (workload, end-to-end metric) it reports each
side's median and quartiles, the share of pairs the change won (ties count
for neither side) and a verdict:

  improved    the change won >= 9/10 of the pairs and the medians differ by
              more than the parent's own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the run-to-run spread is wider than the bound (and not every
              change run beats every parent run), or fewer than 10 pairs
  no-worse    otherwise

The bound of a (workload, metric) is 0.10 or the metric's bound in
BENCHMARK.json, whichever is smaller. BENCHMARK.json fixes one bound per
metric for all four workloads, wide enough for the noisiest of them; judged
against it, a 20% loss on a steady workload would read no-worse. Judged
against 0.10, it reads regressed, or unresolved where that workload's own
spread is wider than 0.10.

Each workload also gets a fail_ratio row: failed / attempted operations (the
serve workload's rejected and expired requests). It regresses when the
change's median rises by more than 0.002. A latency or throughput gain
bought with more failures is no gain: while the change's fail_ratio is above
the parent's, no metric of that workload is reported as improved.

It refuses (exit 2) to compare runs whose host_cpus, seed, build type,
compile definitions or benchmark version differ. It exits 1 when a metric
regressed.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MATCH_KEYS = ("host_cpus", "seed", "build_type", "defs", "bench_version")
MIN_PAIRS = 10
SEED_BASE = 1000
PAIR_BOUND = 0.10  # the most a (workload, metric) may worsen, see above
FAIL_BOUND = 0.002  # absolute rise of fail_ratio that counts as a regression


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_side(checkout, workload, seed, seconds):
    """One untraced run of `workload` in `checkout`; returns its result."""
    out_dir = os.path.join(checkout, ".bench_build", "compare")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = ["python3", os.path.join(checkout, "bench", "perf", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--out-dir", out_dir]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace0.json")) as f:
        return json.load(f)


def load_results(directory):
    """Untraced full-size results of a directory, keyed by (workload, seed)."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as f:
            r = json.load(f)
        if not r.get("smoke"):
            out[(r["workload"], r["seed"])] = r
    return out


def check_comparable(parent, change):
    for k in MATCH_KEYS:
        if parent.get(k) != change.get(k):
            raise ValueError(f"{parent['workload']} seed {parent['seed']}: {k} differs "
                             f"({parent.get(k)!r} vs {change.get(k)!r}); refusing to compare")


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(metric, pairs, bound):
    """Applies the rules in the module docstring to [(parent, change)] values."""
    lower = metric["better"] == "lower"
    par = [p for p, _ in pairs]
    chg = [c for _, c in pairs]
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(1 for p, c in pairs if better(c, p))
    win_frac = wins / len(pairs)
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / pmed if pmed else 0.0
    spread = max((pq3 - pq1) / pmed if pmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    all_better = all(better(c, p) for c in chg for p in par)
    if len(pairs) < MIN_PAIRS:
        v = "unresolved"
    elif win_frac >= 0.9 and abs(cmed - pmed) > (pq3 - pq1) and worse_by < 0:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "no-worse"
    return {"parent": [pq1, pmed, pq3], "change": [cq1, cmed, cq3], "wins": win_frac,
            "worse_by": worse_by, "spread": spread, "bound": bound, "verdict": v,
            "pairs": len(pairs)}


def fail_verdict(pairs):
    """The fail_ratio row of a workload: the bound is absolute."""
    par = [p for p, _ in pairs]
    chg = [c for _, c in pairs]
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    rise = cmed - pmed
    if rise > FAIL_BOUND:
        v = "regressed"
    elif len(pairs) < MIN_PAIRS:
        v = "unresolved"
    else:
        v = "no-worse"
    return {"parent": [pq1, pmed, pq3], "change": [cq1, cmed, cq3],
            "wins": sum(1 for p, c in pairs if c < p) / len(pairs), "worse_by": rise,
            "spread": 0.0, "bound": FAIL_BOUND, "verdict": v, "pairs": len(pairs)}


def report(spec, parent, change):
    """Matches runs by (workload, seed) and returns one row per metric. Every
    workload of BENCHMARK.json must have runs on both sides."""
    rows = []
    for w in spec["workloads"]:
        keys = sorted(k for k in parent if k[0] == w["name"] and k in change)
        if not keys:
            raise ValueError(f"no runs of workload {w['name']} on both sides")
        for k in keys:
            check_comparable(parent[k], change[k])
        fails = [(parent[k]["failed"] / parent[k]["attempted"],
                  change[k]["failed"] / change[k]["attempted"]) for k in keys]
        fail_row = fail_verdict(fails)
        more_failures = fail_row["change"][1] > fail_row["parent"][1]
        for m in spec["end_to_end"]:
            pairs = [(parent[k]["metrics"][m["name"]]["value"],
                      change[k]["metrics"][m["name"]]["value"]) for k in keys]
            row = verdict(m, pairs, min(m["bound"], PAIR_BOUND))
            if more_failures and row["verdict"] == "improved":
                row["verdict"] = "unresolved"
            row.update(workload=w["name"], metric=m["name"], unit=m["unit"])
            rows.append(row)
        fail_row.update(workload=w["name"], metric="fail_ratio", unit="ratio")
        rows.append(fail_row)
    return rows


def print_rows(rows):
    print(f"{'workload':10s} {'metric':14s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>5s} {'worse':>7s}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:10s} {r['metric']:14s} "
              f"{p[1]:10.4g} [{p[0]:9.4g}, {p[2]:9.4g}]  "
              f"{c[1]:10.4g} [{c[0]:9.4g}, {c[2]:9.4g}]  "
              f"{r['wins']:5.2f} {r['worse_by']:+7.1%}  {r['verdict']} ({r['pairs']} pairs)")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="run alternating pairs in two checkouts")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS)
    s = sub.add_parser("results", help="compare two directories of run.py results")
    s.add_argument("parent")
    s.add_argument("change")
    args = ap.parse_args()
    try:
        if args.mode == "run":
            if args.pairs < MIN_PAIRS:
                raise ValueError(f"--pairs must be at least {MIN_PAIRS}")
            parent_root = os.path.abspath(args.parent)
            change_root = os.path.abspath(args.change)
            spec = load_spec(change_root)
            if load_spec(parent_root) != spec:
                raise ValueError("BENCHMARK.json differs between the checkouts")
            parent, change = {}, {}
            for i in range(args.pairs):
                seed = SEED_BASE + i
                sides = [(parent_root, parent), (change_root, change)]
                for w in spec["workloads"]:
                    for root, store in (sides if i % 2 == 0 else sides[::-1]):
                        store[(w["name"], seed)] = run_side(root, w["name"], seed,
                                                            spec["run_seconds"])
                print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        else:
            spec = load_spec(os.path.dirname(os.path.dirname(HERE)))
            parent, change = load_results(args.parent), load_results(args.change)
        rows = report(spec, parent, change)
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    print_rows(rows)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two result sets written by ``sweep.py``.

    python3 bench/compare.py parent.jsonl change.jsonl
    python3 bench/compare.py parent.jsonl change.jsonl --claim chains:ess_per_s

Each (workload, end-to-end metric) pair is its own row: median, quartiles
and run count of each side, then a verdict against the metric's bound in
``BENCHMARK.json``:

- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: a side's spread (quartile distance over median) is wider
  than the bound, so the runs cannot tell, unless every run of the change
  reads better than every run of the parent;
- ``ok`` otherwise.

A claim names one (workload, metric).  It holds when the change wins at
least nine in ten of the runs paired by seed, ties counting for neither, in
at least ten pairs, and the medians differ by more than the parent's own
quartile distance.  The exit code is 1 when a row regresses or a claim
fails.

Both sets must come from the same environment: the run length, the core
count, the replicate threads and the Python, numpy and scipy versions of
every run must agree, or nothing is compared and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from sweep import load_benchmark, quartiles


# env fields that must agree between every run compared
SAME_ENV = ("seconds", "nproc", "bayescomp_threads", "python", "numpy",
            "scipy")


def load(path):
    """({(workload, metric): {seed: value}} of the untraced results, the set
    of distinct SAME_ENV settings among them)."""
    out, envs = {}, set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            envs.add(tuple((k, rec["env"].get(k)) for k in SAME_ENV))
            for name, m in rec["result"]["metrics"].items():
                out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out, envs


def verdict(a, b, bound, lower_better):
    qa, qb = quartiles(a), quartiles(b)
    better = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else float("inf")
                 for q in (qa, qb))
    worse = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if not lower_better:
        worse = -worse
    if spread > bound:
        if all(better(y, x) for x in a for y in b):
            return "ok (every run better)", worse
        return "unresolved", worse
    return ("regression" if worse > bound else "ok"), worse


def claim(a, b, lower_better):
    """(holds, wins, pairs, median gap, parent quartile distance)."""
    seeds = sorted(set(a) & set(b))
    wins = sum((b[s] < a[s]) if lower_better else (b[s] > a[s]) for s in seeds)
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    gap, iqr = abs(qb[1] - qa[1]), qa[2] - qa[0]
    moved = (qb[1] < qa[1]) if lower_better else (qb[1] > qa[1])
    holds = len(seeds) >= 10 and wins >= 0.9 * len(seeds) and moved and gap > iqr
    return holds, wins, len(seeds), gap, iqr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    (parent, env_a), (change, env_b) = load(args.parent), load(args.change)
    if len(env_a | env_b) > 1:
        print("the runs differ in their environment; not compared:")
        for env in sorted(env_a | env_b):
            print("  " + ", ".join(f"{k}={v}" for k, v in env))
        return 2
    bad = False
    print(f"{'workload':11s} {'metric':12s} {'parent median [q1, q3] n':38s} "
          f"{'change median [q1, q3] n':38s} {'worse':>7s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in metrics:
            continue
        a, b = list(parent[key].values()), list(change[key].values())
        lower = metrics[name]["better"] == "lower"
        status, worse = verdict(a, b, metrics[name]["bound"], lower)
        bad |= status == "regression"
        cols = []
        for v in (a, b):
            q1, med, q3 = quartiles(v)
            cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(v)}")
        print(f"{workload:11s} {name:12s} {cols[0]:38s} {cols[1]:38s} "
              f"{worse:+7.1%}  {status} (bound {metrics[name]['bound']:.0%})")
    for spec in args.claim:
        workload, _, name = spec.partition(":")
        key = (workload, name)
        if key not in parent or key not in change or name not in metrics:
            print(f"claim {spec}: no such (workload, metric) in both sets")
            bad = True
            continue
        holds, wins, pairs, gap, iqr = claim(
            parent[key], change[key], metrics[name]["better"] == "lower")
        print(f"claim {spec}: change wins {wins} of {pairs} seed pairs; "
              f"median gap {gap:.5g} vs parent quartile distance {iqr:.5g}: "
              f"{'holds' if holds else 'not met'}")
        bad |= not holds
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

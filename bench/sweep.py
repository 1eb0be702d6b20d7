"""Run workloads over seeds, print every metric by name and unit, and keep
the results for ``compare.py``.

    python3 bench/sweep.py --seeds 1                   # every workload, seed 1
    python3 bench/sweep.py --seeds 1 2 3 4 5 --workloads abc --out a.jsonl
    python3 bench/sweep.py --seeds 7 --trace 1         # per-layer metrics

Each (workload, seed) is one ``bench/run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``, run one after another from the root of
the checkout.  Every result, with the ``env:`` and ``raw:`` lines the run
printed (environment; unscaled times and calibration), is appended as one
JSON line to ``--out`` (by default ``.bench_work/results.jsonl``).  With more than one seed the table shows the
median, the quartiles and the spread (quartile distance over median) next
to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    env = next((json.loads(l[5:]) for l in lines if l.startswith("env: ")), {})
    raw = next((json.loads(l[5:]) for l in lines if l.startswith("raw: ")), {})
    for line in lines:
        if line.startswith("problem: "):
            print(f"  {workload} seed {seed}: {line}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "raw": raw, "result": json.loads(lines[-1])}


def print_table(records, bounds):
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    for workload, recs in by_workload.items():
        n = len(recs)
        ok = sum(r["result"]["correct"] for r in recs)
        print(f"\n{workload}: {n} run(s), {ok} correct")
        names = sorted(recs[0]["result"]["metrics"])
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            unit = recs[0]["result"]["metrics"][name]["unit"]
            if n == 1:
                print(f"  {name:40s} {vals[0]:14.6g} {unit}")
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None else (
                f"bound {bound:.2f}" + ("  WIDE" if spread > bound / 3 else ""))
            print(f"  {name:40s} {med:14.6g} {unit:7s} q1 {q1:.6g} q3 {q3:.6g}"
                  f"  spread {spread:.3f}  {mark}")


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench_work" / "results.jsonl")
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for workload in args.workloads:
        for seed in args.seeds:
            rec = run_one(workload, seed, bench["run_seconds"], args.trace)
            records.append(rec)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
    print(f"env: {json.dumps(records[0]['env'], sort_keys=True)}")
    print_table(records, {m["name"]: m["bound"] for m in bench["end_to_end"]})
    print(f"\nresults appended to {args.out}")
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())

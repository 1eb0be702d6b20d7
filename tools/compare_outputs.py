"""Compare the CLI outputs of two source trees of bayescomp.

Runs every CLI experiment at its defaults, `evidence` once per method
(each through a ``--config`` file naming it), plus `gibbs` and `capture`
with three replicates, once on each tree (each tree's own ``src`` on the path),
and compares what they wrote: ``draws.csv`` and ``replicates.csv`` byte for
byte, ``summary.json`` as parsed JSON without ``runtime_seconds``.  Prints
one line per run, and for each differing file the largest absolute and
relative difference over its numeric fields; exits 1 if any output
differs or any run fails.

Run from anywhere, naming the two checkouts:

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR [--seed 7]
        [--experiment mwg ...]
"""

import argparse
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

EXPERIMENTS = ("mle", "mh", "gibbs", "mwg", "pmc", "evidence", "abc",
               "capture", "mixture-demo")
REPLICATED = ("gibbs", "capture")
EVIDENCE_METHODS = ("prior-mc", "importance", "harmonic-gd", "harmonic-nr",
                    "chib", "bridge-embedded")
BYTE_FILES = ("draws.csv", "replicates.csv")


def _runs(experiments):
    """(label, experiment, extra CLI arguments, config) of every run to
    compare; config is the JSON object of its ``--config`` file, or None."""
    runs = []
    for e in experiments:
        if e == "evidence":
            runs += [(f"{e} {m}", e, [], {"method": m}) for m in EVIDENCE_METHODS]
        else:
            runs.append((e, e, [], None))
    runs += [(f"{e} x3", e, ["--replicates", "3"], None)
             for e in experiments if e in REPLICATED]
    return runs


def _run(tree, out, experiment, args, seed):
    """Run one experiment on the source tree `tree`, writing into `out`;
    returns the process's exit code and stderr."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree).resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bayescomp.cli", experiment, "--seed", str(seed),
         "--out", str(out), *args],
        env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr.strip()


def _summary(path):
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary.pop("runtime_seconds", None)
    return summary


def _numbers(value):
    """The numeric leaves of parsed JSON, in document order."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


def _csv_numbers(path):
    """The cells of a CSV file that parse as numbers, in file order."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    out.append(float(cell))
                except ValueError:
                    pass
    return out


def _largest_difference(xs, ys):
    """'max abs A, max rel R' over paired numbers; equal non-finite values
    count as no difference, any other non-finite one as an infinite one."""
    if len(xs) != len(ys):
        return f"{len(xs)} vs {len(ys)} numeric fields"
    abs_d = rel_d = 0.0
    for x, y in zip(xs, ys):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        if not math.isfinite(d):
            return "max abs inf, max rel inf"
        abs_d = max(abs_d, d)
        rel_d = max(rel_d, d / max(abs(x), abs(y)))
    return f"max abs {abs_d:.3g}, max rel {rel_d:.3g}"


def _differences(a, b):
    """A description of each output file that differs between directories
    a and b: its name and the largest numeric difference."""
    diffs = []
    for name in BYTE_FILES:
        pa, pb = a / name, b / name
        if pa.exists() != pb.exists():
            diffs.append(f"{name} (written by one tree only)")
        elif pa.exists() and pa.read_bytes() != pb.read_bytes():
            diffs.append(f"{name} ({_largest_difference(_csv_numbers(pa), _csv_numbers(pb))})")
    sa, sb = _summary(a / "summary.json"), _summary(b / "summary.json")
    if sa != sb:
        diffs.append(f"summary.json ({_largest_difference(_numbers(sa), _numbers(sb))})")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the parent")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--experiment", action="append", choices=EXPERIMENTS,
                        help="run only this experiment (repeatable)")
    args = parser.parse_args(argv)

    failed = False
    with tempfile.TemporaryDirectory() as work:
        for label, experiment, extra, config in _runs(args.experiment or EXPERIMENTS):
            if config is not None:
                path = pathlib.Path(work) / (label.replace(" ", "_") + ".json")
                path.write_text(json.dumps(config), encoding="utf-8")
                extra = [*extra, "--config", str(path)]
            outs = []
            for side, tree in (("parent", args.parent), ("change", args.change)):
                out = pathlib.Path(work) / side / label.replace(" ", "_")
                code, err = _run(tree, out, experiment, extra, args.seed)
                if code != 0:
                    print(f"{label}: {side} run failed: {err}")
                    failed = True
                    break
                outs.append(out)
            else:
                diffs = _differences(*outs)
                print(f"{label}: " + (f"DIFFERS in {', '.join(diffs)}"
                                      if diffs else "identical"))
                failed = failed or bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

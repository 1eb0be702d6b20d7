"""Compare the CLI outputs of two source trees of bayescomp.

Runs every CLI experiment at its defaults, `evidence` once per method
(each through a ``--config`` file naming it), `capture` once more on
counts whose blocks often reach its exact truncated route, `pmc` once
more with the Rao-Blackwellised mixture density (the form the benchmark
runs), `mwg` once more on each other covariate (bp and ped, each with
the likelihood envelope of its own data), plus a run with three
replicates (one runner call over the three streams) of every experiment
but `evidence`, and of `evidence` by importance, chib and the embedded
bridge, once on each tree (each tree's own ``src`` on the path), and
compares what they wrote: ``draws.csv`` and ``replicates.csv`` byte for
byte, ``summary.json`` as parsed JSON without ``runtime_seconds``, leaf
by leaf.  It also runs every ``demos/*.py`` of this checkout from each tree's own ``demos`` directory and compares their
standard output line by line (the demos fix their own seeds, so
``--seed`` does not reach them).  Prints one line per run, and for each
differing file the largest absolute and relative difference over its
numeric fields (for ``summary.json``, also each key that only one tree
wrote and each other value that changed), or each differing demo line;
exits 1 if any output differs or any run fails.  A run label or demo name
given to ``--expect-differ`` still prints its differences, but they do
not set the exit code, so a change meant to move one output can show that
every other output is identical.

Run from anywhere, naming the two checkouts:

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR [--seed 7]
        [--experiment mwg --experiment abc_bernoulli ...]
        [--expect-differ abc --expect-differ "mh x3" ...]
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
EVIDENCE_METHODS = ("prior-mc", "importance", "harmonic-gd", "harmonic-nr",
                    "chib", "bridge-embedded")
# (label, experiment, config) of each run repeated with three replicates
REPLICATED = tuple((e, e, None) for e in EXPERIMENTS if e != "evidence") + tuple(
    (f"evidence {m}", "evidence", {"method": m})
    for m in ("importance", "chib", "bridge-embedded"))
# no recapture and n_max = n1 + 2: most proposals have N > n_max, and the
# sweeps that run out of tries take the exact route (about 1 in 2)
EXACT_CAPTURE = {"n1": 22, "c2": 0, "c3": 0, "n_max": 24, "iterations": 2000}
BYTE_FILES = ("draws.csv", "replicates.csv")
DEMOS = tuple(sorted(p.stem for p in
                     (pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py")))


def _runs(experiments):
    """(label, experiment, extra CLI arguments, config) of every CLI run to
    compare; config is the JSON object of its ``--config`` file, or None."""
    runs = []
    for e in experiments:
        if e == "evidence":
            runs += [(f"{e} {m}", e, [], {"method": m}) for m in EVIDENCE_METHODS]
        elif e == "capture":
            runs += [(e, e, [], None), (f"{e} exact", e, [], EXACT_CAPTURE)]
        elif e == "pmc":
            runs += [(e, e, [], None), (f"{e} mixture", e, [], {"density_form": "mixture"})]
        elif e == "mwg":
            runs += [(e, e, [], None)] + [(f"{e} {c}", e, [], {"covariate": c})
                                          for c in ("bp", "ped")]
        else:
            runs.append((e, e, [], None))
    runs += [(f"{label} x3", e, ["--replicates", "3"], config)
             for label, e, config in REPLICATED if e in experiments]
    return runs


def _python(tree, args):
    """Run python with `args` on the source tree `tree`; returns the
    finished process, its output captured as text."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree).resolve() / "src"))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def _run(tree, out, experiment, args, seed):
    """Run one experiment on the source tree `tree`, writing into `out`;
    returns the process's exit code and stderr."""
    proc = _python(tree, ["-m", "bayescomp.cli", experiment, "--seed", str(seed),
                          "--out", str(out), *args])
    return proc.returncode, proc.stderr.strip()


def _demo_differences(a, b):
    """'line k: parent | change' for each line of stdout `a` that differs
    from the same line of `b`."""
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        return [f"{len(la)} vs {len(lb)} lines"]
    return [f"line {k}: {x.strip()} | {y.strip()}"
            for k, (x, y) in enumerate(zip(la, lb), 1) if x != y]


def _compare_demo(name, parent, change, expected):
    """Run demo `name` on both trees and print how its stdout compares;
    returns whether the two differ, or None if either run fails."""
    outs = []
    for side, tree in (("parent", parent), ("change", change)):
        proc = _python(tree, [str(pathlib.Path(tree).resolve() / "demos" / f"{name}.py")])
        if proc.returncode != 0:
            print(f"demo {name}: {side} run failed: {proc.stderr.strip()}")
            return None
        outs.append(proc.stdout)
    diffs = _demo_differences(*outs)
    print(f"demo {name}: " + ("DIFFERS" + expected if diffs else "identical"))
    for d in diffs:
        print(f"  {d}")
    return bool(diffs)


def _summary(path):
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary.pop("runtime_seconds", None)
    return summary


def _leaves(value, path=""):
    """{path: leaf} of parsed JSON, a path joining keys and list indices
    with dots, in document order."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        out = {}
        for k, v in items:
            out.update(_leaves(v, f"{path}.{k}" if path else str(k)))
        return out
    return {path: value}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _summary_difference(sa, sb):
    """How two parsed summaries differ: the largest difference over the
    numbers at paths both have, then each path only one has and each other
    leaf that changed, as 'path: parent -> change'."""
    la, lb = _leaves(sa), _leaves(sb)
    shared = [k for k in la if k in lb]
    numeric = [k for k in shared if _is_number(la[k]) and _is_number(lb[k])]
    parts = [_largest_difference([float(la[k]) for k in numeric],
                                 [float(lb[k]) for k in numeric])]
    parts += [f"only in parent: {k}" for k in la if k not in lb]
    parts += [f"only in change: {k}" for k in lb if k not in la]
    parts += [f"{k}: {json.dumps(la[k])} -> {json.dumps(lb[k])}"
              for k in shared if k not in numeric and la[k] != lb[k]]
    return "; ".join(parts)


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
        diffs.append(f"summary.json ({_summary_difference(sa, sb)})")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the parent")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--experiment", action="append", choices=EXPERIMENTS + DEMOS,
                        help="run only this experiment or demo (repeatable)")
    parser.add_argument("--expect-differ", action="append", default=[], metavar="LABEL",
                        help="a run label (as printed) or demo name whose differences "
                             "do not set the exit code (repeatable)")
    args = parser.parse_args(argv)
    selected = args.experiment or EXPERIMENTS + DEMOS
    runs = _runs([e for e in selected if e in EXPERIMENTS])
    expected = set(args.expect_differ)
    unknown = expected - {r[0] for r in runs} - {d for d in DEMOS if d in selected}
    if unknown:
        parser.error(f"--expect-differ names no selected run or demo: {sorted(unknown)}")

    def note(label):
        return " (expected)" if label in expected else ""

    failed = False
    with tempfile.TemporaryDirectory() as work:
        for label, experiment, extra, config in runs:
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
                print(f"{label}: " + (f"DIFFERS in {', '.join(diffs)}{note(label)}"
                                      if diffs else "identical"))
                failed = failed or (bool(diffs) and label not in expected)
    for name in DEMOS:
        if name in selected:
            differs = _compare_demo(name, args.parent, args.change, note(name))
            failed = failed or differs is None or (differs and name not in expected)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

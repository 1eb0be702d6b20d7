"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload chains --seed 1 --seconds 16 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
The run

1. pins the environment (one BLAS thread, ``BAYESCOMP_THREADS`` at most the
   core count) and records it, with the seed, on a line starting ``env:``;
2. times set-up: five fresh processes that import ``bayescomp.cli`` and
   load the bundled CSV, one after another (``setup_s``, their median);
3. runs the workload's fixed number of passes (see ``workloads.py``) one
   after another, stopping early only if ``--seconds`` runs out; pass i
   uses config seed ``1000 * seed + i``, so a seed fixes every input;
4. checks every output against ``references.json``;
5. prints the unscaled times on a line starting ``raw:`` and, as its last
   line, one JSON object with the keys ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
``wall_s``, ``setup_s`` and ``ess_per_s`` are scaled to the reference
machine's speed by a calibration kernel (``calibrate.py``) that a separate
process times before and after each pass and each set-up process, so that
they report that machine's speed however fast a shared machine runs
meanwhile.  With ``--trace 1`` each pass runs twice on the same config seed,
untraced and then traced, and the run makes half as many passes; the two
must give byte-identical outputs, and the metrics are the per-layer ones,
including the tracing overhead.  The spans of the traced passes are written
to ``.bench_work/spans-<workload>.csv``.

The exit code is 0 whenever a result is printed; it is 2, with no result,
when the checkout has no library to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_CODE = ("import bayescomp.cli\n"
              "from bayescomp.datasets import bundled_pima_path, load_pima\n"
              "load_pima(bundled_pima_path())\n")


def pin_environment():
    """One BLAS thread, and no more CLI replicate workers than cores.  Must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["BAYESCOMP_THREADS"] = str(min(4, nproc))
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if str(SRC) not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + paths)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return nproc


# Seconds the calibration kernel takes on the reference machine: end-to-end
# times are reported at that machine's speed.
REFERENCE_CALIBRATION_S = 0.05


def current_cpu():
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class Calibrator:
    """A ``calibrate.py`` process for the run: calling the object times the
    kernel once there, on the CPU this process is running on, and returns
    its seconds.  Closing ends the process and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self):
        self.proc.stdin.write(f"{current_cpu()}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_seconds(calibrate):
    """Median wall time of fresh interpreters importing the CLI and loading
    the bundled data, start to exit, one after another: (at the reference
    machine's speed, unscaled).  Each is scaled by the mean of the
    calibration timings just before and just after it."""
    scaled, raw, before = [], [], calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        after = calibrate()
        scaled.append(raw[-1] * 2 * REFERENCE_CALIBRATION_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, traced, workdir, refs, calibrate,
                 sizes=None):
    """The workload's passes, one after another; past `seconds`, no further
    pass starts.  Returns the result fields, the metrics, the unscaled
    times and the problems found."""
    import spans
    from workloads import (PASSES, WORKLOADS, Checker, ess_per_s,
                           output_metrics, run_pass, same_outputs)
    from bayescomp import cli

    sizes = sizes or WORKLOADS
    passes_wanted = max(1, PASSES[workload] // 2) if traced else PASSES[workload]
    checker = Checker(refs)
    tracer = spans.Tracer() if traced else None
    traced_main = tracer.wrap("cli.main", cli.main) if traced else None
    main_thread = threading.main_thread().ident
    walls, calibration, passes, layers, problems = [], [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for i in range(passes_wanted):
        if i and time.perf_counter() > deadline:
            break
        pass_dir = workdir / f"pass{i}"
        ops, wall, cal = run_pass(workload, 1000 * seed + i, pass_dir / "plain",
                                  calibrate, sizes)
        calibration += cal
        for op in ops:
            checker.check(op)
            attempted += op.attempted
            failed += op.failed
            problems += [f"pass {i} {op.experiment}: {p}" for p in op.problems]
        walls.append(wall)
        passes.append(ops)
        if traced:
            tracer.run_id = i
            first = len(tracer.spans)
            tracer.install()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    traced_ops, traced_wall, traced_cal = run_pass(
                        workload, 1000 * seed + i, pass_dir / "traced",
                        calibrate, sizes, main=traced_main)
            finally:
                tracer.uninstall()
            diffs = same_outputs(ops, traced_ops)
            attempted += 1
            failed += bool(diffs)
            problems += [f"pass {i} traced: {d}" for d in diffs]
            layer = spans.layer_metrics(tracer.spans[first:], main_thread)
            layer.update(output_metrics(ops))
            layer["capture.warnings.count"] = sum(
                w.filename.endswith("capture.py") for w in caught)
            # both passes at the reference speed, as wall_s is
            untraced = wall * REFERENCE_CALIBRATION_S / statistics.fmean(cal)
            traced_s = (traced_wall * REFERENCE_CALIBRATION_S
                        / statistics.fmean(traced_cal))
            layer["trace.overhead_s"] = traced_s - untraced
            layer["trace.overhead_frac"] = traced_s / untraced - 1.0
            layers.append(layer)
        shutil.rmtree(pass_dir)
    raw = {"passes": len(walls), "passes_planned": passes_wanted,
           "wall_s": statistics.fmean(walls),
           "calibration_s": statistics.median(calibration)}
    if traced:
        tracer.write(WORK / f"spans-{workload}.csv")
        metrics = {k: statistics.median(layer[k] for layer in layers)
                   for k in layers[0]}
    else:
        # slowness of the machine during the run relative to the reference
        slow = statistics.fmean(calibration) / REFERENCE_CALIBRATION_S
        metrics = {"wall_s": raw["wall_s"] / slow,
                   "ess_per_s": ess_per_s(passes) * slow,
                   "ok_frac": 1.0 - failed / attempted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "raw": raw}


def main(argv=None, sizes=None):
    """Command-line entry; `sizes` replaces the workload sizes (self-test)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bayescomp" / "cli.py").is_file():
        print(f"no library under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    nproc = pin_environment()

    import numpy
    import scipy

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    with open(BENCH / "references.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "nproc": nproc,
           "bayescomp_threads": int(os.environ["BAYESCOMP_THREADS"]),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    calibrate = Calibrator()
    try:
        setup = None if args.trace else setup_seconds(calibrate)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir, refs, calibrate, sizes)
    finally:
        calibrate.close()
        shutil.rmtree(workdir, ignore_errors=True)
    raw = result.pop("raw")
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"], raw["setup_s"] = setup
        metrics["peak_rss_mb"] = peak_rss_mb()
    raw["reference_calibration_s"] = REFERENCE_CALIBRATION_S
    print("raw: " + json.dumps(raw, sort_keys=True))
    for problem in result.pop("problems"):
        print("problem: " + problem)
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in sorted(metrics.items())}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

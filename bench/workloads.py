"""The benchmark's workloads, and the checks of their outputs.

A workload is a list of CLI experiments.  One pass runs them one after
another through ``bayescomp.cli.main``, as a user's closed-loop script
would, each writing its usual ``summary.json``/``draws.csv`` (and
``replicates.csv``).  After the pass, outside the timed region, every
output is checked against ``references.json``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bayescomp import cli
from bayescomp.mcmc import Chain, chain_diagnostics

EVIDENCE_METHODS = ("prior-mc", "importance", "harmonic-gd", "harmonic-nr",
                    "chib", "bridge-embedded")
# methods whose log B10 spread is reported (the library flags harmonic-nr
# unreliable, and prior-mc's error at these sizes dwarfs the others)
SPREAD_METHODS = ("importance", "harmonic-gd", "chib", "bridge-embedded")
# experiments whose effective samples count toward the workload's ess_per_s;
# mwg is left out (its ESS of a few dozen is too seed-sensitive), and so is
# pmc (its final-population ESS swings between 2 and 800 with the seed)
ESS_EXPERIMENTS = ("gibbs", "mh", "capture", "evidence", "abc")
# evidence methods rated by effective samples: the two whose reported
# standard errors are steady (from seed to seed those of harmonic-gd and
# bridge-embedded swing by a third, prior-mc's by a quarter)
ESS_METHODS = ("importance", "chib")


# pmc starts from q0_scale 4 rather than the CLI's 25: at 25 and 400
# particles its weights degenerate, some seeds ending in a ValueError from a
# singular kernel covariance and others with means off by more than 0.5
def _workloads(chain, capture, draws, particles, abc, rep_chain, rep_capture,
               reps):
    return {
        "chains": [("mh", {"iterations": chain}),
                   ("gibbs", {"iterations": chain}),
                   ("mwg", {"iterations": chain}),
                   ("capture", {"iterations": capture})],
        "evidence": [("evidence", {"method": m, "n_draws": draws})
                     for m in EVIDENCE_METHODS]
                    + [("pmc", {"density_form": "mixture", "q0_scale": 4.0,
                                "particles": particles})],
        "abc": [("abc", {"particles": abc[0], "generations": abc[1]})],
        "replicates": [("gibbs", {"iterations": rep_chain, "replicates": reps}),
                       ("capture", {"iterations": rep_capture,
                                    "replicates": reps})],
    }


WORKLOADS = _workloads(chain=4000, capture=2000, draws=2000, particles=400,
                       abc=(200, 4), rep_chain=1500, rep_capture=600, reps=3)
# passes per run: 11-16 s of experiments on a 2-core shared machine, so
# that a 16-s run rarely stops early and a seed always means the same inputs
PASSES = {"chains": 5, "evidence": 3, "abc": 5, "replicates": 5}
TINY = _workloads(chain=400, capture=300, draws=200, particles=150,
                  abc=(100, 2), rep_chain=200, rep_capture=150, reps=2)


@dataclass
class Op:
    """One experiment call of a pass and what its outputs showed."""

    experiment: str
    config: dict
    out: Path
    seconds: float = 0.0
    code: int = -1
    attempted: int = 1
    failed: int = 0
    bad_rows: int = 0
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def run_pass(workload, seed, workdir, calibrate, sizes=WORKLOADS,
             main=cli.main):
    """Run the workload's experiments once.  Returns the ops, the pass's
    seconds (the sum of the experiment calls) and the times of
    `calibrate`, which is timed before the first call and after the last."""
    ops = []
    for k, (experiment, config) in enumerate(sizes[workload]):
        op = Op(experiment, dict(config, seed=seed), workdir / f"{k}-{experiment}")
        op.out.mkdir(parents=True)
        (op.out / "config.json").write_text(json.dumps(op.config), encoding="utf-8")
        ops.append(op)
    calibration = [calibrate()]
    for op in ops:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            op.code = main([op.experiment, "--config", str(op.out / "config.json"),
                            "--out", str(op.out)])
        op.seconds = time.perf_counter() - t0
    calibration.append(calibrate())
    return ops, sum(op.seconds for op in ops), calibration


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _min_ess(summary, states):
    """Smallest per-coordinate ESS of the chain: the CLI records it for the
    probit chains; for capture it is computed here."""
    ess = summary["diagnostics"].get("chain_ess")
    if ess is None:
        ess = chain_diagnostics(Chain(states, np.zeros(len(states)), 0, 0))[
            "chain_ess"]
    return float(np.min(ess))


def _off(est, ref, ess):
    """Coordinates whose mean is more than six Monte Carlo errors from the
    reference."""
    return [n for n, m in ref["mean"].items()
            if abs(est[f"mean_{n}"] - m) > 6 * est[f"sd_{n}"] / math.sqrt(ess)]


class Checker:
    """Checks each output against the stored references and extracts the
    values the metrics are made of."""

    def __init__(self, refs):
        self.refs = refs

    def check(self, op):
        try:
            self._check(op)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.problems.append(f"{type(exc).__name__}: {exc}")
        op.failed = op.bad_rows + bool(op.problems)
        if op.bad_rows:
            op.problems.append(f"{op.bad_rows} replicate rows failed")
        return op

    def _fail(self, op, message):
        op.problems.append(message)

    def _check(self, op):
        if op.code != 0:
            return self._fail(op, f"exit code {op.code}")
        summary = json.loads((op.out / "summary.json").read_text(encoding="utf-8"))
        est = summary["estimates"]
        if not all(math.isfinite(v) for v in est.values()):
            return self._fail(op, f"non-finite estimate in {est}")
        getattr(self, "_" + op.experiment.replace("-", "_"))(op, summary)

    def _draws(self, op, rows_expected):
        header, rows = _read_csv(op.out / "draws.csv")
        states = np.asarray(rows, dtype=float)
        if states.shape != (rows_expected, len(header)):
            self._fail(op, f"draws.csv shape {states.shape}")
        return header, states

    def _chain(self, op, summary, ref):
        """Means within six Monte Carlo errors of the reference, SDs within
        a factor of two.  The Monte Carlo error of a mean is the draws' SD
        over the root of the chain's smallest ESS; replicate rows use their
        own SDs with the ESS of replicate 0, which has the same length."""
        names, states = self._draws(op, op.config["iterations"])
        min_ess = _min_ess(summary, states)
        op.values["min_ess"] = op.values["ess"] = min_ess
        for n in _off(summary["estimates"], ref, min_ess):
            self._fail(op, f"mean_{n} is more than six Monte Carlo errors off")
        for n in ref.get("sd", {}):
            ratio = summary["estimates"][f"sd_{n}"] / ref["sd"][n]
            if not 0.5 < ratio < 2.0:
                self._fail(op, f"sd_{n} is {ratio:.3f} of the reference")
        if op.config.get("replicates", 1) > 1:
            header, rows = _read_csv(op.out / "replicates.csv")
            op.attempted += len(rows)
            if len(rows) != op.config["replicates"]:
                self._fail(op, f"{len(rows)} replicate rows")
            for row in rows:
                rec = dict(zip(header, row))
                if rec["status"] != "ok" or _off(
                        {k: float(v) for k, v in rec.items()
                         if k.startswith(("mean_", "sd_"))}, ref, min_ess):
                    op.bad_rows += 1

    def _gibbs(self, op, summary):
        self._chain(op, summary, self.refs["probit3"])

    def _mh(self, op, summary):
        self._chain(op, summary, self.refs["probit2"])

    def _capture(self, op, summary):
        self._chain(op, summary, self.refs["capture"])

    def _mwg(self, op, summary):
        _, states = self._draws(op, op.config["iterations"])
        if not 0.0 < summary["diagnostics"]["acceptance_rate"] < 1.0:
            self._fail(op, "mwg acceptance rate outside (0, 1)")
        op.values["min_ess"] = _min_ess(summary, states)

    def _evidence(self, op, summary):
        method = op.config["method"]
        value = summary["estimates"]["log_b10"]
        se = summary["standard_errors"]["log_b10"]
        ref = self.refs["log_b10"]["value"]
        if not (math.isfinite(se) and se >= 0):
            self._fail(op, f"{method}: standard error {se}")
        elif method != "harmonic-nr" and abs(value - ref) > 6 * se + 0.1:
            self._fail(op, f"{method}: log B10 {value} +- {se} vs {ref}")
        op.values.update(log_b10=value, se=se)
        if method in ESS_METHODS and se > 0:
            # draws per model the reference importance sampler would need
            # for the same standard error
            op.values["ess"] = (self.refs["log_b10"]["sd_per_draw"] / se) ** 2

    def _pmc(self, op, summary):
        defaults = cli._DEFAULTS["pmc"]
        est = summary["estimates"]
        for n in ("mu1", "mu2"):
            if abs(est[f"mean_{n}"] - defaults[n]) > 0.5:
                self._fail(op, f"pmc mean_{n}={est[f'mean_{n}']}")
        self._draws(op, op.config["particles"])
        op.values["final_ess"] = float(
            summary["diagnostics"][f"ess_iteration_{defaults['generations'] - 1}"])

    def _abc(self, op, summary):
        """Means within one posterior SD of the reference.  The SDs are not
        checked: the sampler's known collapse to a point mass shows in
        ``abc.sd_rel_err`` instead."""
        ref = self.refs["probit3"]
        est = summary["estimates"]
        self._draws(op, op.config["particles"])
        mean_err, sd_err = [], []
        for n, m in ref["mean"].items():
            if abs(est[f"mean_{n}"] - m) > ref["sd"][n]:
                self._fail(op, f"abc mean_{n}={est[f'mean_{n}']} vs {m}")
            mean_err.append(abs(est[f"mean_{n}"] - m) / abs(m))
            sd_err.append(abs(est[f"sd_{n}"] - ref["sd"][n]) / ref["sd"][n])
        ess = summary["diagnostics"]["ess"]
        if not ess > 10:
            self._fail(op, f"abc ESS {ess}")
        op.values.update(ess=float(ess), mean_rel_err=max(mean_err),
                         sd_rel_err=max(sd_err))


def ess_per_s(passes):
    """Geometric mean, over the workload's samplers, of effective samples
    per second, each pooled over the run: the sampler's effective samples
    summed over the passes, over the seconds its experiment took in them.
    A chain's effective samples are its minimum-over-coordinates ESS, an
    ABC population's its importance ESS, and an evidence estimate's the
    number of reference importance draws that would give its standard
    error."""
    ess, seconds = {}, {}
    for ops in passes:
        for op in ops:
            if op.experiment in ESS_EXPERIMENTS and "ess" in op.values:
                key = (op.experiment, op.config.get("method"))
                ess[key] = ess.get(key, 0.0) + op.values["ess"]
                seconds[key] = seconds.get(key, 0.0) + op.seconds
    logs = [math.log(ess[k] / seconds[k]) for k in ess]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def output_metrics(ops):
    """Per-layer values read off one pass's outputs and timings."""
    m = {}
    by = {op.experiment: op for op in ops}

    def value(experiment, key):
        return by[experiment].values.get(key, 0.0) if experiment in by else 0.0

    for name in ("gibbs", "mh", "mwg", "capture"):
        m[f"mcmc.min_ess.{name}"] = value(name, "min_ess")
    for name, key in (("gibbs", "mcmc.gibbs_ess_per_s"),
                      ("mh", "mcmc.mh_ess_per_s"),
                      ("capture", "capture.ess_per_s")):
        m[key] = value(name, "ess") / by[name].seconds if name in by else 0.0
    logs = {}
    for method in EVIDENCE_METHODS:
        op = next((o for o in ops if o.config.get("method") == method), None)
        m[f"evidence.{method}.se"] = op.values.get("se", 0.0) if op else 0.0
        if op and method in SPREAD_METHODS and "log_b10" in op.values:
            logs[method] = op.values["log_b10"]
    m["evidence.log_b10_spread"] = (max(logs.values()) - min(logs.values())
                                    if len(logs) == len(SPREAD_METHODS) else 0.0)
    m["pmc.final_ess"] = value("pmc", "final_ess")
    m["abc.mean_rel_err"] = value("abc", "mean_rel_err")
    m["abc.sd_rel_err"] = value("abc", "sd_rel_err")
    return m


def same_outputs(a, b):
    """Byte-identical draws/replicates files and identical summaries apart
    from the recorded runtime.  Returns a list of differences."""
    diffs = []
    for x, y in zip(a, b):
        for name in ("draws.csv", "replicates.csv"):
            px, py = x.out / name, y.out / name
            if px.exists() != py.exists() or (
                    px.exists() and px.read_bytes() != py.read_bytes()):
                diffs.append(f"{x.experiment}: {name} differs")
        sx, sy = (json.loads((o.out / "summary.json").read_text(encoding="utf-8"))
                  for o in (x, y))
        sx.pop("runtime_seconds", None)
        sy.pop("runtime_seconds", None)
        if sx != sy:
            diffs.append(f"{x.experiment}: summary.json differs")
    return diffs

"""Experiment runner.

One command per paper-style experiment, driven by a JSON config with flag
overrides.  Every run writes a schema-versioned ``summary.json`` plus a
``draws.csv`` of retained states or weighted particles, and replicated
runs add a ``replicates.csv`` (one row per replicate, the raw material of
the usual boxplot comparisons).  Outputs are deterministic functions of
(config, seed) up to the recorded runtime; replicate r runs on the stream
with id r, so replicates are reproducible in isolation.  Replicates run on
the calling thread; there is no thread setting.  `gibbs` and `capture`
advance all R replicate chains in lockstep, one stream per chain, in a
single run whose row 0 is the main run, and such a run fails as a whole;
every other experiment runs its replicates one after another, recording a
failed replicate and going on.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

from .abc import AbcConfig, probit_abc
from .capture import CaptureModel, capture_gibbs_lockstep, capture_gibbs_run, n_max_tail_mass
from .core import RngStream
from .datasets import bundled_pima_path, load_pima
from .evidence import (
    LinearGaussianOmega,
    PhiSpec,
    bf_importance,
    bf_prior_mc,
    bridge_embedded,
    chib_marginal,
    harmonic_mean_gd,
    newton_raftery_hm,
)
from .mcmc import (
    chain_diagnostics,
    gibbs_chain,
    mwg_probit_overparam_run,
    probit_gibbs_lockstep,
    probit_gibbs_run,
    rw_mh_run,
)
from .mixture import MixtureTarget, mixture_bayes_model, simulate_mixture_data
from .model import log_posterior
from .montecarlo import GaussianProposal, ess
from .pmc import default_kernel_bank, pmc_run
from .probit import (
    ProbitModel,
    probit_bayes_model,
    probit_latent_completion,
    probit_loglik,
    probit_loglik_many,
    probit_mle,
)

__all__ = ["main", "run_experiment", "replicate", "ConfigError"]

SCHEMA_VERSION = 1
_COVARIATE_INDEX = {"glu": 0, "bp": 1, "ped": 2}

_COMMON_DEFAULTS = {"seed": 0, "data": None, "replicates": 1, "burn_in": 0,
                    "thin": 1}

# per experiment, its own config keys and their defaults
_DEFAULTS = {
    "mle": {},
    "mh": {"iterations": 10_000, "scale_multiplier": 1.0,
           "covariates": ["glu", "bp"]},
    "gibbs": {"iterations": 10_000, "covariates": ["glu", "bp", "ped"]},
    "mwg": {"iterations": 10_000, "covariate": "glu", "beta_step_var": 1.0,
            "logsigma_step_var": 0.04},
    "pmc": {"particles": 1000, "generations": 5, "n_data": 500, "weight": 0.7,
            "mu1": 0.0, "mu2": 2.5, "sigma2": 1.0, "q0_scale": 25.0,
            "density_form": "conditional"},
    "evidence": {"method": "importance", "n_draws": 10_000, "coverage": 0.25},
    "abc": {"particles": 2000, "generations": 10, "quantile": 0.1},
    "capture": {"n1": 22, "c2": 11, "c3": 6, "n_max": None,
                "iterations": 10_000},
    "mixture-demo": {"iterations": 1000, "tau": 1.0, "n_data": 500,
                     "weight": 0.7, "mu1": 0.0, "mu2": 2.5, "sigma2": 1.0},
}


class ConfigError(ValueError):
    pass


def resolve_config(experiment: str, raw: dict) -> dict:
    """Merge defaults with the user config, rejecting unknown keys."""
    if experiment not in _DEFAULTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    config = {**_COMMON_DEFAULTS, **_DEFAULTS[experiment]}
    unknown = sorted(set(raw) - set(config))
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {unknown}")
    config.update(raw)
    if config["replicates"] < 1:
        raise ConfigError("replicates must be at least 1")
    if config["burn_in"] < 0 or config["thin"] < 1:
        raise ConfigError("burn_in must be >= 0 and thin >= 1")
    if "iterations" in config:
        kept = len(range(config["burn_in"], config["iterations"], config["thin"]))
        if kept < 2:
            # the reported SDs need at least two kept states
            raise ConfigError(
                f"burn_in {config['burn_in']}, thin {config['thin']} and "
                f"iterations {config['iterations']} keep {kept} states; "
                "at least 2 are needed")
    return config


def _pima_model(config, covariates) -> ProbitModel:
    path = config["data"] or bundled_pima_path()
    full = load_pima(path)
    cols = [_COVARIATE_INDEX[c] for c in covariates]
    if cols == [0, 1, 2]:
        return full
    return ProbitModel(design=full.design[:, cols], response=full.response)


def _postprocess(states: np.ndarray, config) -> np.ndarray:
    return states[config["burn_in"]::config["thin"]]


def _chain_estimates(states, names):
    estimates = {f"mean_{n}": float(states[:, i].mean())
                 for i, n in enumerate(names)}
    estimates.update({f"sd_{n}": float(states[:, i].std(ddof=1))
                      for i, n in enumerate(names)})
    return estimates


def _chain_result(chain, names, config):
    states = _postprocess(chain.states, config)
    estimates = _chain_estimates(states, names)
    # the diagnostics describe the same burned-in, thinned states
    diag = chain_diagnostics(replace(chain, states=states)) if len(states) >= 100 else {}
    diagnostics = {"acceptance_rate": chain.acceptance_rate}
    if diag:
        diagnostics["iact"] = diag["iact"]
        diagnostics["chain_ess"] = diag["chain_ess"]
    diagnostics.update({k: v for k, v in chain.proposal_meta.items()
                        if isinstance(v, (int, float, str))})
    return estimates, {}, diagnostics, (list(names), states)


def _run_mle(config, rng):
    model = _pima_model(config, ["glu", "bp", "ped"])
    beta, cov = probit_mle(model)
    se = np.sqrt(np.diag(cov))
    names = ["glu", "bp", "ped"]
    estimates = {f"coef_{n}": float(b) for n, b in zip(names, beta)}
    estimates["residual_deviance"] = -2.0 * probit_loglik(model, beta)
    estimates["null_deviance"] = 2.0 * model.n_obs * np.log(2.0)
    std_errors = {f"coef_{n}": float(s) for n, s in zip(names, se)}
    return estimates, std_errors, {"n_obs": model.n_obs}, None


def _run_mh(config, rng):
    model = _pima_model(config, config["covariates"])
    beta, cov = probit_mle(model)
    target = probit_bayes_model(model)
    chain = rw_mh_run(target, config["scale_multiplier"] * cov, beta,
                      config["iterations"], rng)
    return _chain_result(chain, config["covariates"], config)


def _run_gibbs(config, rng):
    model = _pima_model(config, config["covariates"])
    chain, _ = probit_gibbs_run(model, config["iterations"], rng)
    return _chain_result(chain, config["covariates"], config)


def _replicate_gibbs(config, rngs):
    """All replicates as one lockstep run, chain r on stream ``rngs[r]``.
    Returns the main run's result (chain 0) and the estimates of the
    other chains, which get no diagnostics."""
    model = _pima_model(config, config["covariates"])
    states, _ = probit_gibbs_lockstep(model, config["iterations"], rngs)
    names = config["covariates"]
    result = _chain_result(gibbs_chain(states[0]), names, config)
    return result, [_chain_estimates(_postprocess(s, config), names)
                    for s in states[1:]]


def _run_mwg(config, rng):
    model = _pima_model(config, ["glu", "bp", "ped"])
    x = model.design[:, _COVARIATE_INDEX[config["covariate"]]]
    chain = mwg_probit_overparam_run(x, model.response, config["iterations"],
                                     rng, config["beta_step_var"],
                                     config["logsigma_step_var"])
    return _chain_result(chain, ["beta", "sigma2"], config)


def _mixture_target(config, rng):
    data = simulate_mixture_data(config["mu1"], config["mu2"], config["weight"],
                                 config["sigma2"], config["n_data"],
                                 rng.child(1_000_003))
    return MixtureTarget(data=data, weight=config["weight"],
                         sigma2=config["sigma2"])


def _run_pmc(config, rng):
    target = mixture_bayes_model(_mixture_target(config, rng))
    q0 = GaussianProposal.from_moments(np.zeros(2),
                                       config["q0_scale"] * np.eye(2))
    bank = default_kernel_bank(np.eye(2))
    pops = pmc_run(target, q0, bank, config["particles"],
                   config["generations"], rng,
                   density_form=config["density_form"])
    final = pops[-1].weighted_sample()
    w = final.normalized_weights()
    estimates = {"mean_mu1": float(w @ final.points[:, 0]),
                 "mean_mu2": float(w @ final.points[:, 1])}
    diagnostics = {f"ess_iteration_{p.iteration}": ess(p.weighted_sample())
                   for p in pops}
    draws = (["mu1", "mu2", "log_weight"],
             np.column_stack([final.points, final.log_weights]))
    return estimates, {}, diagnostics, draws


def _evidence_models(config):
    model1p = _pima_model(config, ["glu", "bp", "ped"])
    model0p = ProbitModel(design=model1p.design[:, :2],
                          response=model1p.response)
    return model0p, model1p


def _run_evidence(config, rng):
    """Log Bayes factor of the 3-covariate against the 2-covariate probit."""
    model0p, model1p = _evidence_models(config)
    model0, model1 = probit_bayes_model(model0p), probit_bayes_model(model1p)
    method = config["method"]
    n = config["n_draws"]
    if method == "prior-mc":
        est = bf_prior_mc(model1, model0, n, n, rng)
        log_b10, se = est.log_value, est.std_error
    elif method == "importance":
        g0 = GaussianProposal.from_moments(*probit_mle(model0p), scale=2.0)
        g1 = GaussianProposal.from_moments(*probit_mle(model1p), scale=2.0)
        est = bf_importance(model1, model0, g1, g0, n, n, rng)
        log_b10, se = est.log_value, est.std_error
    elif method in ("harmonic-gd", "harmonic-nr"):
        parts = []
        for i, (mp, m) in enumerate([(model1p, model1), (model0p, model0)]):
            chain, _ = probit_gibbs_run(mp, n, rng.child(i))
            if method == "harmonic-gd":
                phi = PhiSpec.from_sample(chain.states, config["coverage"])
                parts.append(harmonic_mean_gd(
                    lambda b, m=m: log_posterior(m, b), chain.states, phi))
            else:
                parts.append(newton_raftery_hm(
                    lambda b, mp=mp: probit_loglik_many(mp, b), chain.states))
        log_b10 = parts[0].log_value - parts[1].log_value
        se = float(np.hypot(parts[0].std_error, parts[1].std_error))
    elif method == "chib":
        parts = []
        for i, mp in enumerate([model1p, model0p]):
            chain, xtz = probit_gibbs_run(mp, n, rng.child(i), keep_xtz=True)
            parts.append(chib_marginal(probit_bayes_model(mp),
                                       probit_latent_completion(mp),
                                       xtz, param_draws=chain.states))
        log_b10 = parts[0].log_value - parts[1].log_value
        se = float(np.hypot(parts[0].std_error, parts[1].std_error))
    elif method == "bridge-embedded":
        chain0, _ = probit_gibbs_run(model0p, n, rng.child(0))
        chain1, _ = probit_gibbs_run(model1p, n, rng.child(1))
        omega = LinearGaussianOmega.fit(chain1.states[:, :2],
                                        chain1.states[:, 2])
        est = bridge_embedded(model0, model1, np.zeros(1), omega,
                              chain0.states, chain1.states, rng.child(2))
        log_b10, se = -est.log_value, est.std_error
    else:
        raise ConfigError(f"unknown evidence method {method!r}")
    return ({"log_b10": float(log_b10)}, {"log_b10": float(se)},
            {"method": method, "n_draws": n}, None)


def _run_abc(config, rng):
    model = _pima_model(config, ["glu", "bp", "ped"])
    abc_config = AbcConfig(n_output=config["particles"],
                           quantile=config["quantile"])
    pop = probit_abc(model, abc_config, rng,
                     n_generations=config["generations"])
    w = pop.weighted_sample().normalized_weights()
    names = ["glu", "bp", "ped"]
    means = w @ pop.particles
    sds = np.sqrt(w @ (pop.particles - means) ** 2)
    estimates = {f"mean_{n}": float(m) for n, m in zip(names, means)}
    estimates.update({f"sd_{n}": float(s) for n, s in zip(names, sds)})
    diagnostics = {"epsilon": pop.epsilon, "generation": pop.t,
                   "acceptance_rate": len(pop) / pop.n_proposals,
                   "abandoned_proposals": pop.abandoned_proposals,
                   "ess": ess(pop.weighted_sample())}
    draws = (names + ["log_weight"],
             np.column_stack([pop.particles, pop.log_weights]))
    return estimates, {}, diagnostics, draws


def _capture_model(config) -> CaptureModel:
    kwargs = {"n1": config["n1"], "c2": config["c2"], "c3": config["c3"]}
    if config["n_max"] is not None:
        kwargs["n_max"] = config["n_max"]
    return CaptureModel(**kwargs)


_CAPTURE_NAMES = ("N", "p", "q", "r1", "r2")


def _capture_states(out, config):
    """The kept states of one capture chain, `out` its dict of 1-D arrays."""
    return _postprocess(np.column_stack([out[k] for k in _CAPTURE_NAMES]), config)


def _capture_result(model, out, config):
    states = _capture_states(out, config)
    estimates = _chain_estimates(states, _CAPTURE_NAMES)
    # the largest mass of N | p beyond n_max over the kept sweeps, so a
    # truncation that matters shows in the summary and not only on stderr
    tail = float(np.max(n_max_tail_mass(model, states[:, 1]), initial=0.0))
    # block proposals turned down for N > n_max in the same kept sweeps
    refusals = int(_postprocess(out["refused"], config).sum())
    diagnostics = {"n_max": model.n_max, "n_max_tail_mass": tail,
                   "n_max_refusals": refusals}
    return estimates, {}, diagnostics, (list(_CAPTURE_NAMES), states)


def _run_capture(config, rng):
    model = _capture_model(config)
    return _capture_result(model, capture_gibbs_run(model, config["iterations"], rng), config)


def _replicate_capture(config, rngs):
    """All replicates as one lockstep run, chain r on stream ``rngs[r]``.
    Returns the main run's result (chain 0) and the estimates of the
    other chains, which get no diagnostics."""
    model = _capture_model(config)
    out = capture_gibbs_lockstep(model, config["iterations"], rngs)
    first, *others = ({k: v[r] for k, v in out.items()} for r in range(len(rngs)))
    return _capture_result(model, first, config), [
        _chain_estimates(_capture_states(chain, config), _CAPTURE_NAMES) for chain in others]


def _run_mixture_demo(config, rng):
    """Random-walk exploration of the bimodal mean posterior, started at
    the spurious (label-swapped) mode; reports whether the chain escaped
    to within 0.5 of the major mode."""
    target = mixture_bayes_model(_mixture_target(config, rng))
    major = np.array([config["mu1"], config["mu2"]])
    start = np.array([config["mu2"], config["mu1"]])
    cov = config["tau"] ** 2 * np.eye(2)
    chain = rw_mh_run(target, cov, start, config["iterations"], rng)
    states = _postprocess(chain.states, config)
    dists = np.linalg.norm(states - major, axis=1)
    estimates = {"min_distance_to_major_mode": float(dists.min()),
                 "escaped": float(bool(np.any(dists <= 0.5)))}
    diagnostics = {"acceptance_rate": chain.acceptance_rate,
                   "tau": config["tau"]}
    return estimates, {}, diagnostics, (["mu1", "mu2"], states)


_RUNNERS = {
    "mle": _run_mle,
    "mh": _run_mh,
    "gibbs": _run_gibbs,
    "mwg": _run_mwg,
    "pmc": _run_pmc,
    "evidence": _run_evidence,
    "abc": _run_abc,
    "capture": _run_capture,
    "mixture-demo": _run_mixture_demo,
}

# experiments whose replicates run as one lockstep call over all R streams
_LOCKSTEP_REPLICATES = {
    "gibbs": _replicate_gibbs,
    "capture": _replicate_capture,
}


def run_experiment(experiment: str, config: dict, stream_id: int = 0):
    """One resolved-config run on the given stream.  Returns
    (estimates, std_errors, diagnostics, draws)."""
    rng = RngStream(config["seed"], stream_id)
    return _RUNNERS[experiment](config, rng)


def replicate(experiment: str, config: dict):
    """Run replicates 1..R-1 in stream order on the calling thread
    (replicate 0 is the main run on stream 0); failures are recorded per
    replicate and do not stop the rest.  This is the path of experiments
    without a lockstep runner (`_LOCKSTEP_REPLICATES`)."""
    n_rep = config["replicates"]
    if n_rep < 2:
        raise ConfigError("replicate runs need replicates >= 2")
    rows = []
    for r in range(1, n_rep):
        try:
            est, _, _, _ = run_experiment(experiment, config, stream_id=r)
            rows.append({"replicate": r, "status": "ok", "estimates": est})
        except Exception as exc:  # recorded per-row, run continues
            rows.append({"replicate": r, "status": "error",
                         "error": f"{type(exc).__name__}: {exc}"})
    return rows


def _replicate_stats(rows):
    ok = [r for r in rows if r["status"] == "ok"]
    if not ok:
        return {"count": len(rows), "failed": len(rows)}
    keys = sorted(ok[0]["estimates"])
    values = {k: np.array([r["estimates"][k] for r in ok]) for k in keys}
    return {
        "count": len(rows),
        "failed": len(rows) - len(ok),
        "mean": {k: float(v.mean()) for k, v in values.items()},
        "sd": {k: float(v.std(ddof=1)) if len(v) > 1 else 0.0
               for k, v in values.items()},
    }


def _jsonify(obj):
    """Recursively coerce numpy scalars so json.dump accepts the summary,
    writing every non-finite float (a Gibbs chain's NaN acceptance rate, an
    infinite IACT) as null so the file stays strict JSON."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write_draws_csv(path, header, rows):
    # dtype=float keeps integer columns written as floats ("3.0"); the csv
    # module writes floats by repr, so they round-trip exactly
    values = np.atleast_2d(np.asarray(rows, dtype=float)).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(values)


def _write_replicates_csv(path, rows):
    keys = sorted({k for r in rows if r["status"] == "ok"
                   for k in r["estimates"]})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "status"] + keys + ["error"])
        for r in sorted(rows, key=lambda r: r["replicate"]):
            est = r.get("estimates", {})
            writer.writerow(
                [r["replicate"], r["status"]]
                + [float(est[k]) if k in est else "" for k in keys]
                + [r.get("error", "")])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bayescomp",
        description="Bayesian computation experiment runner")
    parser.add_argument("experiment", choices=sorted(_RUNNERS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--data", help="input CSV")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--burn-in", type=int, dest="burn_in")
    parser.add_argument("--thin", type=int)
    parser.add_argument("--debug", action="store_true",
                        help="on error, also print the traceback to stderr")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object")
        for key in _COMMON_DEFAULTS:
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
        config = resolve_config(args.experiment, raw)

        os.makedirs(args.out, exist_ok=True)
        start = time.monotonic()
        n_rep = config["replicates"]
        if n_rep > 1 and args.experiment in _LOCKSTEP_REPLICATES:
            rngs = [RngStream(config["seed"], r) for r in range(n_rep)]
            result, others = _LOCKSTEP_REPLICATES[args.experiment](config, rngs)
            rows = [{"replicate": r, "status": "ok", "estimates": est}
                    for r, est in enumerate(others, start=1)]
        else:
            result = run_experiment(args.experiment, config, stream_id=0)
            rows = replicate(args.experiment, config) if n_rep > 1 else []
        estimates, std_errors, diagnostics, draws = result
        summary = {
            "schema_version": SCHEMA_VERSION,
            "experiment": args.experiment,
            "seed": config["seed"],
            "config": {k: v for k, v in config.items()},
            "estimates": estimates,
            "standard_errors": std_errors,
            "diagnostics": diagnostics,
        }
        if n_rep > 1:
            rows.insert(0, {"replicate": 0, "status": "ok",
                            "estimates": estimates})
            summary["replicates"] = _replicate_stats(rows)
            _write_replicates_csv(os.path.join(args.out, "replicates.csv"),
                                  rows)
        summary["runtime_seconds"] = time.monotonic() - start
        if draws is not None:
            _write_draws_csv(os.path.join(args.out, "draws.csv"), *draws)
        with open(os.path.join(args.out, "summary.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(_jsonify(summary), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        print(f"{args.experiment}: wrote {os.path.join(args.out, 'summary.json')}")
        return 0
    except Exception as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        if args.debug:
            traceback.print_exc(file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

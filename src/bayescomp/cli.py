"""Experiment runner.

One command per paper-style experiment, driven by a JSON config with flag
overrides.  Every run writes a schema-versioned ``summary.json`` plus a
``draws.csv`` of retained states or weighted particles, and replicated
runs add a ``replicates.csv`` (one row per replicate, the raw material of
the usual boxplot comparisons).  Outputs are deterministic functions of
(config, seed) up to the recorded runtime.

Every experiment has one runner, ``runner(config, rngs) -> (result,
others)``, called once on the calling thread with the streams of all R
replicates, replicate r on ``RngStream(seed, r)``.  ``result`` is stream
0's (estimates, std_errors, diagnostics, draws); ``others`` holds, per
stream 1..R-1, its estimates or the exception that ended it (an ``error``
row).  Stream r gives what a run of its own on stream r gives.  A chain
experiment reads its kept states as one (R, n_kept, k) array, row 0 the
only chain given its IACT and chain ESS, and fails as a whole.  `capture`
is no chain: `capture_draws` gives its R streams' independent exact draws
as one (R, n, 6) array, with nothing to burn in or thin, and stream 0's
means carry the standard error sd/sqrt(n) in place of an IACT.
`montecarlo.sample_estimates` makes every sample mean, SD and error: `abc`
writes its self-normalised errors, the chains and `pmc` none yet.  A probit
Gibbs chain on stream s draws nothing on s itself: its uniforms come from
``s.child(0)`` and its normals from ``s.child(1)``, a block of sweeps
ahead (`probit_gibbs_groups`).  `mle` and `evidence`'s importance
proposals are fitted once per run.  The four chain-based `evidence`
routes run one two-group lockstep (`probit_gibbs_groups`) of R chains
per model, the 3-covariate model on ``rng_r.child(0)`` and the
2-covariate one on ``rng_r.child(1)``, which fails as a whole; their
estimators then run per stream.  A process keeps the last such pair,
read-only, so the chain routes run in one process at one data set, seed,
`n_draws` and `replicates` share one Gibbs call.
Every `evidence` method ends in one estimate of log B10, written with its
``unreliable`` flag and ``weight_ess``, the smaller of its two evidences'
weight ESS.

A config is resolved in full before any output is written.  It holds
exactly the keys its runner reads, each declared once in `_KEYS` with its
default and values (``bayescomp --help`` lists them).  Any other key or
value, and values that break a rule spanning keys, is a `ConfigError` that
names its key.  The `--out` directory is made only once the runner has
returned, so a run that fails, on its config or at run time, leaves none.
A run's warnings are shown as usual and listed in its ``warnings``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
import traceback
import warnings
from dataclasses import replace

import numpy as np

from .abc import _ACCEPT_FLOOR, _MIN_OUTPUT, AbcConfig, probit_abc
from .capture import _TAIL_WARN, CAPTURE_COLUMNS, CaptureModel, capture_draws, n_max_tail_mass
from .core import _U64, DegenerateWeightsError, RngStream
from .datasets import bundled_pima_path, load_pima
from .evidence import (
    LinearGaussianOmega,
    PhiSpec,
    bayes_factor,
    bf_importance,
    bf_prior_mc,
    bridge_embedded,
    chib_marginal,
    harmonic_mean_gd,
    newton_raftery_hm,
)
from .mcmc import (
    Chain,
    chain_diagnostics,
    mwg_probit_overparam_run,
    probit_gibbs_groups,
    rw_mh_run,
)
from .mixture import MixtureTarget, mixture_bayes_model, simulate_mixture_data
from .model import log_posterior
from .montecarlo import GaussianProposal, ess, sample_estimates
from .pmc import DENSITY_FORMS, default_kernel_bank, pmc_run
from .probit import (
    ProbitModel,
    probit_bayes_model,
    probit_latent_completion,
    probit_loglik,
    probit_mle,
)

__all__ = ["main", "run_experiment", "replicate", "ConfigError"]

SCHEMA_VERSION = 1
_COVARIATE_INDEX = {"glu": 0, "bp": 1, "ped": 2}
# rows of draws.csv formatted per write
_DRAWS_BLOCK_ROWS = 4096
# the `evidence` routes that estimate each model's evidence from its own
# chain: evidence(probit model, its BayesModel, states, Gibbs means, config)
_PER_MODEL_EVIDENCE = {
    "harmonic-gd": lambda mp, m, states, means, config: harmonic_mean_gd(
        lambda b: log_posterior(m, b), states,
        PhiSpec.from_sample(states, config["coverage"])),
    "harmonic-nr": lambda mp, m, states, means, config: newton_raftery_hm(
        m.log_likelihood, states),
    "chib": lambda mp, m, states, means, config: chib_marginal(
        m, probit_latent_completion(mp).log_full_conditional_param, means,
        states.mean(axis=0)),
}
# the methods that _run_evidence dispatches on
_EVIDENCE_METHODS = ("prior-mc", "importance", *_PER_MODEL_EVIDENCE, "bridge-embedded")


# a config key's kind: (the text of what its values are, their test); no
# kind takes a bool, nor a real kind a string, NaN or an infinity
def _integer(lo, hi=None):
    return (f"an integer >= {lo}" if hi is None else f"an integer from {lo} to {hi}",
            lambda v: type(v) is int and lo <= v and (hi is None or v <= hi))


def _real(bounds="", within=lambda v: True):
    return ("a finite real" + bounds, lambda v: type(v) in (int, float)
            and abs(v) <= sys.float_info.max and within(v))


def _choice(options):
    return f"one of {list(options)}", lambda v: isinstance(v, str) and v in options


_COVARIATE = _choice(_COVARIATE_INDEX)
_COVARIATES = (f"a non-empty list of distinct names from {list(_COVARIATE_INDEX)}",
               lambda v: type(v) is list and v != [] and all(map(_COVARIATE[1], v))
               and len(set(v)) == len(v))
_POSITIVE = _real(" > 0", lambda v: v > 0)
_N_MAX = ("an integer >= 1 or null", lambda v: v is None or type(v) is int and v >= 1)

# per config key, its default and kind: the keys of every experiment
_COMMON = {"seed": (0, _integer(0, _U64)), "replicates": (1, _integer(1))}
# the pima experiments' data file, None for the bundled one
_PIMA = {"data": (None, ("a non-empty path string or null",
                         lambda v: v is None or type(v) is str and v != ""))}
# a chain experiment's burn-in and thinning of its states
_CHAIN = {"burn_in": (0, _integer(0)), "thin": (1, _integer(1))}
# the simulated data of pmc and mixture-demo
_MIXTURE = {"n_data": (500, _integer(0)),
            "weight": (0.7, _real(" in (0, 1)", lambda v: 0 < v < 1)),
            "mu1": (0.0, _real()), "mu2": (2.5, _real()),
            "sigma2": (1.0, _real(" > 0 whose reciprocal is finite",
                                  lambda v: v > 0 and 1.0 / v < np.inf))}
# evidence by harmonic-gd alone: the mass of its truncation ellipsoid, and
# draws enough for a nonsingular scatter of the 3-covariate chain (its
# dimension + 1)
_HARMONIC_GD = {"coverage": (0.25, _real(" in (0, 1]", lambda v: 0 < v <= 1)),
                "n_draws": (10_000, _integer(4))}
# per experiment, its own keys
_KEYS = {
    "mle": {**_PIMA},
    "mh": {**_PIMA, **_CHAIN, "iterations": (10_000, _integer(0)),
           "scale_multiplier": (1.0, _POSITIVE),
           "covariates": (["glu", "bp"], _COVARIATES)},
    "gibbs": {**_PIMA, **_CHAIN, "iterations": (10_000, _integer(0)),
              "covariates": (["glu", "bp", "ped"], _COVARIATES)},
    "mwg": {**_PIMA, **_CHAIN, "iterations": (10_000, _integer(0)),
            "covariate": ("glu", _COVARIATE), "beta_step_var": (1.0, _POSITIVE),
            "logsigma_step_var": (0.04, _real(" > 0 whose 4-fold is finite",
                                              lambda v: 0 < 4.0 * v < np.inf))},
    "pmc": {"particles": (1000, _integer(2)), "generations": (5, _integer(1)),
            **_MIXTURE, "q0_scale": (25.0, _POSITIVE),
            "density_form": ("conditional", _choice(DENSITY_FORMS))},
    "evidence": {**_PIMA, "method": ("importance", _choice(_EVIDENCE_METHODS)),
                 "n_draws": (10_000, _integer(2))},
    "abc": {**_PIMA, "particles": (2000, _integer(_MIN_OUTPUT)),
            "generations": (10, _integer(2)),
            "quantile": (0.1, _real(f" in [{_ACCEPT_FLOOR}, 1]",
                                    lambda v: _ACCEPT_FLOOR <= v <= 1))},
    # capture keeps every one of its independent draws; its SDs need two
    "capture": {"n1": (22, _integer(1)), "c2": (11, _integer(0)),
                "c3": (6, _integer(0)), "n_max": (None, _N_MAX),
                "iterations": (10_000, _integer(2))},
    "mixture-demo": {**_CHAIN, "iterations": (1000, _integer(0)),
                     "tau": (1.0, _real(" > 0 whose square is finite and > 0",
                                        lambda v: v > 0 and 0 < float(v) * v < np.inf)),
                     **_MIXTURE},
}
# per experiment, its own config keys and their defaults
_DEFAULTS = {e: {k: d for k, (d, _) in keys.items()} for e, keys in _KEYS.items()}
# the config keys that have a flag of their own
_FLAG_KEYS = ("seed", "data", "replicates", "burn_in", "thin")


class ConfigError(ValueError):
    pass


def resolve_config(experiment: str, raw: dict) -> dict:
    """Merge defaults with the user config, refusing by name unknown keys,
    values outside their key's kind and breaks of a rule that spans keys."""
    if experiment not in _KEYS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    keys = {**_COMMON, **_KEYS[experiment]}
    if experiment == "evidence" and raw.get("method") == "harmonic-gd":
        keys.update(_HARMONIC_GD)
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {unknown}")
    config = {key: raw.get(key, default) for key, (default, _) in keys.items()}
    for key, (_, (text, ok)) in keys.items():
        if not ok(config[key]):
            raise ConfigError(f"{key} must be {text}, got {config[key]!r}")
    if "burn_in" in config:  # kept: len(range(burn_in, iterations, thin)) at any size
        kept = max(0, -((config["burn_in"] - config["iterations"]) // config["thin"]))
        if kept < 2:  # the reported SDs need two
            raise ConfigError(f"burn_in {config['burn_in']}, thin {config['thin']} and "
                              f"iterations {config['iterations']} keep {kept} states; "
                              "at least 2 are needed")
    if "n_max" in config:  # capture's counts nest: c2 <= n1 <= n_max
        if config["c2"] > config["n1"]:
            raise ConfigError(f"c2 {config['c2']} exceeds n1 {config['n1']}")
        if (config["n_max"] or config["n1"]) < config["n1"]:
            raise ConfigError(f"n_max {config['n_max']} is below n1 {config['n1']}")
    return config


@functools.cache
def _bundled_pima() -> ProbitModel:
    return load_pima(bundled_pima_path())


# the last chain pair that _chain_pair drew: (its key, its read-only runs)
_last_chain_pair = None


def _chain_pair(model1p, model0p, rngs, n_draws):
    """The (states, means) of `probit_gibbs_groups` over R chains of the
    3-covariate model on ``rng_r.child(0)`` and R of the 2-covariate one on
    ``rng_r.child(1)``, the 2-covariate model being the first two columns
    of the other's design.

    The process keeps the last result, read-only, under the key that fixes
    its draws: the 3-covariate design and response by value, `n_draws`, and
    each chain stream's Philox key and counter read from its generator, so
    a stream built some other way from the same fields still misses.  A
    call that raises stores nothing."""
    global _last_chain_pair
    groups = [(mp, [rng.child(i) for rng in rngs])
              for i, mp in enumerate((model1p, model0p))]
    positions = tuple(
        tuple(int(v) for part in ("key", "counter")
              for v in rng.generator.bit_generator.state["state"][part])
        for _, streams in groups for rng in streams)
    key = (model1p.design.shape, model1p.design.tobytes(),
           model1p.response.tobytes(), n_draws, positions)
    if _last_chain_pair is None or _last_chain_pair[0] != key:
        runs = probit_gibbs_groups(groups, n_draws)
        for arrays in runs:
            for array in arrays:
                array.flags.writeable = False
        _last_chain_pair = key, runs
    return _last_chain_pair[1]


def _pima_model(config, covariates) -> ProbitModel:
    # the bundled file is parsed once per process, a user's file on every run
    full = load_pima(config["data"]) if config["data"] else _bundled_pima()
    cols = [_COVARIATE_INDEX[c] for c in covariates]
    if cols == [0, 1, 2]:
        return full
    return ProbitModel(design=full.design[:, cols], response=full.response)


def _postprocess(states, config) -> np.ndarray:
    """The kept sweeps of R chains' (n_iter, k) states, as one array."""
    return np.asarray(states)[:, config["burn_in"]::config["thin"]]


def _chain_result(kept, names, diagnostics, estimate=None):
    """The result of chain 0 of the kept (R, n_kept, k) states, its IACT
    and chain ESS added to `diagnostics`, and the estimates of chains
    1..R-1.  Below 100 kept states both are None, with an `ess_warning`
    that says why; a coordinate that never moved has an infinite IACT
    (written as null) and a chain ESS of 0, and the `ess_warning` names
    it.  `estimate` maps one chain's states to its estimates; the default
    gives their means and SDs."""
    estimate = estimate or (lambda states: sample_estimates(names, states)[0])
    states = kept[0]
    if len(states) >= 100:
        diag = chain_diagnostics(Chain(states, None, 0, 0))
        diagnostics = {**diagnostics, "iact": diag["iact"],
                       "chain_ess": diag["chain_ess"]}
        frozen = [n for n, t in zip(names, diag["iact"]) if np.isinf(t)]
        if frozen:
            diagnostics["ess_warning"] = (f"{', '.join(frozen)} never moved in the "
                                          f"{len(states)} kept states: no IACT")
    else:
        diagnostics = {**diagnostics, "iact": None, "chain_ess": None,
                       "ess_warning": f"{len(states)} kept states, fewer than the "
                                      "100 that an IACT estimate needs"}
    result = estimate(states), {}, diagnostics, (list(names), states)
    return result, [estimate(s) for s in kept[1:]]


def _each_stream(run, config, streams):
    """run(config, stream) on each stream: the result of the first, then
    per later stream its estimates or the exception that ended it."""
    result, others = run(config, streams[0]), []
    for stream in streams[1:]:
        try:
            others.append(run(config, stream)[0])
        except Exception as exc:  # recorded as that replicate's row
            others.append(exc)
    return result, others


def _run_mle(config, rngs):
    model = _pima_model(config, ["glu", "bp", "ped"])
    beta, cov = probit_mle(model)
    se = np.sqrt(np.diag(cov))
    names = ["glu", "bp", "ped"]
    estimates = {f"coef_{n}": float(b) for n, b in zip(names, beta)}
    estimates["residual_deviance"] = -2.0 * probit_loglik(model, beta)
    estimates["null_deviance"] = 2.0 * model.n_obs * np.log(2.0)
    std_errors = {f"coef_{n}": float(s) for n, s in zip(names, se)}
    result = estimates, std_errors, {"n_obs": model.n_obs}, None
    return result, [estimates] * (len(rngs) - 1)  # the fit draws nothing


def _run_mh(config, rngs):
    model = _pima_model(config, config["covariates"])
    beta, cov = probit_mle(model)
    target = probit_bayes_model(model)
    step = config["scale_multiplier"] * cov
    if not (np.isfinite(step).all() and np.diag(step).min() > 0):  # 0 freezes it
        raise ValueError(f"scale_multiplier {config['scale_multiplier']!r} makes a "
                         "step variance that is 0 or not finite")
    chains = [rw_mh_run(target, step, beta, config["iterations"], rng) for rng in rngs]
    kept = _postprocess([c.states for c in chains], config)
    return _chain_result(kept, config["covariates"], {
        "acceptance_rate": chains[0].acceptance_rate, **chains[0].proposal_meta})


def _run_gibbs(config, rngs):
    model = _pima_model(config, config["covariates"])
    (states, _), = probit_gibbs_groups([(model, rngs)], config["iterations"])
    # a Gibbs sweep has no accept step
    return _chain_result(_postprocess(states, config), config["covariates"],
                         {"acceptance_rate": np.nan,
                          "family": "gibbs-data-augmentation"})


def _run_mwg(config, rngs):
    model = _pima_model(config, ["glu", "bp", "ped"])
    x = model.design[:, _COVARIATE_INDEX[config["covariate"]]]
    chains = [mwg_probit_overparam_run(x, model.response, config["iterations"],
                                       rng, config["beta_step_var"],
                                       config["logsigma_step_var"])
              for rng in rngs]
    kept = _postprocess([c.states for c in chains], config)
    return _chain_result(kept, ["beta", "sigma2"], {
        "acceptance_rate": chains[0].acceptance_rate, **chains[0].proposal_meta})


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
    try:
        pops = pmc_run(target, q0, bank, config["particles"],
                       config["generations"], rng,
                       density_form=config["density_form"])
    except DegenerateWeightsError as exc:  # the first population's two keys
        raise DegenerateWeightsError(f"{exc}; raise particles, or bring q0_scale nearer "
                                     "the posterior's scale") from exc
    final = pops[-1]
    # no error: resampling makes the particles dependent, and the iid
    # delta-method error misreads their replicate SD (ROADMAP item 10)
    estimates, _ = sample_estimates(["mu1", "mu2"], final.points,
                                    final.normalized_weights())
    diagnostics = {f"ess_iteration_{p.iteration}": ess(p) for p in pops}
    draws = (["mu1", "mu2", "log_weight"],
             np.column_stack([final.points, final.log_weights]))
    return estimates, {}, diagnostics, draws


def _run_evidence(config, rngs):
    """Log Bayes factor of the 3-covariate against the 2-covariate probit.

    The four chain routes read one chain pair from `_chain_pair`, which
    keeps the last pair of the process: chain routes run at one data set,
    seed, `n_draws` and `replicates` share one Gibbs call.  It holds
    2·R·`n_draws`·5 doubles (0.8 MB at the defaults), arrays that the run
    had allocated anyway."""
    model1p = _pima_model(config, ["glu", "bp", "ped"])
    model0p = ProbitModel(design=model1p.design[:, :2], response=model1p.response)
    model0, model1 = probit_bayes_model(model0p), probit_bayes_model(model1p)
    method, n = config["method"], config["n_draws"]
    if method == "prior-mc":
        def estimate(r):
            return bf_prior_mc(model1, model0, n, n, rngs[r])
    elif method == "importance":
        g0 = GaussianProposal.from_moments(*probit_mle(model0p), scale=2.0)
        g1 = GaussianProposal.from_moments(*probit_mle(model1p), scale=2.0)

        def estimate(r):
            return bf_importance(model1, model0, g1, g0, n, n, rngs[r])
    else:
        models = [(model1p, model1), (model0p, model0)]
        runs = _chain_pair(model1p, model0p, rngs, n)

        def estimate(r):
            if method == "bridge-embedded":
                (states1, _), (states0, _) = runs
                omega = LinearGaussianOmega.fit(states1[r, :, :2], states1[r, :, 2])
                b01 = bridge_embedded(model0, model1, np.zeros(1), omega,
                                      states0[r], states1[r], rngs[r].child(2))
                return replace(b01, log_value=-b01.log_value)
            evidence = _PER_MODEL_EVIDENCE[method]
            return bayes_factor(*(evidence(mp, m, states[r], means[r], config)
                                  for (mp, m), (states, means) in zip(models, runs)))

    def report(_, r):
        est = estimate(r)
        return ({"log_b10": float(est.log_value)}, {"log_b10": est.std_error},
                {"method": method, "n_draws": n, "unreliable": est.unreliable,
                 "weight_ess": est.weight_ess},
                None)
    return _each_stream(report, config, range(len(rngs)))


def _run_abc(config, rng):
    model = _pima_model(config, ["glu", "bp", "ped"])
    abc_config = AbcConfig(n_output=config["particles"],
                           quantile=config["quantile"])
    pop = probit_abc(model, abc_config, rng,
                     n_generations=config["generations"])
    names = ["glu", "bp", "ped"]
    estimates, std_errors = sample_estimates(names, pop.points, pop.normalized_weights())
    diagnostics = {"epsilon": pop.epsilon, "generation": pop.t,
                   "acceptance_rate": len(pop) / pop.n_proposals,
                   "abandoned_proposals": pop.abandoned_proposals,
                   "ess": ess(pop)}
    draws = (names + ["log_weight"],
             np.column_stack([pop.points, pop.log_weights]))
    return estimates, std_errors, diagnostics, draws


def _run_capture(config, rngs):
    model = CaptureModel(n1=config["n1"], c2=config["c2"], c3=config["c3"],
                         n_max=config["n_max"])
    n = config["iterations"]
    draws = capture_draws(model, n, rngs)
    names = CAPTURE_COLUMNS[:5]  # the state; the last column counts refusals
    # the draws are independent, so a mean's standard error is sd/sqrt(n)
    (estimates, std_errors), *others = [sample_estimates(names, d[:, :5], n_eff=n)
                                        for d in draws]
    # the largest mass of N | p beyond n_max over stream 0's draws, so a
    # truncation that matters shows in the summary and not only on stderr
    tail = float(np.max(n_max_tail_mass(model, draws[0, :, 1]), initial=0.0))
    diagnostics = {"n_draws": n, "n_max": model.n_max, "n_max_tail_mass": tail,
                   "n_max_refusals": int(draws[0, :, 5].sum()),
                   "unreliable": tail > _TAIL_WARN}
    result = estimates, std_errors, diagnostics, (list(names), draws[0, :, :5])
    return result, [est for est, _ in others]


def _run_mixture_demo(config, rngs):
    """Random-walk exploration of the bimodal mean posterior from the
    spurious (label-swapped) mode, each chain on its own data set; reports
    whether the chain escaped to within 0.5 of the major mode."""
    major = np.array([config["mu1"], config["mu2"]])
    start = np.array([config["mu2"], config["mu1"]])
    cov = config["tau"] ** 2 * np.eye(2)
    chains = [rw_mh_run(mixture_bayes_model(_mixture_target(config, rng)), cov,
                        start, config["iterations"], rng) for rng in rngs]

    def escape(states):
        dists = np.linalg.norm(states - major, axis=1)
        return {"min_distance_to_major_mode": float(dists.min()),
                "escaped": float(bool(np.any(dists <= 0.5)))}

    kept = _postprocess([c.states for c in chains], config)
    return _chain_result(kept, ["mu1", "mu2"],
                         {"acceptance_rate": chains[0].acceptance_rate,
                          "tau": config["tau"]}, escape)


# every experiment: runner(config, rngs) -> (result of stream 0, others)
_RUNNERS = {
    "mle": _run_mle,
    "mh": _run_mh,
    "gibbs": _run_gibbs,
    "mwg": _run_mwg,
    "pmc": functools.partial(_each_stream, _run_pmc),
    "evidence": _run_evidence,
    "abc": functools.partial(_each_stream, _run_abc),
    "capture": _run_capture,
    "mixture-demo": _run_mixture_demo,
}


def run_experiment(experiment: str, config: dict, stream_id: int = 0):
    """One resolved-config run on the given stream.  Returns
    (estimates, std_errors, diagnostics, draws)."""
    return _RUNNERS[experiment](config, [RngStream(config["seed"], stream_id)])[0]


def replicate(experiment: str, config: dict):
    """Run all R replicates, replicate r on stream r, in one runner call
    on the calling thread.  Returns the result of replicate 0 and one row
    per replicate 1..R-1; a replicate that failed on its own is an
    ``error`` row, and the others go on."""
    rngs = [RngStream(config["seed"], r) for r in range(config["replicates"])]
    result, others = _RUNNERS[experiment](config, rngs)
    return result, [
        {"replicate": r, "status": "error", "error": f"{type(est).__name__}: {est}"}
        if isinstance(est, Exception) else
        {"replicate": r, "status": "ok", "estimates": est}
        for r, est in enumerate(others, start=1)]


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
    # dtype=float keeps integer columns written as floats ("3.0").  The csv
    # module writes a float as its repr, unquoted, and ends each row with
    # "\r\n", so one "%r" format per block of rows writes its exact text;
    # the blocks keep the strings of a long chain small
    values = np.atleast_2d(np.asarray(rows, dtype=float))
    line = ",".join(["%r"] * values.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(values), _DRAWS_BLOCK_ROWS):
            block = values[lo:lo + _DRAWS_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_replicates_csv(path, rows):
    keys = sorted({k for r in rows if r["status"] == "ok"
                   for k in r["estimates"]})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "status"] + keys + ["error"])
        for r in rows:
            est = r.get("estimates", {})
            writer.writerow(
                [r["replicate"], r["status"]]
                + [float(est[k]) if k in est else "" for k in keys]
                + [r.get("error", "")])


def _build_parser():
    # the epilog: each experiment's config keys, their defaults and values
    groups = {"every experiment": _COMMON, **_KEYS, "evidence by harmonic-gd": _HARMONIC_GD}
    epilog = "config keys (key = default: values):\n" + "\n".join(
        f"  {name}\n" + "\n".join(f"    {key} = {json.dumps(default)}: {text}"
                                  for key, (default, (text, _)) in keys.items())
        for name, keys in groups.items())
    parser = argparse.ArgumentParser(
        prog="bayescomp", description="Bayesian computation experiment runner",
        epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=sorted(_DEFAULTS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--data", help="input pima CSV")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--burn-in", type=int, dest="burn_in", metavar="B",
                        help="states dropped from the start of each chain")
    parser.add_argument("--thin", type=int, metavar="K",
                        help="keep every K-th state after the burn-in")
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
        for key in _FLAG_KEYS:
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
        config = resolve_config(args.experiment, raw)

        start = time.monotonic()
        try:  # the filters still decide, so -W error still ends the run
            with warnings.catch_warnings(record=True) as caught:
                result, rows = replicate(args.experiment, config)
        finally:  # still shown where they would have gone
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        # made only now, so that a run that fails leaves no directory
        os.makedirs(args.out, exist_ok=True)
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
        if caught:
            summary["warnings"] = [{"category": w.category.__name__,
                                    "message": str(w.message)} for w in caught]
        if config["replicates"] > 1:
            rows.insert(0, {"replicate": 0, "status": "ok", "estimates": estimates})
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

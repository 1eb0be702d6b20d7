"""Contracts decoupling samplers from concrete models.

A sampler only ever sees a log-prior, a log-likelihood and a dimension;
latent-variable and simulation-based algorithms get their own small
contracts.  Densities are handled in log domain end to end and every
out-of-support evaluation maps to -inf, never to an exception or NaN.

A density maps an (N, p) array of points, one per row, to the (N,) array
of its log values, and a (p,) point to its scalar log value, with the bits
of that point's one-row batch; a prior sampler maps (n, rng) to an (n, p)
array of draws.  `log_posterior` is the one entry point at every row
count: sequential samplers pass it a (p,) point, which the densities
evaluate on their 1-D paths, without a batch's per-call layers.
Simulation is batched: (B, p) parameters simulate B data sets, which
summarise to (B, k) and lie at (B,) ABC distances from the observed (k,)
summary.  Latent completions are batched over chains instead: a sweep
maps the (R, p) states of R chains, each with its own stream, to their
latents and back.  Densities whose temporaries grow with the data size
evaluate their rows in blocks (:func:`bayescomp.core.map_rows`), so a call
over many points stays small in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import RngStream

__all__ = ["BayesModel", "LatentCompletion", "SimulableModel", "log_posterior"]

LogDensity = Callable[[np.ndarray], np.ndarray]  # (N, p) -> (N,); (p,) -> scalar
PriorSampler = Callable[[int, RngStream], np.ndarray]  # (n, rng) -> (n, p)
_NAN_MESSAGE = "model returned NaN; out-of-support must map to -inf"


@dataclass(frozen=True)
class BayesModel:
    """Unnormalised posterior target: log-prior + log-likelihood + dimension.

    Data is captured at construction so samplers see a closed target.  Both
    densities take an (N, p) batch or a (p,) point, as `log_posterior`
    does.  `sample_prior` is optional; estimators that need prior draws
    (prior Monte Carlo Bayes factors, ABC) require it.
    """

    dimension: int
    log_prior: LogDensity
    log_likelihood: LogDensity
    sample_prior: Optional[PriorSampler] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")


@dataclass(frozen=True)
class LatentCompletion:
    """Two-block data augmentation of a model.

    `sample_latents(thetas, rngs)` draws the latents of R chains given
    their (R, p) parameters, row r from stream ``rngs[r]`` alone, and
    returns the (R, k) statistic through which the parameter's full
    conditional depends on them (for the probit, E[beta | z]);
    `sample_params(stats, rngs)` draws the parameters back from it.  The
    probit Gibbs sampler runs these blocks through `probit.ProbitSweep`
    itself, so the two samplers are the reference its draws are tested
    against.  `log_full_conditional_param(theta, stats)` maps an (N, k)
    array of statistics to the (N,) *normalised* log-densities of theta
    given each (constant included): the ordinate `evidence.chib_marginal`
    averages.
    """

    sample_latents: Callable[[np.ndarray, Sequence[RngStream]], np.ndarray]
    sample_params: Callable[[np.ndarray, Sequence[RngStream]], np.ndarray]
    log_full_conditional_param: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SimulableModel:
    """Model usable without likelihood evaluations: prior draws, forward
    simulation and a summary statistic.  `log_prior` backs the weight and
    acceptance-ratio computations of the likelihood-free samplers.
    `simulate(thetas, rng)` maps (B, p) parameters to B data sets stacked
    on axis 0, and `summary(data)` maps them to (B, k) summaries.  The
    array `simulate` returns may be the simulator's own scratch, valid
    until its next call, so a caller summarises it at once."""

    sample_prior: PriorSampler
    simulate: Callable[[np.ndarray, RngStream], np.ndarray]  # (B, p) -> (B, ...)
    summary: Callable[[np.ndarray], np.ndarray]  # (B, ...) -> (B, k)
    log_prior: LogDensity


def log_posterior(model: BayesModel, thetas):
    """log prior + log likelihood of each row of the (N, p) array `thetas`,
    as (N,) values, or of the (p,) point `thetas`, as a float with the bits
    of its one-row batch; -inf propagates without evaluating the likelihood
    outside the prior support, and a NaN raises `FloatingPointError`."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim not in (1, 2) or thetas.shape[-1] != model.dimension:
        raise ValueError(f"thetas has shape {thetas.shape}, expected "
                         f"({model.dimension},) or (N, {model.dimension})")
    if thetas.ndim == 1:
        lp = float(model.log_prior(thetas))
        if lp > -math.inf:
            lp += float(model.log_likelihood(thetas))
        if math.isnan(lp):
            raise FloatingPointError(_NAN_MESSAGE)
        return lp
    n = thetas.shape[0]
    prior = _per_row(model.log_prior(thetas), n)
    # list scans: a call of a few rows costs less than a numpy reduction
    # this way.  A NaN prior row fails the test, as -inf does, so only rows
    # strictly above -inf reach the likelihood.
    if all(x > -math.inf for x in prior.tolist()):
        out = prior + _per_row(model.log_likelihood(thetas), n)
    else:
        inside = prior > -np.inf
        out = prior.copy()  # the prior's own array stays as it was returned
        if inside.any():
            out[inside] += _per_row(model.log_likelihood(thetas[inside]), int(inside.sum()))
    if any(map(math.isnan, out.tolist())):
        raise FloatingPointError(_NAN_MESSAGE)
    return out


def _per_row(values, n: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"density returned shape {values.shape} for {n} points; "
                         "densities map (N, p) to (N,)")
    return values

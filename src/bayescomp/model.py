"""Contracts decoupling samplers from concrete models.

A sampler only ever sees a log-prior, a log-likelihood and a dimension;
latent-variable and simulation-based algorithms get their own small
contracts.  Densities are handled in log domain end to end and every
out-of-support evaluation maps to -inf, never to an exception or NaN.

Densities are batched, and that is their only signature: a density maps an
(N, p) array of points, one per row, to the (N,) array of its log values,
and a prior sampler maps (n, rng) to an (n, p) array of draws.  Simulation
is batched too: (B, p) parameters simulate B data sets, which summarise to
(B, k) and lie at (B,) ABC distances from the observed (k,) summary.
Sequential samplers evaluate a single point as a one-row batch.  Latent
completions are batched over chains instead: a sweep maps the (R, p) states
of R chains, each with its own stream, to their latents and back.  Densities
whose temporaries grow with the data size evaluate their rows in blocks
(:func:`bayescomp.core.map_rows`), so a call over many points stays small in
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import RngStream

__all__ = ["BayesModel", "LatentCompletion", "SimulableModel", "log_posterior"]

LogDensity = Callable[[np.ndarray], np.ndarray]  # (N, p) -> (N,)
PriorSampler = Callable[[int, RngStream], np.ndarray]  # (n, rng) -> (n, p)


@dataclass(frozen=True)
class BayesModel:
    """Unnormalised posterior target: log-prior + log-likelihood + dimension.

    Data is captured at construction so samplers see a closed target.
    `sample_prior` is optional; estimators that need prior draws (prior Monte
    Carlo Bayes factors, ABC) require it.
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

    `sample_latents(thetas, rngs)` and `sample_params(latents, rngs)` make
    one Gibbs sweep of R chains in lockstep: (R, p) parameters map to
    (R, ...) latents and back, row r drawing from stream ``rngs[r]`` alone,
    so that a chain does not depend on the others.
    `log_full_conditional_param(theta, stats)` takes an (N, k) array of
    statistics of N latent draws, each a statistic through which the
    parameter's full conditional depends on the latents (X'z for the
    probit), and returns the (N,) *normalised* log-densities of the
    parameter theta given each of them (constant included):
    marginal-likelihood estimation via the posterior-ordinate identity
    depends on it, and a sampler keeps the statistic of each sweep instead
    of its latents.
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
    log_prior: Optional[LogDensity] = None


def log_posterior(model: BayesModel, thetas) -> np.ndarray:
    """log prior + log likelihood of each row of the (N, p) array `thetas`;
    -inf propagates without evaluating the likelihood outside the prior
    support."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.dimension:
        raise ValueError(
            f"thetas has shape {thetas.shape}, expected (N, {model.dimension})"
        )
    n = thetas.shape[0]
    prior = _per_row(model.log_prior(thetas), n)
    # list scans: a one-row call, as the Metropolis samplers make, costs
    # less than a numpy reduction this way.  A NaN prior row fails the test,
    # as -inf does, so only rows strictly above -inf reach the likelihood.
    if all(x > -math.inf for x in prior.tolist()):
        out = prior + _per_row(model.log_likelihood(thetas), n)
    else:
        inside = prior > -np.inf
        out = prior.copy()  # the prior's own array stays as it was returned
        if inside.any():
            out[inside] += _per_row(model.log_likelihood(thetas[inside]), int(inside.sum()))
    if any(map(math.isnan, out.tolist())):
        raise FloatingPointError("model returned NaN; out-of-support must map to -inf")
    return out


def _per_row(values, n: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"density returned shape {values.shape} for {n} points; "
                         "densities map (N, p) to (N,)")
    return values

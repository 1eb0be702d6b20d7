"""Monte Carlo estimates, importance sampling and resampling.

`sample_estimates` turns plain draws or a weighted sample into every
mean, SD and standard error of a summary.  The weighted sample (points
plus unnormalised log-weights) is the common currency of every importance
sampler: a PMC `pmc.Population` and an ABC `abc.AbcPopulation` are
weighted samples that add their sampler's fields.
The Kong effective sample size (sum w)^2 / sum w^2 of a set of
log-weights, `kong_ess`, is the one ESS of weighted samples and of the
evidence estimates' terms.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    CHUNK_ROWS,
    DegenerateWeightsError,
    MvnParams,
    RngStream,
    log_sum_exp,
    map_rows,
    sample_categorical_many,
    sample_mvn_many,
)

__all__ = [
    "WeightedSample",
    "GaussianProposal",
    "kernel_mixture_logpdf",
    "sample_estimates",
    "importance_sample",
    "ess",
    "kong_ess",
    "sir_resample",
]


@dataclass(frozen=True)
class WeightedSample:
    """Points with unnormalised log-weights, checked at construction: one
    log-weight per point, none NaN and at least one above -inf."""

    points: np.ndarray  # (N, p)
    log_weights: np.ndarray  # (N,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        lw = np.asarray(self.log_weights, dtype=float)
        if pts.shape[0] != lw.shape[0]:
            raise ValueError("points and log_weights lengths differ")
        if not np.any(lw > -np.inf):
            raise DegenerateWeightsError("no finite log-weight in sample")
        if np.any(np.isnan(lw)):
            raise ValueError("NaN log-weight")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "log_weights", lw)

    def __len__(self):
        return self.points.shape[0]

    @functools.cached_property
    def normalized_log_weights(self) -> np.ndarray:
        """The log-weights less their log-sum-exp, computed once per sample:
        `normalized_weights` and `moments` reuse it."""
        return self.log_weights - log_sum_exp(self.log_weights)

    def normalized_weights(self) -> np.ndarray:
        return np.exp(self.normalized_log_weights)

    def moments(self):
        """(mean, covariance) of the points under the normalised weights,
        the covariance without a small-sample correction."""
        w = self.normalized_weights()
        mean = w @ self.points
        resid = self.points - mean
        return mean, (resid * w[:, None]).T @ resid


@dataclass(frozen=True)
class GaussianProposal:
    """Normalised multivariate normal proposal: the (logpdf_many, draw_many)
    pair that importance sampling, PMC and the evidence routes expect."""

    params: MvnParams

    def __post_init__(self):
        if self.params.whitener is None:
            raise ValueError("proposal covariance must be positive definite")

    @classmethod
    def from_moments(cls, mean, cov, scale: float = 1.0) -> "GaussianProposal":
        return cls(MvnParams(np.asarray(mean, float), scale * np.asarray(cov, float)))

    def logpdf_many(self, thetas: np.ndarray) -> np.ndarray:
        return self.params.logpdf_many(thetas)

    def draw_many(self, n: int, rng: RngStream) -> np.ndarray:
        return sample_mvn_many(self.params, n, rng)


def kernel_mixture_logpdf(points: np.ndarray, centers: np.ndarray,
                          log_weights: np.ndarray,
                          kernel: GaussianProposal) -> np.ndarray:
    """log sum_j exp(log_weights[j]) K(points_i - centers_j) for each point,
    K the density of `kernel`.  Points and centres (shifted by the kernel
    mean) are whitened once, so a block of points needs only differences of
    whitened rows; blocks keep the (block x centres) table bounded.

    The squared distances build up one coordinate at a time in a (block x
    centres) table, a left fold that gives the bits of summing the (block
    x centres x p) squares over their last axis, without that table.  That
    table and the one of differences belong to the call, and every block
    reuses them."""
    whitened_centers = kernel.params.whiten(np.atleast_2d(centers) + kernel.params.mean)
    whitened_points = kernel.params.whiten(points)
    shape = (min(CHUNK_ROWS, len(whitened_points)), len(whitened_centers))
    lk_table, d_table = np.empty(shape), np.empty(shape)

    def block(chunk):
        lk, d = lk_table[:len(chunk)], d_table[:len(chunk)]
        np.subtract.outer(chunk[:, 0], whitened_centers[:, 0], out=lk)
        lk *= lk
        for j in range(1, chunk.shape[1]):
            np.subtract.outer(chunk[:, j], whitened_centers[:, j], out=d)
            d *= d
            lk += d
        # in place, the bits of log_norm - 0.5 * lk + log_weights
        lk *= -0.5
        lk += kernel.params.log_norm
        lk += log_weights
        return log_sum_exp(lk, axis=1)

    return map_rows(block, whitened_points)


def sample_estimates(names, points, weights=None, n_eff=None):
    """The estimates of (N, k) `points`, one name per column: per column
    `name` its mean and SD as ``mean_<name>`` and ``sd_<name>``, and the
    standard errors, ``mean_<name>`` the error of that mean.  Returns
    (estimates, std_errors).

    Plain draws (`weights` None): each column's mean and SD with ddof=1,
    and the error sd/sqrt(n_eff), none when `n_eff` is None.  Weighted
    draws, under normalised `weights` w: the mean m = w @ x, the SD
    sqrt(w @ (x - m)^2) and the self-normalised delta-method error
    sqrt(sum w_i^2 (x_i - m)^2); `n_eff` is not read."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != len(names):
        raise ValueError(f"{len(names)} names for points of shape {points.shape}: "
                         "one name per column is needed")
    if weights is None:  # per column, for the bits of that column's own mean and SD
        means = [points[:, i].mean() for i in range(len(names))]
        sds = np.array([points[:, i].std(ddof=1) for i in range(len(names))])
        errors = [] if n_eff is None else sds / np.sqrt(n_eff)
    else:
        means = weights @ points
        squares = (points - means) ** 2
        sds = np.sqrt(weights @ squares)
        errors = np.sqrt((weights * weights) @ squares)
    estimates = {f"mean_{n}": float(m) for n, m in zip(names, means)}
    estimates.update({f"sd_{n}": float(s) for n, s in zip(names, sds)})
    return estimates, {f"mean_{n}": float(e) for n, e in zip(names, errors)}


def importance_sample(target_logpdf, proposal_logpdf, proposal_draw, n_draws: int,
                      rng: RngStream) -> WeightedSample:
    """Draw from the proposal and attach log-weights target - proposal.

    The target may be unnormalised.  Densities map (N, p) points to (N,)
    log values, and proposal_draw(n, rng) returns (n, p) draws.
    """
    pts = np.atleast_2d(proposal_draw(n_draws, rng))
    lq = np.asarray(proposal_logpdf(pts), dtype=float)
    lt = np.asarray(target_logpdf(pts), dtype=float)
    if np.any(lq == -np.inf):
        raise RuntimeError("proposal density is zero at one of its own draws")
    return WeightedSample(points=pts, log_weights=lt - lq)


def kong_ess(log_weights: np.ndarray) -> float:
    """Kong effective sample size (sum w)^2 / sum w^2 of the weights
    w = exp(v - max v) of the log-weights v: N for equal weights, 1 when
    one weight holds all the mass, 0 when no log-weight is finite."""
    top = np.max(log_weights, initial=-np.inf)
    if not np.isfinite(top):
        return 0.0
    w = np.exp(log_weights - top)
    return float(w.sum() ** 2 / (w * w).sum())


def ess(ws: WeightedSample) -> float:
    """The `kong_ess` of a weighted sample's log-weights."""
    return kong_ess(ws.log_weights)


def sir_resample(ws: WeightedSample, m: int, rng: RngStream) -> np.ndarray:
    """Multinomial resampling: m equally-weighted points drawn with
    probabilities given by the normalised weights.  Degenerate weights give
    m copies of the single surviving point, with a warning."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if int(np.sum(ws.log_weights > -np.inf)) == 1:
        warnings.warn("degenerate weights: resample is copies of one point",
                      RuntimeWarning)
    idx = sample_categorical_many(ws.log_weights, m, rng)
    return ws.points[idx]

"""Crude Monte Carlo, importance sampling and resampling.

The weighted sample (points plus unnormalised log-weights) is the common
currency here and in the population and likelihood-free samplers.
"""

from __future__ import annotations

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
    "EstimateReport",
    "GaussianProposal",
    "kernel_mixture_logpdf",
    "mc_estimate",
    "importance_sample",
    "snis_estimate",
    "ess",
    "sir_resample",
]


@dataclass(frozen=True)
class WeightedSample:
    """Particles with unnormalised log-weights."""

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

    def normalized_weights(self) -> np.ndarray:
        return np.exp(self.log_weights - log_sum_exp(self.log_weights))

    def moments(self):
        """(mean, covariance) of the points under the normalised weights,
        the covariance without a small-sample correction."""
        w = self.normalized_weights()
        mean = w @ self.points
        resid = self.points - mean
        return mean, (resid * w[:, None]).T @ resid


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with its Monte Carlo error and sample-quality numbers."""

    value: float
    std_error: float
    ess: float
    n_draws: int
    degenerate: bool = False


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


def _h_values(h, points: np.ndarray) -> np.ndarray:
    """h at (N, p) points, which must come back as (N,) values."""
    values = np.asarray(h(points), dtype=float)
    if values.shape != (points.shape[0],):
        raise ValueError(f"h must map (N, p) points to (N,) values, got shape "
                         f"{values.shape} for {points.shape[0]} points")
    return values


def mc_estimate(h, draws) -> EstimateReport:
    """Plain Monte Carlo average of h over (assumed posterior) draws, with
    the CLT standard error sd/sqrt(N).  h maps (N, p) draws to (N,) values."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    n = draws.shape[0]
    if n == 0:
        raise ValueError("draws must be nonempty")
    values = _h_values(h, draws)
    value = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EstimateReport(value=value, std_error=se, ess=float(n), n_draws=n)


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


def ess(ws: WeightedSample) -> float:
    """Effective sample size 1 / sum of squared normalised weights: N for
    uniform weights, 1 for a completely degenerate sample."""
    w = ws.normalized_weights()
    return float(1.0 / np.sum(w * w))


def snis_estimate(h, ws: WeightedSample) -> EstimateReport:
    """Self-normalised importance-sampling estimate of E[h] under the target.

    h maps the (N, p) points to (N,) values.  The standard error is the
    delta-method weighted variance sqrt(sum w_i^2 (h_i - est)^2); the
    sample's effective size is attached.
    """
    w = ws.normalized_weights()
    values = _h_values(h, ws.points)
    value = float(np.sum(w * values))
    se = float(np.sqrt(np.sum(w * w * (values - value) ** 2)))
    degenerate = int(np.sum(ws.log_weights > -np.inf)) == 1
    return EstimateReport(value=value, std_error=se, ess=ess(ws),
                          n_draws=len(ws), degenerate=degenerate)


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

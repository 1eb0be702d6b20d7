"""Two-component normal mixture target with known weight and variance.

The unknowns are the two component means; the posterior is multimodal, with
a spurious secondary mode at the label-swapped means, which makes it the
standard illustration of random-walk chains getting trapped by a too-small
proposal scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _LOG2PI, RngStream, map_rows
from .model import BayesModel

__all__ = ["MixtureTarget", "mixture_logpost", "simulate_mixture_data", "mixture_bayes_model"]


@dataclass(frozen=True)
class MixtureTarget:
    """Data and fixed mixture weight/variance; prior on each mean is
    N(0, 10 * sigma2)."""

    data: np.ndarray
    weight: float
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        if not 0.0 < self.weight < 1.0:
            raise ValueError("weight must lie in (0, 1)")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")

    @property
    def prior_var(self) -> float:
        return 10.0 * self.sigma2


def _norm_logpdf(x, mean, var):
    return -0.5 * (_LOG2PI + np.log(var) + (x - mean) ** 2 / var)


# the densities take an (N, 2) array of rows (mu1, mu2) or one (2,) point
def _log_prior(target: MixtureTarget, mus: np.ndarray) -> np.ndarray:
    return np.sum(_norm_logpdf(mus, 0.0, target.prior_var), axis=-1)


def _log_likelihood(target: MixtureTarget, mus: np.ndarray) -> np.ndarray:
    y = target.data

    def block(m):
        a = np.log(target.weight) + _norm_logpdf(y, m[..., :1], target.sigma2)
        b = np.log1p(-target.weight) + _norm_logpdf(y, m[..., 1:], target.sigma2)
        return np.sum(np.logaddexp(a, b), axis=-1)

    return map_rows(block, mus)


def mixture_logpost(target: MixtureTarget, mus) -> np.ndarray:
    """Unnormalised log-posterior of each row (mu1, mu2) of `mus`."""
    mus = np.asarray(mus, dtype=float)
    return _log_likelihood(target, mus) + _log_prior(target, mus)


def simulate_mixture_data(mu1: float, mu2: float, weight: float, sigma2: float,
                          n: int, rng: RngStream) -> np.ndarray:
    """n draws from weight*N(mu1, sigma2) + (1-weight)*N(mu2, sigma2)."""
    pick = rng.uniform(n) < weight
    means = np.where(pick, mu1, mu2)
    return means + np.sqrt(sigma2) * rng.standard_normal(n)


def mixture_bayes_model(target: MixtureTarget) -> BayesModel:
    return BayesModel(
        dimension=2,
        log_prior=lambda mus: _log_prior(target, mus),
        log_likelihood=lambda mus: _log_likelihood(target, mus),
        sample_prior=lambda n, rng: np.sqrt(target.prior_var) * rng.standard_normal((n, 2)),
    )

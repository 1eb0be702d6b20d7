"""Population Monte Carlo: iterated importance sampling with resampling
and a small bank of Gaussian kernels whose mixture weights adapt by
survival of the fittest.

Each iteration is a valid importance sample on its own, a `Population`,
which is a `montecarlo.WeightedSample`; adaptation only changes the
variance of later iterations, never the validity of earlier ones.  The
per-particle proposal density is, by default, the kernel density at the
particle's own resampled centre (the conditional form); the
Rao-Blackwellised mixture over all centres is available at O(N^2) cost
via ``density_form="mixture"``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    DegenerateWeightsError,
    RngStream,
    log_sum_exp,
    sample_categorical_many,
)
from .model import BayesModel, log_posterior
from .montecarlo import GaussianProposal, WeightedSample, ess, kernel_mixture_logpdf, sir_resample

__all__ = [
    "DENSITY_FORMS",
    "Population",
    "KernelBank",
    "default_kernel_bank",
    "pmc_run",
    "dkernel_update",
]

_WEIGHT_FLOOR = 1e-3
# the proposal densities `pmc_run` can weight by
DENSITY_FORMS = ("conditional", "mixture")


@dataclass(frozen=True)
class Population(WeightedSample):
    """One PMC iteration's weighted sample.  `centers` and `kernel_indices`
    record which resampled point and which bank kernel produced each point
    (absent for iteration 0, which draws from the initial proposal)."""

    iteration: int
    centers: Optional[np.ndarray] = None
    kernel_indices: Optional[np.ndarray] = None

    def __post_init__(self):
        super().__post_init__()
        for record in (self.centers, self.kernel_indices):
            if record is not None and len(record) != len(self):
                raise ValueError("centers or kernel_indices length differs from points")


@dataclass(frozen=True)
class KernelBank:
    """Gaussian kernel family: covariances scale_j * base_covariance with
    mixture weights kept above a small floor so no kernel ever dies."""

    scales: np.ndarray  # (K,)
    mixture_log_weights: np.ndarray  # (K,)
    base_covariance: np.ndarray  # (p, p)

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        lw = np.asarray(self.mixture_log_weights, dtype=float)
        if not np.all(scales > 0):
            raise ValueError("kernel scales must be positive")
        if scales.shape != lw.shape:
            raise ValueError("scales and mixture weights lengths differ")
        if not abs(log_sum_exp(lw)) <= 1e-8:  # a NaN weight fails too
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "mixture_log_weights", lw)
        object.__setattr__(self, "base_covariance",
                           np.asarray(self.base_covariance, dtype=float))

    @property
    def n_kernels(self) -> int:
        return self.scales.shape[0]


def default_kernel_bank(base_covariance) -> KernelBank:
    """Three kernels spanning under- to over-dispersion, uniform weights."""
    scales = np.array([0.3, 1.0, 3.0])
    return KernelBank(
        scales=scales,
        mixture_log_weights=np.full(3, -np.log(3.0)),
        base_covariance=np.asarray(base_covariance, dtype=float),
    )


def dkernel_update(bank: KernelBank, pop: Population) -> KernelBank:
    """Survival update of the mixture weights: each kernel collects the
    normalised weight of the points it produced (`pop.kernel_indices`),
    floored so every kernel keeps a small probability.  The base
    covariance becomes the weighted empirical covariance of the population."""
    if pop.kernel_indices is None:
        raise ValueError(f"population of iteration {pop.iteration} has no kernel "
                         "indices: it was not drawn from the kernel bank")
    survival = np.bincount(pop.kernel_indices, weights=pop.normalized_weights(),
                           minlength=bank.n_kernels)
    k = bank.n_kernels
    mixed = _WEIGHT_FLOOR + (1.0 - k * _WEIGHT_FLOOR) * survival / survival.sum()
    _, cov = pop.moments()
    return KernelBank(
        scales=bank.scales,
        mixture_log_weights=np.log(mixed),
        base_covariance=cov,
    )


def _kernel_proposals(bank: KernelBank) -> list:
    zero = np.zeros(bank.base_covariance.shape[0])
    return [GaussianProposal.from_moments(zero, bank.base_covariance, s)
            for s in bank.scales]


def _mixture_logpdf(points: np.ndarray, centers: np.ndarray,
                    kernels: list, bank: KernelBank) -> np.ndarray:
    """Rao-Blackwellised proposal density: uniform mixture over all the
    resampled centres crossed with the kernel bank.  O(N^2 K) arithmetic,
    in blocks of points."""
    m = centers.shape[0]
    uniform = np.full(m, -np.log(m))
    parts = np.stack([kernel_mixture_logpdf(points, centers, uniform, kern)
                      for kern in kernels])  # (K, N)
    return log_sum_exp(parts + bank.mixture_log_weights[:, None], axis=0)


def pmc_run(target: BayesModel, q0, bank: KernelBank, n_particles: int,
            n_iterations: int, rng: RngStream,
            density_form: str = "conditional") -> list:
    """Iterated importance sampling toward `target`.

    Iteration 0 draws from `q0` (a logpdf_many/draw_many pair); every later
    iteration moves each point of a multinomial resample of the previous
    population (on ``rng.child(3t + 1)`` after iteration t) with a kernel
    drawn from the bank and reweights by target over proposal.  The bank
    adapts between iterations: iteration 0 sets its base covariance and
    each later one runs `dkernel_update`; the last iteration is neither
    resampled nor adapted to.  Returns every `Population` so intermediate
    behaviour stays inspectable.
    """
    if n_particles < 2:
        raise DegenerateWeightsError("need at least 2 particles to resample")
    if n_iterations < 1:
        raise ValueError("n_iterations must be at least 1")
    if density_form not in DENSITY_FORMS:
        raise ValueError(f"density_form must be one of {DENSITY_FORMS}")

    points = np.atleast_2d(q0.draw_many(n_particles, rng.child(0)))
    lq = np.asarray(q0.logpdf_many(points), dtype=float)
    lt = log_posterior(target, points)
    centers = assignments = None
    populations = []
    for t in range(n_iterations):
        try:
            pop = Population(points=points, log_weights=lt - lq, iteration=t,
                             centers=centers, kernel_indices=assignments)
        except DegenerateWeightsError as exc:
            raise DegenerateWeightsError(
                f"all weights degenerate at iteration {t}") from exc
        populations.append(pop)
        if t == n_iterations - 1:
            break
        if t == 0:
            bank = replace(bank, base_covariance=pop.moments()[1])
        else:
            bank = dkernel_update(bank, pop)

        try:
            kernels = _kernel_proposals(bank)
        except ValueError as exc:  # a population with too few effective points
            raise DegenerateWeightsError(
                f"kernel bank after iteration {t}: {exc}; it is the weighted covariance "
                f"of a population whose Kong ESS is {ess(pop):.3g} of "
                f"{n_particles} particles") from exc
        assignments = sample_categorical_many(bank.mixture_log_weights,
                                              n_particles, rng.child(3 * t + 2))
        centers = sir_resample(pop, n_particles, rng.child(3 * t + 1))
        move_rng = rng.child(3 * t + 3)
        points = np.empty_like(centers)
        lq = np.empty(n_particles)
        for j, kern in enumerate(kernels):
            mask = assignments == j
            m = int(mask.sum())
            if m:
                points[mask] = centers[mask] + kern.draw_many(m, move_rng.child(j))
                if density_form == "conditional":
                    # at the stored point's step, point - centre, whose
                    # rounding can differ from the drawn one's
                    lq[mask] = kern.logpdf_many(points[mask] - centers[mask])
        if density_form == "mixture":
            lq = _mixture_logpdf(points, centers, kernels, bank)
        lt = log_posterior(target, points)
    return populations

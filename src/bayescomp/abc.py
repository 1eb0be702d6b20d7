"""Likelihood-free inference: rejection, MCMC and sequential (population)
ABC with quantile-driven tolerance schedules.

Every algorithm compares summary statistics under a distance; raw-data
distances are not supported.  The sequential sampler perturbs resampled
particles with a Gaussian kernel whose covariance is an inflated weighted
empirical covariance, and corrects with importance weights
prior / (mixture of kernels), whose O(N^2) denominator is evaluated in
blocks of particles.  `regression_adjust` removes the remaining
tolerance-induced spread from a population by the local-linear regression
of Beaumont, Zhang & Balding (2002), using the accepted summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    DegenerateWeightsError,
    MvnParams,
    RngStream,
    log_sum_exp,
)
from .mcmc import Chain
from .model import SimulableModel
from .montecarlo import GaussianProposal, WeightedSample, ess, kernel_mixture_logpdf
from .probit import (
    ProbitModel,
    gprior_logpdf_many,
    probit_abc_summary,
    probit_mle,
    probit_simulate,
    probit_summary_whitener,
    sample_gprior,
)

__all__ = [
    "AbcConfig",
    "AbcPopulation",
    "euclidean_distance",
    "abc_reject",
    "abc_mcmc",
    "abc_pmc",
    "regression_adjust",
    "probit_abc",
]

_MAX_PROPOSALS = 10 ** 7
_MIN_ACCEPT_PROB = 1e-6
# acceptance rate below which a quantile-mode generation is abandoned and
# the schedule ends: a budget of n_particles / _ACCEPT_FLOOR proposals
_ACCEPT_FLOOR = 0.01


def euclidean_distance(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))


@dataclass(frozen=True)
class AbcConfig:
    """Tuning knobs shared by the ABC algorithms.  Exactly one of
    `tolerance` (a fixed epsilon) and `quantile` (a per-generation
    acceptance fraction) must be given."""

    n_output: int
    tolerance: Optional[float] = None
    quantile: Optional[float] = None
    distance: Callable = euclidean_distance
    kernel_scale_rule: float = 2.0

    def __post_init__(self):
        if (self.tolerance is None) == (self.quantile is None):
            raise ValueError("set exactly one of tolerance and quantile")
        if self.tolerance is not None and not self.tolerance >= 0:
            raise ValueError("tolerance must be nonnegative")
        if self.quantile is not None and not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must lie in (0, 1]")
        if self.n_output < 1:
            raise ValueError("n_output must be positive")
        if self.kernel_scale_rule <= 0:
            raise ValueError("kernel_scale_rule must be positive")


@dataclass(frozen=True)
class AbcPopulation:
    """Accepted particles of one ABC generation, with the summaries and
    distances they achieved and the tolerance in force when they were
    accepted."""

    particles: np.ndarray  # (N, p)
    log_weights: np.ndarray  # (N,)
    epsilon: float
    t: int
    distances: np.ndarray = field(default=None)
    n_proposals: int = 0
    summaries: np.ndarray = field(default=None)

    def __len__(self):
        return self.particles.shape[0]

    def weighted_sample(self) -> WeightedSample:
        return WeightedSample(points=self.particles, log_weights=self.log_weights)


def _simulate_summary(model: SimulableModel, theta, eta_obs, config: AbcConfig,
                      rng: RngStream):
    """Summary of one forward simulation at theta, and its distance to the
    observed summary."""
    s = np.atleast_1d(np.asarray(model.summary(model.simulate(theta, rng)), dtype=float))
    return s, config.distance(s, eta_obs)


def abc_reject(model: SimulableModel, y_obs, config: AbcConfig,
               rng: RngStream) -> AbcPopulation:
    """Likelihood-free rejection sampling from the prior.

    With a fixed `tolerance`, proposals are drawn until `n_output` pass the
    distance test.  With a `quantile`, a single batch of n_output/quantile
    proposals is ranked and the best n_output kept, which realises the
    tolerance as an empirical quantile of simulated distances.
    """
    eta_obs = np.asarray(model.summary(y_obs), dtype=float)
    if config.quantile is not None:
        n_pilot = int(np.ceil(config.n_output / config.quantile))
        thetas, sums, dists = [], [], []
        for i in range(n_pilot):
            r = rng.child(i)
            theta = np.asarray(model.sample_prior(1, r), dtype=float)[0]
            s, d = _simulate_summary(model, theta, eta_obs, config, r.child(1))
            thetas.append(theta)
            sums.append(s)
            dists.append(d)
        order = np.argsort(dists, kind="stable")[:config.n_output]
        particles = np.asarray(thetas)[order]
        summaries = np.asarray(sums)[order]
        distances = np.asarray(dists)[order]
        eps = float(distances.max())
        n_prop = n_pilot
    else:
        eps = float(config.tolerance)
        particles, summaries, distances = [], [], []
        n_prop = 0
        while len(particles) < config.n_output:
            r = rng.child(n_prop)
            theta = np.asarray(model.sample_prior(1, r), dtype=float)[0]
            s, d = _simulate_summary(model, theta, eta_obs, config, r.child(1))
            n_prop += 1
            if d <= eps:
                particles.append(theta)
                summaries.append(s)
                distances.append(d)
            if n_prop >= _MAX_PROPOSALS and \
                    len(particles) < _MIN_ACCEPT_PROB * n_prop:
                raise RuntimeError(
                    f"acceptance probability below {_MIN_ACCEPT_PROB} after "
                    f"{n_prop} proposals; tolerance {eps} is too small")
        particles = np.asarray(particles)
        summaries = np.asarray(summaries)
        distances = np.asarray(distances)
    return AbcPopulation(particles=particles,
                         log_weights=np.zeros(config.n_output),
                         epsilon=eps, t=0, distances=distances,
                         n_proposals=n_prop, summaries=summaries)


def abc_mcmc(model: SimulableModel, y_obs, config: AbcConfig, proposal,
             n_iter: int, rng: RngStream) -> Chain:
    """Likelihood-free MCMC at a fixed tolerance.

    The chain starts from one rejection-sampler hit, then proposes in
    parameter space, simulates a fresh summary, and accepts on the prior
    plus proposal ratio gated by the distance indicator.  Rejection
    repeats the previous state.
    """
    if config.tolerance is None:
        raise ValueError("abc_mcmc needs a fixed tolerance")
    if model.log_prior is None:
        raise ValueError("abc_mcmc needs the prior log-density")
    eta_obs = np.asarray(model.summary(y_obs), dtype=float)
    init = abc_reject(model, y_obs,
                      AbcConfig(n_output=1, tolerance=config.tolerance,
                                distance=config.distance), rng.child(0))
    theta = init.particles[0]
    lp = float(model.log_prior(theta[None, :])[0])
    states = np.empty((n_iter, theta.shape[0]))
    log_priors = np.empty(n_iter)
    accept = 0
    walk = rng.child(1)
    for t in range(n_iter):
        r = walk.child(t)
        prop = np.atleast_1d(np.asarray(proposal.draw(theta, r.child(0)), float))
        lp_prop = float(model.log_prior(prop[None, :])[0])
        log_ratio = (lp_prop - lp
                     + float(proposal.log_density(theta, prop))
                     - float(proposal.log_density(prop, theta)))
        u = 1.0 - r.child(1).uniform()
        ok = lp_prop > -np.inf and np.log(u) <= log_ratio
        if ok:
            _, d = _simulate_summary(model, prop, eta_obs, config, r.child(2))
            ok = d <= config.tolerance
        if ok:
            theta, lp = prop, lp_prop
            accept += 1
        states[t] = theta
        log_priors[t] = lp
    return Chain(states=states, log_posts=log_priors, accept_count=accept,
                 n_proposals=n_iter,
                 proposal_meta={"family": "abc-mcmc",
                                "tolerance": config.tolerance})


def abc_pmc(model: SimulableModel, y_obs, config: AbcConfig, n_particles: int,
            n_generations: int, rng: RngStream) -> list:
    """Sequential ABC through a decreasing tolerance schedule.

    Generation 0 is quantile-based rejection from the prior; each later
    generation resamples by weight, perturbs with an inflated-covariance
    Gaussian kernel, accepts at the configured quantile of the previous
    generation's distances, and reweights by prior over kernel mixture.
    Proposal n of generation t draws its ancestor, its kernel noise and its
    simulation in turn from the one stream ``rng.child(t).child(n)``.
    With a fixed `tolerance` instead of a quantile, the schedule is frozen
    (a degenerate mode useful for validation).  In quantile mode the
    schedule must strictly decrease, and each generation must accept its
    n_particles within n_particles / _ACCEPT_FLOOR proposals (an acceptance
    rate of 1%); the run stops early, returning the finished generations, the
    moment either fails.
    """
    if n_particles < 100:
        raise ValueError("n_particles must be at least 100")
    if n_generations < 2:
        raise ValueError("n_generations must be at least 2")
    if model.log_prior is None:
        raise ValueError("abc_pmc needs the prior log-density")
    eta_obs = np.asarray(model.summary(y_obs), dtype=float)
    gen0_config = AbcConfig(n_output=n_particles, tolerance=config.tolerance,
                            quantile=config.quantile, distance=config.distance,
                            kernel_scale_rule=config.kernel_scale_rule)
    populations = [abc_reject(model, y_obs, gen0_config, rng.child(0))]
    if config.quantile is not None:
        budget = int(np.ceil(n_particles / _ACCEPT_FLOOR))
    else:
        budget = np.inf
    for t in range(1, n_generations):
        prev = populations[-1]
        if config.quantile is not None:
            eps = float(np.quantile(prev.distances, config.quantile))
            if not eps < prev.epsilon:
                break
        else:
            eps = float(config.tolerance)
        w = prev.weighted_sample().normalized_weights()
        mean = w @ prev.particles
        resid = prev.particles - mean
        cov = config.kernel_scale_rule * (resid * w[:, None]).T @ resid
        kernel = GaussianProposal(MvnParams(np.zeros(cov.shape[0]), cov))
        cum = np.cumsum(w)
        cum[-1] = 1.0
        gen_rng = rng.child(t)
        particles = np.empty_like(prev.particles)
        summaries = np.empty((n_particles, eta_obs.shape[0]))
        distances = np.empty(n_particles)
        n_prop = 0
        accepted = 0
        while accepted < n_particles and n_prop < budget:
            r = gen_rng.child(n_prop)
            j = np.searchsorted(cum, r.uniform(), side="right")
            prop = prev.particles[j] + kernel.draw_many(1, r)[0]
            n_prop += 1
            if model.log_prior(prop[None, :])[0] == -np.inf:
                continue
            s, d = _simulate_summary(model, prop, eta_obs, config, r)
            if d <= eps:
                particles[accepted] = prop
                summaries[accepted] = s
                distances[accepted] = d
                accepted += 1
            if n_prop >= _MAX_PROPOSALS and accepted < _MIN_ACCEPT_PROB * n_prop:
                raise RuntimeError(
                    f"generation {t}: acceptance probability below "
                    f"{_MIN_ACCEPT_PROB} after {n_prop} proposals")
        if accepted < n_particles:
            break
        log_wbar = prev.log_weights - log_sum_exp(prev.log_weights)
        log_weights = (np.asarray(model.log_prior(particles), dtype=float)
                       - kernel_mixture_logpdf(particles, prev.particles, log_wbar, kernel))
        pop = AbcPopulation(particles=particles, log_weights=log_weights,
                            epsilon=eps, t=t, distances=distances,
                            n_proposals=n_prop, summaries=summaries)
        if ess(pop.weighted_sample()) < 10:
            raise DegenerateWeightsError(
                f"particle degeneracy at generation {t}: ESS below 10")
        populations.append(pop)
    return populations


def regression_adjust(pop: AbcPopulation, eta_obs) -> AbcPopulation:
    """Local-linear regression adjustment (Beaumont, Zhang & Balding 2002).

    Regresses the particles on (s_i - s_obs) by least squares weighted with
    the importance weights, then subtracts the fitted summary effect
    (s_i - s_obs)'B from each particle.  This removes, to first order, the
    spread that a nonzero tolerance adds to the population.  Weights,
    summaries and distances are kept as they are.
    """
    if pop.summaries is None:
        raise ValueError("regression adjustment needs the accepted summaries")
    w = pop.weighted_sample().normalized_weights()
    offsets = pop.summaries - np.asarray(eta_obs, dtype=float)
    design = np.column_stack([np.ones(len(pop)), offsets])
    root_w = np.sqrt(w)[:, None]
    coef, *_ = np.linalg.lstsq(root_w * design, root_w * pop.particles, rcond=None)
    return replace(pop, particles=pop.particles - offsets @ coef[1:])


def probit_abc(model: ProbitModel, config: AbcConfig, rng: RngStream,
               n_generations: int = 10) -> AbcPopulation:
    """Sequential ABC for the probit posterior.

    Each proposal simulates pseudo-responses y* ~ Bernoulli(Phi(X beta))
    and is summarised by X'y*, whitened once per run by
    X' diag(Phi(1 - Phi)) X at the maximum likelihood estimate; the
    observed response goes through the same map.  The final generation is
    regression-adjusted on its summaries and returned.
    """
    beta_hat, _ = probit_mle(model)
    whitener = probit_summary_whitener(model, beta_hat)

    sim = SimulableModel(
        sample_prior=lambda n, r: sample_gprior(model, n, r),
        simulate=lambda beta, r: probit_simulate(model, beta, r),
        summary=lambda y: probit_abc_summary(model, y, whitener),
        log_prior=lambda betas: gprior_logpdf_many(model, betas),
    )
    pops = abc_pmc(sim, model.response, config, config.n_output, n_generations, rng)
    return regression_adjust(pops[-1], sim.summary(model.response))

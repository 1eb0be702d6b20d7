"""Likelihood-free inference: rejection, MCMC and sequential (population)
ABC with quantile-driven tolerance schedules.

Every algorithm compares summary statistics under the euclidean distance;
raw-data distances are not supported.  Rejection and sequential ABC draw,
simulate, summarise and measure proposals in blocks of ``core.CHUNK_ROWS``,
which fixes the stream layout: block b of a generation draws on the one
stream ``gen_rng.child(b)``, and hits are kept in proposal order.  One rule
bounds them: a generation that wants n hits makes at most ceil(n / 0.01)
proposals, its last block cut to that budget.  Short of its hits, a
fixed-tolerance generation raises a `RuntimeError` giving hits, proposals,
rate, tolerance and generation; a quantile-mode one ends the schedule.  The
sequential sampler perturbs resampled particles with a Gaussian kernel whose
covariance is twice the weighted empirical covariance (Beaumont, Cornuet,
Marin & Robert 2009), and corrects with importance weights
prior / (mixture of kernels), whose O(N^2) denominator is evaluated in
blocks of particles.  `regression_adjust` removes the remaining
tolerance-induced spread from a population by the local-linear regression
of Beaumont, Zhang & Balding (2002).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (
    CHUNK_ROWS,
    DegenerateWeightsError,
    RngStream,
    categorical_cdf,
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
    probit_simulator,
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

# acceptance rate below which a generation fails: one that wants n hits
# makes at most ceil(n / _ACCEPT_FLOOR) proposals
_ACCEPT_FLOOR = 0.01
# the sequential sampler's kernel covariance is this multiple of the
# previous generation's weighted empirical covariance
_KERNEL_SCALE = 2.0


def euclidean_distance(summaries, eta_obs) -> np.ndarray:
    """(B,) row norms of the (B, k) `summaries` minus the (k,) `eta_obs`."""
    return np.linalg.norm(np.asarray(summaries, float) - np.asarray(eta_obs, float), axis=-1)


@dataclass(frozen=True)
class AbcConfig:
    """Tuning knobs shared by the ABC algorithms.  Exactly one of
    `tolerance` (a fixed epsilon) and `quantile` (a per-generation
    acceptance fraction) must be given.  Summaries are compared by
    `euclidean_distance`."""

    n_output: int
    tolerance: Optional[float] = None
    quantile: Optional[float] = None

    def __post_init__(self):
        if (self.tolerance is None) == (self.quantile is None):
            raise ValueError("set exactly one of tolerance and quantile")
        if self.tolerance is not None and not self.tolerance >= 0:
            raise ValueError("tolerance must be nonnegative")
        if self.quantile is not None and not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must lie in (0, 1]")
        if self.n_output < 1:
            raise ValueError("n_output must be positive")


@dataclass(frozen=True)
class AbcPopulation:
    """Accepted particles of one ABC generation, with the summaries and
    distances they achieved and the tolerance in force when they were
    accepted.  `abandoned_proposals` counts the proposals of a later
    generation that fell short of its hits and was dropped, so that the
    last population of a run that ended that way accounts for them."""

    particles: np.ndarray  # (N, p)
    log_weights: np.ndarray  # (N,)
    epsilon: float
    t: int
    distances: np.ndarray = field(default=None)
    n_proposals: int = 0
    summaries: np.ndarray = field(default=None)
    abandoned_proposals: int = 0

    def __len__(self):
        return self.particles.shape[0]

    def weighted_sample(self) -> WeightedSample:
        return WeightedSample(points=self.particles, log_weights=self.log_weights)


def _observed_summary(model: SimulableModel, y_obs) -> np.ndarray:
    return np.asarray(model.summary(np.asarray(y_obs)[None]), dtype=float)[0]


class _TooFewHits(RuntimeError):
    """A generation fell short of its hits within its proposal budget."""


def _accept_in_order(propose, model: SimulableModel, eta_obs, eps: float,
                     n: int, rng: RngStream, t: int = 0, budget=None):
    """The first n proposals within `eps`, in proposal order: (particles,
    summaries, distances, proposals made), or `_TooFewHits` if `budget`
    proposals, by default ceil(n / _ACCEPT_FLOOR), fall short.

    Block b, cut to the budget, draws on ``rng.child(b)``: `propose(size, r)`
    returns the proposals and the mask of those inside the prior's support,
    then one batched simulate, summary and distance covers the rows inside.
    """
    if budget is None:
        budget = int(np.ceil(n / _ACCEPT_FLOOR))
    parts = []
    accepted = n_prop = 0
    while accepted < n:
        if n_prop == budget:
            raise _TooFewHits(
                f"generation {t}: acceptance probability below {_ACCEPT_FLOOR}: "
                f"{accepted} accepted in {n_prop} proposals (rate "
                f"{accepted / n_prop:.3g}); tolerance {eps} is too small")
        size = min(CHUNK_ROWS, budget - n_prop)
        r = rng.child(len(parts))
        thetas, inside = propose(size, r)
        rows = np.flatnonzero(inside)
        s = np.asarray(model.summary(model.simulate(thetas[rows], r)), dtype=float)
        d = euclidean_distance(s, eta_obs)
        hit = np.flatnonzero(d <= eps)[:n - accepted]
        parts.append((thetas[rows[hit]], s[hit], d[hit]))
        accepted += len(hit)
        n_prop += int(rows[hit[-1]]) + 1 if accepted == n else size
    particles, summaries, distances = (np.concatenate(a) for a in zip(*parts))
    return particles, summaries, distances, n_prop


def abc_reject(model: SimulableModel, y_obs, config: AbcConfig,
               rng: RngStream) -> AbcPopulation:
    """Likelihood-free rejection sampling from the prior.

    With a fixed `tolerance`, the first `n_output` proposals to pass the
    distance test are kept, or a `RuntimeError` gives the acceptance rate if
    ceil(n_output / 0.01) proposals fall short.  With a `quantile`, a single
    batch of n_output/quantile proposals is ranked and the best n_output
    kept, which realises the tolerance as an empirical quantile of simulated
    distances.  Block b of proposals is one batched prior draw on
    ``rng.child(b)``.
    """
    eta_obs = _observed_summary(model, y_obs)

    def propose(size, r):
        return np.asarray(model.sample_prior(size, r), dtype=float), np.ones(size, bool)

    if config.quantile is not None:
        n_pilot = int(np.ceil(config.n_output / config.quantile))
        particles, summaries, distances, n_prop = _accept_in_order(
            propose, model, eta_obs, np.inf, n_pilot, rng, budget=n_pilot)
        order = np.argsort(distances, kind="stable")[:config.n_output]
        particles, summaries, distances = particles[order], summaries[order], distances[order]
        eps = float(distances.max())
    else:
        eps = float(config.tolerance)
        particles, summaries, distances, n_prop = _accept_in_order(
            propose, model, eta_obs, eps, config.n_output, rng)
    return AbcPopulation(particles=particles,
                         log_weights=np.zeros(len(particles)),
                         epsilon=eps, t=0, distances=distances,
                         n_proposals=n_prop, summaries=summaries)


def abc_mcmc(model: SimulableModel, y_obs, config: AbcConfig, proposal,
             n_iter: int, rng: RngStream) -> Chain:
    """Likelihood-free MCMC at a fixed tolerance.

    The chain starts from one rejection-sampler hit on ``rng.child(0)``
    (within ceil(1 / 0.01) = 100 prior proposals, or a `RuntimeError`),
    then proposes in parameter space, simulates a fresh summary, and
    accepts on the prior plus proposal ratio gated by the distance
    indicator.  Rejection repeats the previous state.  Iteration t draws
    its proposal, uniform and simulation in turn on ``rng.child(1).child(t)``.
    """
    if config.tolerance is None:
        raise ValueError("abc_mcmc needs a fixed tolerance")
    if model.log_prior is None:
        raise ValueError("abc_mcmc needs the prior log-density")
    eta_obs = _observed_summary(model, y_obs)
    theta = abc_reject(model, y_obs, replace(config, n_output=1), rng.child(0)).particles[0]
    lp = float(model.log_prior(theta[None, :])[0])
    states = np.empty((n_iter, theta.shape[0]))
    log_priors = np.empty(n_iter)
    accept = 0
    walk = rng.child(1)
    for t in range(n_iter):
        r = walk.child(t)
        prop = np.atleast_1d(np.asarray(proposal.draw(theta, r), float))
        lp_prop = float(model.log_prior(prop[None, :])[0])
        log_ratio = (lp_prop - lp
                     + float(proposal.log_density(theta, prop))
                     - float(proposal.log_density(prop, theta)))
        u = 1.0 - r.uniform()
        ok = lp_prop > -np.inf and np.log(u) <= log_ratio
        if ok:
            s = model.summary(model.simulate(prop[None, :], r))
            ok = euclidean_distance(s, eta_obs)[0] <= config.tolerance
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
    Block b of generation t draws on the one stream ``rng.child(t).child(b)``
    its ``core.CHUNK_ROWS`` ancestor uniforms, one matrix of kernel noise and
    the simulations of the proposals inside the prior's support; that fixed
    block size keeps runs bit-reproducible for a fixed (seed, config).
    With a fixed `tolerance` instead of a quantile, the schedule is frozen
    (a degenerate mode useful for validation).  Each generation must accept
    its n_particles within ceil(n_particles / 0.01) proposals, or a fixed-
    tolerance run raises a `RuntimeError` naming it.  A quantile-mode run
    also needs a strictly decreasing schedule, and stops early, returning
    the finished generations, the moment either fails; a generation dropped
    short of its hits leaves its whole budget in the last one's
    `abandoned_proposals`.
    """
    if n_particles < 100:
        raise ValueError("n_particles must be at least 100")
    if n_generations < 2:
        raise ValueError("n_generations must be at least 2")
    if model.log_prior is None:
        raise ValueError("abc_pmc needs the prior log-density")
    eta_obs = _observed_summary(model, y_obs)
    populations = [abc_reject(model, y_obs, replace(config, n_output=n_particles),
                              rng.child(0))]
    for t in range(1, n_generations):
        prev = populations[-1]
        if config.quantile is not None:
            eps = float(np.quantile(prev.distances, config.quantile))
            if not eps < prev.epsilon:
                break
        else:
            eps = float(config.tolerance)
        _, cov = prev.weighted_sample().moments()
        kernel = GaussianProposal.from_moments(np.zeros(len(cov)), cov, _KERNEL_SCALE)
        cum = categorical_cdf(prev.log_weights)

        def propose(size, r):
            ancestors = cum.searchsorted(r.uniform(size) * cum[-1], side="right")
            thetas = prev.particles[ancestors] + kernel.draw_many(size, r)
            return thetas, np.asarray(model.log_prior(thetas)) > -np.inf

        try:
            particles, summaries, distances, n_prop = _accept_in_order(
                propose, model, eta_obs, eps, n_particles, rng.child(t), t)
        except _TooFewHits:
            if config.quantile is None:
                raise
            budget = int(np.ceil(n_particles / _ACCEPT_FLOOR))  # all of it spent
            populations[-1] = replace(prev, abandoned_proposals=budget)
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

    Each proposal simulates pseudo-responses y* ~ Bernoulli(Phi(X beta)),
    through one `probit_simulator` whose scratch the run's blocks share,
    and is summarised by X'y*, whitened once per run by
    X' diag(Phi(1 - Phi)) X at the maximum likelihood estimate; the
    observed response goes through the same map.  The final generation is
    regression-adjusted on its summaries and returned.
    """
    beta_hat, _ = probit_mle(model)
    whitener = probit_summary_whitener(model, beta_hat)

    sim = SimulableModel(
        sample_prior=lambda n, r: sample_gprior(model, n, r),
        simulate=probit_simulator(model),
        summary=lambda ys: probit_abc_summary(model, ys, whitener),
        log_prior=lambda betas: gprior_logpdf_many(model, betas),
    )
    pops = abc_pmc(sim, model.response, config, config.n_output, n_generations, rng)
    return regression_adjust(pops[-1], _observed_summary(sim, model.response))

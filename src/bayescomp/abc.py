"""Likelihood-free inference: rejection, MCMC and sequential (population)
ABC with quantile-driven tolerance schedules.

Every algorithm compares summary statistics under the euclidean distance;
raw-data distances are not supported.  Rejection and sequential ABC draw,
simulate, summarise and measure proposals in blocks of ``core.CHUNK_ROWS``,
which fixes the stream layout: block b of a generation draws on the one
stream ``gen_rng.child(b)``, and hits are kept in proposal order.  After
each block, one rule (`_out_of_reach`) ends a generation short of its n
hits: it has spent its budget of ceil(n / 0.01) proposals, or a one-sided
Clopper-Pearson upper bound on its hit rate lies below the rate that the
rest of its budget needs.  A fixed-tolerance rejection run then raises a
`RuntimeError` giving hits, proposals, budget, rate, tolerance and
generation; a sequential run ends its schedule.  ABC-MCMC runs
`mcmc.rw_metropolis` on a simulation-gated prior: the walk's uniforms and
increments on child streams of one stream, the simulations on that
stream itself, and only for proposals whose prior clears the acceptance
floor.  The sequential sampler perturbs resampled particles with
a Gaussian kernel whose covariance is twice the weighted empirical
covariance (Beaumont, Cornuet, Marin & Robert 2009), and corrects with
importance weights prior / (mixture of kernels), whose O(N^2)
denominator is evaluated in blocks of particles.  A generation is an
`AbcPopulation`, a `montecarlo.WeightedSample` (uniform weights after
rejection) with its tolerance, summaries and distances.
`regression_adjust` removes the remaining tolerance-induced spread from a
population by the local-linear regression of Beaumont, Zhang & Balding
(2002).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import special

from .core import (
    CHUNK_ROWS,
    DegenerateWeightsError,
    RngStream,
    categorical_cdf,
)
from .mcmc import Chain, below_floor, rw_metropolis
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
_MIN_OUTPUT = 100  # the fewest particles an abc_pmc generation holds
# a generation stops early once a one-sided Clopper-Pearson upper bound on
# its hit rate falls below the rate that the rest of its budget needs; each
# of its at most ceil(budget / CHUNK_ROWS) block checks takes level
# _STOP_LEVEL / that count, so one whose rate is at least the rate it needs
# at every check is stopped early with probability at most _STOP_LEVEL
# (Bonferroni)
_STOP_LEVEL = 0.05
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
    acceptance fraction in [_ACCEPT_FLOOR, 1], so that the quantile pilot
    makes at most n_output / _ACCEPT_FLOOR proposals) must be given.
    Summaries are compared by `euclidean_distance`."""

    n_output: int
    tolerance: Optional[float] = None
    quantile: Optional[float] = None

    def __post_init__(self):
        if (self.tolerance is None) == (self.quantile is None):
            raise ValueError("set exactly one of tolerance and quantile")
        if self.tolerance is not None and not self.tolerance >= 0:
            raise ValueError("tolerance must be nonnegative")
        if self.quantile is not None and not _ACCEPT_FLOOR <= self.quantile <= 1.0:
            raise ValueError(f"quantile must lie between the acceptance floor "
                             f"{_ACCEPT_FLOOR} and 1, got {self.quantile!r}")
        if self.n_output < 1:
            raise ValueError("n_output must be positive")


@dataclass(frozen=True)
class AbcPopulation(WeightedSample):
    """The weighted accepted particles of one ABC generation, with the
    summaries and distances they achieved and the tolerance in force when
    they were accepted.  `abandoned_proposals` counts the proposals of a
    later generation that fell short of its hits and was dropped, so that
    the last population of a run that ended that way accounts for them."""

    epsilon: float
    t: int
    distances: np.ndarray  # (N,)
    n_proposals: int
    summaries: np.ndarray  # (N, k)
    abandoned_proposals: int = 0


def _observed_summary(model: SimulableModel, y_obs) -> np.ndarray:
    return np.asarray(model.summary(np.asarray(y_obs)[None]), dtype=float)[0]


class _TooFewHits(RuntimeError):
    """A generation fell short of its hits: its budget ran out, or the hits
    it still misses are out of reach of the rest of its budget.
    `proposals` counts what it made."""

    def __init__(self, message: str, proposals: int):
        super().__init__(message)
        self.proposals = proposals


def _out_of_reach(hits: int, proposals: int, n: int, budget: int, checks: int) -> bool:
    """Whether a generation with `hits` of its n hits after `proposals` of
    its `budget` proposals stops: its budget is spent, or the one-sided
    Clopper-Pearson upper bound on its hit rate, at level
    _STOP_LEVEL / checks, lies below the rate (n - hits) / (budget -
    proposals) that the rest of its budget needs."""
    return proposals == budget or hits < proposals and special.betaincinv(
        hits + 1, proposals - hits, 1.0 - _STOP_LEVEL / checks) < (n - hits) / (budget - proposals)


def _accept_in_order(propose, model: SimulableModel, eta_obs, eps: float,
                     n: int, rng: RngStream, t: int = 0, budget=None):
    """The first n proposals within `eps`, in proposal order: (particles,
    summaries, distances, proposals made), or `_TooFewHits` once
    `_out_of_reach` holds after a block, `budget` by default
    ceil(n / _ACCEPT_FLOOR).  If every proposal hits, it never holds.

    Block b, cut to the budget, draws on ``rng.child(b)``: `propose(size, r)`
    returns the proposals and the mask of those inside the prior's support,
    then one batched simulate, summary and distance covers the rows inside.
    """
    if budget is None:
        budget = int(np.ceil(n / _ACCEPT_FLOOR))
    checks = -(-budget // CHUNK_ROWS)
    parts = []
    accepted = n_prop = 0
    while accepted < n:
        if _out_of_reach(accepted, n_prop, n, budget, checks):
            raise _TooFewHits(
                f"generation {t}: acceptance probability too low for {n} hits in "
                f"{budget} proposals: {accepted} accepted in {n_prop} proposals "
                f"(rate {accepted / n_prop:.3g}); tolerance {eps} is too small", n_prop)
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
    distance test are kept, or a `RuntimeError` gives the acceptance rate
    once `_accept_in_order` gives up on them.  With a `quantile`, a single
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
    return AbcPopulation(points=particles,
                         log_weights=np.zeros(len(particles)),
                         epsilon=eps, t=0, distances=distances,
                         n_proposals=n_prop, summaries=summaries)


def abc_mcmc(model: SimulableModel, y_obs, config: AbcConfig, cov,
             n_iter: int, rng: RngStream) -> Chain:
    """Likelihood-free MCMC at a fixed tolerance (Marjoram, Molitor, Plagnol
    & Tavare 2003): `mcmc.rw_metropolis`, increment covariance `cov`, on the
    log prior, or -inf where a fresh simulation misses the tolerance, an
    unbiased 0/1 likelihood estimate (pseudo-marginal; Andrieu & Roberts
    2009).  It starts from one rejection hit on ``rng.child(0)`` (within
    100 prior proposals, or a `RuntimeError`) and walks on
    ``walk = rng.child(1)``: the walk's uniforms and increments on
    ``walk.child(0)`` and ``walk.child(1)``, each step's simulation on
    `walk` itself.  A step simulates only when its log prior clears the
    acceptance floor (the test order of Marjoram et al.): a prior that
    alone lies `below_floor` is a rejection with no simulation, so a flat
    prior simulates at every step, and a peaked one skips the simulations
    of its far-off proposals, which moves the later draws on `walk` but
    not the law of the chain.  `log_posts` holds each state's log prior."""
    if config.tolerance is None:
        raise ValueError("abc_mcmc needs a fixed tolerance")
    eta_obs = _observed_summary(model, y_obs)
    theta = abc_reject(model, y_obs, replace(config, n_output=1), rng.child(0)).points[0]
    walk = rng.child(1)

    def log_target(prop, floor):
        row = prop[None, :]
        lp = float(model.log_prior(row)[0])
        if lp == -np.inf or below_floor(lp, floor):
            return -np.inf
        hit = euclidean_distance(
            model.summary(model.simulate(row, walk)), eta_obs)[0] <= config.tolerance
        return lp if hit else -np.inf

    lp = float(model.log_prior(theta[None, :])[0])
    states, log_priors, accepts = rw_metropolis(log_target, cov, theta, lp, n_iter, walk)
    return Chain(states=states, log_posts=log_priors, accept_count=sum(accepts),
                 n_proposals=n_iter,
                 proposal_meta={"family": "abc-mcmc",
                                "tolerance": config.tolerance})


def abc_pmc(model: SimulableModel, y_obs, config: AbcConfig,
            n_generations: int, rng: RngStream) -> list:
    """Sequential ABC through a decreasing tolerance schedule.

    Every generation holds ``config.n_output`` particles, at least 100.
    Generation 0 is quantile-based rejection from the prior; each later
    generation resamples by weight, perturbs with an inflated-covariance
    Gaussian kernel, accepts at the configured quantile of the previous
    generation's distances, and reweights by prior over kernel mixture.
    Block b of generation t draws on the one stream ``rng.child(t).child(b)``
    its ``core.CHUNK_ROWS`` ancestor uniforms, one matrix of kernel noise and
    the simulations of the proposals inside the prior's support; that fixed
    block size keeps runs bit-reproducible for a fixed (seed, config).
    A fixed-tolerance config is a `ValueError`.  The run returns the
    finished generations as soon as the schedule stops strictly decreasing
    or a generation is dropped short of its hits by `_accept_in_order`; the
    proposals the dropped one made land in the last finished one's
    `abandoned_proposals`.
    """
    if config.quantile is None:
        raise ValueError("abc_pmc needs a quantile schedule, not a fixed tolerance")
    n = config.n_output
    if n < _MIN_OUTPUT:
        raise ValueError(f"n_output must be at least {_MIN_OUTPUT}")
    if n_generations < 2:
        raise ValueError("n_generations must be at least 2")
    eta_obs = _observed_summary(model, y_obs)
    populations = [abc_reject(model, y_obs, config, rng.child(0))]
    for t in range(1, n_generations):
        prev = populations[-1]
        eps = float(np.quantile(prev.distances, config.quantile))
        if not eps < prev.epsilon:
            break
        _, cov = prev.moments()
        kernel = GaussianProposal.from_moments(np.zeros(len(cov)), cov, _KERNEL_SCALE)
        cum = categorical_cdf(prev.log_weights)

        def propose(size, r):
            ancestors = cum.searchsorted(r.uniform(size) * cum[-1], side="right")
            thetas = prev.points[ancestors] + kernel.draw_many(size, r)
            return thetas, np.asarray(model.log_prior(thetas)) > -np.inf

        try:
            particles, summaries, distances, n_prop = _accept_in_order(
                propose, model, eta_obs, eps, n, rng.child(t), t)
        except _TooFewHits as short:
            populations[-1] = replace(prev, abandoned_proposals=short.proposals)
            break
        log_weights = (np.asarray(model.log_prior(particles), dtype=float)
                       - kernel_mixture_logpdf(particles, prev.points,
                                               prev.normalized_log_weights, kernel))
        pop = AbcPopulation(points=particles, log_weights=log_weights,
                            epsilon=eps, t=t, distances=distances,
                            n_proposals=n_prop, summaries=summaries)
        if ess(pop) < 10:
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
    w = pop.normalized_weights()
    offsets = pop.summaries - np.asarray(eta_obs, dtype=float)
    design = np.column_stack([np.ones(len(pop)), offsets])
    root_w = np.sqrt(w)[:, None]
    coef, *_ = np.linalg.lstsq(root_w * design, root_w * pop.points, rcond=None)
    return replace(pop, points=pop.points - offsets @ coef[1:])


def probit_abc(model: ProbitModel, config: AbcConfig, rng: RngStream,
               n_generations: int = 10) -> AbcPopulation:
    """Sequential ABC for the probit posterior.

    Each proposal simulates pseudo-responses y* ~ Bernoulli(Phi(X beta))
    through one `probit_simulator`, whose scratch the run's blocks share:
    one random byte per response, plus a double for the one response in
    about 256 that its byte leaves open.  It is summarised by X'y*,
    whitened once per run by X' diag(Phi(1 - Phi)) X at the maximum
    likelihood estimate; the observed response goes through the same map.
    The final generation is regression-adjusted on its summaries and
    returned.
    """
    beta_hat, _ = probit_mle(model)
    whitener = probit_summary_whitener(model, beta_hat)

    sim = SimulableModel(
        sample_prior=lambda n, r: sample_gprior(model, n, r),
        simulate=probit_simulator(model),
        summary=lambda ys: probit_abc_summary(model, ys, whitener),
        log_prior=lambda betas: gprior_logpdf_many(model, betas),
    )
    pops = abc_pmc(sim, model.response, config, n_generations, rng)
    return regression_adjust(pops[-1], _observed_summary(sim, model.response))

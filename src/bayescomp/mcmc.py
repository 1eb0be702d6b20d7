"""Metropolis-Hastings, Gibbs and hybrid samplers with chain diagnostics.

A uniform is consumed on every acceptance test, including certain-accept
steps, so RNG stream positions stay aligned across proposal variants.  No
burn-in is discarded here; trimming is a post-processing concern.

The probit Gibbs sampler runs all its chains in one fused lockstep loop,
`probit_gibbs_groups`, one stream per chain, over groups of chains: each
group is one probit model, all groups share one response, and a sweep
draws the latents of every chain in one `truncated_normal_positive` call.
One model's replicates are the one-group case and a single chain
(`probit_gibbs_run`) the group of one; a group's R chains come back as
(R, n_iter, p) arrays, each bit-identical to a run of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import MvnParams, RngStream, log_ndtr, truncated_normal_positive
from .model import BayesModel, log_posterior
from .probit import ProbitModel, ProbitSweep, probit_mle

__all__ = [
    "Chain",
    "RwProposal",
    "mh_run",
    "rw_mh_run",
    "probit_gibbs_run",
    "probit_gibbs_groups",
    "gibbs_chain",
    "mwg_probit_overparam_run",
    "chain_diagnostics",
]


@dataclass(frozen=True)
class Chain:
    """Ordered MCMC states with acceptance counts and, for samplers with an
    accept step, the log-posterior of each state (None otherwise)."""

    states: np.ndarray  # (n_iter, p)
    log_posts: np.ndarray | None
    accept_count: int
    n_proposals: int
    proposal_meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.states.shape[0]

    @property
    def acceptance_rate(self) -> float:
        if self.n_proposals == 0:
            return float("nan")
        return self.accept_count / self.n_proposals


@dataclass(frozen=True)
class RwProposal:
    """Centered Gaussian random-walk increment; symmetric by construction."""

    covariance: np.ndarray
    scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "scale", MvnParams(np.zeros(cov.shape[0]), cov).scale)

    def draw(self, theta, rng: RngStream):
        return theta + self.scale @ rng.generator.standard_normal(len(theta))

    def log_density(self, to, frm):  # symmetric: contributes nothing to the ratio
        return 0.0


def mh_run(target: BayesModel, proposal, theta0, n_iter: int, rng: RngStream) -> Chain:
    """Generic Metropolis-Hastings.

    `proposal` provides draw(theta, rng) and log_density(to, frm); the
    target is evaluated at each candidate as a one-row batch, the
    acceptance ratio is computed entirely in log domain, and a rejection
    repeats the exact previous state.
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float))
    lp = float(log_posterior(target, theta[None, :])[0])
    if lp == -np.inf:
        raise ValueError("theta0 outside the target support")
    states = np.empty((n_iter, theta.shape[0]))
    log_posts = np.empty(n_iter)
    accept = 0
    for t in range(n_iter):
        cand = np.atleast_1d(np.asarray(proposal.draw(theta, rng), dtype=float))
        if any(map(math.isnan, cand.tolist())):  # a list scan beats np.isnan here
            raise FloatingPointError("proposal returned NaN")
        lp_cand = float(log_posterior(target, cand[None, :])[0])
        delta = lp_cand - lp
        if lp_cand > -np.inf:
            delta += proposal.log_density(theta, cand) - proposal.log_density(cand, theta)
        u = 1.0 - rng.uniform()  # in (0, 1]; drawn even on certain accepts
        if np.log(u) <= delta:
            theta, lp = cand, lp_cand
            accept += 1
        states[t] = theta
        log_posts[t] = lp
    return Chain(states, log_posts, accept, n_iter, {"family": "metropolis-hastings"})


def rw_mh_run(target: BayesModel, cov, theta0, n_iter: int, rng: RngStream) -> Chain:
    """Random-walk Metropolis: `mh_run` with Gaussian increments of
    covariance `cov` (an `RwProposal`), which is symmetric, so the
    acceptance ratio is the posterior ratio alone."""
    chain = mh_run(target, RwProposal(cov), theta0, n_iter, rng)
    return replace(chain, proposal_meta={"family": "random-walk-metropolis"})


def probit_gibbs_groups(groups, n_iter: int):
    """Data-augmentation Gibbs for probit posteriors: every chain of every
    group in one lockstep, each chain started at its model's MLE.

    `groups` is a sequence of (model, rngs) pairs, one `ProbitModel` and
    the streams of its chains each; all models share one response.  A
    sweep writes eta = S X beta of every chain into one (R, n) buffer,
    draws all R rows of latents in one `truncated_normal_positive` call,
    then each group's conditional means and coefficients (`ProbitSweep`)
    straight into its output rows.  Chain r draws from its own stream alone
    and in the order of a single chain, so it is bit-identical to a run of
    its own on that stream.  A NaN or -inf eta in any chain raises
    `FloatingPointError` for the whole call.

    Returns one (states, means) pair per group: the (R_g, n_iter, p)
    states and the (R_g, n_iter, p) conditional means
    E[beta | z] = c (X'X)^{-1} X'z, row t the mean that sweep t drew its
    state around.  The means are all that Chib's ordinate and the
    Rao-Blackwellised averages need of the latents, which are never stored.
    """
    response = groups[0][0].response
    if not all(np.array_equal(model.response, response) for model, _ in groups):
        raise ValueError("the models of a lockstep run must share one response")
    streams = [rng for _, rngs in groups for rng in rngs]
    eta = np.empty((len(streams), len(response)))
    w = np.empty_like(eta)
    blocks, betas, lo = [], [], 0
    for model, rngs in groups:
        k = len(rngs)
        states, means = np.empty((2, k, n_iter, model.dimension))
        blocks.append((ProbitSweep(model), rngs, eta[lo:lo + k], w[lo:lo + k],
                       states, means, np.empty((k, model.dimension))))
        betas.append(np.tile(probit_mle(model)[0], (k, 1)))
        lo += k
    for t in range(n_iter):
        for (sweep, _, eta_g, _, _, _, _), beta in zip(blocks, betas):
            sweep.eta(beta, eta_g)
        truncated_normal_positive(eta, streams, w)
        for g, (sweep, rngs, _, w_g, states, means, noise) in enumerate(blocks):
            m = sweep.mean(w_g, means[:, t])
            betas[g] = sweep.draw(m, sweep.noise(rngs, noise), states[:, t])
    return [(states, means) for *_, states, means, _ in blocks]


def gibbs_chain(states: np.ndarray) -> Chain:
    """The Chain of a probit Gibbs run's (n_iter, p) states.  A Gibbs sweep
    has no accept step, so no log-posterior is evaluated."""
    return Chain(states, None, 0, 0, {"family": "gibbs-data-augmentation"})


def probit_gibbs_run(model: ProbitModel, n_iter: int, rng: RngStream):
    """One chain of `probit_gibbs_groups` on stream `rng`: the group of one
    chain.  Returns (chain, means), means the (n_iter, p) conditional means
    E[beta | z], one row per sweep."""
    (states, means), = probit_gibbs_groups([(model, [rng])], n_iter)
    return gibbs_chain(states[0]), means[0]


def mwg_probit_overparam_run(x, y, n_iter: int, rng: RngStream,
                             beta_step_var: float = 1.0,
                             logsigma_step_var: float = 0.04) -> Chain:
    """Metropolis-within-Gibbs for the overparameterised single-covariate
    probit (success probability Phi(x * beta / sigma)).

    The prior is sigma^{-4} exp(-1/sigma^2) exp(-beta^2/50); beta moves by a
    normal random walk and sigma^2 through a log-normal proposal on sigma
    (one inner step per block, which suffices for stationarity).
    `logsigma_step_var` is the variance of the log-sigma increment.  The
    likelihood is the one-covariate probit log-likelihood at beta / sigma,
    sum_i log Phi(s_i x_i beta / sigma), evaluated by `core.log_ndtr` in an
    (n,) array the run owns: the bits of a one-row `probit_loglik_rows`
    call.
    """
    signed_x = (2.0 * np.asarray(y, dtype=float) - 1.0) * np.asarray(x, dtype=float)
    terms = np.empty_like(signed_x)

    def logpost(beta, sigma2):
        if sigma2 <= 0:
            return -np.inf
        np.multiply(signed_x, beta / math.sqrt(sigma2), out=terms)
        log_ndtr(terms)
        lp = -2.0 * np.log(sigma2) - 1.0 / sigma2 - beta**2 / 50.0
        return float(terms.sum() + lp)

    gen = rng.generator
    beta, sigma2 = 0.0, 1.0
    lp = logpost(beta, sigma2)
    states = np.empty((n_iter, 2))
    log_posts = np.empty(n_iter)
    acc_beta = acc_sigma = 0
    sd_beta = np.sqrt(beta_step_var)
    sd_logsigma = np.sqrt(logsigma_step_var)
    for t in range(n_iter):
        cand = beta + sd_beta * gen.standard_normal()
        lp_cand = logpost(cand, sigma2)
        if np.log(1.0 - gen.random()) <= lp_cand - lp:
            beta, lp = cand, lp_cand
            acc_beta += 1
        # log-normal proposal on sigma; in sigma^2 coordinates the proposal
        # ratio contributes log(sigma2_cand / sigma2)
        sigma2_cand = sigma2 * np.exp(2.0 * sd_logsigma * gen.standard_normal())
        lp_cand = logpost(beta, sigma2_cand)
        delta = lp_cand - lp + np.log(sigma2_cand / sigma2)
        if np.log(1.0 - gen.random()) <= delta:
            sigma2, lp = sigma2_cand, lp_cand
            acc_sigma += 1
        states[t] = (beta, sigma2)
        log_posts[t] = lp
    return Chain(states, log_posts, acc_beta + acc_sigma, 2 * n_iter,
                 {"family": "metropolis-within-gibbs",
                  "accept_rate_beta": acc_beta / n_iter,
                  "accept_rate_sigma2": acc_sigma / n_iter})


def _autocorrelations(x: np.ndarray, max_lag: int) -> np.ndarray:
    x = x - np.mean(x)
    var = np.mean(x * x)
    if var == 0:
        return np.full(max_lag + 1, np.nan)
    n = len(x)
    acf = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        acf[k] = np.mean(x[: n - k] * x[k:]) / var
    return acf


def _iact(acf: np.ndarray) -> float:
    """Integrated autocorrelation time from the autocorrelations `acf`
    (lag 0 first) by Geyer's initial-positive-sequence truncation."""
    if np.any(np.isnan(acf)):
        return np.inf
    total = 0.0
    k = 1
    while k + 1 < len(acf):
        pair = acf[k] + acf[k + 1]
        if pair <= 0:
            break
        total += pair
        k += 2
    return 1.0 + 2.0 * total


def chain_diagnostics(chain: Chain) -> dict:
    """Acceptance rate, autocorrelations to lag 50, integrated
    autocorrelation time and the resulting chain ESS, per coordinate.

    Each coordinate's autocorrelations are computed once, to the IACT's
    lag min(n - 2, 2 floor(sqrt(n)) + 50), which is at least 70 for the
    n >= 100 states required here; the reported ones are their first 51.
    """
    states = np.atleast_2d(chain.states)
    n = states.shape[0]
    if n < 100:
        raise ValueError("need at least 100 states for diagnostics")
    max_lag = min(n - 2, 2 * int(np.sqrt(n)) + 50)
    acfs = [_autocorrelations(states[:, j], max_lag) for j in range(states.shape[1])]
    iact = np.asarray([_iact(a) for a in acfs])
    return {
        "acceptance_rate": chain.acceptance_rate,
        "autocorrelations": np.stack([a[:51] for a in acfs]),
        "iact": iact,
        "chain_ess": n / iact,
    }

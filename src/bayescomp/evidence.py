"""Marginal likelihoods and Bayes factors.

Six routes to the same quantity: prior-sample Monte Carlo, importance
sampling, bridge sampling (plain and embedded for nested models of
unequal dimension), the lighter-tailed harmonic-mean estimator with a
truncated Gaussian instrumental density, the plain harmonic mean (kept
only as a cautionary baseline, always flagged unreliable), and the
posterior-ordinate identity evaluated with Rao-Blackwellised full
conditionals.  Everything runs in log domain and every estimate carries
a batch-means standard error on the log scale so the methods can be
compared on equal footing.

Two rules build every estimate: one evidence is the log-mean-exp of its
per-draw log terms (or a log numerator minus it) with that mean's
batch-means error and the Kong effective sample size of the terms as
weights, unreliable under two terms or when that ESS is under 5% of them;
`bayes_factor` subtracts two of one method, adds their errors in
quadrature, keeps the smaller ESS and ORs their flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy import special

from .core import DegenerateWeightsError, RngStream, log_sum_exp
from .model import BayesModel, log_posterior
from .montecarlo import GaussianProposal, importance_sample, kong_ess

__all__ = [
    "EvidenceEstimate",
    "PhiSpec",
    "LinearGaussianOmega",
    "BridgeError",
    "bayes_factor",
    "prior_proposal",
    "bf_prior_mc",
    "bf_importance",
    "bridge_sampling",
    "bridge_embedded",
    "harmonic_mean_gd",
    "newton_raftery_hm",
    "chib_marginal",
]

_METHODS = ("prior-mc", "importance", "bridge", "bridge-embedded",
            "harmonic-gd", "harmonic-nr", "chib")
_N_BATCHES = 50
_BRIDGE_TOL = 1e-8
# an estimate whose terms' weight ESS is under this share of them is unreliable
_MIN_ESS_SHARE = 0.05
# harmonic_mean_gd's fewest posterior draws inside its ellipsoid
_MIN_INSIDE = 10


class BridgeError(RuntimeError):
    """Bridge iteration failed: no overlap or no convergence."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class EvidenceEstimate:
    """Log evidence or log Bayes factor with its log-scale standard error.

    `weight_ess` is the `montecarlo.kong_ess` of the per-draw log terms
    that the estimate averages; a Bayes factor carries the smaller of its
    two."""

    log_value: float
    std_error: float
    method: str
    n_draws: int
    unreliable: bool = False
    weight_ess: float = math.nan

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


@dataclass(frozen=True)
class PhiSpec:
    """Instrumental density for the harmonic-mean estimator: a Gaussian
    matched to the posterior sample, truncated to its own mass-`coverage`
    ellipsoid so the truncation constant is known in closed form.  The
    ellipsoid is the Gaussian's highest-density region, the points whose
    density is at least that at squared Mahalanobis radius chi2_p(coverage)."""

    center: np.ndarray
    scatter: np.ndarray
    coverage: float
    _gauss: GaussianProposal = field(init=False, repr=False, compare=False)
    _log_floor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must lie in (0, 1]")
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scatter", np.asarray(self.scatter, dtype=float))
        gauss = GaussianProposal.from_moments(center, self.scatter)
        object.__setattr__(self, "_gauss", gauss)
        # a one-row batch, not a point: bench/spans.py counts the rows of
        # each GaussianProposal.logpdf_many call by the length of its result
        object.__setattr__(self, "_log_floor", gauss.logpdf_many(center[None, :])[0]
                           - special.gammaincinv(center.shape[0] / 2, self.coverage))

    @classmethod
    def from_sample(cls, sample, coverage: float) -> "PhiSpec":
        sample = np.atleast_2d(np.asarray(sample, dtype=float))
        return cls(center=sample.mean(axis=0),
                   scatter=np.cov(sample, rowvar=False).reshape(
                       sample.shape[1], sample.shape[1]),
                   coverage=coverage)

    def log_density_many(self, thetas: np.ndarray) -> np.ndarray:
        """Log of the truncated Gaussian; -inf outside the ellipsoid."""
        log_gauss = self._gauss.logpdf_many(thetas)
        return np.where(log_gauss >= self._log_floor,
                        log_gauss - np.log(self.coverage), -np.inf)


def _log_mean_exp(v: np.ndarray) -> float:
    return log_sum_exp(v) - np.log(len(v))


def _batch_log_means(v: np.ndarray) -> np.ndarray:
    """Log of batch means of exp(v), for batch-means errors on the log scale:
    the min(_N_BATCHES, n) consecutive batches of near-equal size, padded
    with -inf into one table and reduced by one `log_sum_exp`."""
    n = len(v)
    b = min(_N_BATCHES, n)
    edges = np.linspace(0, n, b + 1).astype(int)
    sizes = np.diff(edges)
    table = np.full((b, sizes.max()), -np.inf)
    rows = np.repeat(np.arange(b), sizes)
    table[rows, np.arange(n) - edges[rows]] = v
    return log_sum_exp(table, axis=1) - np.log(sizes)


def _batch_se(v: np.ndarray) -> float:
    """Standard error of log-mean-exp(v) by batch means and the delta method:
    sd(r_b) / (sqrt(b) mean(r_b)) over the linear-scale batch means r_b, so a
    batch with no mass counts as a zero mean instead of voiding the error.
    0 when a single term makes batching meaningless (`_estimate` flags it)."""
    batches = _batch_log_means(v)
    if len(batches) < 2 or not np.isfinite(np.max(batches)):
        return 0.0
    r = np.exp(batches - np.max(batches))
    return float(np.std(r, ddof=1) / (np.sqrt(len(r)) * np.mean(r)))


def _estimate(log_terms, method: str, log_numerator: float | None = None,
              unreliable: bool = False) -> EvidenceEstimate:
    """One evidence from its per-draw log terms: their log-mean-exp, or
    `log_numerator` minus it where the terms average the evidence's
    reciprocal, with the `_batch_se` error of that mean and the terms'
    `kong_ess`, flagged when it is under `_MIN_ESS_SHARE` of them."""
    log_mean = _log_mean_exp(log_terms)
    n = len(log_terms)
    ess = kong_ess(log_terms)
    return EvidenceEstimate(
        log_value=log_mean if log_numerator is None else log_numerator - log_mean,
        std_error=_batch_se(log_terms), method=method, n_draws=n,
        unreliable=unreliable or n < 2 or ess < _MIN_ESS_SHARE * n, weight_ess=ess)


def bayes_factor(num: EvidenceEstimate, den: EvidenceEstimate) -> EvidenceEstimate:
    """num / den for two estimates of one method: the log values subtract,
    the errors add in quadrature, the draws sum, the smaller weight ESS
    stays and either flag flags it."""
    if num.method != den.method:
        raise ValueError(f"cannot divide a {num.method} estimate by a {den.method} one")
    return EvidenceEstimate(log_value=num.log_value - den.log_value,
                            std_error=float(np.hypot(num.std_error, den.std_error)),
                            method=num.method, n_draws=num.n_draws + den.n_draws,
                            unreliable=num.unreliable or den.unreliable,
                            weight_ess=float(np.fmin(num.weight_ess, den.weight_ess)))


def _prior_loglik_draws(model: BayesModel, n: int, rng: RngStream,
                        label: str) -> np.ndarray:
    if model.sample_prior is None:
        raise ValueError(f"{label} has no prior sampler")
    ll = np.asarray(model.log_likelihood(model.sample_prior(n, rng)), dtype=float)
    if not np.any(ll > -np.inf):
        raise ValueError(f"all likelihood values are zero under the {label} prior")
    return ll


def bf_prior_mc(model0: BayesModel, model1: BayesModel, n0: int, n1: int,
                rng: RngStream) -> EvidenceEstimate:
    """Bayes factor B01 from prior-sample averages of the two likelihoods."""
    ll0 = _prior_loglik_draws(model0, n0, rng.child(0), "model0")
    if model1 is model0 and n1 == n0:
        ll1 = ll0  # shared draws: the ratio is exactly 1
    else:
        ll1 = _prior_loglik_draws(model1, n1, rng.child(1), "model1")
    return bayes_factor(_estimate(ll0, "prior-mc"), _estimate(ll1, "prior-mc"))


def prior_proposal(model: BayesModel):
    """The prior as an importance proposal (logpdf_many/draw_many pair),
    under which bf_importance reduces exactly to bf_prior_mc on the same
    stream."""
    return SimpleNamespace(logpdf_many=model.log_prior, draw_many=model.sample_prior)


def bf_importance(model0: BayesModel, model1: BayesModel, g0, g1,
                  n0: int, n1: int, rng: RngStream) -> EvidenceEstimate:
    """Bayes factor B01 from two normalised-proposal importance estimates
    of the evidences: the log-weights likelihood + prior - proposal of
    `importance_sample` are the per-draw log integrands."""
    parts = []
    for i, (model, g, n) in enumerate([(model0, g0, n0), (model1, g1, n1)]):
        try:
            ws = importance_sample(lambda pts, m=model: log_posterior(m, pts),
                                   g.logpdf_many, g.draw_many, n, rng.child(i))
        except DegenerateWeightsError as exc:
            raise ValueError(f"all importance terms are zero for model{i}") from exc
        parts.append(_estimate(ws.log_weights, "importance"))
    return bayes_factor(*parts)


def bridge_sampling(logpost0_unnorm: Callable, logpost1_unnorm: Callable,
                    sample0, sample1, max_iter: int = 100, log_r0: float = 0.0,
                    method: str = "bridge") -> EvidenceEstimate:
    """Bayes factor B01 by the iterated quasi-optimal bridge.

    Both unnormalised log-posteriors must live on the same space and map
    (N, p) points to (N,) values; the two samples come from the respective
    posteriors.  The fixed point in the ratio r = B01 is iterated in log
    domain from r = exp(`log_r0`), 1 by default, until the change in log r
    drops below ``_BRIDGE_TOL`` = 1e-8; `BridgeError` if that takes more
    than `max_iter` steps.  The error is that of its two averages' ratio.
    """
    sample0 = np.atleast_2d(np.asarray(sample0, dtype=float))
    sample1 = np.atleast_2d(np.asarray(sample1, dtype=float))
    n0, n1 = sample0.shape[0], sample1.shape[0]
    # log l = logpost0 - logpost1 at each point of each sample
    log_l1 = np.asarray(logpost0_unnorm(sample1)) - np.asarray(logpost1_unnorm(sample1))
    log_l0 = np.asarray(logpost0_unnorm(sample0)) - np.asarray(logpost1_unnorm(sample0))
    if not np.any(np.isfinite(log_l1)) or not np.any(np.isfinite(log_l0)):
        raise BridgeError("no overlap: density ratio degenerate on the samples")
    log_s1 = np.log(n1 / (n0 + n1))
    log_s0 = np.log(n0 / (n0 + n1))

    def terms(log_r):  # the fixed point's numerator and denominator terms
        return (log_l1 - np.logaddexp(log_s1 + log_l1, log_s0 + log_r),
                -np.logaddexp(log_s1 + log_l0, log_s0 + log_r))

    log_r = float(log_r0)
    trace = [log_r]
    for _ in range(max_iter):
        num_terms, den_terms = terms(log_r)
        prev, log_r = log_r, _log_mean_exp(num_terms) - _log_mean_exp(den_terms)
        trace.append(log_r)
        if abs(log_r - prev) < _BRIDGE_TOL:
            break
    else:
        raise BridgeError(f"bridge iteration did not converge in {max_iter} steps",
                          trace=trace)
    ratio = bayes_factor(*(_estimate(t, method) for t in terms(log_r)))
    return replace(ratio, log_value=float(log_r))


@dataclass(frozen=True)
class LinearGaussianOmega:
    """Normalised pseudo-posterior for the extra parameter of the bigger
    model: psi | theta ~ N(intercept + coef theta, cov).  The usual fit is
    a least-squares regression on a pilot sample of the bigger model.
    `logpdf` and `draw` take one theta per row."""

    intercept: np.ndarray  # (q,)
    coef: np.ndarray  # (q, p)
    cov: np.ndarray  # (q, q)
    _noise: GaussianProposal = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "intercept",
                           np.atleast_1d(np.asarray(self.intercept, dtype=float)))
        object.__setattr__(self, "coef",
                           np.atleast_2d(np.asarray(self.coef, dtype=float)))
        object.__setattr__(self, "cov",
                           np.atleast_2d(np.asarray(self.cov, dtype=float)))
        # psi - mean(theta) has this one distribution whatever theta is
        object.__setattr__(self, "_noise", GaussianProposal.from_moments(
            np.zeros(self.cov.shape[0]), self.cov))

    @classmethod
    def fit(cls, thetas, psis) -> "LinearGaussianOmega":
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        psis = np.asarray(psis, dtype=float)
        if psis.ndim == 1:
            psis = psis[:, None]
        design = np.column_stack([np.ones(thetas.shape[0]), thetas])
        coefs, *_ = np.linalg.lstsq(design, psis, rcond=None)
        resid = psis - design @ coefs
        dof = max(thetas.shape[0] - design.shape[1], 1)
        cov = resid.T @ resid / dof
        return cls(intercept=coefs[0], coef=coefs[1:].T, cov=cov)

    def _means(self, thetas):
        return self.intercept + np.atleast_2d(thetas) @ self.coef.T

    def logpdf(self, psis, thetas) -> np.ndarray:
        """(N,) log-densities of psis[i] given thetas[i]."""
        return self._noise.logpdf_many(np.atleast_2d(psis) - self._means(thetas))

    def draw(self, thetas, rng: RngStream) -> np.ndarray:
        """One psi per row of thetas, as an (N, q) array."""
        means = self._means(thetas)
        return means + self._noise.draw_many(means.shape[0], rng)


def bridge_embedded(model0: BayesModel, model1: BayesModel, psi0,
                    omega, sample0, sample1, rng: RngStream) -> EvidenceEstimate:
    """Bridge sampling between models of unequal dimension.

    model0 must be the psi = psi0 slice of model1.  The theta-sample of
    model0 is completed with psi drawn from the normalised pseudo-posterior
    `omega` (batched `draw(thetas, rng)` and `logpdf(psis, thetas)`), after
    which the plain bridge runs on the matched-dimension pair.  The
    estimate does not depend on the choice of omega, only its variance
    does.
    """
    psi0 = np.atleast_1d(np.asarray(psi0, dtype=float))
    sample0 = np.atleast_2d(np.asarray(sample0, dtype=float))
    sample1 = np.atleast_2d(np.asarray(sample1, dtype=float))
    d0 = model0.dimension
    if model1.dimension != d0 + psi0.shape[0]:
        raise ValueError("psi0 length must bridge the model dimensions")
    theta_probe = sample0[:1]
    slice_gap = abs(float(model0.log_likelihood(theta_probe)[0])
                    - float(model1.log_likelihood(
                        np.column_stack([theta_probe, psi0[None, :]]))[0]))
    if not slice_gap < 1e-8:
        raise ValueError("model0 is not the psi = psi0 slice of model1")
    augmented0 = np.column_stack([sample0, omega.draw(sample0, rng)])

    def logpost0_aug(v):
        theta, psi = v[:, :d0], v[:, d0:]
        return log_posterior(model0, theta) + omega.logpdf(psi, theta)

    return bridge_sampling(logpost0_aug,
                           lambda v: log_posterior(model1, v),
                           augmented0, sample1, method="bridge-embedded")


def harmonic_mean_gd(logprior_plus_loglik: Callable, posterior_sample,
                     phi: PhiSpec) -> EvidenceEstimate:
    """Evidence by the instrumental-density harmonic identity: the
    posterior average of phi / (prior x likelihood) equals 1/m(y) for any
    normalised phi inside the posterior support.  phi is the truncated
    moment-matched Gaussian of `phi`, whose light tails keep the variance
    finite.  A draw outside the ellipsoid adds a -inf term whatever its
    target value, so the target is evaluated only at the draws inside; it
    must map each row to a value that does not depend on the other rows.
    Fewer than 10 draws inside is a `RuntimeError` that says how many of
    how many fell inside, and to draw more."""
    sample = np.atleast_2d(np.asarray(posterior_sample, dtype=float))
    log_phi = phi.log_density_many(sample)
    inside = log_phi > -np.inf
    n_inside = int(np.count_nonzero(inside))
    if n_inside < _MIN_INSIDE:
        n = sample.shape[0]
        hint = "raise n_draws" if n < _MIN_INSIDE else "raise n_draws or coverage"
        raise RuntimeError(
            f"only {n_inside} of {n} posterior draws fall in the phi ellipsoid, "
            f"and a stable estimate needs {_MIN_INSIDE}: {hint}")
    terms = np.full(sample.shape[0], -np.inf)
    terms[inside] = log_phi[inside] - np.asarray(logprior_plus_loglik(sample[inside]),
                                                 dtype=float)
    return _estimate(terms, "harmonic-gd", log_numerator=0.0)


def newton_raftery_hm(loglik: Callable, posterior_sample) -> EvidenceEstimate:
    """Plain harmonic mean of the likelihood over posterior draws.

    Unbiased for 1/m(y) but with typically infinite variance; every
    estimate is flagged unreliable and the batch-means error should not
    be trusted."""
    sample = np.atleast_2d(np.asarray(posterior_sample, dtype=float))
    if sample.shape[0] == 0:
        raise ValueError("posterior sample is empty")
    terms = -np.asarray(loglik(sample), dtype=float)
    return _estimate(terms, "harmonic-nr", log_numerator=0.0, unreliable=True)


def chib_marginal(model: BayesModel, log_ordinate: Callable, latent_stats,
                  theta_star) -> EvidenceEstimate:
    """Evidence from the posterior-ordinate identity at a single point:
    log m(y) = log f(y|theta*) + log pi(theta*) - log pihat(theta*|y), the
    ordinate estimated by averaging the normalised full conditional of the
    parameter over the retained Gibbs sweeps.  `log_ordinate(theta, stats)`
    is that conditional (a completion's `log_full_conditional_param`), and
    `latent_stats` holds one row per sweep of the statistic it takes (for
    the probit E[beta | z], the second value `probit_gibbs_run` returns).
    The numerator log f(y|theta*) + log pi(theta*) is one `log_posterior`
    call on the (p,) point theta*."""
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    ords = np.asarray(log_ordinate(theta_star, np.asarray(latent_stats, float)), float)
    if not np.any(ords > -np.inf):
        raise RuntimeError(
            "full conditional underflows at theta*; pick a higher-density point")
    return _estimate(ords, "chib", log_numerator=log_posterior(model, theta_star))

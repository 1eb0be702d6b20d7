"""Probit regression under the unit-information g-prior.

Covers the likelihood, the prior, maximum likelihood by Fisher scoring, the
truncated-normal latent-variable completion driving the data-augmentation
Gibbs sampler, and the pseudo-data simulator and whitened X'y summary used
by the likelihood-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special

from .core import MvnParams, RngStream, map_rows, rowwise, truncated_normal_positive
from .model import BayesModel, LatentCompletion

__all__ = [
    "ProbitModel",
    "NonConvergenceError",
    "probit_loglik_rows",
    "probit_loglik",
    "probit_loglik_many",
    "gprior_logpdf_many",
    "probit_mle",
    "sample_gprior",
    "ProbitSweep",
    "probit_latent_completion",
    "probit_simulator",
    "probit_summary_whitener",
    "probit_abc_summary",
    "probit_bayes_model",
]

# Fisher scoring stops once the largest score entry is below
# _MLE_TOL * (1 + |loglik|), and gives up after _MLE_MAX_ITER iterations
_MLE_TOL = 1e-10
_MLE_MAX_ITER = 50


class NonConvergenceError(RuntimeError):
    """Fisher scoring failed to converge (typically complete separation)."""


@dataclass(frozen=True)
class ProbitModel:
    """Design matrix and binary response under the g-prior with g = n.

    The prior is beta ~ N(0, g * (X'X)^{-1}); with g = n its information is
    that of a single observation.  X'X must be invertible, checked here.
    The signs s_i = 2 y_i - 1 and the signed design S X (rows s_i x_i) are
    built once: every probit kernel works on eta = S X beta, whose entry i
    is s_i x_i'beta exactly, since negation is exact in floating point.
    """

    design: np.ndarray
    response: np.ndarray
    xtx: np.ndarray = field(init=False, repr=False, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)
    signed_design: np.ndarray = field(init=False, repr=False, compare=False)
    prior: MvnParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.design, dtype=float))
        y = np.asarray(self.response)
        object.__setattr__(self, "design", X)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("design and response lengths differ")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("response entries must be 0 or 1")
        object.__setattr__(self, "response", y.astype(float))
        signs = 2.0 * self.response - 1.0
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "signed_design", signs[:, None] * X)
        xtx = X.T @ X
        object.__setattr__(self, "xtx", xtx)
        try:
            np.linalg.cholesky(xtx)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError("X'X is singular; g-prior undefined")
        object.__setattr__(self, "prior", MvnParams(np.zeros(X.shape[1]),
                                                    self.prior_covariance()))

    @property
    def n_obs(self) -> int:
        return self.design.shape[0]

    @property
    def dimension(self) -> int:
        return self.design.shape[1]

    @property
    def prior_scale(self) -> float:
        """The g of the g-prior: the number of observations."""
        return float(self.n_obs)

    def prior_covariance(self) -> np.ndarray:
        return self.prior_scale * np.linalg.inv(self.xtx)


def probit_loglik_rows(signed_design: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """sum_i log Phi(s_i x_i'beta) for each row beta of the (m, p) `betas`,
    with s_i x_i the rows of the (n, p) `signed_design` and s_i = 2 y_i - 1.

    This is the probit log-likelihood, accumulated through the log-CDF so
    that deep-tail observations do not underflow.  Every row is
    bit-identical to its one-row call whatever m is (`rowwise`).  It takes
    a bare signed design, so a design whose X'X is singular is evaluated too.
    """
    eta = rowwise(betas, signed_design)
    return special.log_ndtr(eta, out=eta).sum(axis=1)


def probit_loglik_many(model: ProbitModel, betas: np.ndarray) -> np.ndarray:
    """Bernoulli log-likelihood with success probability Phi(x'beta), one
    value per row of the (m, p) array `betas`, by `probit_loglik_rows`.
    Rows are evaluated in blocks (`map_rows`) so the (rows x n) temporaries
    stay bounded.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 2 or betas.shape[1] != model.dimension:
        raise ValueError(f"betas has shape {betas.shape}, expected (m, {model.dimension})")
    return map_rows(lambda b: probit_loglik_rows(model.signed_design, b), betas)


def probit_loglik(model: ProbitModel, beta) -> float:
    """Log-likelihood at a single coefficient vector (one-row batch)."""
    return float(probit_loglik_many(model, np.asarray(beta, dtype=float)[None, :])[0])


def gprior_logpdf_many(model: ProbitModel, betas: np.ndarray) -> np.ndarray:
    """Exact N(0, g (X'X)^{-1}) log-density at each row of `betas`."""
    return model.prior.logpdf_many(betas)


def sample_gprior(model: ProbitModel, n: int, rng: RngStream) -> np.ndarray:
    """n draws from the g-prior, rows are coefficient vectors."""
    return rng.standard_normal((n, model.dimension)) @ model.prior.scale.T


def probit_mle(model: ProbitModel):
    """Maximum likelihood by Fisher scoring with step-halving.

    Returns (beta_hat, cov_hat) where cov_hat is the inverse Fisher
    information at beta_hat (the covariance standard software reports).
    Raises NonConvergenceError when the iteration diverges, which is the
    symptom of complete separation in the data.
    """
    X, y = model.design, model.response
    beta = np.zeros(model.dimension)
    ll = probit_loglik(model, beta)
    for iteration in range(1, _MLE_MAX_ITER + 1):
        eta = X @ beta
        phi = np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)
        big = special.ndtr(eta)
        small = special.ndtr(-eta)
        denom = np.clip(big * small, 1e-300, None)
        score_terms = phi * (y - big) / denom
        grad = X.T @ score_terms
        w = phi * phi / denom
        info = X.T @ (w[:, None] * X)
        # the gradient is a length-n sum, so its attainable accuracy scales
        # with the magnitude of the objective; an absolute test stalls at
        # the rounding noise floor on larger datasets
        if np.max(np.abs(grad)) < _MLE_TOL * (1.0 + abs(ll)):
            if ll > -1e-8:
                # a perfect fit is complete separation: the true supremum
                # sits at infinity and the gradient only vanished by underflow
                raise NonConvergenceError(
                    "perfect fit reached: data are completely separated")
            return beta, np.linalg.inv(info)
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(f"singular information matrix at iteration {iteration}")
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            cand_ll = probit_loglik(model, cand)
            if cand_ll >= ll or not np.isfinite(ll):
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = cand_ll
        if np.linalg.norm(beta) > 1e8:
            raise NonConvergenceError(
                f"coefficients diverging at iteration {iteration}: likely complete separation"
            )
    raise NonConvergenceError(f"no convergence after {_MLE_MAX_ITER} Fisher scoring iterations")


@dataclass(frozen=True)
class ProbitSweep:
    """The blocks of one data-augmentation Gibbs sweep of a probit model,
    for R chains at once, row r of every array one chain (a 1-D array is
    the one row of a single chain).

    Latents z_i ~ N(x_i'beta, 1) constrained to the side given by y_i are
    z = s (eta + t), with eta = S X beta (`eta`) and t a standard normal
    above -eta (`core.truncated_normal_positive` draws w = eta + t).  The
    coefficients' conditional given z is the exact normal N(m, c (X'X)^{-1}),
    m = c (X'X)^{-1} X'z and c = g / (g + 1), which `mean` computes from w
    through the pre-signed map ``mean_map`` = (c (X'X)^{-1} X') diag(s):
    multiplying by s_i = +-1 is exact, so each product keeps its bits.
    `draw` returns m plus the conditional's factor times normals that
    `noise` draws one stream at a time.  Each writes into `out` when given;
    the products are `core.rowwise`, so every row is bit-identical to a
    one-row call.
    """

    model: ProbitModel
    mean_map: np.ndarray = field(init=False, repr=False, compare=False)
    cond: MvnParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.model.prior_scale
        shrink = g / (g + 1.0)
        xtx_inv = np.linalg.inv(self.model.xtx)
        proj = shrink * (xtx_inv @ self.model.design.T)  # mean map z -> beta
        object.__setattr__(self, "mean_map", proj * self.model.signs)
        object.__setattr__(self, "cond", MvnParams(np.zeros(self.model.dimension),
                                                   shrink * xtx_inv))

    def eta(self, betas, out=None) -> np.ndarray:
        """S X beta for each row of the (R, p) `betas`, as (R, n)."""
        return rowwise(betas, self.model.signed_design, out)

    def mean(self, w, out=None) -> np.ndarray:
        """E[beta | z] for each row w = s z of the (R, n) `w`, as (R, p)."""
        return rowwise(w, self.mean_map, out)

    def noise(self, rngs, out=None) -> np.ndarray:
        """(R, p) standard normals, row r drawn from stream ``rngs[r]``."""
        if out is None:
            out = np.empty((len(rngs), self.model.dimension))
        for rng, row in zip(rngs, out):
            rng.generator.standard_normal(out=row)
        return out

    def draw(self, means, noise, out=None) -> np.ndarray:
        """A draw of N(m, c (X'X)^{-1}) for each row m of `means`: m plus
        the conditional's factor times the row of `noise`."""
        out = rowwise(noise, self.cond.scale, out)
        out += means
        return out


def probit_latent_completion(model: ProbitModel) -> LatentCompletion:
    """Truncated-normal completion of the probit posterior, one sweep of
    `ProbitSweep` split into its two blocks.

    `sample_latents` draws the latents given the (R, p) coefficients and
    returns their statistic m = E[beta | z], not z; `sample_params` draws
    the coefficients given m, and the normalised log-density exposed for
    posterior-ordinate evidence estimation takes one m per row.  Row r
    draws from stream ``rngs[r]`` alone and equals a one-chain call on its
    stream bit for bit.
    """
    sweep = ProbitSweep(model)

    def sample_latents(betas, rngs):
        return sweep.mean(truncated_normal_positive(sweep.eta(np.asarray(betas, float)), rngs))

    def sample_params(means, rngs):
        return sweep.draw(means, sweep.noise(rngs))

    def log_full_conditional_param(beta, means):
        return sweep.cond.logpdf_many(np.asarray(beta, float) - means)

    return LatentCompletion(sample_latents, sample_params, log_full_conditional_param)


def probit_simulator(model: ProbitModel):
    """The `simulate(betas, rng)` of one likelihood-free run: pseudo-responses
    y*_bi ~ Bernoulli(Phi(x_i'beta_b)), one row per row b of the (B, p)
    `betas`, through the latent form y*_bi = 1{e_bi > -x_i'beta_b} with
    e_bi standard normal.

    A call draws its B x n normals from `rng` into a scratch array it owns,
    writes -X beta into a second one and compares them in place, so a run
    of equal blocks allocates no (B x n) array after its first.  The scratch
    grows only when a call has more rows than any before it.  The returned
    array is that scratch: it is valid until the next call.
    """
    neg_design_t = np.negative(model.design).T  # the layout of design.T
    e = neg_eta = np.empty((0, model.n_obs))

    def simulate(betas, rng: RngStream) -> np.ndarray:
        nonlocal e, neg_eta
        betas = np.asarray(betas, dtype=float)
        rows = betas.shape[0]
        if rows > len(e):
            e, neg_eta = np.empty((rows, model.n_obs)), np.empty((rows, model.n_obs))
        ys = e[:rows]
        rng.generator.standard_normal(out=ys)
        # -(X beta) bit for bit: negation is exact and rounding symmetric
        np.matmul(betas, neg_design_t, out=neg_eta[:rows])
        return np.greater(ys, neg_eta[:rows], out=ys)

    return simulate


def probit_summary_whitener(model: ProbitModel, beta) -> np.ndarray:
    """Inverse Cholesky factor W of V = X' diag(Phi(1 - Phi)) X at beta.

    V is the covariance of X'y under the model at beta, so W X'y has
    identity covariance there and euclidean distances between whitened
    summaries are Mahalanobis distances between the raw ones.
    """
    prob = special.ndtr(model.design @ np.asarray(beta, dtype=float))
    v = model.design.T @ ((prob * (1.0 - prob))[:, None] * model.design)
    whitener = MvnParams(np.zeros(model.dimension), v).whitener
    if whitener is None:
        raise np.linalg.LinAlgError("summary covariance is singular at beta")
    return whitener


def probit_abc_summary(model: ProbitModel, ys, whitener: np.ndarray) -> np.ndarray:
    """Whitened score-type summaries W X'y, one per row y of `ys`.

    X'y, the sufficient statistic of the logit model, keeps nearly all the
    information about beta under the probit link too, so ABC on it
    approaches the posterior as the tolerance shrinks.  The observed
    response goes through the same map as a one-row batch.
    """
    return (np.asarray(ys, dtype=float) @ model.design) @ whitener.T


def probit_bayes_model(model: ProbitModel) -> BayesModel:
    """Close the probit posterior over its data as a sampler-facing target.

    `log_posterior` has checked the shape of the rows by the time either
    density sees them, so the likelihood closes over the row kernel itself,
    not over `probit_loglik_many`, which checks the shape for direct
    callers; the prior is the g-prior's own `logpdf_many`."""
    loglik_rows = partial(probit_loglik_rows, model.signed_design)
    return BayesModel(
        dimension=model.dimension,
        log_prior=model.prior.logpdf_many,
        log_likelihood=lambda b: map_rows(loglik_rows, b),
        sample_prior=lambda n, rng: sample_gprior(model, n, rng),
    )
